// Package p2prank is a Go reproduction of "Distributed Page Ranking in
// Structured P2P Networks" (Shi, Yu, Yang, Wang — ICPP 2003): open-
// system PageRank, the asynchronous distributed algorithms DPR1/DPR2,
// site-hash page partitioning, direct vs indirect score transmission
// over a Pastry overlay, and the §4.5 bandwidth feasibility model.
//
// Start at examples/quickstart for the whole workflow in one file,
// DESIGN.md for the system inventory, and EXPERIMENTS.md for the
// paper-vs-measured results. bench_test.go in this directory
// regenerates every figure and table of the paper's evaluation:
//
//	go test -bench=. -benchmem .
package p2prank
