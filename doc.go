// Package p2prank is a Go reproduction of "Distributed Page Ranking in
// Structured P2P Networks" (Shi, Yu, Yang, Wang — ICPP 2003): open-
// system PageRank, the asynchronous distributed algorithms DPR1/DPR2,
// site-hash page partitioning, direct vs indirect score transmission
// over a Pastry overlay, and the §4.5 bandwidth feasibility model.
//
// Start at examples/quickstart for the whole workflow in one file,
// DESIGN.md for the system inventory, and EXPERIMENTS.md for the
// paper-vs-measured results. `go run ./cmd/dprsim -exp NAME`
// regenerates each figure and table of the paper's evaluation, and
//
//	go test -run '^$' -bench Experiment -benchtime 1x ./internal/experiments/
//
// times every one of them at the size its golden file pins.
package p2prank
