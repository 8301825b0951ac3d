package engine

import (
	"fmt"

	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// Phase is one step of an incremental crawl-and-rank sequence: a crawl
// snapshot plus the mapping of its pages onto the previous snapshot
// (crawler.CarryOver produces it). CarryOver[p] is the previous-phase
// index of page p, or -1 for a newly crawled page; nil CarryOver
// cold-starts the phase.
type Phase struct {
	Graph     *webgraph.Graph
	CarryOver []int32
}

// RunIncremental ranks a sequence of growing crawl snapshots, warm-
// starting each phase from the previous phase's final ranks. This is
// the paper's §4.3 dynamic-graph setting made concrete: the crawler
// keeps discovering pages, and rankers continue from their current
// state instead of recomputing from zero. cfg.Graph is ignored; each
// phase supplies its own. The returned slice holds one Result per
// phase, each with its own centralized reference.
func RunIncremental(cfg Config, phases []Phase) ([]*Result, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("engine: no phases")
	}
	results := make([]*Result, 0, len(phases))
	var prev vecmath.Vec
	for i, ph := range phases {
		if ph.Graph == nil {
			return nil, fmt.Errorf("engine: phase %d has no graph", i)
		}
		c := cfg
		c.Graph = ph.Graph
		var initial vecmath.Vec
		if prev != nil && ph.CarryOver != nil {
			if len(ph.CarryOver) != ph.Graph.NumPages() {
				return nil, fmt.Errorf("engine: phase %d carry-over has length %d, want %d",
					i, len(ph.CarryOver), ph.Graph.NumPages())
			}
			initial = vecmath.NewVec(ph.Graph.NumPages())
			for p, co := range ph.CarryOver {
				if co >= 0 {
					if int(co) >= len(prev) {
						return nil, fmt.Errorf("engine: phase %d carry-over index %d out of range", i, co)
					}
					initial[p] = prev[co]
				}
			}
		}
		res, err := run(c, initial)
		if err != nil {
			return nil, fmt.Errorf("engine: phase %d: %w", i, err)
		}
		results = append(results, res)
		prev = res.Final
	}
	return results, nil
}
