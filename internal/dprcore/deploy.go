package dprcore

import (
	"fmt"

	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// Deployment is one crawl turned into K rankers. The simulator's
// engine, the live cluster and a single dprnode process all build it
// through Deploy, so a seed and a schedule deploy identically wherever
// they run.
type Deployment struct {
	// Params are the validated parameters every ranker runs with:
	// Fault.Seed defaulted to the run seed, and the in-memory checkpoint
	// sink installed when a churn event restarts from a checkpoint.
	Params Params
	// Seed is the run seed (1 when Deploy was given 0).
	Seed uint64
	// Ring is the Pastry ring over nodeid.RankerIDs(K) the pages are
	// partitioned over.
	Ring overlay.Network
	// Assign maps every page to its ranker.
	Assign *partition.Assignment
	// Groups holds each ranker's slice of the crawl, indexed by ranker.
	Groups []*Group
	// Checkpoints is the store RestartCheckpoint restarts load from
	// (nil unless the churn schedule has one).
	Checkpoints *MemCheckpointer
}

// Ring builds the ring k page rankers share: Pastry over the k IDs of
// nodeid.RankerIDs. It refuses k ≤ 0. Deploy builds its ring here, and
// so does code that partitions without deploying.
func Ring(k int) (overlay.Network, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dprcore: K = %d, must be positive", k)
	}
	ring, err := pastry.New(nodeid.RankerIDs(k))
	if err != nil {
		return nil, err
	}
	return ring, nil
}

// Deploy builds the ring of k rankers (Ring), partitions g over it with
// strategy and builds every ranker's group. p must carry the driver's
// wait defaults (Params.Defaults); it is validated here along with the
// churn schedule (ChurnCheckpoints).
func Deploy(g *webgraph.Graph, k int, strategy partition.Strategy, p Params, seed uint64, churn []ChurnEvent) (*Deployment, error) {
	ring, err := Ring(k)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	if p.Fault.Enabled() && p.Fault.Seed == 0 {
		p.Fault.Seed = seed
	}
	ckpt, err := ChurnCheckpoints(&p, k, churn)
	if err != nil {
		return nil, err
	}
	assign, err := partition.Assign(g, ring, strategy, seed)
	if err != nil {
		return nil, err
	}
	groups, err := BuildGroups(g, assign, p.Alpha)
	if err != nil {
		return nil, err
	}
	return &Deployment{Params: p, Seed: seed, Ring: ring, Assign: assign, Groups: groups, Checkpoints: ckpt}, nil
}

// PeerSeed is the private seed of live peer i: peers draw their own
// streams, so each needs a seed of its own.
func (d *Deployment) PeerSeed(i int) uint64 { return d.Seed + uint64(i)*7919 }

// Reference computes the centralized PageRank fixed point R* every run
// measures against, at the one standard tolerance.
func Reference(g *webgraph.Graph, alpha float64) (vecmath.Vec, error) {
	ref, err := pagerank.Open(g, pagerank.Options{Alpha: alpha, Epsilon: 1e-12, MaxIter: 100000})
	if err != nil {
		return nil, fmt.Errorf("dprcore: centralized reference: %w", err)
	}
	return ref.Ranks, nil
}

// Stack is the sender chain between a ranker's loop and its wire.
type Stack struct {
	// Sender is what the loops send through: the wire, wrapped by the
	// fault injector and then the reliable layer, each when enabled.
	Sender Sender
	// Faults is the fault injector (nil unless Fault.Enabled()).
	Faults *FaultSender
	// Reliable is the reliable layer (nil unless Reliable.Enabled()).
	Reliable *ReliableSender
}

// NewStack builds p's sender chain over wire and installs p.Observer
// on each layer. Partition windows are measured from epoch on clock's
// axis — the driver's one time axis, whenever the stack is built. fork
// supplies each enabled layer a private stream, faults first; a
// disabled layer forks nothing, so turning it off leaves every other
// draw of the run where it was.
func NewStack(wire Sender, clock Clock, epoch float64, fork func() RNG, p Params) (Stack, error) {
	s := Stack{Sender: wire}
	if p.Fault.Enabled() {
		f, err := NewFaultSender(s.Sender, clock, fork(), p.Fault)
		if err != nil {
			return Stack{}, err
		}
		f.epoch = epoch
		f.Observe(p.Observer)
		s.Sender, s.Faults = f, f
	}
	if p.Reliable.Enabled() {
		r, err := NewReliableSender(s.Sender, clock, fork(), p.Reliable)
		if err != nil {
			return Stack{}, err
		}
		r.Observe(p.Observer)
		s.Sender, s.Reliable = r, r
	}
	return s, nil
}
