package engine

import (
	"reflect"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/simnet"
	"p2prank/internal/transport"
	"p2prank/internal/xrand"
)

// The cross-stack equivalence test: one dprcore.Loop driven two ways —
// by the simulator through the ranker driver, and by dprcore.Drive
// under a scripted clock — must emit a byte-identical chunk sequence
// for the same seed, config, and delivery schedule. This is the
// refactor's core claim stated as a test: drivers decide only when the
// phases run, never what they compute.

// op is one observed Sender call.
type op struct {
	Flush bool
	From  int
	Chunk transport.ScoreChunk
}

type opRecorder struct{ ops []op }

func (r *opRecorder) Send(from int, c transport.ScoreChunk) error {
	r.ops = append(r.ops, op{From: from, Chunk: c})
	return nil
}

func (r *opRecorder) Flush(from int) error {
	r.ops = append(r.ops, op{Flush: true, From: from})
	return nil
}

// delivery is one scripted incoming chunk.
type delivery struct {
	t float64
	c transport.ScoreChunk
}

// scriptWaiter replays the schedule the simulator would produce: wake
// d units after the previous iteration, delivering every scripted
// chunk that arrives before the wake instant, and stop past the
// horizon — exactly when the sim-side ranker's Stop fires.
type scriptWaiter struct {
	now     float64
	horizon float64
	pending []delivery
	loop    *dprcore.Loop
}

func (w *scriptWaiter) Wait(d float64) bool {
	next := w.now + d
	if next > w.horizon {
		return false
	}
	for len(w.pending) > 0 && w.pending[0].t < next {
		if err := w.loop.Deliver(w.pending[0].c); err != nil {
			panic(err) // as the simulator's ranker driver does
		}
		w.pending = w.pending[1:]
	}
	w.now = next
	return true
}

func buildEquivGroups(t *testing.T) []*dprcore.Group {
	t.Helper()
	g := genGraph(t, 800, 7)
	ids := make([]nodeid.ID, 3)
	for i := range ids {
		ids[i] = nodeid.Hash("equiv-ranker-" + string(rune('0'+i)))
	}
	ov, err := pastry.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(g, ov, partition.BySite, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := dprcore.BuildGroups(g, assign, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

func TestSimAndDriveEmitIdenticalChunkSequences(t *testing.T) {
	groups := buildEquivGroups(t)
	// By-site partitioning can leave groups empty; test the first group
	// that owns pages and has someone to talk to.
	var grp *dprcore.Group
	for _, g := range groups {
		if g.N() > 0 && len(g.EffDsts) > 0 {
			grp = g
			break
		}
	}
	if grp == nil {
		t.Fatal("no group has pages and efferent links; pick another seed")
	}
	p := dprcore.Params{
		Alg: dprcore.DPR1, Alpha: 0.85, InnerEpsilon: 1e-10,
		SendProb: 0.7, // < 1, so commit-phase coin flips are exercised
	}
	const meanWait = 5.0
	const horizon = 60.0
	const seed = 42
	// Scripted afferent traffic from another group, fresher each time;
	// integer arrival times cannot collide with Exp-drawn wakes.
	src := (grp.Index + 1) % len(groups)
	var deliveries []delivery
	for i := 0; i < 8; i++ {
		deliveries = append(deliveries, delivery{
			t: float64(3 + 7*i),
			c: transport.ScoreChunk{
				SrcGroup: int32(src), DstGroup: int32(grp.Index), Round: int64(i + 1),
				Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 0.01 * float64(i+1)}},
			},
		})
	}

	// Stack 1: the simulator driving the loop through the ranker driver.
	sim := simnet.New(1)
	simRec := &opRecorder{}
	rk, err := newRanker(grp, p, meanWait, sim, simRec, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	rk.Start()
	for _, d := range deliveries {
		d := d
		sim.At(d.t, func() { rk.Deliver(d.c) })
	}
	sim.At(horizon, rk.Stop)
	sim.Run(0)

	// Stack 2: dprcore.Drive under the scripted waiter, same seed.
	drvRec := &opRecorder{}
	loop, err := dprcore.NewLoop(grp, p, meanWait, drvRec, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	w := &scriptWaiter{horizon: horizon, pending: deliveries, loop: loop}
	dprcore.Drive(loop, w)

	if rk.Loops() == 0 {
		t.Fatal("sim-side ranker never iterated")
	}
	if rk.Loops() != loop.Loops() {
		t.Fatalf("iteration counts diverge: sim %d, drive %d", rk.Loops(), loop.Loops())
	}
	if len(simRec.ops) == 0 {
		t.Fatal("no chunks emitted; test exercises nothing")
	}
	if !reflect.DeepEqual(simRec.ops, drvRec.ops) {
		for i := range simRec.ops {
			if i >= len(drvRec.ops) || !reflect.DeepEqual(simRec.ops[i], drvRec.ops[i]) {
				t.Fatalf("op %d diverges:\nsim:   %+v\ndrive: %+v", i, simRec.ops[i], drvRec.ops[i])
			}
		}
		t.Fatalf("drive emitted %d extra ops", len(drvRec.ops)-len(simRec.ops))
	}
	simRanks, drvRanks := rk.Ranks(), loop.Ranks()
	for i := range simRanks {
		if simRanks[i] != drvRanks[i] {
			t.Fatalf("rank %d diverges: sim %v, drive %v", i, simRanks[i], drvRanks[i])
		}
	}
}
