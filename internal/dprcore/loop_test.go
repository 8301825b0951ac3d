package dprcore

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"p2prank/internal/pagerank"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
)

// testGroup hand-builds a two-page group with one efferent edge per
// entry of eff (destination group → entries, each sorted by DstLocal),
// laid out flat as BuildGroups would, and with groups 1–3 as its
// afferent sources — bypassing BuildGroups so tests control the shapes
// exactly.
func testGroup(t testing.TB, idx int, eff map[int32][]EffEntry) *Group {
	t.Helper()
	sys, err := pagerank.NewGroupSystem(2, nil, []int32{1, 2}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	grp := &Group{
		Index:   idx,
		Pages:   []int32{int32(2 * idx), int32(2*idx + 1)},
		Deg:     []int32{1, 2},
		Sys:     sys,
		AffSrcs: []int32{1, 2, 3},
	}
	for dst := range eff {
		grp.EffDsts = append(grp.EffDsts, dst)
	}
	slices.Sort(grp.EffDsts)
	for _, dst := range grp.EffDsts {
		grp.EffOff = append(grp.EffOff, int32(len(grp.Eff)))
		merged := int32(0)
		for i, e := range eff[dst] {
			if i == 0 || e.DstLocal != eff[dst][i-1].DstLocal {
				merged++
			}
			grp.EffLinks += int64(e.Links)
		}
		grp.EffMerged = append(grp.EffMerged, merged)
		grp.Eff = append(grp.Eff, eff[dst]...)
	}
	grp.EffOff = append(grp.EffOff, int32(len(grp.Eff)))
	return grp
}

func testParams() Params {
	return Params{Alg: DPR1, Alpha: 0.85, InnerEpsilon: 1e-12, SendProb: 1}
}

const testMeanWait = 10

// recordSender captures the emitted chunk/flush sequence.
type recordSender struct {
	sends   []transport.ScoreChunk
	flushes int
}

func (s *recordSender) Send(from int, c transport.ScoreChunk) error {
	s.sends = append(s.sends, c)
	return nil
}

func (s *recordSender) Flush(from int) error {
	s.flushes++
	return nil
}

// constRNG returns fixed draws: Float64() = f, Exp(mean) = e·mean.
type constRNG struct{ f, e float64 }

func (r constRNG) Float64() float64         { return r.f }
func (r constRNG) Exp(mean float64) float64 { return r.e * mean }

func chunk(src, dst int32, round int64, values ...float64) transport.ScoreChunk {
	c := transport.ScoreChunk{SrcGroup: src, DstGroup: dst, Round: round}
	for i, v := range values {
		c.Entries = append(c.Entries, transport.ScoreEntry{DstLocal: int32(i), Value: v})
	}
	return c
}

func TestStaleChunksIgnored(t *testing.T) {
	l, err := NewLoop(testGroup(t, 0, nil), testParams(), testMeanWait, &recordSender{}, constRNG{e: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.Deliver(chunk(1, 0, 5, 2.0))
	l.Deliver(chunk(1, 0, 3, 99.0)) // older round: must not replace
	l.Deliver(chunk(1, 0, 5, 77.0)) // same round: must not replace either
	l.refreshX()
	if l.x[0] != 2.0 {
		t.Fatalf("x[0] = %v, stale chunk overwrote fresh one", l.x[0])
	}
	l.Deliver(chunk(1, 0, 6, 4.0))
	l.refreshX()
	if l.x[0] != 4.0 {
		t.Fatalf("x[0] = %v, fresher chunk not applied", l.x[0])
	}
}

func TestRefreshXSumsSourcesInOrder(t *testing.T) {
	l, err := NewLoop(testGroup(t, 0, nil), testParams(), testMeanWait, &recordSender{}, constRNG{e: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.Deliver(chunk(3, 0, 1, 1.0, 10.0))
	l.Deliver(chunk(1, 0, 1, 2.0))
	l.refreshX()
	if l.x[0] != 3.0 || l.x[1] != 10.0 {
		t.Fatalf("x = %v, want [3 10]", l.x)
	}
}

func TestDeliverWrongGroupPanics(t *testing.T) {
	l, err := NewLoop(testGroup(t, 0, nil), testParams(), testMeanWait, &recordSender{}, constRNG{e: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("misrouted chunk did not panic")
		}
	}()
	l.Deliver(chunk(1, 2, 1, 1.0))
}

// Chunks reach a live peer from the wire: one this loop could not have
// been sent is refused with ErrBadChunk and changes nothing, so the
// next ComputePhase still runs.
func TestDeliverRejectsBadChunks(t *testing.T) {
	l, err := NewLoop(testGroup(t, 0, nil), testParams(), testMeanWait, &recordSender{}, constRNG{e: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Deliver(chunk(1, 0, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]transport.ScoreChunk{
		"page N":         {SrcGroup: 1, DstGroup: 0, Round: 2, Entries: []transport.ScoreEntry{{DstLocal: 2, Value: 9}}},
		"page -1":        {SrcGroup: 1, DstGroup: 0, Round: 2, Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 9}, {DstLocal: -1, Value: 9}}},
		"unknown source": {SrcGroup: 7, DstGroup: 0, Round: 2, Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 9}}},
		"itself":         {SrcGroup: 0, DstGroup: 0, Round: 2, Entries: []transport.ScoreEntry{{DstLocal: 0, Value: 9}}},
	} {
		if err := l.Deliver(c); !errors.Is(err, ErrBadChunk) {
			t.Errorf("%s: Deliver = %v, want ErrBadChunk", name, err)
		}
	}
	l.ComputePhase()
	if l.x[0] != 0.5 || l.x[1] != 0 {
		t.Fatalf("x = %v after refused chunks, want [0.5 0]", l.x)
	}
}

func TestSetInitialRanksAfterStepFails(t *testing.T) {
	l, err := NewLoop(testGroup(t, 0, nil), testParams(), testMeanWait, &recordSender{}, constRNG{e: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetInitialRanks(vecmath.Vec{0.5, 0.5, 0.5}); err == nil {
		t.Fatal("wrong-length initial ranks accepted")
	}
	l.ComputePhase()
	if err := l.SetInitialRanks(vecmath.Vec{0.5, 0.5}); err == nil {
		t.Fatal("SetInitialRanks accepted after first iteration")
	}
}

func TestPublishYMergesAndScales(t *testing.T) {
	// Two efferent entries toward group 1's page 0 (from both local
	// pages) and one toward page 1: publishY must merge the adjacent
	// DstLocal-0 contributions into one entry.
	eff := map[int32][]EffEntry{1: {
		{LocalSrc: 0, DstLocal: 0, Links: 1},
		{LocalSrc: 1, DstLocal: 0, Links: 2},
		{LocalSrc: 1, DstLocal: 1, Links: 1},
	}}
	s := &recordSender{}
	l, err := NewLoop(testGroup(t, 0, eff), testParams(), testMeanWait, s, constRNG{e: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetInitialRanks(vecmath.Vec{1, 2}); err != nil {
		t.Fatal(err)
	}
	l.loops++ // bypass ComputePhase: publish the hand-set ranks directly
	l.publishY()
	if len(s.sends) != 1 || s.flushes != 1 {
		t.Fatalf("got %d sends, %d flushes, want 1 and 1", len(s.sends), s.flushes)
	}
	c := s.sends[0]
	if c.SrcGroup != 0 || c.DstGroup != 1 || c.Round != 1 || c.Links != 4 {
		t.Fatalf("chunk header %+v wrong", c)
	}
	if len(c.Entries) != 2 {
		t.Fatalf("got %d entries, want 2 (merged)", len(c.Entries))
	}
	// 1·0.85·1/1 + 2·0.85·2/2 = 2.55 toward page 0; 1·0.85·2/2 = 0.85.
	if c.Entries[0].Value != 0.85*1+2*0.85*1 || c.Entries[1].Value != 0.85 {
		t.Fatalf("entry values %+v wrong", c.Entries)
	}
}

func TestSendProbZeroPublishesNothing(t *testing.T) {
	eff := map[int32][]EffEntry{1: {{LocalSrc: 0, DstLocal: 0, Links: 1}}}
	p := testParams()
	p.SendProb = 0
	s := &recordSender{}
	l, err := NewLoop(testGroup(t, 0, eff), p, testMeanWait, s, constRNG{e: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.Step()
	if len(s.sends) != 0 || s.flushes != 0 {
		t.Fatalf("p = 0 still sent %d chunks, flushed %d times", len(s.sends), s.flushes)
	}
}

func TestDriveStopsWhenWaiterDoes(t *testing.T) {
	l, err := NewLoop(testGroup(t, 0, nil), testParams(), testMeanWait, &recordSender{}, constRNG{e: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	Drive(l, waiterFunc(func(d float64) bool {
		if d != 10 { // Exp(MeanWait) with the e=1 stub
			t.Fatalf("Wait(%v), want the loop's drawn wait 10", d)
		}
		n++
		return n <= 3
	}))
	if l.Loops() != 3 {
		t.Fatalf("Drive ran %d iterations, want 3", l.Loops())
	}
}

type waiterFunc func(d float64) bool

func (f waiterFunc) Wait(d float64) bool { return f(d) }

func TestNewLoopValidation(t *testing.T) {
	grp := testGroup(t, 0, nil)
	ok := testParams()
	for name, tc := range map[string]struct {
		grp      *Group
		p        Params
		meanWait float64
		sender   Sender
		rng      RNG
		want     string
	}{
		"nil group":     {nil, ok, 10, &recordSender{}, constRNG{}, "nil"},
		"nil sender":    {grp, ok, 10, nil, constRNG{}, "nil"},
		"nil rng":       {grp, ok, 10, &recordSender{}, nil, "nil"},
		"bad alg":       {grp, Params{Alg: Algorithm(7), Alpha: 0.85}, 10, &recordSender{}, constRNG{}, "algorithm"},
		"alpha 0":       {grp, Params{Alg: DPR1}, 10, &recordSender{}, constRNG{}, "alpha"},
		"alpha 1.2":     {grp, Params{Alg: DPR1, Alpha: 1.2}, 10, &recordSender{}, constRNG{}, "alpha"},
		"neg epsilon":   {grp, Params{Alg: DPR1, Alpha: 0.85, InnerEpsilon: -1}, 10, &recordSender{}, constRNG{}, "InnerEpsilon"},
		"sendprob 1.5":  {grp, Params{Alg: DPR1, Alpha: 0.85, SendProb: 1.5}, 10, &recordSender{}, constRNG{}, "SendProb"},
		"neg mean wait": {grp, ok, -1, &recordSender{}, constRNG{}, "mean wait"},
	} {
		_, err := NewLoop(tc.grp, tc.p, tc.meanWait, tc.sender, tc.rng)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", name, err, tc.want)
		}
	}
}

func TestStepAllocationFreeWithNilAndNoopObserver(t *testing.T) {
	for name, obs := range map[string]telemetry.Observer{"nil": nil, "noop": telemetry.Noop{}} {
		for _, alg := range []Algorithm{DPR1, DPR2} {
			p := testParams()
			p.Alg = alg
			p.Observer = obs
			l, err := NewLoop(testGroup(t, 0, nil), p, testMeanWait, &recordSender{}, constRNG{e: 1})
			if err != nil {
				t.Fatal(err)
			}
			l.Deliver(chunk(1, 0, 1, 0.25, 0.5))
			l.Step()
			if n := testing.AllocsPerRun(50, func() { l.Step() }); n != 0 {
				t.Errorf("%s/%v: steady-state Step allocates %.1f times, want 0", name, alg, n)
			}
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if DPR1.String() != "DPR1" || DPR2.String() != "DPR2" {
		t.Fatal("algorithm names wrong")
	}
	if s := Algorithm(9).String(); !strings.Contains(s, "9") {
		t.Fatalf("unknown algorithm prints %q", s)
	}
}
