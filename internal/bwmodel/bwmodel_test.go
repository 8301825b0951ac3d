package bwmodel

import (
	"math"
	"testing"
	"testing/quick"
)

// The headline reproduction: Table 1's exact numbers.
func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1For(DefaultParams(), []float64{1e3, 1e4, 1e5})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		n, seconds, kbps float64
	}{
		{1e3, 7500, 100},
		{1e4, 10500, 10},
		{1e5, 12000, 1},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, w := range want {
		r := rows[i]
		if r.N != w.n {
			t.Errorf("row %d N = %v", i, r.N)
		}
		if math.Abs(r.IterationSeconds-w.seconds) > 1e-6 {
			t.Errorf("N=%v: T = %v s, paper says %v s", w.n, r.IterationSeconds, w.seconds)
		}
		if math.Abs(r.BottleneckKBps-w.kbps)/w.kbps > 1e-9 {
			t.Errorf("N=%v: B = %v KB/s, paper says %v KB/s", w.n, r.BottleneckKBps, w.kbps)
		}
	}
}

func TestPastryHopsQuotedPoints(t *testing.T) {
	for n, want := range map[float64]float64{1e3: 2.5, 1e4: 3.5, 1e5: 4.0} {
		if got := PastryHops(n); got != want {
			t.Errorf("PastryHops(%v) = %v, want %v", n, got, want)
		}
	}
	// Off-grid populations follow log₁₆.
	if got := PastryHops(256); math.Abs(got-2) > 1e-12 {
		t.Errorf("PastryHops(256) = %v, want 2", got)
	}
	if PastryHops(1) != 0 || PastryHops(0.5) != 0 {
		t.Error("degenerate populations should cost 0 hops")
	}
}

func TestFormulas(t *testing.T) {
	p := Params{W: 3e9, N: 1000, H: 2.5, L: 100, R: 48, G: 32, BisectionBps: 100e6}
	if got := p.IndirectDataBytes(); got != 2.5*100*3e9 {
		t.Errorf("D_it = %v", got)
	}
	if got := p.DirectDataBytes(); got != 100*3e9+2.5*48*1e6 {
		t.Errorf("D_dt = %v", got)
	}
	if got := p.IndirectMessages(); got != 32*1000 {
		t.Errorf("S_it = %v", got)
	}
	if got := p.DirectMessages(); got != 3.5*1e6 {
		t.Errorf("S_dt = %v", got)
	}
}

// The §4.4 conclusion: direct wins only for small N.
func TestDirectBetterOnlyForSmallN(t *testing.T) {
	base := DefaultParams()
	base.H = 2.5
	cross := base.MessageCrossoverN()
	if cross <= 1 || cross >= 100 {
		t.Fatalf("message crossover at N = %v, want ≈g/(h+1) ≈ 9", cross)
	}
	small := base
	small.N = 4
	if small.IndirectMessages() <= small.DirectMessages() {
		t.Error("direct should win on messages at N=4")
	}
	big := base
	big.N = 1000
	if big.IndirectMessages() >= big.DirectMessages() {
		t.Error("indirect should win on messages at N=1000")
	}
	if big.IndirectDataBytes() >= big.DirectDataBytes() {
		// At N=1000 with the default parameters hrN² ≈ 1.2e10 ≪ lW,
		// so direct moves fewer bytes; the byte advantage flips only
		// at much larger N.
		hugeD := base
		hugeD.N = 1e6
		if hugeD.IndirectDataBytes() >= hugeD.DirectDataBytes() {
			t.Error("indirect bytes never win even at N=10⁶")
		}
	}
}

func TestMinIterationIntervalErrors(t *testing.T) {
	p := DefaultParams()
	p.N, p.H = 1000, 2.5
	p.BisectionBps = 0
	if _, err := p.MinIterationInterval(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	p = Params{}
	if _, err := p.MinIterationInterval(); err == nil {
		t.Error("zero params accepted")
	}
	q := DefaultParams()
	q.N, q.H = 1000, 2.5
	if _, err := q.MinBottleneckBandwidth(0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := q.MinBottleneckBandwidth(-5); err == nil {
		t.Error("negative interval accepted")
	}
}

// Property: the two constraints are consistent — at T = D_it/bisection,
// per-node bandwidth times N times T reproduces D_it.
func TestConstraintConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		// Derive varied but valid params from the seed.
		n := float64(10 + seed%100000)
		p := DefaultParams()
		p.N = n
		p.H = PastryHops(n)
		if p.H <= 0 {
			return true
		}
		tMin, err := p.MinIterationInterval()
		if err != nil {
			return false
		}
		b, err := p.MinBottleneckBandwidth(tMin)
		if err != nil {
			return false
		}
		return math.Abs(b*p.N*tMin-p.IndirectDataBytes()) < 1e-3*p.IndirectDataBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTable1ForCustomN(t *testing.T) {
	rows, err := Table1For(DefaultParams(), []float64{256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || math.Abs(rows[0].Hops-2) > 1e-12 {
		t.Fatalf("rows = %+v", rows)
	}
	// Formulas 4.1–4.4 and the crossover at h = 2, in the row's units.
	r := rows[0]
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"D_it (GB)", r.IndirectGB, 2 * 100 * 3e9 / 1e9},
		{"D_dt (GB)", r.DirectGB, (100*3e9 + 2*48*256*256) / 1e9},
		{"S_it", r.IndirectMsgs, 32 * 256},
		{"S_dt", r.DirectMsgs, 3 * 256 * 256},
		{"g/(h+1)", r.CrossoverN, 32.0 / 3},
	} {
		if math.Abs(c.got-c.want) > 1e-9*c.want {
			t.Errorf("N=256: %s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
