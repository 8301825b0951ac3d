package dprcore

import (
	"math"
	"strings"
	"testing"

	"p2prank/internal/transport"
)

// fakeClock is a hand-cranked Clock: After enqueues, advance fires
// everything due.
type fakeClock struct {
	now float64
	q   []timer
}

type timer struct {
	at float64
	fn func()
}

func (c *fakeClock) Now() float64 { return c.now }

func (c *fakeClock) After(d float64, fn func()) {
	c.q = append(c.q, timer{at: c.now + d, fn: fn})
}

// advance fires every timer due by to, in deadline order, including
// timers the callbacks arm along the way (a retransmission timer
// re-arms itself from its own expiry).
func (c *fakeClock) advance(to float64) {
	c.now = to
	for {
		best := -1
		for i, tm := range c.q {
			if tm.at <= to && (best < 0 || tm.at < c.q[best].at) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		tm := c.q[best]
		c.q = append(c.q[:best], c.q[best+1:]...)
		tm.fn()
	}
}

func TestFaultConfigValidate(t *testing.T) {
	for name, cfg := range map[string]FaultConfig{
		"drop > 1":       {DropProb: 1.1},
		"negative drop":  {DropProb: -0.1},
		"dup > 1":        {DupProb: 2},
		"delay no mean":  {DelayProb: 0.5},
		"negative delay": {DelayProb: 0.5, MeanDelay: -3},
	} {
		if cfg.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := (FaultConfig{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if (FaultConfig{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(FaultConfig{DropProb: 0.1}).Enabled() {
		t.Error("drop config reports disabled")
	}
}

func TestNewFaultSenderValidation(t *testing.T) {
	if _, err := NewFaultSender(nil, nil, constRNG{}, FaultConfig{}); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewFaultSender(&recordSender{}, nil, nil, FaultConfig{}); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewFaultSender(&recordSender{}, nil, constRNG{}, FaultConfig{DelayProb: 0.5, MeanDelay: 1}); err == nil {
		t.Error("delay config without clock accepted")
	}
	if _, err := NewFaultSender(&recordSender{}, nil, constRNG{}, FaultConfig{DropProb: 2}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFaultSenderDrops(t *testing.T) {
	inner := &recordSender{}
	fs, err := NewFaultSender(inner, nil, constRNG{f: 0.1}, FaultConfig{DropProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 0 || fs.Stats().Dropped != 1 {
		t.Fatalf("chunk not dropped: %d sends, %d dropped", len(inner.sends), fs.Stats().Dropped)
	}
	// Flush still reaches the inner sender — drops are per chunk.
	if err := fs.Flush(0); err != nil {
		t.Fatal(err)
	}
	if inner.flushes != 1 {
		t.Fatal("flush not forwarded")
	}
}

func TestFaultSenderDuplicates(t *testing.T) {
	inner := &recordSender{}
	fs, err := NewFaultSender(inner, nil, constRNG{f: 0.1}, FaultConfig{DupProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 2 || fs.Stats().Duplicated != 1 {
		t.Fatalf("got %d sends, %d duplicated, want 2 and 1", len(inner.sends), fs.Stats().Duplicated)
	}
}

func TestFaultSenderDelaysOnClock(t *testing.T) {
	inner := &recordSender{}
	clk := &fakeClock{}
	fs, err := NewFaultSender(inner, clk, constRNG{f: 0.1, e: 1}, FaultConfig{DelayProb: 0.5, MeanDelay: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 0 || fs.Stats().Delayed != 1 {
		t.Fatalf("chunk not held back: %d sends, %d delayed", len(inner.sends), fs.Stats().Delayed)
	}
	clk.advance(6.9) // Exp draw is e·mean = 7
	if len(inner.sends) != 0 {
		t.Fatal("chunk re-injected before its delay elapsed")
	}
	clk.advance(7)
	if len(inner.sends) != 1 || inner.flushes != 1 {
		t.Fatalf("delayed chunk not re-injected: %d sends, %d flushes", len(inner.sends), inner.flushes)
	}
}

func TestFaultSenderPassesThroughWhenLucky(t *testing.T) {
	inner := &recordSender{}
	// Draws of 0.9 miss every 0.5 probability: the chunk goes straight
	// through, once.
	fs, err := NewFaultSender(inner, &fakeClock{}, constRNG{f: 0.9, e: 1},
		FaultConfig{DropProb: 0.5, DelayProb: 0.5, MeanDelay: 1, DupProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Send(0, chunk(0, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 1 {
		t.Fatalf("got %d sends, want 1", len(inner.sends))
	}
	if fs.Stats() != (FaultStats{}) {
		t.Fatal("fault counters moved on a clean pass")
	}
}

// errSender fails every send, checking FaultSender propagates inner
// errors on the direct path.
type errSender struct{ recordSender }

func (s *errSender) Send(from int, c transport.ScoreChunk) error {
	return errFault
}

var errFault = &faultErr{}

type faultErr struct{}

func (*faultErr) Error() string { return "boom" }

func TestFaultSenderPropagatesInnerError(t *testing.T) {
	fs, err := NewFaultSender(&errSender{}, nil, constRNG{f: 0.9}, FaultConfig{DropProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Send(0, chunk(0, 1, 1, 1.0)); err != errFault {
		t.Fatalf("err = %v, want inner error", err)
	}
}

// countRNG counts draws so the lattice paths can be proven RNG-free.
type countRNG struct {
	constRNG
	draws int
}

func (r *countRNG) Float64() float64 { r.draws++; return r.constRNG.Float64() }

func TestFaultConfigValidateLattice(t *testing.T) {
	for name, cfg := range map[string]FaultConfig{
		"partition no window":       {PartitionFrac: 0.3},
		"partition inverted window": {PartitionFrac: 0.3, PartitionFrom: 5, PartitionTo: 5},
		"partition negative from":   {PartitionFrac: 0.3, PartitionFrom: -1, PartitionTo: 5},
		"partition frac > 1":        {PartitionFrac: 1.5, PartitionTo: 5},
		"straggle no factor":        {StraggleFrac: 0.2},
		"straggle negative factor":  {StraggleFrac: 0.2, StraggleFactor: -1},
		"straggle frac > 1":         {StraggleFrac: 2, StraggleFactor: 1},
	} {
		if cfg.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := FaultConfig{PartitionFrac: 0.3, PartitionTo: 10, StraggleFrac: 0.2, StraggleFactor: 3}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid lattice config rejected: %v", err)
	}
	if !ok.Enabled() {
		t.Error("lattice-only config reports disabled")
	}
	if _, err := NewFaultSender(&recordSender{}, nil, constRNG{}, ok); err == nil {
		t.Error("lattice config without clock accepted")
	}
}

// Every float field of both configs refuses NaN and ±Inf with an error
// naming it — NaN passes any range comparison written as "reject if
// outside", Inf any sign check — except that PartitionTo = +Inf is a
// partition that never heals, and is up at any time past its start.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		cfg   interface{ Validate() error }
	}{
		{"DropProb", FaultConfig{DropProb: nan}},
		{"DelayProb", FaultConfig{DelayProb: inf, MeanDelay: 1}},
		{"DupProb", FaultConfig{DupProb: nan}},
		{"PartitionFrac", FaultConfig{PartitionFrac: nan, PartitionTo: 5}},
		{"StraggleFrac", FaultConfig{StraggleFrac: nan, StraggleFactor: 1}},
		{"MeanDelay", FaultConfig{DelayProb: 0.5, MeanDelay: inf}},
		{"MeanDelay", FaultConfig{DelayProb: 0.5, MeanDelay: nan}},
		{"MeanDelay", FaultConfig{MeanDelay: -inf}},
		{"PartitionFrom", FaultConfig{PartitionFrac: 0.3, PartitionFrom: inf, PartitionTo: inf}},
		{"PartitionFrom", FaultConfig{PartitionFrac: 0.3, PartitionFrom: nan, PartitionTo: 5}},
		{"PartitionTo", FaultConfig{PartitionFrac: 0.3, PartitionTo: nan}},
		{"PartitionTo", FaultConfig{PartitionFrac: 0.3, PartitionTo: -inf}},
		{"StraggleFactor", FaultConfig{StraggleFrac: 0.5, StraggleFactor: inf}},
		{"StraggleFactor", FaultConfig{StraggleFrac: 0.5, StraggleFactor: nan}},
		{"Timeout", ReliableConfig{Timeout: nan}},
		{"Timeout", ReliableConfig{Timeout: inf}},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", tc.cfg, err, tc.field)
		}
	}
	never := FaultConfig{PartitionFrac: 0.3, PartitionFrom: 5, PartitionTo: inf}
	if err := never.Validate(); err != nil {
		t.Fatalf("never-healing partition rejected: %v", err)
	}
	if never.PartitionActiveAt(4) || !never.PartitionActiveAt(5) || !never.PartitionActiveAt(math.MaxFloat64) {
		t.Error("a partition to +Inf is not up from its start for ever")
	}
}

// latticePair finds one minority and one majority node for a config.
func latticePair(t *testing.T, cfg FaultConfig) (minority, majority int) {
	t.Helper()
	minority, majority = -1, -1
	for n := 0; n < 256 && (minority < 0 || majority < 0); n++ {
		if cfg.PartitionMinority(n) {
			if minority < 0 {
				minority = n
			}
		} else if majority < 0 {
			majority = n
		}
	}
	if minority < 0 || majority < 0 {
		t.Fatalf("no cut found in 256 nodes for frac %v", cfg.PartitionFrac)
	}
	return minority, majority
}

func TestFaultSenderPartitionBlackholesAndHeals(t *testing.T) {
	cfg := FaultConfig{PartitionFrac: 0.4, PartitionFrom: 2, PartitionTo: 10, Seed: 7}
	mi, ma := latticePair(t, cfg)
	inner := &recordSender{}
	clk := &fakeClock{}
	rng := &countRNG{}
	fs, err := NewFaultSender(inner, clk, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cross := chunk(int32(mi), int32(ma), 1, 1.0)
	// Before the window opens: crossing traffic flows.
	if err := fs.Send(mi, cross); err != nil || len(inner.sends) != 1 {
		t.Fatalf("pre-window send blocked: err=%v sends=%d", err, len(inner.sends))
	}
	// Window open: crossing traffic blackholed, both directions.
	clk.advance(5)
	if err := fs.Send(mi, cross); err != nil {
		t.Fatal(err)
	}
	if err := fs.Send(ma, chunk(int32(ma), int32(mi), 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 1 || fs.Stats().Partitioned != 2 {
		t.Fatalf("partition leaked: %d sends, %d partitioned", len(inner.sends), fs.Stats().Partitioned)
	}
	// Same-side traffic is untouched during the partition.
	mi2 := mi
	for n := mi + 1; n < mi+512; n++ {
		if cfg.PartitionMinority(n) {
			mi2 = n
			break
		}
	}
	if mi2 != mi {
		if err := fs.Send(mi, chunk(int32(mi), int32(mi2), 1, 1.0)); err != nil || len(inner.sends) != 2 {
			t.Fatalf("same-side send blocked: err=%v sends=%d", err, len(inner.sends))
		}
	}
	// Healed: crossing traffic flows again.
	clk.advance(10)
	before := len(inner.sends)
	if err := fs.Send(mi, cross); err != nil || len(inner.sends) != before+1 {
		t.Fatalf("post-heal send blocked: err=%v sends=%d", err, len(inner.sends))
	}
	if rng.draws != 0 {
		t.Fatalf("partition checks consumed %d RNG draws, want 0", rng.draws)
	}
}

func TestFaultSenderPartitionEpochRelative(t *testing.T) {
	cfg := FaultConfig{PartitionFrac: 0.4, PartitionFrom: 0, PartitionTo: 10, Seed: 7}
	mi, ma := latticePair(t, cfg)
	inner := &recordSender{}
	clk := &fakeClock{now: 1e6} // injector built late: window is relative, not absolute
	fs, err := NewFaultSender(inner, clk, constRNG{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Send(mi, chunk(int32(mi), int32(ma), 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().Partitioned != 1 {
		t.Fatalf("window not epoch-relative: partitioned=%d", fs.Stats().Partitioned)
	}
	clk.advance(1e6 + 10)
	if err := fs.Send(mi, chunk(int32(mi), int32(ma), 2, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 1 {
		t.Fatal("partition did not heal 10 units after the epoch")
	}
}

func TestFaultSenderStragglerHoldsBack(t *testing.T) {
	cfg := FaultConfig{StraggleFrac: 0.3, StraggleFactor: 8, Seed: 3}
	slow, fast := -1, -1
	for n := 0; n < 256 && (slow < 0 || fast < 0); n++ {
		if cfg.Straggler(n) {
			if slow < 0 {
				slow = n
			}
		} else if fast < 0 {
			fast = n
		}
	}
	if slow < 0 || fast < 0 {
		t.Fatal("no straggler split found")
	}
	inner := &recordSender{}
	clk := &fakeClock{}
	rng := &countRNG{}
	fs, err := NewFaultSender(inner, clk, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The straggler's chunk is held for exactly StraggleFactor units.
	if err := fs.Send(slow, chunk(int32(slow), int32(fast), 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 0 || fs.Stats().Straggled != 1 {
		t.Fatalf("straggler chunk not held: %d sends, %d straggled", len(inner.sends), fs.Stats().Straggled)
	}
	clk.advance(7.9)
	if len(inner.sends) != 0 {
		t.Fatal("straggler chunk released early")
	}
	clk.advance(8)
	if len(inner.sends) != 1 || inner.flushes != 1 {
		t.Fatalf("straggler chunk not released: %d sends, %d flushes", len(inner.sends), inner.flushes)
	}
	// A healthy node's chunk goes straight through.
	if err := fs.Send(fast, chunk(int32(fast), int32(slow), 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if len(inner.sends) != 2 || fs.Stats().Straggled != 1 {
		t.Fatalf("healthy node straggled: %d sends, %d straggled", len(inner.sends), fs.Stats().Straggled)
	}
	if rng.draws != 0 {
		t.Fatalf("straggle checks consumed %d RNG draws, want 0", rng.draws)
	}
}

func TestLatticeMembershipPureAndProportional(t *testing.T) {
	cfg := FaultConfig{PartitionFrac: 0.3, PartitionTo: 10, StraggleFrac: 0.2, StraggleFactor: 1, Seed: 42}
	// Pure: a config differing only in non-lattice fields cuts the same.
	other := cfg
	other.DropProb = 0.5
	other.MeanDelay = 9
	minority, stragglers := 0, 0
	const n = 4000
	for i := 0; i < n; i++ {
		if cfg.PartitionMinority(i) != other.PartitionMinority(i) || cfg.Straggler(i) != other.Straggler(i) {
			t.Fatalf("membership depends on non-lattice fields at node %d", i)
		}
		if cfg.PartitionMinority(i) {
			minority++
		}
		if cfg.Straggler(i) {
			stragglers++
		}
	}
	if frac := float64(minority) / n; frac < 0.25 || frac > 0.35 {
		t.Errorf("minority fraction %v, want ≈0.3", frac)
	}
	if frac := float64(stragglers) / n; frac < 0.15 || frac > 0.25 {
		t.Errorf("straggler fraction %v, want ≈0.2", frac)
	}
	// A different seed cuts differently somewhere.
	reseeded := cfg
	reseeded.Seed = 43
	same := true
	for i := 0; i < 256 && same; i++ {
		if cfg.PartitionMinority(i) != reseeded.PartitionMinority(i) {
			same = false
		}
	}
	if same {
		t.Error("reseeding did not move the cut")
	}
	// Zero-frac configs have no members and no active window.
	var zero FaultConfig
	if zero.PartitionMinority(1) || zero.Straggler(1) || zero.PartitionActiveAt(3) {
		t.Error("zero config has lattice members")
	}
}

// TestMajorityNodeStaysOnTheRing: the frontend's node is always one of
// the k rankers. With seed 1 and k = 2 a 60 % partition puts both
// rankers on the minority side, so nothing is cut and node 0 is as good
// as any; index k, past the ring, could hash to the other side and cut
// every shard off.
func TestMajorityNodeStaysOnTheRing(t *testing.T) {
	cut := FaultConfig{PartitionFrac: 0.6, PartitionTo: 10, Seed: 1}
	if !cut.PartitionMinority(0) || !cut.PartitionMinority(1) {
		t.Fatal("seed 1 no longer puts both of k = 2 on the minority side; pick another seed")
	}
	if at := cut.MajorityNode(2); at != 0 {
		t.Fatalf("MajorityNode(2) = %d with every node on the minority side, want 0", at)
	}
	for k := 1; k <= 64; k++ {
		at := cut.MajorityNode(k)
		if at < 0 || at >= k {
			t.Fatalf("MajorityNode(%d) = %d, off the ring", k, at)
		}
		for n := 0; n < at; n++ {
			if !cut.PartitionMinority(n) {
				t.Fatalf("MajorityNode(%d) = %d skips majority node %d", k, at, n)
			}
		}
		if cut.PartitionMinority(at) {
			for n := 0; n < k; n++ {
				if !cut.PartitionMinority(n) {
					t.Fatalf("MajorityNode(%d) = %d on the minority side while node %d is not", k, at, n)
				}
			}
		}
	}
	var none FaultConfig
	if at := none.MajorityNode(5); at != 0 {
		t.Fatalf("MajorityNode without a partition = %d, want 0", at)
	}
}
