package engine_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"p2prank/internal/dprcore"
	"p2prank/internal/engine"
	"p2prank/internal/partition"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

// The determinism suite is the tentpole's acceptance test: the parallel
// kernels and the parallel compute-phase executor must produce results
// bit-identical to serial execution at any GOMAXPROCS and any CSR shard
// count. Each preset below is a reduced-scale Figure 6/7/8 run; its
// whole observable output (reference, final ranks, every sample) is
// fingerprinted and compared across the execution matrix.

func detGraph(t *testing.T) *webgraph.Graph {
	t.Helper()
	cfg := webgraph.DefaultGenConfig(2500)
	cfg.Sites = 40
	cfg.Seed = 5
	g, err := webgraph.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return g
}

// detPresets are reduced-scale stand-ins for the paper figures: Fig 6
// (DPR1, lossy sends, indirect transport), Fig 7 (DPR1, by-site), and
// Fig 8 (DPR2, fixed wait, direct transport).
func detPresets(g *webgraph.Graph) map[string]engine.Config {
	return map[string]engine.Config{
		"fig6": {
			Params: dprcore.Params{Alg: dprcore.DPR1, SendProb: 0.7, T1: 0, T2: 6},
			Graph:  g, K: 8, Seed: 3, SampleEvery: 2, MaxTime: 30,
			Transport: transport.Indirect, Strategy: partition.BySite,
		},
		"fig7": {
			Params: dprcore.Params{Alg: dprcore.DPR1, T1: 0, T2: 6},
			Graph:  g, K: 6, Seed: 4, SampleEvery: 2, MaxTime: 24,
			Transport: transport.Indirect, Strategy: partition.BySite,
		},
		"fig8": {
			Params: dprcore.Params{Alg: dprcore.DPR2, T1: 15, T2: 15},
			Graph:  g, K: 8, Seed: 5, SampleEvery: 5, MaxTime: 120, TargetRelErr: 1e-3,
			Transport: transport.Direct, Strategy: partition.ByPage,
		},
	}
}

// fingerprint hashes every float the run exposes, by bits — any change
// in any low bit of any sample or rank changes the digest.
func fingerprint(t *testing.T, res *engine.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	word := func(v float64) {
		b := math.Float64bits(v)
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	vec := func(x vecmath.Vec) {
		for _, v := range x {
			word(v)
		}
	}
	vec(res.Reference)
	vec(res.Final)
	word(res.RelErr)
	word(res.ConvergedAt)
	word(res.LoopsAtConvergence)
	for _, s := range res.Samples {
		word(s.Time)
		word(s.RelErr)
		word(s.AvgRank)
		word(s.MeanLoops)
	}
	fmt.Fprintf(h, "samples=%d msgs=%d bytes=%d",
		len(res.Samples), res.NetStats.MessagesSent, res.NetStats.BytesSent)
	return h.Sum64()
}

func TestRunsBitIdenticalAcrossParallelism(t *testing.T) {
	g := detGraph(t)
	for name, cfg := range detPresets(g) {
		t.Run(name, func(t *testing.T) {
			// Serial baseline: single shard per matrix, one scheduler thread.
			prevShards := vecmath.SetDefaultCSRShards(1)
			prevProcs := runtime.GOMAXPROCS(1)
			base, err := engine.Run(cfg)
			runtime.GOMAXPROCS(prevProcs)
			vecmath.SetDefaultCSRShards(prevShards)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			want := fingerprint(t, base)

			for _, procs := range []int{1, 2, 8} {
				for _, shards := range []int{1, 4, 16} {
					prevShards := vecmath.SetDefaultCSRShards(shards)
					prevProcs := runtime.GOMAXPROCS(procs)
					res, err := engine.Run(cfg)
					runtime.GOMAXPROCS(prevProcs)
					vecmath.SetDefaultCSRShards(prevShards)
					if err != nil {
						t.Fatalf("procs=%d shards=%d: %v", procs, shards, err)
					}
					if got := fingerprint(t, res); got != want {
						t.Fatalf("procs=%d shards=%d: fingerprint %x differs from serial %x",
							procs, shards, got, want)
					}
				}
			}
		})
	}
}

// fig6GoldenFingerprint is the fig6 preset's fingerprint as measured
// on the pre-refactor tree (before the DPR loop moved to
// internal/dprcore), pinning the extraction as behavior-preserving on
// the simulation path: same seed, same schedule, same floats, bit for
// bit. If an *intentional* algorithmic change shifts it, re-capture
// the value and say so in the commit.
const fig6GoldenFingerprint = 0xb51aa41cefefc9c4

// TestFig6FingerprintMatchesPreRefactorGolden runs the fig6 preset
// through the refactored ranker driver (dprcore.Loop under the simnet
// scheduler) at GOMAXPROCS 1 and 8 and requires the exact pre-refactor
// fingerprint both times.
func TestFig6FingerprintMatchesPreRefactorGolden(t *testing.T) {
	g := detGraph(t)
	cfg := detPresets(g)["fig6"]
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := engine.Run(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if got := fingerprint(t, res); got != fig6GoldenFingerprint {
			t.Fatalf("procs=%d: fig6 fingerprint %#016x != pre-refactor golden %#016x",
				procs, got, uint64(fig6GoldenFingerprint))
		}
	}
}

// fig7/fig8 golden fingerprints, captured on a scheduler that was one
// global binary heap. Together with fig6 they cover all three
// transports/presets: the event queue (heap plus delivery lane), the
// Timer re-arm path, and the sparse transport outbox must pop and send
// in the exact (at, seq) order that heap produced.
const (
	fig7GoldenFingerprint = 0xccd8cf73dcfebc42
	fig8GoldenFingerprint = 0xcf7b4bf6ae1eb2ed
)

// TestSchedulerFingerprintsMatchHeapGoldens runs the fig7 and fig8
// presets at GOMAXPROCS 1 and 8 and requires the fingerprints captured
// on the one-heap scheduler, bit for bit.
func TestSchedulerFingerprintsMatchHeapGoldens(t *testing.T) {
	g := detGraph(t)
	presets := detPresets(g)
	for _, tc := range []struct {
		name   string
		golden uint64
	}{
		{"fig7", fig7GoldenFingerprint},
		{"fig8", fig8GoldenFingerprint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 8} {
				prev := runtime.GOMAXPROCS(procs)
				res, err := engine.Run(presets[tc.name])
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if got := fingerprint(t, res); got != tc.golden {
					t.Fatalf("procs=%d: %s fingerprint %#016x != one-heap golden %#016x",
						procs, tc.name, got, tc.golden)
				}
			}
		})
	}
}

// TestFig6FingerprintUnchangedByObservers is the tentpole's determinism
// claim: attaching telemetry — the no-op observer or the full in-sim
// collector — must not move a single bit of the run. The fig6 preset
// must reproduce the pre-refactor golden fingerprint with each observer
// installed, serial and parallel, and the collector must actually have
// seen the run (non-vacuous) and report the same Summary at both
// parallelisms: every total is a count, a last value or a maximum, so
// the order concurrent compute phases reach its mutex in cannot show.
func TestFig6FingerprintUnchangedByObservers(t *testing.T) {
	g := detGraph(t)
	base := detPresets(g)["fig6"]
	var serial *telemetry.Summary
	for _, procs := range []int{1, 8} {
		for name, obs := range map[string]telemetry.Observer{
			"noop": telemetry.Noop{},
			"sim":  telemetry.NewCollector(base.K),
		} {
			cfg := base
			cfg.Observer = obs
			prev := runtime.GOMAXPROCS(procs)
			res, err := engine.Run(cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("procs=%d obs=%s: %v", procs, name, err)
			}
			if got := fingerprint(t, res); got != fig6GoldenFingerprint {
				t.Fatalf("procs=%d obs=%s: fingerprint %#016x != golden %#016x",
					procs, name, got, uint64(fig6GoldenFingerprint))
			}
			if name == "sim" {
				sum := res.Telemetry
				if sum == nil {
					t.Fatalf("procs=%d: Collector installed but Result.Telemetry nil", procs)
				}
				if sum.Rounds == 0 || sum.Chunks == 0 || sum.PayloadBytes == 0 ||
					sum.ChunkHops < sum.Chunks || sum.Milestones == 0 {
					t.Fatalf("procs=%d: collector saw a vacuous run: %+v", procs, sum)
				}
				if serial == nil {
					serial = sum
				} else if !reflect.DeepEqual(sum, serial) {
					t.Fatalf("procs=%d: summary %+v differs from serial %+v", procs, sum, serial)
				}
			} else if res.Telemetry != nil {
				t.Fatalf("procs=%d: Noop observer produced a Telemetry summary", procs)
			}
		}
	}
}

// TestGoldenFingerprintsBothStores is graph storage's acceptance test:
// the same presets ranked off a graph whose arrays alias an mmapped
// file must reproduce the heap graph's goldens bit for bit — where the
// arrays live is invisible to every float downstream.
func TestGoldenFingerprintsBothStores(t *testing.T) {
	g := detGraph(t)
	path := filepath.Join(t.TempDir(), "det.bin")
	if err := webgraph.WriteMappedFile(path, g); err != nil {
		t.Fatalf("writing mapped graph: %v", err)
	}
	m, err := webgraph.OpenMapped(path)
	if err != nil {
		t.Fatalf("opening mapped graph: %v", err)
	}
	defer m.Close()
	if m.Fingerprint() != g.Fingerprint() {
		t.Fatalf("store fingerprints disagree before ranking: mem %#x disk %#x",
			g.Fingerprint(), m.Fingerprint())
	}

	goldens := map[string]uint64{
		"fig6": fig6GoldenFingerprint,
		"fig7": fig7GoldenFingerprint,
		"fig8": fig8GoldenFingerprint,
	}
	for _, store := range []struct {
		name string
		g    *webgraph.Graph
	}{{"mem", g}, {"mapped", m}} {
		presets := detPresets(store.g)
		for name, golden := range goldens {
			t.Run(store.name+"/"+name, func(t *testing.T) {
				for _, procs := range []int{1, 8} {
					prev := runtime.GOMAXPROCS(procs)
					res, err := engine.Run(presets[name])
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatalf("procs=%d: %v", procs, err)
					}
					if got := fingerprint(t, res); got != golden {
						t.Fatalf("procs=%d store=%s: %s fingerprint %#016x != golden %#016x",
							procs, store.name, name, got, golden)
					}
				}
			})
		}
	}
}

// TestSharedReferenceMatchesOwnReference checks that handing a
// precomputed R* to Config.Reference changes nothing about the run.
func TestSharedReferenceMatchesOwnReference(t *testing.T) {
	g := detGraph(t)
	cfg := detPresets(g)["fig6"]
	own, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Reference(g, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Reference = ref
	shared, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, own) != fingerprint(t, shared) {
		t.Fatal("run with shared reference differs from self-computed reference")
	}
}
