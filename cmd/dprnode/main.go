// Command dprnode runs page rankers as real TCP peers.
//
// Demo mode starts a whole cluster in one process and reports
// convergence against centralized PageRank:
//
//	dprnode -demo -pages 5000 -k 4
//
// Distributed mode runs one ranker per process; every process loads the
// same crawl and derives the same partition, so only addresses need
// coordinating:
//
//	dprnode -graph crawl.bin -k 3 -index 0 -listen :7000 \
//	        -peers 1=host1:7000,2=host2:7000
//
// -pages and -target belong to demo mode, -graph, -index, -listen and
// -peers to distributed mode; dprnode refuses a flag given to the other
// mode. Both modes frame score chunks with codec.Plain and accept
// -transport indirect (route score frames hop-by-hop along the Pastry
// overlay, §4.4), -fault (injected message faults), -reliable
// (ack/retry/backoff delivery with one knob, its timeout — pair it
// with -fault to ride out real loss), and -obs addr:port, which serves
// live telemetry over HTTP: Prometheus text on /metrics, the JSONL
// event trace on /trace, and pprof under /debug/pprof/. SIGQUIT dumps
// the trace ring to stderr.
//
// Every time in -fault and -reliable is in milliseconds, whatever its
// size:
//
//	dprnode -demo -fault drop=0.2,partition=0.3,pto=8000 -reliable 20
//
// drops a fifth of the score chunks, cuts the cluster for its first
// 8 s and retransmits an unacked chunk after 20 ms, backing off from
// there.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"p2prank/internal/cliflags"
	"p2prank/internal/dprcore"
	"p2prank/internal/netpeer"
	"p2prank/internal/search"
	"p2prank/internal/serve"
	"p2prank/internal/telemetry"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
)

func main() {
	var (
		demo      = flag.Bool("demo", false, "run a whole cluster in-process on localhost")
		pages     = flag.Int("pages", 5000, "crawl size for -demo")
		graphPath = flag.String("graph", "", "crawl file (required without -demo)")
		k         = flag.Int("k", 4, "number of rankers")
		index     = flag.Int("index", 0, "this ranker's index (0..k-1)")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		peersFlag = flag.String("peers", "", "peer addresses as idx=host:port, comma separated")
		target    = flag.Float64("target", 1e-6, "demo: stop at this relative error")
		obsAddr   = flag.String("obs", "", "serve telemetry over HTTP on this addr:port (empty = off)")

		algName   = cliflags.Algorithm(flag.CommandLine)
		faultSpec = cliflags.Fault(flag.CommandLine)
		relSpec   = cliflags.Reliable(flag.CommandLine)
		transName = cliflags.Transport(flag.CommandLine)
		seed      = cliflags.Seed(flag.CommandLine)
		srvAddr   = cliflags.ServeAddr(flag.CommandLine)
		qps       = cliflags.QPS(flag.CommandLine)
		topk      = cliflags.TopK(flag.CommandLine)
	)
	flag.Parse()

	// Each mode ignores the other's flags: refuse one given explicitly
	// rather than run something other than what was asked for.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "graph", "index", "listen", "peers":
			if *demo {
				fatal(fmt.Errorf("-%s does not apply to -demo, which generates its own crawl and cluster", f.Name))
			}
		case "pages", "target":
			if !*demo {
				fatal(fmt.Errorf("-%s requires -demo", f.Name))
			}
		}
	})
	// A demo cluster cannot reach a target that is not a positive finite
	// relative error, and a ranker count below one would reach the
	// banner before netpeer refused it: refuse both before anything is
	// built.
	if *k <= 0 {
		fatal(fmt.Errorf("K = %d, must be positive", *k))
	}
	if *demo && !(*target > 0) {
		fatal(fmt.Errorf("Target = %v, must be positive", *target))
	}
	if *demo && math.IsInf(*target, 1) {
		fatal(fmt.Errorf("Target = %v, must be finite", *target))
	}
	// The load generator and the query tier would fail these quietly
	// (every query refused, or the handler's default k): refuse them in
	// dprsim's words before anything is built.
	if *topk <= 0 {
		fatal(fmt.Errorf("TopK = %d, must be positive", *topk))
	}
	if *topk > serve.MaxK {
		fatal(fmt.Errorf("TopK = %d, must be at most %d", *topk, serve.MaxK))
	}
	if *qps < 0 {
		fatal(fmt.Errorf("QPS = %d, must not be negative", *qps))
	}
	if *srvAddr == "" && *qps > 0 {
		fatal(fmt.Errorf("-qps requires -serve"))
	}
	if *srvAddr != "" && !*demo {
		fatal(fmt.Errorf("-serve requires -demo (distributed serving needs every shard in one query tier)"))
	}

	algorithm, err := cliflags.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	fault, err := cliflags.ParseFault(*faultSpec)
	if err != nil {
		fatal(err)
	}
	reliable, err := cliflags.ParseReliable(*relSpec)
	if err != nil {
		fatal(err)
	}
	indirect, err := cliflags.ParseTransport(*transName)
	if err != nil {
		fatal(err)
	}

	// -obs: one live collector shared by every ranker this process
	// hosts, served over HTTP and dumpable via SIGQUIT.
	var col *telemetry.Collector
	if *obsAddr != "" {
		col = telemetry.NewCollector(*k)
		srv, err := telemetry.Serve(*obsAddr, col)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability: %s (/metrics, /trace, /debug/pprof/)\n", srv.URL())
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				fmt.Fprintln(os.Stderr, "-- telemetry trace --")
				if err := col.DumpTrace(os.Stderr); err != nil {
					fmt.Fprintln(os.Stderr, "dprnode: trace dump:", err)
				}
			}
		}()
	}

	// The lattice seed is left to dprcore.Deploy, which defaults it to
	// -seed in both modes, so -demo, every distributed peer and the
	// serving frontend cut the same partition minority and stragglers.
	params := dprcore.Params{Alg: algorithm, Fault: fault, Reliable: reliable}
	if col != nil {
		params.Observer = col
	}
	if *demo {
		runDemo(*pages, *k, params, *target, *seed, indirect, col,
			*srvAddr, *qps, *topk)
		return
	}
	runPeer(*graphPath, *k, *index, *listen, *peersFlag, params, *seed, indirect)
}

// servePublishEvery is the demo's checkpoint cadence with -serve, in
// committed rounds: every second round each ranker's snapshot reaches
// the store, so no shard is served more than 2·2−1 = 3 rounds stale.
const servePublishEvery = 2

func runDemo(pages, k int, params dprcore.Params, target float64, seed uint64, indirect bool, col *telemetry.Collector, srvAddr string, qps, topk int) {
	gcfg := webgraph.DefaultGenConfig(pages)
	gcfg.Seed = seed
	g, err := webgraph.Generate(gcfg)
	if err != nil {
		fatal(err)
	}
	// -serve: the store is fed through the checkpoint seam, like every
	// serving tier — the Publisher as the peers' checkpoint sink — and
	// their ComputeEnd hooks drive its staleness clock via a Tracker
	// wrapped around whatever observer is already installed.
	var (
		store   *serve.Store
		tracker *serve.Tracker
	)
	if srvAddr != "" {
		if store, err = serve.NewStore(k); err != nil {
			fatal(err)
		}
		tracker = serve.NewTracker(store, params.Observer)
		params.Observer = tracker
		params.Checkpoint = dprcore.CheckpointConfig{Every: servePublishEvery, Sink: serve.NewPublisher(store, nil)}
	}
	mode := "direct"
	if indirect {
		mode = "indirect"
	}
	fmt.Printf("demo: %d pages, %d rankers (%v, %s transmission), real TCP on localhost\n",
		pages, k, params.Alg, mode)
	cl, err := netpeer.StartCluster(g, netpeer.ClusterConfig{
		Params: params,
		K:      k, MeanWait: 20 * time.Millisecond, Seed: seed,
		Indirect: indirect,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	var stopServe func() serve.StormStats
	if store != nil {
		stopServe, err = startServing(cl, g, store, col, srvAddr, qps, topk)
		if err != nil {
			fatal(err)
		}
	}
	rec, err := cl.Converge(target, 2*time.Minute)
	if err != nil {
		fatal(err)
	}
	for i, smp := range rec.Samples {
		// One line per 300 ms of the 20 ms samples, and the last.
		if i%15 == 0 || i == len(rec.Samples)-1 {
			fmt.Printf("t=%6.2fs relative error %.3e\n", smp.Time/1e9, smp.RelErr)
		}
	}
	fmt.Printf("converged to relative error ≤ %v in %.2fs\n", target, rec.ConvergedAt/1e9)
	fmt.Println("top pages:")
	for _, p := range vecmath.TopPages(rec.Final, 5) {
		fmt.Printf("  %-40s rank %.4f\n", g.URL(int32(p)), rec.Final[p])
	}
	if store != nil {
		fmt.Printf("served %d load-gen queries, max served staleness %d rounds\n",
			stopServe().Answered, tracker.MaxObservedStaleness())
	}
}

// startServing exposes the demo cluster's ranks as a query tier: the
// serve.Handler answers /search on srvAddr from the store the peers'
// checkpoints publish into, and an optional internal load generator
// (-qps) drives the merged read path, reporting per-query latency and
// staleness to the live collector. The frontend routes over the
// cluster's own ring and partition. When -fault injects partitions or
// stragglers, it also shares the peers' lattice, on the cluster's time
// axis, from a node on the majority side, so its fan-outs route around
// the cut. The returned func stops all of it and reports the load
// generator's storm.
func startServing(cl *netpeer.Cluster, g *webgraph.Graph, store *serve.Store, col *telemetry.Collector, addr string, qps, topk int) (func() serve.StormStats, error) {
	store.SetTelemetry(col)
	dep := cl.Deployment
	cfg := serve.Config{}
	if fault := dep.Params.Fault; fault.PartitionFrac > 0 || fault.StraggleFrac > 0 {
		health, err := serve.NewLatticeHealth(fault, fault.MajorityNode(dep.Ring.NumNodes()), cl.Elapsed)
		if err != nil {
			return nil, err
		}
		cfg.Health = health
	}
	fe, err := serve.NewFrontend(g, dep.Ring, dep.Assign, store, cfg)
	if err != nil {
		return nil, err
	}
	if col != nil {
		col.SetServing(func() telemetry.ServingStats {
			d := fe.DegradeStats()
			hits, misses := fe.CacheStats()
			entries, evictions := fe.CacheUsage()
			return telemetry.ServingStats{Shed: d.Shed, Hedged: d.Hedged, Degraded: d.Degraded,
				CacheHits: hits, CacheMisses: misses, CacheEvictions: evictions, CacheEntries: int64(entries)}
		})
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	srv := &http.Server{Handler: serve.NewHandler(fe, topk, col).Mux()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "dprnode: serve:", err)
		}
	}()
	fmt.Printf("serving: http://%s/search?terms=0,1&k=%d\n", ln.Addr(), topk)
	var storm serve.StormStats
	if qps > 0 {
		wg.Add(1)
		go func() { // load generator
			defer wg.Done()
			q := fe.NewQuerier()
			var resp search.Response
			queries := [][]int32{{0}, {1, 2}, {0, 3}, {2, 4, 5}}
			storm, _ = serve.Storm{
				QPS: qps, Stop: stop,
				Serve: func(i int) error {
					return q.Serve(search.Request{Terms: queries[i%len(queries)], K: topk}, &resp)
				},
				// An error is no reason to stop: before the first publish
				// the store is stale by definition.
				After: func(_ int, latency time.Duration, err error) error {
					if err == nil && col != nil {
						col.QueryServed(latency.Seconds(), resp.Staleness)
					}
					return nil
				},
			}.Run()
		}()
	}
	return func() serve.StormStats {
		close(stop)
		srv.Close()
		wg.Wait()
		return storm
	}, nil
}

func runPeer(graphPath string, k, index int, listen, peersFlag string, params dprcore.Params, seed uint64, indirect bool) {
	if graphPath == "" {
		fatal(fmt.Errorf("-graph is required (or use -demo)"))
	}
	if index < 0 || index >= k {
		fatal(fmt.Errorf("index %d out of range for k=%d", index, k))
	}
	peers, err := parsePeers(peersFlag, index, k)
	if err != nil {
		fatal(err)
	}
	g, err := webgraph.Open(graphPath)
	if err != nil {
		fatal(err)
	}
	defer g.Close()
	// Every process deploys the crawl as StartCluster does, so
	// independent processes agree on the partition, the lattice and the
	// routes.
	peer, err := netpeer.Listen(listen, g, netpeer.ClusterConfig{
		Params: params, K: k, Seed: seed, Indirect: indirect,
	}, index)
	if err != nil {
		fatal(err)
	}
	defer peer.Close()
	for _, pa := range peers {
		peer.SetPeer(pa.index, pa.addr)
	}
	peer.Start()
	fmt.Printf("ranker %d/%d listening on %s (%d pages, %v)\n",
		index, k, peer.Addr(), len(peer.Ranks()), params.Alg)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("shutting down")
			return
		case <-tick.C:
			r := peer.Ranks()
			fmt.Printf("loops=%d chunks_sent=%d local_rank_sum=%.3f\n",
				peer.Loops(), peer.ChunksSent(), r.Sum())
		}
	}
}

// peerAddr is one -peers entry: another ranker's index and address.
type peerAddr struct {
	index int32
	addr  string
}

// parsePeers reads -peers, comma-separated idx=host:port entries, for
// ranker self of k. It refuses every entry that is malformed, whose
// index is outside [0, k), is self, or repeats an earlier entry's, and
// names each one in the error.
func parsePeers(spec string, self, k int) ([]peerAddr, error) {
	if spec == "" {
		return nil, nil
	}
	var (
		out  []peerAddr
		bad  []error
		seen = make(map[int64]bool)
	)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		idxText, addr, ok := strings.Cut(part, "=")
		idx, err := strconv.ParseInt(idxText, 10, 32)
		switch {
		case !ok || addr == "":
			bad = append(bad, fmt.Errorf("%q: want idx=host:port", part))
		case err != nil:
			bad = append(bad, fmt.Errorf("%q: index: %w", part, err))
		case idx < 0 || idx >= int64(k):
			bad = append(bad, fmt.Errorf("%q: index %d outside 0..%d", part, idx, k-1))
		case idx == int64(self):
			bad = append(bad, fmt.Errorf("%q: index %d is this ranker", part, idx))
		case seen[idx]:
			bad = append(bad, fmt.Errorf("%q: index %d named twice", part, idx))
		default:
			seen[idx] = true
			out = append(out, peerAddr{int32(idx), addr})
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("bad -peers: %w", errors.Join(bad...))
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dprnode:", err)
	os.Exit(1)
}
