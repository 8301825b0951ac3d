package netpeer

import (
	"fmt"
	"sync"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/pagerank"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// ClusterConfig parameterizes StartCluster. The algorithm knobs (Alg,
// Alpha, SendProb, Fault, Observer, …) live in the embedded
// dprcore.Params and are handed to every peer unchanged; an Observer
// is shared by all peers of the cluster (the collectors are
// goroutine-safe and keyed by ranker index).
type ClusterConfig struct {
	// Params are the shared DPR loop parameters (see dprcore.Params).
	dprcore.Params
	// K is the number of peers.
	K int
	// Strategy is the partitioning strategy (default BySite).
	Strategy partition.Strategy
	// MeanWait is each peer's mean loop pause (default 30ms).
	MeanWait time.Duration
	// Indirect switches the cluster to §4.4 indirect transmission:
	// score frames hop along the Pastry overlay through intermediate
	// peers instead of going point-to-point.
	Indirect bool
	// Codec is the chunk encoding all peers frame with (see
	// internal/codec; nil means codec.Plain).
	Codec transport.ChunkCodec
	// Seed makes partitioning and waits reproducible (default 1).
	Seed uint64
	// CheckpointDir, when non-empty, persists every peer's loop state
	// to <dir>/ranker-NNN.ckpt on the CheckpointEvery round cadence
	// (default every 5 rounds), and restarts recover from those files.
	CheckpointDir string
	// CheckpointEvery overrides the checkpoint cadence in rounds.
	// Requires CheckpointDir.
	CheckpointEvery int64
	// Supervise starts a cluster supervisor goroutine that probes peer
	// liveness and rebuilds dead peers — from their checkpoint file when
	// CheckpointDir is set, cold otherwise.
	Supervise bool
	// ProbeEvery is the supervisor's probe cadence (default 50ms).
	ProbeEvery time.Duration
	// Churn schedules abrupt peer kills relative to cluster start —
	// the integration harness for the failure model. Pair it with
	// Supervise so the kills are also recovered from.
	Churn []PeerChurn
}

// PeerChurn kills one peer a fixed delay after the cluster starts.
type PeerChurn struct {
	// Ranker is the victim's group index.
	Ranker int
	// After is the kill delay from StartCluster's return.
	After time.Duration
}

// Cluster is a set of live peers ranking one crawl on localhost.
type Cluster struct {
	// Peers holds the live peers, indexed by group. When the cluster
	// supervises (ClusterConfig.Supervise), entries are swapped on
	// restart — use Peer for a race-free read.
	Peers []*Peer
	// Assignment is the page partition the peers rank under.
	Assignment *partition.Assignment
	// Reference is the centralized fixed point R*.
	Reference vecmath.Vec

	graph  *webgraph.Graph
	cfg    ClusterConfig
	groups []*dprcore.Group
	ov     overlay.Network
	ckpt   *dprcore.FileCheckpointer
	sup    *dprcore.Supervisor

	// mu guards Peers (restarts swap entries) and timers.
	mu     sync.Mutex
	timers []*time.Timer
	stop   chan struct{}
	wg     sync.WaitGroup
}

// StartCluster computes the centralized reference, partitions g over K
// groups, starts one TCP peer per group on 127.0.0.1, interconnects
// them, and starts their ranking loops.
func StartCluster(g *webgraph.Graph, cfg ClusterConfig) (*Cluster, error) {
	if g == nil {
		return nil, fmt.Errorf("netpeer: nil graph")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("netpeer: K = %d, must be positive", cfg.K)
	}
	if cfg.MeanWait < 0 {
		return nil, fmt.Errorf("netpeer: negative MeanWait")
	}
	if cfg.MeanWait == 0 && cfg.T1 == 0 && cfg.T2 == 0 {
		cfg.MeanWait = 30 * time.Millisecond
	}
	// Resolve the shared parameters up front: Alpha feeds the reference
	// and group construction below, before any peer validates them again.
	cfg.Params.Defaults(float64(cfg.MeanWait), float64(cfg.MeanWait))
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("netpeer: %w", err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("netpeer: negative CheckpointEvery")
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("netpeer: CheckpointEvery needs CheckpointDir")
	}
	if cfg.ProbeEvery < 0 {
		return nil, fmt.Errorf("netpeer: negative ProbeEvery")
	}
	if cfg.Supervise && cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = 50 * time.Millisecond
	}
	for _, ev := range cfg.Churn {
		if ev.Ranker < 0 || ev.Ranker >= cfg.K {
			return nil, fmt.Errorf("netpeer: churn ranker %d outside [0,%d)", ev.Ranker, cfg.K)
		}
		if ev.After <= 0 {
			return nil, fmt.Errorf("netpeer: churn delay %v must be positive", ev.After)
		}
	}
	ref, err := pagerank.Open(g, pagerank.Options{Alpha: cfg.Alpha, Epsilon: 1e-12, MaxIter: 100000})
	if err != nil {
		return nil, fmt.Errorf("netpeer: centralized reference: %w", err)
	}
	ov, err := pastry.New(nodeid.RankerIDs(cfg.K), pastry.DefaultConfig())
	if err != nil {
		return nil, err
	}
	assign, err := partition.Assign(g, ov, cfg.Strategy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	groups, err := dprcore.BuildGroups(g, assign, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		Assignment: assign, Reference: ref.Ranks, graph: g,
		groups: groups, stop: make(chan struct{}),
	}
	if cfg.Indirect {
		cl.ov = ov
	}
	if cfg.CheckpointDir != "" {
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = 5
		}
		fc, err := dprcore.NewFileCheckpointer(cfg.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("netpeer: %w", err)
		}
		cl.ckpt = fc
		cfg.Params.Checkpoint = dprcore.CheckpointConfig{Every: cfg.CheckpointEvery, Sink: fc}
	}
	cl.cfg = cfg
	for i := 0; i < cfg.K; i++ {
		peer, err := cl.newPeer(i)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Peers = append(cl.Peers, peer)
	}
	for _, p := range cl.Peers {
		for j, q := range cl.Peers {
			if p != q {
				p.SetPeer(int32(j), q.Addr())
			}
		}
	}
	for _, p := range cl.Peers {
		p.Start()
	}
	if cfg.Supervise {
		sup, err := dprcore.NewSupervisor(clusterSet{cl}, wallClock{},
			xrand.New(cfg.Seed^0xda3e39cb94b95bdb),
			dprcore.SupervisorConfig{ProbeEvery: float64(cfg.ProbeEvery)})
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.sup = sup
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			sup.Run(stopWaiter{stop: cl.stop})
		}()
	}
	for _, ev := range cfg.Churn {
		ev := ev
		cl.mu.Lock()
		cl.timers = append(cl.timers, time.AfterFunc(ev.After, func() {
			if p := cl.Peer(ev.Ranker); p != nil {
				p.Kill()
			}
		}))
		cl.mu.Unlock()
	}
	return cl, nil
}

// newPeer builds and binds the peer for group i with the cluster's
// shared parameters. The caller starts it and meshes its address.
func (cl *Cluster) newPeer(i int) (*Peer, error) {
	pcfg := Config{
		Params:   cl.cfg.Params,
		Group:    cl.groups[i],
		MeanWait: cl.cfg.MeanWait,
		Seed:     cl.cfg.Seed + uint64(i)*7919,
		Codec:    cl.cfg.Codec,
		Overlay:  cl.ov,
	}
	// Peer seeds differ per node, but the fault lattice (partition and
	// straggler membership) must be cut identically by every injector
	// in the cluster — key it off the cluster seed, not the peer's.
	if pcfg.Fault.Enabled() && pcfg.Fault.Seed == 0 {
		pcfg.Fault.Seed = cl.cfg.Seed
	}
	return Listen("127.0.0.1:0", pcfg)
}

// restartPeer rebuilds the peer for group i: close whatever is left of
// the old one, bind a fresh peer, warm-start it from the last
// checkpoint file when checkpointing is on, splice it into the mesh
// (its port is new), and start it.
func (cl *Cluster) restartPeer(i int) error {
	cl.mu.Lock()
	old := cl.Peers[i]
	cl.mu.Unlock()
	if old != nil {
		old.Close() // idempotent; covers "looks dead but still up"
	}
	peer, err := cl.newPeer(i)
	if err != nil {
		return err
	}
	if cl.ckpt != nil {
		data, ok, err := cl.ckpt.Load(i)
		if err != nil {
			peer.Close()
			return err
		}
		if ok {
			if err := peer.RestoreSnapshot(data); err != nil {
				peer.Close()
				return err
			}
		}
	}
	cl.mu.Lock()
	cl.Peers[i] = peer
	for j, q := range cl.Peers {
		if j == i || q == nil {
			continue
		}
		peer.SetPeer(int32(j), q.Addr())
		q.SetPeer(int32(i), peer.Addr())
		// Senders that gave the dead peer up resume immediately.
		q.ClearBroken(i)
	}
	cl.mu.Unlock()
	peer.Start()
	return nil
}

// clusterSet adapts a Cluster to dprcore.Supervised.
type clusterSet struct{ cl *Cluster }

func (s clusterSet) NumRankers() int { return s.cl.cfg.K }

// Alive combines socket-level liveness (the peer was killed or closed)
// with the reliable layer's missed-ack signal: a peer some other
// sender's circuit breaker has given up on is presumed dead even if its
// listener still accepts.
func (s clusterSet) Alive(i int) bool {
	p := s.cl.Peer(i)
	if p == nil || !p.Alive() {
		return false
	}
	s.cl.mu.Lock()
	defer s.cl.mu.Unlock()
	for j, q := range s.cl.Peers {
		if j != i && q != nil && q.Broken(i) {
			return false
		}
	}
	return true
}

func (s clusterSet) Restart(i int) error { return s.cl.restartPeer(i) }

// Peer returns the live peer for group i — race-free against
// supervisor restarts, unlike indexing Peers directly.
func (cl *Cluster) Peer(i int) *Peer {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if i < 0 || i >= len(cl.Peers) {
		return nil
	}
	return cl.Peers[i]
}

// Restarts returns how many peer restarts the cluster supervisor has
// performed (zero when Supervise is off).
func (cl *Cluster) Restarts() int64 {
	if cl.sup == nil {
		return 0
	}
	return cl.sup.Restarts()
}

// Assemble snapshots every peer's local ranks into one global vector.
func (cl *Cluster) Assemble() vecmath.Vec {
	out := vecmath.NewVec(cl.graph.NumPages())
	cl.mu.Lock()
	peers := append([]*Peer(nil), cl.Peers...)
	cl.mu.Unlock()
	for i, p := range peers {
		r := p.Ranks()
		for li, page := range cl.Assignment.Pages[i] {
			out[page] = r[li]
		}
	}
	return out
}

// RelErr returns the current relative error against the centralized
// reference.
func (cl *Cluster) RelErr() float64 {
	return vecmath.RelErr1(cl.Assemble(), cl.Reference)
}

// WaitConverged polls until the relative error drops to target or the
// timeout expires.
func (cl *Cluster) WaitConverged(target float64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if re := cl.RelErr(); re <= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("netpeer: not converged to %v within %v (rel err %v)",
				target, timeout, cl.RelErr())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close shuts the cluster down: the supervisor stops first (so no
// restart races the teardown), then the churn timers, then every peer.
func (cl *Cluster) Close() {
	select {
	case <-cl.stop:
	default:
		close(cl.stop)
	}
	cl.wg.Wait()
	cl.mu.Lock()
	timers := cl.timers
	peers := append([]*Peer(nil), cl.Peers...)
	cl.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	for _, p := range peers {
		if p != nil {
			p.Close()
		}
	}
}
