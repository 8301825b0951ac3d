package netpeer

import (
	"fmt"
	"math"
	"sync"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/nodeid"
	"p2prank/internal/overlay"
	"p2prank/internal/partition"
	"p2prank/internal/pastry"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
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
	// MeanWait is each peer's mean loop pause (default 30ms): sugar
	// for T1 = T2 = MeanWait nanoseconds, used when T1/T2 are zero.
	MeanWait time.Duration
	// Indirect switches the cluster to §4.4 indirect transmission:
	// score frames hop along the Pastry overlay through intermediate
	// peers instead of going point-to-point.
	Indirect bool
	// Seed makes partitioning and waits reproducible (default 1).
	Seed uint64
	// Churn crashes and restarts peers on the schedule the simulator
	// runs (see dprcore.ChurnEvent), times in nanoseconds since the
	// cluster's epoch — the one live time axis, taken as StartCluster
	// starts the peers, that every peer's fault windows are measured
	// from too (see Cluster.Elapsed). A crash closes the peer; a restart
	// binds a fresh one on a new port, restores the state the event's
	// Restart mode picks, and re-meshes it.
	Churn []dprcore.ChurnEvent
}

// Cluster is a set of live peers ranking one crawl on localhost.
type Cluster struct {
	// Peers holds the live peers, indexed by group. Churn restarts
	// swap entries — use Peer for a race-free read.
	Peers []*Peer
	// Deployment is the crawl as the peers rank it: the resolved
	// parameters, the Pastry ring, the partition and every group.
	Deployment *dprcore.Deployment
	// Reference is the centralized fixed point R*.
	Reference vecmath.Vec

	cfg ClusterConfig
	ov  overlay.Network // the ring in indirect mode, nil in direct
	// epoch is the cluster's one time axis: churn times and every
	// peer's fault windows, restarted peers' included, count from here.
	epoch time.Time

	// mu guards Peers (restarts swap entries), timers, churnErr and
	// gone (the replaced peers' counters, the restarts' Recoveries).
	mu       sync.Mutex
	timers   []*time.Timer
	churnErr error
	gone     dprcore.Record
	// churnMu serializes churn actions with each other and with Close;
	// closed, which it guards, turns every later action into a no-op.
	churnMu sync.Mutex
	closed  bool
}

// StartCluster deploys g over K peers on a Pastry ring (dprcore.Deploy),
// computes the centralized reference, starts one TCP peer per group on
// 127.0.0.1, interconnects them, and starts their ranking loops.
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
	cfg.Params.Defaults(float64(cfg.MeanWait), float64(cfg.MeanWait))
	ring, err := pastry.New(nodeid.RankerIDs(cfg.K))
	if err != nil {
		return nil, err
	}
	dep, err := dprcore.Deploy(g, ring, cfg.Strategy, cfg.Params, cfg.Seed, cfg.Churn)
	if err != nil {
		return nil, fmt.Errorf("netpeer: %w", err)
	}
	ref, err := dprcore.Reference(g, dep.Params.Alpha)
	if err != nil {
		return nil, fmt.Errorf("netpeer: %w", err)
	}
	cl := &Cluster{Deployment: dep, Reference: ref, cfg: cfg, epoch: time.Now()}
	if cfg.Indirect {
		cl.ov = ring
	}
	for i := 0; i < cfg.K; i++ {
		peer, err := cl.newPeer(i, nil)
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
	for _, ev := range cfg.Churn {
		ev := ev
		cl.after(time.Until(cl.epoch.Add(time.Duration(ev.CrashAt))), func() error {
			p := cl.Peer(ev.Ranker)
			p.Close()
			// Once Close has stopped the rank loop no round runs between a
			// warm snapshot and the crash: the peer's unacked chunks ride
			// in it, and the restart rewinds nothing.
			snap, recovered := cl.Deployment.RestartFrom(ev, p.snapshot)
			// Armed only once the crash ran, so the restart follows it
			// however close the two times are.
			cl.after(time.Until(cl.epoch.Add(time.Duration(ev.RestartAt))), func() error {
				return cl.restartPeer(ev.Ranker, snap, recovered)
			})
			return nil
		})
	}
	return cl, nil
}

// newPeer builds and binds the peer for group i with the deployment's
// parameters — one fault lattice, cut by the run seed — on the
// cluster's epoch, its loop restored from snap when non-nil (pending
// chunks in it re-enter through the sender chain). The caller starts
// it and meshes its address.
func (cl *Cluster) newPeer(i int, snap []byte) (*Peer, error) {
	dep := cl.Deployment
	p, err := listen("127.0.0.1:0", Config{
		Params:  dep.Params,
		Group:   dep.Groups[i],
		Seed:    dep.PeerSeed(i),
		Overlay: cl.ov,
	}, cl.epoch)
	if err == nil && snap != nil {
		if err = p.loop.Restore(snap); err != nil {
			p.Close()
		}
	}
	return p, err
}

// Elapsed returns the nanoseconds since the cluster's epoch: the axis
// its churn times and every peer's fault windows are measured on.
func (cl *Cluster) Elapsed() float64 { return float64(time.Since(cl.epoch)) }

// after runs the churn action act d from now. Actions serialize on
// churnMu and do nothing once Close has marked the cluster closed, so
// none is mid-flight when Close returns; the first failed action is
// kept for Converge.
func (cl *Cluster) after(d time.Duration, act func() error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.timers = append(cl.timers, time.AfterFunc(d, func() {
		cl.churnMu.Lock()
		defer cl.churnMu.Unlock()
		if cl.closed {
			return
		}
		if err := act(); err != nil {
			cl.mu.Lock()
			if cl.churnErr == nil {
				cl.churnErr = err
			}
			cl.mu.Unlock()
		}
	}))
}

// restartPeer rebuilds peer i after its crash closed it: bind a fresh
// peer restored from snap (recovered: a checkpoint), splice it into the
// mesh (its port is new), and start it. The closed peer's counters are
// folded into the cluster's record as it is replaced.
func (cl *Cluster) restartPeer(i int, snap []byte, recovered bool) error {
	peer, err := cl.newPeer(i, snap)
	if err != nil {
		return fmt.Errorf("netpeer: restart peer %d: %w", i, err)
	}
	cl.mu.Lock()
	if recovered {
		cl.gone.Recoveries++
	}
	cl.gone.Tally(cl.Peers[i].stack)
	cl.Peers[i] = peer
	for j, q := range cl.Peers {
		if j == i {
			continue
		}
		peer.SetPeer(int32(j), q.Addr())
		q.SetPeer(int32(i), peer.Addr())
		if q.stack.Reliable != nil {
			// Senders that gave the dead peer up resume immediately.
			q.stack.Reliable.ClearBreaker(i)
		}
	}
	cl.mu.Unlock()
	peer.Start()
	return nil
}

// Peer returns the live peer for group i — race-free against churn
// restarts, unlike indexing Peers directly.
func (cl *Cluster) Peer(i int) *Peer {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if i < 0 || i >= len(cl.Peers) {
		return nil
	}
	return cl.Peers[i]
}

// Assemble snapshots every peer's local ranks into one global vector.
func (cl *Cluster) Assemble() vecmath.Vec {
	out := vecmath.NewVec(len(cl.Reference))
	cl.mu.Lock()
	peers := append([]*Peer(nil), cl.Peers...)
	cl.mu.Unlock()
	cl.Deployment.Assemble(out, func(i int) dprcore.Ranker { return peers[i] })
	return out
}

// RelErr returns the current relative error against the centralized
// reference.
func (cl *Cluster) RelErr() float64 {
	return vecmath.RelErr1(cl.Assemble(), cl.Reference)
}

// Converge samples the cluster every 20 ms of Elapsed until the
// relative error reaches target or timeout expires, and returns the
// run record, its counters summed over every peer the cluster ran,
// churned ones included. A churn restart that failed returns at once,
// and so does a target that is not a positive finite number, which no
// run can reach.
func (cl *Cluster) Converge(target float64, timeout time.Duration) (*dprcore.Record, error) {
	if !(target > 0) || math.IsInf(target, 1) {
		return nil, fmt.Errorf("netpeer: converge target = %v, must be positive and finite", target)
	}
	rec := &dprcore.Record{ConvergedAt: -1}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for deadline := time.Now().Add(timeout); ; <-tick.C {
		cl.mu.Lock()
		err, peers := cl.churnErr, append([]*Peer(nil), cl.Peers...)
		cl.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if cl.Deployment.Sample(rec, cl.Elapsed(), cl.Reference, target, func(i int) dprcore.Ranker { return peers[i] }) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("netpeer: not converged to %v within %v (rel err %v)", target, timeout, rec.RelErr)
		}
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	rec.FaultStats, rec.ReliableStats, rec.Recoveries = cl.gone.FaultStats, cl.gone.ReliableStats, cl.gone.Recoveries
	for _, p := range cl.Peers {
		rec.Tally(p.stack)
	}
	return rec, nil
}

// Close shuts the cluster down: pending churn timers are stopped, an
// action already running finishes (and none runs after), then every
// peer closes.
func (cl *Cluster) Close() {
	cl.mu.Lock()
	timers := cl.timers
	cl.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	cl.churnMu.Lock()
	cl.closed = true
	cl.churnMu.Unlock()
	cl.mu.Lock()
	peers := append([]*Peer(nil), cl.Peers...)
	cl.mu.Unlock()
	for _, p := range peers {
		p.Close()
	}
}
