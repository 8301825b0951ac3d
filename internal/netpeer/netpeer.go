// Package netpeer runs page rankers as real network peers: each peer
// listens on a TCP socket, executes its asynchronous DPR loop in its own
// goroutine on wall-clock time, and exchanges score vectors with the
// other rankers over length-prefixed codec.Plain frames (see wire.go).
//
// The simulator (internal/engine) is where the paper's measurements
// come from; netpeer exists to demonstrate that the same algorithms run
// unchanged over real sockets, real concurrency, and real partial
// failure (a peer can be stopped and the rest keep converging). The
// algorithms themselves live in internal/dprcore, shared verbatim with
// the simulator's driver (internal/engine); this package only supplies
// the live runtime — wall-clock waits, a TCP transport, and the state
// lock that serializes loop phases against concurrent deliveries.
//
// Peers default to direct transmission — with a static in-process
// cluster every peer knows every address, the regime the paper says
// direct transmission suits (small N) — and optionally to indirect
// transmission, forwarding score frames hop-by-hop along a structured
// overlay exactly as §4.4 describes, batching chunks that share a next
// hop into one frame.
package netpeer

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2prank/internal/dprcore"
	"p2prank/internal/overlay"
	"p2prank/internal/telemetry"
	"p2prank/internal/transport"
	"p2prank/internal/vecmath"
	"p2prank/internal/webgraph"
	"p2prank/internal/xrand"
)

// frame is the single wire message: a batch of score chunks plus any
// cumulative delivery acknowledgements riding back (reliable mode).
type frame struct {
	Chunks []transport.ScoreChunk
	// Acks, when non-empty, acknowledges delivery end-to-end: group From
	// has delivered the receiver's chunks up to and including Round.
	Acks []transport.Ack
}

// Peer is one live page ranker: a dprcore.Loop plus the TCP runtime
// that drives it.
type Peer struct {
	grp *dprcore.Group
	// ov is the ring frames hop along in indirect mode, nil in direct.
	ov overlay.Network
	ln net.Listener

	// mu serializes the loop's phases (rank goroutine) against chunk
	// deliveries (read goroutines). Frames are never written while mu is
	// held — a peer blocked on a TCP write with its state locked would
	// stall its own readLoop and, under backpressure, deadlock a cycle
	// of peers. CommitPhase therefore emits into the outbox, and each
	// shipping goroutine runs its relay step under mu and writes the
	// frames it drained after unlocking.
	mu   sync.Mutex
	loop *dprcore.Loop

	out   *outbox
	stack dprcore.Stack // the fault→reliable chain over out

	peersMu sync.Mutex
	peers   map[int32]string

	connMu   sync.Mutex
	conns    map[int32]*peerConn
	accepted map[net.Conn]struct{}

	sent     atomic.Int64
	relayed  atomic.Int64
	rejected atomic.Int64
	started  atomic.Bool
	closed   atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

type peerConn struct {
	c net.Conn
	// wmu serializes writeFrame calls: the rank loop and forwarding
	// readLoops may send on the same connection concurrently, and
	// frame writers are not goroutine-safe.
	wmu sync.Mutex
	w   *frameWriter
}

func (pc *peerConn) write(f frame) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	//p2plint:allow lockscope -- wmu exists to serialize this very write; no other lock nests under it
	return pc.w.writeFrame(f)
}

// outbox is the loop's Sender: sends are buffered here (self-locked —
// delayed fault re-injections and retransmissions append from timer
// goroutines) until the rank loop drains them into its relay step.
type outbox struct {
	mu     sync.Mutex
	chunks []transport.ScoreChunk
}

//p2plint:hotpath -- commit-context buffering; one append per chunk per round
func (o *outbox) Send(from int, chunk transport.ScoreChunk) error {
	o.mu.Lock()
	o.chunks = append(o.chunks, chunk)
	o.mu.Unlock()
	return nil
}

// Flush is a no-op: the rank loop drains after every commit.
func (o *outbox) Flush(from int) error { return nil }

func (o *outbox) drain() []transport.ScoreChunk {
	o.mu.Lock()
	chunks := o.chunks
	o.chunks = nil
	o.mu.Unlock()
	return chunks
}

// stopWaiter is the peer's dprcore.Waiter: real sleeps, interruptible
// by Close.
type stopWaiter struct{ stop <-chan struct{} }

func (w stopWaiter) Wait(d float64) bool {
	select {
	case <-w.stop:
		return false
	case <-time.After(time.Duration(d)):
		return true
	}
}

// wallClock is the peer's dprcore.Clock — the only place the live
// stack touches wall time on behalf of the core. Times are float64
// nanoseconds, the unit of a live peer's T1/T2.
type wallClock struct{}

func (wallClock) Now() float64 { return float64(time.Now().UnixNano()) }

func (wallClock) After(d float64, fn func()) { time.AfterFunc(time.Duration(d), fn) }

// Listen deploys g as StartCluster does — one ClusterConfig, so every
// process given the same crawl and config cuts the same partition,
// lattice and routes — and binds ranker i of it to addr ("127.0.0.1:0"
// picks a free port), accepting score traffic. Call SetPeer to teach it
// the other rankers' addresses, then Start to begin ranking. The peer's
// fault windows are measured from its own construction. Churn must be
// empty: only a Cluster schedules outages.
func Listen(addr string, g *webgraph.Graph, cfg ClusterConfig, i int) (*Peer, error) {
	if len(cfg.Churn) > 0 {
		return nil, errors.New("netpeer: Churn needs a Cluster; a lone peer schedules no outages")
	}
	dep, ov, err := deploy(g, cfg)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= len(dep.Groups) {
		return nil, fmt.Errorf("netpeer: index %d outside [0, %d)", i, len(dep.Groups))
	}
	return listen(addr, dep, ov, i, time.Now())
}

// listen binds ranker i of dep to addr, relaying over ov (nil: direct),
// with its fault windows measured from epoch.
func listen(addr string, dep *dprcore.Deployment, ov overlay.Network, i int, epoch time.Time) (*Peer, error) {
	params, seed := dep.Params, dep.PeerSeed(i)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netpeer: listen: %w", err)
	}
	p := &Peer{
		grp:      dep.Groups[i],
		ov:       ov,
		ln:       ln,
		out:      &outbox{},
		peers:    make(map[int32]string),
		conns:    make(map[int32]*peerConn),
		accepted: make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	// Faults and then the reliable layer fork their streams from a
	// seed-keyed root of their own, so enabling them never changes the
	// loop's randomness.
	root := xrand.New(seed ^ 0x6c62272e07bb0142)
	p.stack, err = dprcore.NewStack(p.out, wallClock{}, float64(epoch.UnixNano()),
		func() dprcore.RNG { return root.Fork() }, params)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if params.Observer != nil {
		// A collector gets the wall clock (the live stack's Clock) and
		// the route lengths of the overlay the relays route over (1 hop
		// each without one) — mirroring the simulator's wiring in
		// engine.build.
		telemetry.Attach(params.Observer, wallClock{}, func(src, dst int) int {
			return transport.RouteHops(ov, src, dst)
		})
	}
	// Each peer resolves its loop's mean wait from [T1, T2] with its own
	// seed-keyed stream, so a heterogeneous wait range gives every peer a
	// distinct pace — the live analogue of the engine's per-ranker draw.
	mean := params.T1
	if params.T2 > params.T1 {
		mean += xrand.New(seed^0x94d049bb133111eb).Float64() * (params.T2 - params.T1)
	}
	loop, err := dprcore.NewLoop(p.grp, params, mean, p.stack.Sender, xrand.New(seed))
	if err != nil {
		ln.Close()
		return nil, err
	}
	p.loop = loop
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.ln.Addr().String() }

// Group returns the peer's ranker index.
func (p *Peer) Group() int { return p.grp.Index }

// SetPeer registers the address of another ranker's group.
func (p *Peer) SetPeer(group int32, addr string) {
	p.peersMu.Lock()
	defer p.peersMu.Unlock()
	p.peers[group] = addr
}

// Loops returns the number of main-loop iterations executed.
func (p *Peer) Loops() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loop.Loops()
}

// ChunksSent returns the number of score chunks shipped.
func (p *Peer) ChunksSent() int64 { return p.sent.Load() }

// ChunksRelayed returns the number of chunks this peer forwarded on
// behalf of others (indirect transmission only).
func (p *Peer) ChunksRelayed() int64 { return p.relayed.Load() }

// ChunksRejected returns the number of chunks addressed to this peer
// that its loop refused (dprcore.ErrBadChunk), plus chunks addressed
// elsewhere that it may not relay: outside the ring in indirect mode,
// any other group in direct mode. The wire is outside input, so they
// are dropped and counted, never trusted.
func (p *Peer) ChunksRejected() int64 { return p.rejected.Load() }

// Ranks returns a snapshot of the peer's current local rank vector.
func (p *Peer) Ranks() vecmath.Vec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loop.Ranks().Clone()
}

// scatterRanks copies the local ranks into dst at the group's global
// page IDs.
func (p *Peer) scatterRanks(dst vecmath.Vec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.loop.Ranks()
	for li, pg := range p.grp.Pages {
		dst[pg] = r[li]
	}
}

// snapshot returns the loop's encoded state (dprcore.Loop.Snapshot).
func (p *Peer) snapshot() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loop.Snapshot()
}

// Start launches the ranking loop. It is idempotent.
func (p *Peer) Start() {
	if p.started.Swap(true) {
		return
	}
	p.wg.Add(1)
	go p.rankLoop()
}

// Alive reports whether the peer has started ranking and has not been
// closed.
func (p *Peer) Alive() bool { return p.started.Load() && !p.closed.Load() }

// Close stops the loop, the listener, and all connections, then waits
// for the peer's goroutines to exit. It is idempotent and safe to call
// concurrently (a churn crash can race the cluster's own shutdown).
func (p *Peer) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.stop)
	err := p.ln.Close()
	p.connMu.Lock()
	for _, pc := range p.conns {
		pc.c.Close()
	}
	p.conns = make(map[int32]*peerConn)
	// Inbound connections block their readLoops in Decode until the
	// remote side closes; close them here so Close never deadlocks on
	// peers that outlive us.
	for c := range p.accepted {
		c.Close()
	}
	p.connMu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Peer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.connMu.Lock()
		if p.closed.Load() {
			// Accept returned just ahead of Close, which has already
			// swept p.accepted: nothing local would ever close this
			// connection, and Close would wait on its readLoop until
			// the remote peer went away.
			p.connMu.Unlock()
			conn.Close()
			continue
		}
		p.accepted[conn] = struct{}{}
		p.connMu.Unlock()
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

func (p *Peer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		conn.Close()
		p.connMu.Lock()
		delete(p.accepted, conn)
		p.connMu.Unlock()
	}()
	rl := p.newRelay()
	dec := newFrameReader(conn)
	for {
		f, err := dec.readFrame()
		if err != nil {
			return // connection closed or corrupt; peer will resend
		}
		p.handleFrame(rl, f)
	}
}

// newRelay returns the relay step of one shipping goroutine (the rank
// loop or a readLoop): its boxes are that goroutine's own, so nothing
// it drains outlives the lock shared.
func (p *Peer) newRelay() *transport.Relay {
	rl := transport.NewRelay(p.ov, new([][]transport.ScoreChunk), p.stack.Reliable != nil)
	return &rl
}

// deliverer is the peer as its relays' transport.Receiver: a chunk
// addressed here goes to the loop, which refuses what its group could
// not have been sent (dprcore.ErrBadChunk). Relays call it under mu.
type deliverer Peer

func (d *deliverer) Receive(_ int, c transport.ScoreChunk) bool { return d.loop.Deliver(c) == nil }

// handleFrame processes one received frame: its acks go to the reliable
// layer, its chunks through the relay step under mu, and the step's
// acks and relays onto the wire once mu is released.
func (p *Peer) handleFrame(rl *transport.Relay, f frame) {
	if p.stack.Reliable != nil {
		for _, a := range f.Acks {
			p.stack.Reliable.Ack(p.grp.Index, a.From, a.Round)
		}
	}
	p.mu.Lock()
	acks, relayed, rejected := rl.Arrive(p.grp.Index, f.Chunks, (*deliverer)(p))
	batches := rl.Drain()
	p.mu.Unlock()
	p.relayed.Add(int64(relayed))
	p.rejected.Add(int64(rejected))
	p.ship(rl, acks, batches)
}

// rankLoop is the peer's main loop: dprcore.Drive's wait/compute/commit
// cycle, inlined so the phases run under the state lock (deliveries
// arrive concurrently) and the emitted chunks go on the wire after the
// lock is released.
func (p *Peer) rankLoop() {
	defer p.wg.Done()
	rl := p.newRelay()
	w := stopWaiter{stop: p.stop}
	for w.Wait(p.loop.NextWait()) {
		p.mu.Lock()
		p.loop.ComputePhase()
		p.loop.CommitPhase()
		for _, c := range p.out.drain() {
			rl.Queue(p.grp.Index, c)
		}
		batches := rl.Drain()
		p.mu.Unlock()
		p.ship(rl, nil, batches)
	}
}

// ship writes one relay step's output: the acks first (end-to-end,
// straight back to each source), then one frame per next hop in
// ascending hop order. It runs with mu released.
func (p *Peer) ship(rl *transport.Relay, acks []transport.Ack, batches []transport.Batch) {
	for i := range acks {
		p.sendFrame(acks[i].To, frame{Acks: acks[i : i+1]})
	}
	for _, b := range batches {
		p.sendFrame(int32(b.Hop), frame{Chunks: b.Chunks})
	}
	rl.Recycle(batches)
}

// sendFrame ships one frame to the peer of the given group, dialing
// lazily and dropping the frame on any network error (the algorithms
// tolerate loss; the next loop resends fresher scores, and the reliable
// layer retries unacked chunks).
func (p *Peer) sendFrame(group int32, f frame) {
	p.peersMu.Lock()
	addr, ok := p.peers[group]
	p.peersMu.Unlock()
	if !ok {
		return // destination not known yet
	}
	pc, err := p.conn(group, addr)
	if err != nil {
		return
	}
	if err := pc.write(f); err != nil {
		// Drop the broken connection; the next send re-dials.
		p.connMu.Lock()
		if cur, ok := p.conns[group]; ok && cur == pc {
			cur.c.Close()
			delete(p.conns, group)
		}
		p.connMu.Unlock()
		return
	}
	p.sent.Add(int64(len(f.Chunks)))
}

func (p *Peer) conn(group int32, addr string) (*peerConn, error) {
	p.connMu.Lock()
	pc, ok := p.conns[group]
	p.connMu.Unlock()
	if ok {
		return pc, nil
	}
	// Dial outside connMu: a 2s TCP timeout held under the lock would
	// stall every other sender (and Close) behind one dead peer.
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if cached, ok := p.conns[group]; ok {
		// A concurrent dialer won the race; keep its connection.
		c.Close()
		return cached, nil
	}
	pc = &peerConn{c: c, w: newFrameWriter(c)}
	p.conns[group] = pc
	return pc, nil
}
