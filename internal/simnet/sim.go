// Package simnet is a deterministic discrete-event simulator with a
// message-passing network layer on top. The distributed-PageRank
// experiments run on it: virtual time stands in for the paper's waiting
// time units (T1, T2), message loss models the paper's send-failure
// probability p, and byte/message counters feed the transmission-cost
// comparison of §4.4.
//
// Determinism: events at equal times fire in scheduling order, and all
// randomness flows from one seed, so an experiment is a pure function of
// its configuration. Two-phase events (Timer) may run their compute
// halves concurrently, but their commit halves — the only halves allowed
// to mutate shared state, draw randomness, or schedule — still fire
// serially in scheduling order, so the executed history is identical to
// the single-threaded one.
package simnet

import (
	"fmt"
	"math"

	"p2prank/internal/par"
	"p2prank/internal/xrand"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq uint64 // tie-break so equal-time events fire FIFO
	fn  func()
	// argFn/arg are the closure-free form (AtArg): argFn(arg) fires
	// instead of fn. Hot schedulers reuse one function value and a
	// pooled argument rather than allocating a closure per event.
	argFn func(any)
	arg   any
	// compute marks a two-phase event (Timer): the compute half may
	// run concurrently with other compute halves at the same instant and
	// returns the commit half to run serially. nil for plain events.
	compute func() func()
	// pinned marks an event owned by a Timer: it is re-armed in place
	// and must never enter the freelist.
	pinned bool
}

// eventLess orders events by time, then FIFO by sequence number. The
// (at, seq) pair is a strict total order, so any correct scheduler pops
// events in exactly this order — the executed history does not depend
// on the queue's internal layout.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap. container/heap would work,
// but its interface indirection (Less/Swap calls, any boxing in
// Push/Pop) is measurable on the simulator's hottest path. It holds
// timers, plain events and any delivery that arrives out of order; see
// eventQueue.
type eventHeap []*event

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	*h = q
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !eventLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() *event {
	q := *h
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(q[r], q[c]) {
			c = r
		}
		if !eventLess(q[c], q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return e
}

// eventLane is a FIFO ring of events already in (at, seq) order: an
// event joins at the tail only when it sorts after the tail, so the
// head is always the lane's earliest event.
type eventLane struct {
	buf  []*event // power-of-two length
	head int      // index of the earliest event
	n    int
}

func (l *eventLane) front() *event { return l.buf[l.head] }

func (l *eventLane) tail() *event { return l.buf[(l.head+l.n-1)&(len(l.buf)-1)] }

func (l *eventLane) push(e *event) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
}

func (l *eventLane) pop() *event {
	e := l.buf[l.head]
	l.buf[l.head] = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return e
}

// grow doubles the ring, unrolling it to start at index 0.
func (l *eventLane) grow() {
	//p2plint:allow hotalloc -- ring growth to the in-flight high-water mark; steady state reuses it
	buf := make([]*event, max(64, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// eventQueue is the event scheduler: a binary min-heap plus an in-order
// delivery lane. Network deliveries under fixed latency are scheduled at
// now + latency, an instant that never decreases, so they arrive sorted;
// the lane takes each one in O(1) instead of paying heap depth. pop
// returns whichever head is earlier under eventLess.
//
// Both structures are sorted by (at, seq), and seq only grows, so the
// merge pops in exactly the (at, seq) total order one global heap
// produces — which is what keeps every determinism fingerprint
// unchanged. Timers and plain At events always go to the heap: a
// far-future timer at the lane's tail would turn every later delivery
// away from the lane.
type eventQueue struct {
	heap eventHeap
	lane eventLane
}

// len returns the number of pending events in both structures.
func (q *eventQueue) len() int { return len(q.heap) + q.lane.n }

// pushDelivery enqueues a delivery event: on the lane when it sorts
// after the lane's tail, on the heap otherwise.
//
//p2plint:hotpath -- every network delivery enters the queue here
func (q *eventQueue) pushDelivery(e *event) {
	if q.lane.n == 0 || !eventLess(e, q.lane.tail()) {
		q.lane.push(e)
		return
	}
	q.heap.push(e)
}

// laneFirst reports whether the lane's head is the earliest pending
// event (false when the lane is empty).
func (q *eventQueue) laneFirst() bool {
	return q.lane.n > 0 && (len(q.heap) == 0 || eventLess(q.lane.front(), q.heap[0]))
}

// peek returns the earliest pending event without removing it (nil when
// empty).
func (q *eventQueue) peek() *event {
	if q.laneFirst() {
		return q.lane.front()
	}
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// pop removes and returns the earliest pending event (nil when empty).
//
//p2plint:hotpath -- every executed event leaves the queue here
func (q *eventQueue) pop() *event {
	if q.laneFirst() {
		return q.lane.pop()
	}
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap.pop()
}

// eventFreeListCap bounds the executed-event freelist. A scheduling
// spike (a 10⁵-node run tearing down, say) would otherwise pin its
// high-water mark of event structs for the rest of the run; beyond the
// cap, executed events are left for the garbage collector.
const eventFreeListCap = 1 << 16

// Simulator owns the virtual clock and the event queue. Create one with
// New; its methods must be called from one goroutine (the simulation is
// logically single-threaded, which is what makes it reproducible — the
// compute halves of two-phase events are the sole exception, and they
// are barred from touching the simulator).
type Simulator struct {
	now    float64
	events eventQueue
	seq    uint64
	rng    *xrand.Rand
	ran    uint64

	// batch and commits are scratch for step's compute-phase batching,
	// and free recycles executed event structs; together they make
	// steady-state stepping allocation-free.
	batch   []*event
	commits []func()
	free    []*event
}

// newEvent pops a recycled event or allocates one.
func (s *Simulator) newEvent() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	//p2plint:allow hotalloc -- freelist refill; steady state recycles executed events
	return &event{}
}

// freeEvent returns an executed event to the freelist. Timer-owned
// (pinned) events are skipped — their owner re-arms them in place — and
// the freelist is capped so spikes don't pin memory (eventFreeListCap).
func (s *Simulator) freeEvent(e *event) {
	if e.pinned {
		return
	}
	*e = event{}
	if len(s.free) < eventFreeListCap {
		s.free = append(s.free, e)
	}
}

// New returns a Simulator whose randomness derives from seed.
func New(seed uint64) *Simulator {
	return &Simulator{rng: xrand.New(seed)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Rand returns the simulator's root random stream. Entities that need
// private streams should Fork it at setup time.
func (s *Simulator) Rand() *xrand.Rand { return s.rng }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.events.len() }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.ran }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics — it would silently reorder causality.
func (s *Simulator) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("simnet: scheduling at non-finite time %v", t))
	}
	s.seq++
	e := s.newEvent()
	e.at, e.seq, e.fn = t, s.seq, fn
	s.events.heap.push(e)
}

// After schedules fn d time units from now. Negative d panics.
func (s *Simulator) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t. It is the
// allocation-free sibling of At for hot schedulers (the network's
// delivery path): the caller keeps one long-lived fn and pools its arg
// values, so nothing escapes per event. An AtArg event that does not
// sort before the lane's tail (the latest in-order delivery still
// pending) takes the queue's in-order lane instead of the heap.
//
//p2plint:hotpath -- per-message scheduling path of the simulated network
func (s *Simulator) AtArg(t float64, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("simnet: scheduling at non-finite time %v", t))
	}
	s.seq++
	e := s.newEvent()
	e.at, e.seq, e.argFn, e.arg = t, s.seq, fn, arg
	s.events.pushDelivery(e)
}

// AfterArg schedules fn(arg) d time units from now; see AtArg. Negative
// d panics.
func (s *Simulator) AfterArg(d float64, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v", d))
	}
	s.AtArg(s.now+d, fn, arg)
}

// Timer is the simulator's two-phase event: a pre-allocated, re-armable
// event for entities that reschedule themselves for the lifetime of a
// run — the rankers' wait timers. When it fires, its compute half runs
// first — possibly concurrently with the compute halves of other timers
// firing at the same instant — and returns the commit half (nil for
// none), which runs on the simulation goroutine in scheduling order.
//
// The contract that keeps this deterministic: compute must only read
// state no concurrent compute writes and write state private to its
// entity. Everything else — sends, shared mutation, randomness,
// scheduling, reading the clock — belongs in the commit. Because new
// events always receive later sequence numbers than the batch being
// executed, no commit can inject work between two batched computes.
//
// Re-arming reuses one pinned event struct that never enters the
// freelist, so an entity's entire lifetime of waits costs a single
// allocation regardless of run length. Every arm draws a fresh sequence
// number, so timers order against every other event by (time, arm
// order).
type Timer struct {
	s       *Simulator
	e       *event
	compute func() func()
	armed   bool
}

// NewComputeTimer returns a Timer that runs compute as a two-phase
// event each time it is scheduled.
func (s *Simulator) NewComputeTimer(compute func() func()) *Timer {
	t := &Timer{s: s, compute: compute}
	t.e = &event{pinned: true}
	t.e.compute = t.fire
	return t
}

// fire is the pinned event's compute half: it disarms the timer (so the
// commit half may re-arm it) and delegates to the user's compute. It
// runs in the parallel compute phase, but only ever touches its own
// timer, and the serial scheduler is quiescent while compute halves
// run, so there is no race with arming.
func (t *Timer) fire() func() {
	t.armed = false
	return t.compute()
}

// Schedule arms the timer d time units from now. Negative d panics, as
// does re-arming a timer that is already pending — that would corrupt
// the queue (one event struct in two places).
//
//p2plint:hotpath -- the rankers' per-iteration wait path; re-arms in place, no allocation
func (t *Timer) Schedule(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v", d))
	}
	if t.armed {
		panic("simnet: Timer re-armed while pending")
	}
	s := t.s
	at := s.now + d
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("simnet: scheduling at non-finite time %v", at))
	}
	s.seq++
	t.e.at, t.e.seq = at, s.seq
	t.armed = true
	s.events.heap.push(t.e)
}

// step executes the earliest event, batching a contiguous same-instant
// run of two-phase events into one parallel compute phase. It returns
// the number of events executed (0 when the queue is empty); budget > 0
// caps the batch size.
//
//p2plint:hotpath -- event dispatch loop; every simulated message passes through here
func (s *Simulator) step(budget int) int {
	e := s.events.pop()
	if e == nil {
		return 0
	}
	s.now = e.at
	if e.compute == nil {
		s.ran++
		fn, argFn, arg := e.fn, e.argFn, e.arg
		s.freeEvent(e)
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
		return 1
	}
	// Gather the run of two-phase events at this exact instant. A plain
	// event in between (earlier seq) ends the batch, preserving FIFO.
	// Detach the scratch while in use so a commit that re-enters the
	// event loop (e.g. via RunUntil) cannot clobber this batch.
	batch, commits := append(s.batch[:0], e), s.commits
	s.batch, s.commits = nil, nil
	for budget <= 0 || len(batch) < budget {
		nx := s.events.peek()
		if nx == nil || nx.at != e.at || nx.compute == nil {
			break
		}
		batch = append(batch, s.events.pop())
	}
	if cap(commits) < len(batch) {
		//p2plint:allow hotalloc -- scratch growth to high-water mark; steady state reuses s.commits
		commits = make([]func(), len(batch))
	} else {
		commits = commits[:len(batch)]
	}
	if len(batch) == 1 {
		commits[0] = batch[0].compute()
	} else {
		//p2plint:allow hotalloc -- par fan-out closure, one per multi-event batch
		par.Default().Run(len(batch), func(i int) { commits[i] = batch[i].compute() })
	}
	for i, c := range commits {
		commits[i] = nil
		s.freeEvent(batch[i])
		batch[i] = nil
		s.ran++
		if c != nil {
			c()
		}
	}
	n := len(batch)
	s.batch = batch[:0]
	s.commits = commits[:0]
	return n
}

// Run executes events until the queue drains or maxEvents fire
// (0 = unlimited). It returns the number of events executed.
func (s *Simulator) Run(maxEvents uint64) uint64 {
	var n uint64
	for maxEvents == 0 || n < maxEvents {
		budget := 0
		if maxEvents > 0 {
			budget = int(maxEvents - n)
		}
		k := s.step(budget)
		if k == 0 {
			break
		}
		n += uint64(k)
	}
	return n
}

// RunUntil executes events with timestamps ≤ t, then advances the clock
// to exactly t. Events scheduled later stay queued.
func (s *Simulator) RunUntil(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("simnet: RunUntil(%v) before now %v", t, s.now))
	}
	for {
		nx := s.events.peek()
		if nx == nil || nx.at > t {
			break
		}
		s.step(0)
	}
	s.now = t
}
