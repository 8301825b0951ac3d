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
	"math/bits"

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
// Push/Pop) is measurable on the simulator's hottest path. It used to be
// the whole scheduler; today it is the building block of calendarQueue —
// each wheel bucket and the overflow level are one of these, so a bucket
// holding k events costs O(log k) per op instead of O(log n) over the
// entire pending set.
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

// Calendar-queue sizing. The wheel starts at wheelMinBuckets and grows
// by rebuild (power of two) toward wheelMaxBuckets as the pending set
// grows, keeping the average bucket occupancy O(1); see DESIGN.md §14.
const (
	wheelMinBuckets = 1 << 10
	wheelMaxBuckets = 1 << 20
	// minBucketWidth guards the adaptive width against degenerate
	// (zero/denormal) spans; virtual times in this codebase are O(1).
	minBucketWidth = 1e-12
)

// calendarQueue is the event scheduler: a timer wheel of width-`width`
// buckets covering the window [start, start+len(buckets)*width), each
// bucket a small eventHeap, plus a sorted overflow heap for events
// beyond the window. Schedule and pop are O(1) amortized: an insert
// indexes straight into its bucket, and pop scans the occupancy bitmap
// from cur for the first non-empty bucket.
//
// Correctness never depends on the layout parameters (start, width,
// cur, bucket count): the bucket index floor((at-start)/width) is
// monotone non-decreasing in `at` (IEEE subtraction and division by a
// positive constant are monotone), so every event in bucket b has a
// strictly earlier time than every event in bucket b' > b, events that
// share a time always share a bucket (seq ties break inside the bucket
// heap), and the overflow split is consistent with the same monotone
// map. Pop order is therefore exactly the (at, seq) total order the old
// global heap produced — which is what keeps every determinism
// fingerprint unchanged.
type calendarQueue struct {
	buckets  []eventHeap // power-of-two count
	occ      []uint64    // occupancy bitmap: bit b set ⇔ buckets[b] non-empty
	start    float64     // left edge of buckets[0]
	width    float64     // bucket width in virtual time units
	cur      int         // first possibly-occupied bucket; all below are empty
	overflow eventHeap   // events at or beyond the wheel window
	n        int         // total pending (wheel + overflow)
	nWheel   int         // pending in wheel buckets
	anchored bool        // false until the first push (re)anchors the wheel
	scratch  []*event    // rebuild scratch, reused across rebuilds
}

// push inserts e, anchoring the wheel on first use and growing it when
// the pending set outruns the bucket count.
//
//p2plint:hotpath -- every scheduled event enters the queue here
func (q *calendarQueue) push(e *event) {
	q.n++
	if !q.anchored {
		q.anchor(e.at)
	}
	if q.n > 4*len(q.buckets) && len(q.buckets) < wheelMaxBuckets {
		q.rebuild(e)
		return
	}
	q.insert(e)
}

// anchor (re)positions the wheel window at `at`, keeping the adaptive
// width from the previous epoch (the first epoch starts with a width
// matched to the network-latency timescale; rebuild re-fits it to the
// observed span as soon as the pending set grows).
func (q *calendarQueue) anchor(at float64) {
	if q.buckets == nil {
		//p2plint:allow hotalloc -- one-time wheel allocation, reused for the simulator's lifetime
		q.buckets = make([]eventHeap, wheelMinBuckets)
		//p2plint:allow hotalloc -- one-time occupancy bitmap, reused for the simulator's lifetime
		q.occ = make([]uint64, wheelMinBuckets/64)
		q.width = 1.0 / wheelMinBuckets
	}
	q.start = at
	q.cur = 0
	q.anchored = true
}

// insert places e into its bucket, or the overflow heap when it lies
// beyond the wheel window. Indices below cur (possible only through
// floating-point slack or an event scheduled before the anchor) clamp
// up to cur: the bucket heap orders by (at, seq) regardless, and every
// later bucket holds strictly later events, so a clamp is harmless.
func (q *calendarQueue) insert(e *event) {
	f := (e.at - q.start) / q.width
	if f >= float64(len(q.buckets)) {
		q.overflow.push(e)
		return
	}
	i := int(f)
	if i < q.cur {
		i = q.cur
	}
	q.buckets[i].push(e)
	q.occ[i>>6] |= 1 << (uint(i) & 63)
	q.nWheel++
}

// insertClamped is insert for migrate: an event whose time sits exactly
// on the window edge can round its index to len(buckets); clamping into
// the last bucket keeps it ahead of everything left in overflow (all of
// which is strictly later) instead of looping back there.
func (q *calendarQueue) insertClamped(e *event) {
	f := (e.at - q.start) / q.width
	i := len(q.buckets) - 1
	if f < float64(i) {
		i = int(f)
		if i < q.cur {
			i = q.cur
		}
	}
	q.buckets[i].push(e)
	q.occ[i>>6] |= 1 << (uint(i) & 63)
	q.nWheel++
}

// migrate re-anchors a drained wheel at the earliest overflow event and
// pulls every event inside the new window back into buckets. Called
// from peek when nWheel == 0 and overflow is not empty.
func (q *calendarQueue) migrate() {
	q.anchor(q.overflow[0].at)
	limit := q.start + float64(len(q.buckets))*q.width
	for len(q.overflow) > 0 && q.overflow[0].at < limit {
		q.insertClamped(q.overflow.pop())
	}
}

// rebuild resizes the wheel to fit the pending set (optionally folding
// in one extra event from push) and re-fits width so the observed span
// lands ~2 events per bucket. O(n), amortized O(1) against the inserts
// that grew the set.
func (q *calendarQueue) rebuild(extra *event) {
	s := q.scratch[:0]
	if extra != nil {
		s = append(s, extra)
	}
	for b := q.cur; b < len(q.buckets); b++ {
		s = append(s, q.buckets[b]...)
		q.buckets[b] = q.buckets[b][:0]
	}
	s = append(s, q.overflow...)
	q.overflow = q.overflow[:0]
	q.scratch = s[:0]

	nb := len(q.buckets)
	for nb < wheelMaxBuckets && len(s) > 2*nb {
		nb *= 2
	}
	if nb != len(q.buckets) {
		//p2plint:allow hotalloc -- wheel resize to the pending-set high-water mark; rare and amortized
		q.buckets = make([]eventHeap, nb)
		//p2plint:allow hotalloc -- occupancy bitmap resize, paired with the wheel resize
		q.occ = make([]uint64, nb/64)
	} else {
		for i := range q.occ {
			q.occ[i] = 0
		}
	}

	minAt, maxAt := math.Inf(1), math.Inf(-1)
	for _, e := range s {
		if e.at < minAt {
			minAt = e.at
		}
		if e.at > maxAt {
			maxAt = e.at
		}
	}
	if span := maxAt - minAt; span > 0 {
		w := 2 * span / float64(len(s))
		if w < minBucketWidth {
			w = minBucketWidth
		}
		q.width = w
	}
	q.start = minAt
	q.cur = 0
	q.nWheel = 0
	for i, e := range s {
		q.insert(e)
		s[i] = nil
	}
}

// peek returns the earliest pending event without removing it (nil when
// empty), advancing cur to its bucket as a side effect.
func (q *calendarQueue) peek() *event {
	if q.n == 0 {
		return nil
	}
	if q.nWheel == 0 {
		q.migrate()
	}
	w := q.cur >> 6
	mask := ^uint64(0) << (uint(q.cur) & 63)
	for {
		if b := q.occ[w] & mask; b != 0 {
			q.cur = w<<6 + bits.TrailingZeros64(b)
			return q.buckets[q.cur][0]
		}
		w++
		mask = ^uint64(0)
	}
}

// pop removes and returns the earliest pending event (nil when empty).
//
//p2plint:hotpath -- every executed event leaves the queue here
func (q *calendarQueue) pop() *event {
	if q.peek() == nil {
		return nil
	}
	h := &q.buckets[q.cur]
	e := h.pop()
	if len(*h) == 0 {
		q.occ[q.cur>>6] &^= 1 << (uint(q.cur) & 63)
	}
	q.nWheel--
	q.n--
	if q.n == 0 {
		// Re-anchor on the next push: the window may be far behind by
		// the time the queue refills.
		q.anchored = false
	} else if len(q.buckets) > wheelMinBuckets && q.n < len(q.buckets)/16 {
		q.rebuild(nil)
	}
	return e
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
	events calendarQueue
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
func (s *Simulator) Pending() int { return s.events.n }

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
	s.events.push(e)
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
// values, so nothing escapes per event.
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
	s.events.push(e)
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
	s.events.push(t.e)
}

// step executes the earliest event, batching a contiguous same-instant
// run of two-phase events into one parallel compute phase. It returns
// the number of events executed (0 when the queue is empty); budget > 0
// caps the batch size.
//
//p2plint:hotpath -- event dispatch loop; every simulated message passes through here
func (s *Simulator) step(budget int) int {
	if s.events.n == 0 {
		return 0
	}
	e := s.events.pop()
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
