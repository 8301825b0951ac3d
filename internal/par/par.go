// Package par is the deterministic parallel-compute layer under the
// vecmath kernels and the simulator's compute phases. It provides a
// small fixed worker pool plus shard-boundary helpers, built around one
// rule: parallelism must never change results.
//
// The rule is enforced structurally rather than by testing luck:
//
//   - Work is split into shards at boundaries that are a pure function
//     of the input (NNZ-balanced row spans for a CSR matrix, fixed-size
//     blocks for dense vectors) — never of GOMAXPROCS or pool size.
//   - Each shard writes only shard-private state (disjoint output rows,
//     or its own partial-reduction slot).
//   - Reductions are combined by the caller in shard order, serially,
//     after all shards finish. Floating-point sums therefore associate
//     the same way no matter how many workers ran.
//
// Under those three constraints a computation is bit-identical to its
// single-threaded execution at any worker count, which is what lets
// the simulation results stay a pure function of seed and
// configuration (see DESIGN.md §8).
//
// The pool blocks on channels only — never time.Sleep, never spinning —
// so it is in scope for p2plint's nowallclock analyzer.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of helper goroutines that execute shard
// functions. The zero value is not usable; create one with NewPool or
// use the process-wide Default pool.
//
// Run is safe for concurrent use, including nested use: a shard
// function may itself call Run (on this or another pool). Dispatch to
// helpers is non-blocking, so a fully busy pool degrades to inline
// execution on the caller instead of deadlocking.
type Pool struct {
	workers int
	jobs    chan *run
}

// NewPool returns a pool with the given number of helper goroutines.
// The goroutines live for the life of the process, blocked on a
// channel while idle. workers may be 0: Run then executes everything
// inline on the caller.
func NewPool(workers int) *Pool {
	if workers < 0 {
		workers = 0
	}
	p := &Pool{workers: workers, jobs: make(chan *run)}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for r := range p.jobs {
		r.work()
		r.wg.Done()
	}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool, created on first use with
// GOMAXPROCS−1 helpers (the caller of Run is the remaining worker).
// Changing GOMAXPROCS later alters how the scheduler multiplexes the
// helpers, never the results — that is the point of the package.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = NewPool(runtime.GOMAXPROCS(0) - 1)
	})
	return defaultPool
}

// run is one pooled dispatch: the shard counter the caller and its
// helpers draw from, and the panic of the lowest-numbered shard that
// had one. It is the dispatch's only allocation.
type run struct {
	fn   func(shard int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup

	mu         sync.Mutex
	panicked   bool
	panicShard int
	panicVal   any
}

// work draws shards until none are left.
func (r *run) work() {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		r.shard(i)
	}
}

// shard isolates the recover so a shard panic is recorded instead of
// killing a worker goroutine.
func (r *run) shard(i int) {
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			if !r.panicked || i < r.panicShard {
				r.panicked, r.panicShard, r.panicVal = true, i, v
			}
			r.mu.Unlock()
		}
	}()
	r.fn(i)
}

// Run executes fn(shard) for every shard in [0, n) and returns once all
// have completed. Shards may run concurrently; fn must confine writes
// to shard-private state (Package rules above). Shard-to-worker
// assignment is work-stealing and nondeterministic, which is harmless
// because outputs are placed by shard index, not by worker.
//
// If one or more shards panic, Run re-panics on the caller with the
// panic value of the lowest-numbered panicking shard, after every
// shard has finished — deterministic even when several fail at once.
func (p *Pool) Run(n int, fn func(shard int)) {
	if n <= 0 {
		return
	}
	if n == 1 || p.workers == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := &run{fn: fn, n: n}
	for helpers := min(p.workers, n-1); helpers > 0; helpers-- {
		r.wg.Add(1)
		select {
		case p.jobs <- r:
			continue
		default:
		}
		// Every helper is busy (e.g. a nested Run from inside a shard).
		// Fall back to inline execution rather than block: the caller
		// drains all remaining shards itself.
		r.wg.Done()
		break
	}
	r.work()
	r.wg.Wait()
	if r.panicked {
		panic(r.panicVal)
	}
}

// Sum returns fn(0) + fn(1) + … + fn(n−1), the partials added left to
// right in shard order whichever worker produced them: rule three of
// the package as a function.
func (p *Pool) Sum(n int, fn func(shard int) float64) float64 {
	s := 0.0
	if n <= 1 || p.workers == 0 {
		for i := 0; i < n; i++ {
			s += fn(i)
		}
		return s
	}
	partials := make([]float64, n)
	p.Run(n, func(i int) { partials[i] = fn(i) })
	for _, v := range partials {
		s += v
	}
	return s
}

// SplitPrefix splits the rows [0, len(pfx)-1) into at most maxShards
// contiguous spans of roughly equal weight, where pfx is a
// nondecreasing prefix-weight array (pfx[i] = total weight of rows
// before i; a CSR RowPtr is exactly this for NNZ weighting). The
// returned boundaries b satisfy b[0] = 0, b[len(b)-1] = n, and are
// strictly increasing — empty shards are elided ([0] alone for n = 0).
// The split is a pure function of pfx and maxShards.
func SplitPrefix(pfx []int64, maxShards int) []int32 {
	n := len(pfx) - 1
	if n <= 0 {
		return []int32{0}
	}
	if maxShards < 1 {
		maxShards = 1
	}
	total := pfx[n] - pfx[0]
	b := make([]int32, 1, maxShards+1)
	b[0] = 0
	prev := 0
	for s := 1; s < maxShards && prev < n; s++ {
		target := pfx[0] + (total*int64(s)+int64(maxShards)-1)/int64(maxShards)
		// First row index > prev whose prefix weight reaches the target.
		lo, hi := prev+1, n
		for lo < hi {
			mid := (lo + hi) / 2
			if pfx[mid] >= target {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo > prev && lo < n {
			b = append(b, int32(lo))
			prev = lo
		}
	}
	if prev < n {
		b = append(b, int32(n))
	}
	return b
}

// Blocks returns the number of fixed-size blocks covering [0, n):
// ⌈n/block⌉, at least 1 for n > 0. Dense-vector reductions use this
// with a constant block size so the partial-sum tree — and therefore
// every low bit of the result — is independent of worker count.
func Blocks(n, block int) int {
	if n <= 0 {
		return 0
	}
	return (n + block - 1) / block
}
