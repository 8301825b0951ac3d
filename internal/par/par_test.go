package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunExecutesEveryShardOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			counts := make([]atomic.Int64, n)
			p.Run(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: shard %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestRunNested(t *testing.T) {
	// A shard that itself calls Run must not deadlock even when every
	// helper is already occupied.
	p := NewPool(2)
	var total atomic.Int64
	p.Run(8, func(i int) {
		p.Run(8, func(j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("nested Run executed %d inner shards, want 64", total.Load())
	}
}

func TestRunPanicPropagatesLowestShard(t *testing.T) {
	p := NewPool(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic propagated")
		}
		if r != "shard 3" {
			t.Fatalf("propagated panic %v, want lowest shard's (shard 3)", r)
		}
	}()
	p.Run(16, func(i int) {
		if i >= 3 {
			panic(fmt.Sprintf("shard %d", i))
		}
	})
}

func TestDefaultPoolIsUsable(t *testing.T) {
	var total atomic.Int64
	Default().Run(100, func(i int) { total.Add(int64(i)) })
	if total.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", total.Load())
	}
}

func TestSplitPrefixUniform(t *testing.T) {
	pfx := make([]int64, 101)
	for i := range pfx {
		pfx[i] = int64(i) // weight 1 per row
	}
	b := SplitPrefix(pfx, 4)
	want := []int32{0, 25, 50, 75, 100}
	if len(b) != len(want) {
		t.Fatalf("boundaries %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("boundaries %v, want %v", b, want)
		}
	}
}

func TestSplitPrefixSkewed(t *testing.T) {
	// One row holds nearly all the weight; boundaries must stay strictly
	// increasing and cover [0, n).
	pfx := []int64{0, 1, 2, 1000, 1001, 1002}
	b := SplitPrefix(pfx, 4)
	if b[0] != 0 || b[len(b)-1] != 5 {
		t.Fatalf("boundaries %v do not cover [0,5)", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("boundaries %v not strictly increasing", b)
		}
	}
}

func TestSplitPrefixDegenerate(t *testing.T) {
	if b := SplitPrefix([]int64{0}, 8); len(b) != 1 || b[0] != 0 {
		t.Fatalf("empty split = %v, want [0]", b)
	}
	if b := SplitPrefix([]int64{0, 7}, 8); len(b) != 2 || b[1] != 1 {
		t.Fatalf("single-row split = %v, want [0 1]", b)
	}
	// More shards than rows: every row its own shard, nothing empty.
	pfx := []int64{0, 1, 2, 3}
	b := SplitPrefix(pfx, 16)
	if len(b) != 4 {
		t.Fatalf("split %v, want one shard per row", b)
	}
}

func TestBlocks(t *testing.T) {
	cases := []struct{ n, block, want int }{
		{0, 10, 0}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {100, 7, 15},
	}
	for _, c := range cases {
		if got := Blocks(c.n, c.block); got != c.want {
			t.Fatalf("Blocks(%d,%d) = %d, want %d", c.n, c.block, got, c.want)
		}
	}
}

// TestReductionDeterminism is the package's contract in miniature:
// per-shard partial sums combined in shard order give bit-identical
// results at every worker count.
func TestReductionDeterminism(t *testing.T) {
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+3)
	}
	const block = 2048
	sum := func(p *Pool) float64 {
		nb := Blocks(n, block)
		partials := make([]float64, nb)
		p.Run(nb, func(b int) {
			lo, hi := b*block, (b+1)*block
			if hi > n {
				hi = n
			}
			s := 0.0
			for _, v := range xs[lo:hi] {
				s += v
			}
			partials[b] = s
		})
		total := 0.0
		for _, s := range partials {
			total += s
		}
		return total
	}
	want := sum(NewPool(0))
	for _, workers := range []int{1, 2, 7} {
		if got := sum(NewPool(workers)); got != want {
			t.Fatalf("workers=%d: sum %v differs from serial %v", workers, got, want)
		}
	}
}

// TestRunDispatchAllocatesOnce pins the pooled dispatch's cost: the run
// record, and nothing per shard or per helper unless a shard panics.
func TestRunDispatchAllocatesOnce(t *testing.T) {
	p := NewPool(3)
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	if n := testing.AllocsPerRun(200, func() { p.Run(16, fn) }); n > 1 {
		t.Fatalf("pooled Run allocates %v times per dispatch, want ≤ 1", n)
	}
	inline := NewPool(0)
	if n := testing.AllocsPerRun(200, func() { inline.Run(16, fn) }); n != 0 {
		t.Fatalf("inline Run allocates %v times per dispatch, want 0", n)
	}
}

// TestSumAddsInShardOrder: the partials are added left to right by
// shard index at every worker count, so the sum's bits are the serial
// loop's.
func TestSumAddsInShardOrder(t *testing.T) {
	part := func(i int) float64 { return 1.0 / float64(3*i+1) }
	for _, n := range []int{0, 1, 2, 37, 500} {
		want := 0.0
		for i := 0; i < n; i++ {
			want += part(i)
		}
		for _, workers := range []int{0, 1, 2, 7} {
			if got := NewPool(workers).Sum(n, part); got != want {
				t.Fatalf("workers=%d n=%d: Sum = %v, serial %v", workers, n, got, want)
			}
		}
	}
}
