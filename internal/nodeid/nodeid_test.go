package nodeid

import (
	"testing"
	"testing/quick"

	"p2prank/internal/xrand"
)

func randID(r *xrand.Rand) ID {
	return ID{Hi: r.Uint64(), Lo: r.Uint64()}
}

func TestHashDeterministicDistinct(t *testing.T) {
	a := Hash("node-1")
	b := Hash("node-1")
	c := Hash("node-2")
	if a != b {
		t.Fatal("same name hashed differently")
	}
	if a == c {
		t.Fatal("different names collided")
	}
}

func TestStringLength(t *testing.T) {
	s := Hash("x").String()
	if len(s) != 32 {
		t.Fatalf("String() = %q (%d chars), want 32", s, len(s))
	}
}

func TestCmp(t *testing.T) {
	a := ID{Hi: 1, Lo: 0}
	b := ID{Hi: 0, Lo: ^uint64(0)}
	if a.Cmp(b) != 1 || b.Cmp(a) != -1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp ordering wrong across word boundary")
	}
	c := ID{Hi: 0, Lo: 5}
	d := ID{Hi: 0, Lo: 9}
	if c.Cmp(d) != -1 {
		t.Fatal("Cmp low-word ordering wrong")
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(h1, l1, h2, l2 uint64) bool {
		x := ID{Hi: h1, Lo: l1}
		y := ID{Hi: h2, Lo: l2}
		return x.Add(y).Sub(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCarry(t *testing.T) {
	x := ID{Hi: 0, Lo: ^uint64(0)}
	got := x.Add(ID{Lo: 1})
	if got != (ID{Hi: 1, Lo: 0}) {
		t.Fatalf("carry failed: %v", got)
	}
	// Wraparound at the top of the ring.
	top := ID{Hi: ^uint64(0), Lo: ^uint64(0)}
	if top.Add(ID{Lo: 1}) != (ID{}) {
		t.Fatal("ring wraparound failed")
	}
}

func TestAddPow2(t *testing.T) {
	if got := (ID{}).AddPow2(0); got != (ID{Lo: 1}) {
		t.Fatalf("2^0: %v", got)
	}
	if got := (ID{}).AddPow2(64); got != (ID{Hi: 1}) {
		t.Fatalf("2^64: %v", got)
	}
	if got := (ID{}).AddPow2(127); got != (ID{Hi: 1 << 63}) {
		t.Fatalf("2^127: %v", got)
	}
	for _, k := range []int{-1, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddPow2(%d) did not panic", k)
				}
			}()
			(ID{}).AddPow2(k)
		}()
	}
}

func TestAbsDistSymmetric(t *testing.T) {
	r := xrand.New(1)
	for i := 0; i < 200; i++ {
		x, y := randID(r), randID(r)
		if AbsDist(x, y) != AbsDist(y, x) {
			t.Fatalf("AbsDist asymmetric for %v, %v", x, y)
		}
	}
}

func TestAbsDistPicksShorterArc(t *testing.T) {
	a := ID{Lo: 10}
	b := ID{Lo: 20}
	if AbsDist(a, b) != (ID{Lo: 10}) {
		t.Fatalf("AbsDist = %v", AbsDist(a, b))
	}
	// Across zero: 2 and 2^128-3 are 5 apart the short way.
	c := ID{Lo: 2}
	d := ID{Hi: ^uint64(0), Lo: ^uint64(0) - 2}
	if AbsDist(c, d) != (ID{Lo: 5}) {
		t.Fatalf("AbsDist across zero = %v", AbsDist(c, d))
	}
}

func TestBetween(t *testing.T) {
	a, b := ID{Lo: 10}, ID{Lo: 20}
	if !Between(ID{Lo: 15}, a, b) {
		t.Error("15 should be in (10,20)")
	}
	if Between(ID{Lo: 10}, a, b) || Between(ID{Lo: 20}, a, b) {
		t.Error("endpoints must be excluded")
	}
	// Wrapping interval (20, 10): 25 and 5 are inside, 15 is not.
	if !Between(ID{Lo: 25}, b, a) || !Between(ID{Lo: 5}, b, a) {
		t.Error("wrapping interval membership failed")
	}
	if Between(ID{Lo: 15}, b, a) {
		t.Error("15 should not be in wrapped (20,10)")
	}
	// Degenerate interval covers everything except the endpoint.
	if !Between(ID{Lo: 5}, a, a) || Between(a, a, a) {
		t.Error("degenerate interval semantics wrong")
	}
}

func TestBetweenIncl(t *testing.T) {
	a, b := ID{Lo: 10}, ID{Lo: 20}
	if !BetweenIncl(b, a, b) {
		t.Error("upper endpoint must be included")
	}
	if BetweenIncl(a, a, b) {
		t.Error("lower endpoint must be excluded")
	}
	if !BetweenIncl(ID{Lo: 3}, b, a) {
		t.Error("wrapped (20,10] must contain 3")
	}
	if !BetweenIncl(ID{Lo: 7}, a, a) {
		t.Error("(a,a] covers the whole ring")
	}
}

func TestDigitRoundTrip(t *testing.T) {
	// There are 32 hex digits; Digit(i) must equal the i-th hex
	// character of String().
	r := xrand.New(7)
	const hex = "0123456789abcdef"
	for i := 0; i < 50; i++ {
		x := randID(r)
		s := x.String()
		for d := 0; d < 32; d++ {
			want := int([]byte(s)[d])
			got := x.Digit(d)
			if hex[got] != byte(want) {
				t.Fatalf("id %s digit %d = %d, want hex %c", s, d, got, want)
			}
		}
	}
}

func TestDigitWordBoundary(t *testing.T) {
	// Digit 15 is the lowest nibble of Hi, digit 16 the highest of Lo.
	x := ID{Hi: 0xa, Lo: 0xb << 60}
	if x.Digit(15) != 0xa || x.Digit(16) != 0xb {
		t.Fatal("digits around the word boundary wrong")
	}
	if x.Digit(0) != 0 || x.Digit(31) != 0 {
		t.Fatal("outer digits wrong")
	}
}

func TestDigitPanics(t *testing.T) {
	x := ID{}
	for _, i := range []int{-1, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Digit(%d) did not panic", i)
				}
			}()
			x.Digit(i)
		}()
	}
}

func TestCommonPrefixLen(t *testing.T) {
	x := ID{Hi: 0xabcd_0000_0000_0000}
	y := ID{Hi: 0xabce_0000_0000_0000}
	if got := CommonPrefixLen(x, y); got != 3 {
		t.Fatalf("prefix len = %d, want 3", got)
	}
	if got := CommonPrefixLen(x, x); got != 32 {
		t.Fatalf("self prefix len = %d, want 32", got)
	}
	// Across the word boundary: Hi equal, Lo differing in digit 16+1.
	u := ID{Hi: 7, Lo: 0x0f00_0000_0000_0000}
	v := ID{Hi: 7, Lo: 0x0e00_0000_0000_0000}
	if got := CommonPrefixLen(u, v); got != 17 {
		t.Fatalf("low-word prefix len = %d, want 17", got)
	}
}

func TestFromBytesBigEndian(t *testing.T) {
	b := make([]byte, 16)
	b[0] = 0x12
	b[15] = 0x34
	x := FromBytes(b)
	if x.Hi != 0x1200000000000000 || x.Lo != 0x34 {
		t.Fatalf("FromBytes = %+v", x)
	}
}

// Property: Between(m,a,b) partitions the ring: for m ∉ {a,b}, m is in
// exactly one of (a,b) and (b,a).
func TestBetweenPartitionProperty(t *testing.T) {
	f := func(s uint64) bool {
		r := xrand.New(s)
		m, a, b := randID(r), randID(r), randID(r)
		if m == a || m == b || a == b {
			return true
		}
		return Between(m, a, b) != Between(m, b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRing(t *testing.T) {
	ids := RankerIDs(50)
	order, err := Ring(ids)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool, len(ids))
	for k, i := range order {
		seen[i] = true
		if k > 0 && ids[order[k-1]].Cmp(ids[i]) >= 0 {
			t.Fatalf("ring order breaks at position %d", k)
		}
	}
	if len(seen) != len(ids) {
		t.Fatalf("ring holds %d of %d nodes", len(seen), len(ids))
	}
	if _, err := Ring(append(ids, ids[7])); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}
