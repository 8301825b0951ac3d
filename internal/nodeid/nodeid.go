// Package nodeid implements the 128-bit circular identifier space of
// the Pastry overlay: hashing of node names and page keys, hex-digit
// extraction for prefix routing, and the ring distances and interval
// test the leaf set decides ownership with.
package nodeid

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Bits is the width of an ID in bits.
const Bits = 128

// ID is a 128-bit identifier on the ring, stored as two big-endian
// words: Hi holds bits 127..64 and Lo bits 63..0. IDs are comparable
// with == and usable as map keys.
type ID struct {
	Hi, Lo uint64
}

// FromBytes builds an ID from the first 16 bytes of b, big-endian. It
// panics if b is shorter than 16 bytes.
func FromBytes(b []byte) ID {
	return ID{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// Hash derives an ID from an arbitrary name (node address, page URL,
// site hostname) with SHA-1, as Pastry prescribes.
func Hash(name string) ID {
	return HashBytes([]byte(name))
}

// HashBytes is Hash for a name the caller holds as bytes — the
// allocation-free spelling for callers that assemble names in a
// reused buffer.
func HashBytes(name []byte) ID {
	sum := sha1.Sum(name)
	return FromBytes(sum[:])
}

// RankerIDs returns the ring identifiers of page rankers 0..k-1, hashed
// from their stable names as a DHT would. Every ranker ring is built from
// these IDs — the simulator's, a TCP cluster's, and each process of a
// distributed run — so all of them agree on who owns which key.
func RankerIDs(k int) []ID {
	ids := make([]ID, k)
	for i := range ids {
		ids[i] = Hash(fmt.Sprintf("p2prank-ranker-%d", i))
	}
	return ids
}

// Ring returns the indices of ids in ring order (ascending ID), the
// order Pastry builds its state from. The ring needs distinct
// points, so a duplicate ID is an error.
func Ring(ids []ID) ([]int, error) {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return ids[a].Cmp(ids[b]) })
	for k := 1; k < len(order); k++ {
		if ids[order[k]] == ids[order[k-1]] {
			return nil, fmt.Errorf("duplicate node ID %s", ids[order[k]])
		}
	}
	return order, nil
}

// String renders the ID as 32 hex digits.
func (x ID) String() string {
	return fmt.Sprintf("%016x%016x", x.Hi, x.Lo)
}

// Cmp returns -1, 0, or +1 as x is below, equal to, or above y in plain
// (non-circular) integer order.
func (x ID) Cmp(y ID) int {
	switch {
	case x.Hi < y.Hi:
		return -1
	case x.Hi > y.Hi:
		return 1
	case x.Lo < y.Lo:
		return -1
	case x.Lo > y.Lo:
		return 1
	}
	return 0
}

// Sub returns x − y mod 2^128 (the clockwise distance from y to x).
func (x ID) Sub(y ID) ID {
	lo, borrow := bits.Sub64(x.Lo, y.Lo, 0)
	hi, _ := bits.Sub64(x.Hi, y.Hi, borrow)
	return ID{Hi: hi, Lo: lo}
}

// AbsDist returns min(clockwise, counter-clockwise) distance between x
// and y — the metric Pastry's leaf set uses to pick the numerically
// closest node.
func AbsDist(x, y ID) ID {
	d1 := y.Sub(x)
	d2 := x.Sub(y)
	if d1.Cmp(d2) <= 0 {
		return d1
	}
	return d2
}

// BetweenIncl reports whether m lies in the half-open interval (a, b]
// clockwise: Pastry's test that a key falls inside the arc its leaf
// set spans.
func BetweenIncl(m, a, b ID) bool {
	if a == b {
		return true
	}
	d := m.Sub(a)
	return d.Cmp(b.Sub(a)) <= 0 && d.Cmp(ID{}) > 0
}

// DigitBits is Pastry's b: routing reads an ID as base-2^b digits,
// and b = 4 (hex digits) is the setting behind the paper's hop counts.
const DigitBits = 4

// Digits is the number of base-2^b digits in an ID.
const Digits = Bits / DigitBits

// Digit returns the i-th hex digit of x counting from the most
// significant end, as Pastry's prefix routing reads IDs. It panics if i
// is out of range.
func (x ID) Digit(i int) int {
	if i < 0 || i >= Digits {
		panic(fmt.Sprintf("nodeid: digit index %d out of range (%d digits)", i, Digits))
	}
	word := x.Hi
	if i >= Digits/2 {
		word, i = x.Lo, i-Digits/2
	}
	return int(word >> uint(64-DigitBits*(i+1)) & (1<<DigitBits - 1))
}

// CommonPrefixLen returns the number of leading hex digits shared by x
// and y: the leading zero bits of x XOR y, in whole digits.
func CommonPrefixLen(x, y ID) int {
	if d := x.Hi ^ y.Hi; d != 0 {
		return bits.LeadingZeros64(d) / DigitBits
	}
	return (64 + bits.LeadingZeros64(x.Lo^y.Lo)) / DigitBits
}
