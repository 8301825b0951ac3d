package serve

import "p2prank/internal/search"

// topK is the bounded merge heap of the distributed read path: shards
// offer their partial results and the heap keeps the k best, evicting
// the current worst in O(log k). It is a min-heap on result quality —
// items[0] is the worst kept posting — ordered by (score descending,
// page ascending) like every posting list in the system, so merged
// results tie-break identically to the static index.
type topK struct {
	items []search.Posting
	k     int
}

// worse reports whether a ranks strictly below b.
//
//p2plint:hotpath
func worse(a, b search.Posting) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Page > b.Page
}

// reset prepares the heap for a query keeping at most k results. It
// reserves nothing: k is the client's, so the heap grows only as far as
// the postings it keeps, to the querier's high-water mark, then reuses.
//
//p2plint:hotpath
func (h *topK) reset(k int) {
	h.k = k
	h.items = h.items[:0]
}

// below reports whether a posting with this score would be refused
// whatever its page: the heap is full and its worst scores strictly
// higher. A tie is not below — it goes through consider's page order.
//
//p2plint:hotpath
func (h *topK) below(score float64) bool {
	return len(h.items) == h.k && score < h.items[0].Score
}

// consider offers one posting, keeping it only if it beats the current
// worst of a full heap.
//
//p2plint:hotpath
func (h *topK) consider(p search.Posting) {
	if len(h.items) < h.k {
		h.items = append(h.items, p)
		i := len(h.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(h.items[i], h.items[parent]) {
				break
			}
			h.items[i], h.items[parent] = h.items[parent], h.items[i]
			i = parent
		}
		return
	}
	if !worse(h.items[0], p) {
		return
	}
	h.items[0] = p
	h.siftDown(0, len(h.items))
}

//p2plint:hotpath
func (h *topK) siftDown(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && worse(h.items[l], h.items[min]) {
			min = l
		}
		if r < n && worse(h.items[r], h.items[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// drain empties the heap into dst best-first (append semantics) and
// returns the extended slice. The heap is left empty.
//
//p2plint:hotpath
func (h *topK) drain(dst []search.Posting) []search.Posting {
	start := len(dst)
	n := len(h.items)
	for n > 0 {
		dst = append(dst, h.items[0])
		n--
		h.items[0] = h.items[n]
		h.items = h.items[:n]
		h.siftDown(0, n)
	}
	// Pops come worst-first; reverse the appended run to best-first.
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
