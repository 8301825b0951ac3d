package transport

import "p2prank/internal/overlay"

// Ack is a cumulative delivery acknowledgement: ranker From has
// delivered ranker To's chunks up to Round. The wire carries From and
// Round; To is where the ack is sent.
type Ack struct {
	From, To int32
	Round    int64
}

// Batch is the chunks a node ships to one next hop in one message.
type Batch struct {
	Hop    int
	Chunks []ScoreChunk
}

// Receiver takes the chunks a Relay delivers; false refuses one.
type Receiver interface {
	Receive(self int, c ScoreChunk) bool
}

// Relay is one node's step of §4.4's transmission, the one rule both
// wires (Fabric and netpeer) run. A chunk addressed to the node goes to
// its Receiver; one addressed to another node of the ring is queued
// under its next hop on the overlay (without one, under its
// destination: a direct node relays nothing); any other chunk, or a
// refused one, is rejected. Queued chunks leave as one Batch per next
// hop in ascending hop order. Each arriving batch owes one Ack per
// source — the newest round delivered, in first-delivery order — sent
// before the batch's relays. A Relay belongs to one goroutine (or one
// lock); the overlay it routes over may be shared.
type Relay struct {
	ov     overlay.Network // nil: direct transmission
	free   *[][]ScoreChunk // the boxes' chunk-slice freelist
	acking bool            // Arrive records acks
	boxes  []Batch         // one per occupied next hop
	acks   []Ack
}

// NewRelay returns a node's step over overlay ov (nil: direct). Its
// boxes draw chunk slices from free; acking turns on Arrive's acks.
func NewRelay(ov overlay.Network, free *[][]ScoreChunk, acking bool) Relay {
	return Relay{ov: ov, free: free, acking: acking}
}

// Arrive runs the step over a batch arriving at node self. It returns
// the acks the batch owes (valid until the next Arrive) and how many of
// its chunks were queued for relay and rejected.
//
//p2plint:hotpath -- per-message receive path of both wires
func (r *Relay) Arrive(self int, chunks []ScoreChunk, rcv Receiver) (acks []Ack, relayed, rejected int) {
	r.acks = r.acks[:0]
	for _, c := range chunks {
		switch dst := int(c.DstGroup); {
		case dst == self:
			if !rcv.Receive(self, c) {
				rejected++
			} else if r.acking {
				r.ack(self, c)
			}
		case r.ov != nil && dst >= 0 && dst < r.ov.NumNodes():
			r.Queue(self, c)
			relayed++
		default:
			rejected++
		}
	}
	return r.acks, relayed, rejected
}

// ack folds a delivered chunk into the batch's ack for its source.
func (r *Relay) ack(self int, c ScoreChunk) {
	for i := range r.acks {
		if r.acks[i].To == c.SrcGroup {
			r.acks[i].Round = max(r.acks[i].Round, c.Round)
			return
		}
	}
	r.acks = append(r.acks, Ack{From: int32(self), To: c.SrcGroup, Round: c.Round})
}

// Queue places chunk c, addressed to another node of the ring, in node
// self's box for its next hop (no route ends at self: every node owns
// its own ID).
func (r *Relay) Queue(self int, c ScoreChunk) {
	next := int(c.DstGroup)
	if r.ov != nil {
		next = r.ov.NextHop(self, r.ov.NodeID(next))
	}
	for i := range r.boxes {
		if r.boxes[i].Hop == next {
			r.boxes[i].Chunks = append(r.boxes[i].Chunks, c)
			return
		}
	}
	r.boxes = append(r.boxes, Batch{Hop: next, Chunks: append(pop(r.free), c)})
}

// Drain empties the queue and returns its batches in ascending hop
// order. The caller owns their chunks, and is done with the batches
// (see Recycle) before the next Queue reuses them.
func (r *Relay) Drain() []Batch {
	bs := r.boxes
	for i := 1; i < len(bs); i++ { // a handful of hops: insertion sort
		for j := i; j > 0 && bs[j].Hop < bs[j-1].Hop; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
	r.boxes = bs[:0]
	return bs
}

// Recycle returns written batches' chunk slices to the freelist.
func (r *Relay) Recycle(bs []Batch) {
	for i := range bs {
		clear(bs[i].Chunks)
		*r.free = append(*r.free, bs[i].Chunks[:0])
	}
	clear(bs)
}
