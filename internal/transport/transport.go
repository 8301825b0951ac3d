// Package transport moves updated page scores between page rankers over
// the simulated network, implementing both communication patterns of
// §4.4:
//
//   - Direct transmission (Figure 3): the sender first resolves the
//     destination's address with a DHT lookup (h hops of small lookup
//     messages), then ships the payload in one direct message. Per
//     iteration this costs ≈(h+1)·N² messages and lW + hrN² bytes.
//   - Indirect transmission (Figures 4–5): payloads ride the overlay's
//     neighbor links. Each node packs everything bound for the same next
//     hop into one package; each relay unpacks, recombines by
//     destination, and forwards. Per iteration this costs ≈g·N messages
//     and h·l·W bytes.
//
// Wire sizes follow the paper's model (§4.5): one transmitted link
// record <url_from, url_to, score> costs l = 100 bytes, a lookup message
// r bytes, plus a fixed per-message header.
package transport

import (
	"fmt"

	"p2prank/internal/overlay"
	"p2prank/internal/simnet"
)

// Kind selects the communication pattern.
type Kind int

const (
	// Direct is lookup-then-send one-to-one transmission.
	Direct Kind = iota
	// Indirect routes scores hop-by-hop with per-hop packing.
	Indirect
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Indirect:
		return "indirect"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ScoreEntry is one page's afferent rank contribution: the destination
// page (local index within the destination group) and the rank value
// α·R(u)/d(u) summed over the sender's efferent links to it.
type ScoreEntry struct {
	DstLocal int32
	Value    float64
}

// ScoreChunk carries one source group's contributions to one
// destination group. Links counts the efferent link records the chunk
// represents (the paper charges l bytes per link record, even when
// several records aggregate into one entry).
type ScoreChunk struct {
	SrcGroup int32
	DstGroup int32
	Round    int64 // sender's loop counter, for staleness handling
	Links    int64
	Entries  []ScoreEntry
}

// SizeModel converts chunks into wire bytes per §4.5.
type SizeModel struct {
	// BytesPerLink is l, the size of one <url_from, url_to, score>
	// record. The paper derives 100 bytes from 40-byte average URLs.
	BytesPerLink int64
	// LookupBytes is r, the size of one lookup message.
	LookupBytes int64
	// HeaderBytes is the fixed per-message framing cost.
	HeaderBytes int64
}

// DefaultSizeModel returns the paper's constants.
func DefaultSizeModel() SizeModel {
	return SizeModel{BytesPerLink: 100, LookupBytes: 48, HeaderBytes: 32}
}

func (m SizeModel) validate() error {
	if m.BytesPerLink <= 0 || m.LookupBytes <= 0 || m.HeaderBytes < 0 {
		return fmt.Errorf("transport: invalid size model %+v", m)
	}
	return nil
}

// chunkBytes is the payload cost of a chunk: one link record per
// represented efferent link.
func (m SizeModel) chunkBytes(c ScoreChunk) int64 {
	return c.Links * m.BytesPerLink
}

// Stats are transport-level counters, split by message role so the
// formula 4.1–4.4 comparison can separate lookup overhead from payload.
// The counts include messages the network refused at send time (an
// endpoint down; simnet.Stats.MessagesDropped counts those): a real
// sender burns upstream bandwidth on a message that never arrives.
type Stats struct {
	DataMessages   int64
	DataBytes      int64
	LookupMessages int64
	LookupBytes    int64
	// RelayedChunks counts chunk forwardings performed by intermediate
	// nodes (indirect transmission only).
	RelayedChunks int64
}

// Deliver is the callback a ranker registers to receive score chunks
// addressed to its group.
type Deliver func(ScoreChunk)

// Fabric wires every ranker to the simulated network with the selected
// transmission pattern. Create with NewFabric, then Register each
// ranker before any Send. Every hop is routed by the overlay itself,
// so the fabric's only per-pair state is one relay box per occupied
// next hop, and it has one shape at every K.
type Fabric struct {
	kind Kind
	size SizeModel
	net  *simnet.Network
	// ov answers every routing question: the next hop of each chunk at
	// each node (indirect), the lookup path of each direct send, and the
	// hop count telemetry attributes to a chunk (Hops).
	ov     overlay.Network
	addrs  []simnet.NodeAddr
	del    []Deliver
	relays []Relay                                 // ranker i's step
	onAck  func(self int, from int32, round int64) // see OnAck
	stats  Stats

	// Freelists for the per-message carriers. The []ScoreChunk slices
	// die once handle has processed a message (receivers copy what they
	// keep: Deliver stores the chunk struct), so they cycle through here
	// instead of the garbage collector; every relay's boxes draw from
	// it. The entry slices inside chunks are NOT pooled — an in-flight or
	// delivered chunk aliases them.
	chunkSlices [][]ScoreChunk
	// msgs pools the dataMsg headers themselves: they travel as
	// pointers so handing one to the network does not box a struct
	// into an interface per message.
	msgs []*dataMsg
}

// message payloads exchanged over simnet (acks travel as Ack).
type dataMsg struct {
	chunks []ScoreChunk
}
type lookupMsg struct{}

// ackPayloadBytes models an ack's body: two ranker ids and a round.
const ackPayloadBytes = 16

// NewFabric builds a transport fabric for the K rankers of the overlay.
func NewFabric(net *simnet.Network, ov overlay.Network, kind Kind, size SizeModel) (*Fabric, error) {
	if err := size.validate(); err != nil {
		return nil, err
	}
	if kind != Direct && kind != Indirect {
		return nil, fmt.Errorf("transport: unknown kind %d", int(kind))
	}
	k := ov.NumNodes()
	f := &Fabric{
		kind:   kind,
		size:   size,
		net:    net,
		ov:     ov,
		addrs:  make([]simnet.NodeAddr, k),
		del:    make([]Deliver, k),
		relays: make([]Relay, k),
	}
	var route overlay.Network // nil: a direct sender relays nothing
	if kind == Indirect {
		route = ov
	}
	for i := range f.addrs {
		f.addrs[i] = simnet.NodeAddr(-1)
		f.relays[i] = NewRelay(route, &f.chunkSlices, false)
	}
	return f, nil
}

// Register attaches ranker i's delivery callback and creates its
// network presence. It must be called exactly once per ranker.
func (f *Fabric) Register(i int, d Deliver) error {
	if i < 0 || i >= len(f.del) {
		return fmt.Errorf("transport: ranker index %d out of range", i)
	}
	if f.del[i] != nil {
		return fmt.Errorf("transport: ranker %d registered twice", i)
	}
	if d == nil {
		return fmt.Errorf("transport: nil deliver callback")
	}
	f.del[i] = d
	f.addrs[i] = f.net.AddNode(func(m simnet.Message) { f.handle(i, m) })
	return nil
}

// OnAck turns on acked delivery (the reliable layer): every ranker acks
// what it delivers, and an ack reaching ranker i calls fn(i, acker,
// round). Call it before any Send.
func (f *Fabric) OnAck(fn func(self int, from int32, round int64)) {
	f.onAck = fn
	for i := range f.relays {
		f.relays[i].acking = fn != nil
	}
}

// Receive is the fabric as its relays' Receiver: it hands c to ranker
// i's callback and accepts it (the fabric carries only what loops sent).
func (f *Fabric) Receive(i int, c ScoreChunk) bool {
	f.del[i](c)
	return true
}

// sendAck ships an ack straight to its source: one hop, no overlay
// routing, no lookup (the acker learned the address from the chunk).
func (f *Fabric) sendAck(a Ack) {
	size := f.size.HeaderBytes + ackPayloadBytes
	// A refused ack is lost like any message to a down host; the
	// network counts it (simnet.Stats.MessagesDropped).
	//p2plint:allow hotalloc -- one boxed Ack per ack message, only when reliable delivery is on
	_ = f.net.Send(f.addrs[a.From], f.addrs[a.To], a, size)
}

// Addr returns the simulated-network address of ranker i's host. The
// experiment harness uses it to inject host-level failures.
func (f *Fabric) Addr(i int) simnet.NodeAddr { return f.addrs[i] }

// Hops returns the number of network trips a chunk sent by ranker src
// takes to reach group dst (see RouteHops). It is the hop function the
// simulator hands telemetry.
func (f *Fabric) Hops(src, dst int) int {
	if f.kind == Direct {
		return 1
	}
	return RouteHops(f.ov, src, dst)
}

// RouteHops returns the number of network trips a chunk takes from
// ranker src to ranker dst: its overlay route length over ov under
// indirect transmission, 1 under direct (ov nil: the payload takes one
// trip after the lookup). Both drivers hand telemetry this walk. An
// overlay that routes in a cycle is a broken ring and panics.
func RouteHops(ov overlay.Network, src, dst int) int {
	if ov == nil {
		return 1
	}
	h, err := overlay.Hops(ov, src, ov.NodeID(dst))
	if err != nil {
		panic(err)
	}
	return h
}

// Stats returns transport-level counters. Network-level byte totals live
// on the simnet.Network.
func (f *Fabric) Stats() Stats { return f.stats }

// Send queues a chunk from ranker `from` toward chunk.DstGroup. With
// direct transmission the lookup and data messages go out immediately;
// with indirect transmission the chunk sits in the outbox until Flush.
// Sending to yourself is a programming error.
//
//p2plint:hotpath -- per-chunk send path, every exchanged score crosses it
func (f *Fabric) Send(from int, chunk ScoreChunk) error {
	if f.del[from] == nil {
		return fmt.Errorf("transport: ranker %d not registered", from)
	}
	dst := int(chunk.DstGroup)
	if dst < 0 || dst >= len(f.del) {
		return fmt.Errorf("transport: destination group %d out of range", dst)
	}
	if dst == from {
		return fmt.Errorf("transport: ranker %d sending to itself", from)
	}
	if f.kind == Direct {
		f.sendDirect(from, chunk)
	} else {
		f.relays[from].Queue(from, chunk)
	}
	return nil
}

// Flush pushes ranker i's queued chunks onto the network: one message
// per next hop, in ascending hop order. It is a no-op for direct
// transmission and for empty queues.
//
//p2plint:hotpath -- per-round outbox drain, one call per ranker per iteration
func (f *Fabric) Flush(from int) error {
	if f.del[from] == nil {
		return fmt.Errorf("transport: ranker %d not registered", from)
	}
	bs := f.relays[from].Drain()
	for _, b := range bs {
		msg, payload := f.pack(b.Chunks)
		f.stats.DataMessages++
		f.stats.DataBytes += payload
		if !f.net.Send(f.addrs[from], f.addrs[b.Hop], msg, payload) {
			f.recycle(msg) // refused at send time: nothing will deliver it
		}
	}
	clear(bs) // the chunk slices travel in the messages now
	return nil
}

// pack turns chunks into one wire message and its size under the
// analytic l-bytes-per-link model.
func (f *Fabric) pack(chunks []ScoreChunk) (*dataMsg, int64) {
	m := f.getMsg()
	m.chunks = chunks
	payload := f.size.HeaderBytes
	for _, c := range chunks {
		payload += f.size.chunkBytes(c)
	}
	return m, payload
}

// pop takes the last carrier off a freelist, or returns the zero value
// (a nil slice, ready for append) when the list is empty.
func pop[T any](list *[]T) (v T) {
	if n := len(*list); n > 0 {
		v = (*list)[n-1]
		clear((*list)[n-1:])
		*list = (*list)[:n-1]
	}
	return v
}

// getMsg pops an empty dataMsg header from the freelist.
func (f *Fabric) getMsg() *dataMsg {
	if m := pop(&f.msgs); m != nil {
		return m
	}
	//p2plint:allow hotalloc -- freelist refill; steady state recycles delivered messages
	return &dataMsg{}
}

// recycle returns a message's carriers to the freelists once nothing can
// reference them again — after handle has processed it, or when the
// network refused it at send time. The chunk slice is cleared first so
// it does not pin its receivers' entry slices.
func (f *Fabric) recycle(m *dataMsg) {
	clear(m.chunks)
	f.chunkSlices = append(f.chunkSlices, m.chunks[:0])
	m.chunks = nil
	f.msgs = append(f.msgs, m)
}

// sendDirect performs lookup-then-send: h small messages along the
// overlay route (the address resolution of Figure 3B), then one data
// message straight to the destination.
func (f *Fabric) sendDirect(from int, chunk ScoreChunk) {
	dst := int(chunk.DstGroup)
	// Lookup messages hop along the overlay route, which ends at dst:
	// every node owns its own ID. A walk longer than the ring is a
	// broken one.
	lsize := f.size.LookupBytes + f.size.HeaderBytes
	key := f.ov.NodeID(dst)
	for cur, h := from, 0; cur != dst; h++ {
		if h == len(f.addrs) {
			panic(fmt.Sprintf("transport: lookup from %d to %d exceeded %d hops", from, dst, h))
		}
		next := f.ov.NextHop(cur, key)
		f.stats.LookupMessages++
		f.stats.LookupBytes += lsize
		_ = f.net.Send(f.addrs[cur], f.addrs[next], lookupMsg{}, lsize) // a refusal is counted by the network
		cur = next
	}
	msg, payload := f.pack(append(pop(&f.chunkSlices), chunk))
	f.stats.DataMessages++
	f.stats.DataBytes += payload
	if !f.net.Send(f.addrs[from], f.addrs[dst], msg, payload) {
		f.recycle(msg) // refused at send time: nothing will deliver it
	}
}

// handle processes a message arriving at ranker i: lookups are pure
// overhead; data chunks go through the node's relay step (the
// unpack/recombine of Figure 4), its acks leave, and its relays are
// flushed at once so indirect latency stays at h network hops.
//
//p2plint:hotpath -- per-message receive path of the fabric
func (f *Fabric) handle(i int, m simnet.Message) {
	switch payload := m.Payload.(type) {
	case lookupMsg:
		// Address-resolution traffic carries no scores.
	case Ack:
		f.onAck(i, payload.From, payload.Round)
	case *dataMsg:
		acks, relayed, rejected := f.relays[i].Arrive(i, payload.chunks, f)
		if rejected > 0 {
			panic(fmt.Sprintf("transport: ranker %d rejected %d chunks its peers sent", i, rejected))
		}
		// Delivered chunks were copied out by value and relayed ones
		// re-queued; the carriers are free for the next message.
		f.recycle(payload)
		for _, a := range acks {
			f.sendAck(a)
		}
		if relayed > 0 {
			f.stats.RelayedChunks += int64(relayed)
			_ = f.Flush(i) // i is registered: it just received
		}
	default:
		panic(fmt.Sprintf("transport: unknown payload %T", m.Payload))
	}
}
