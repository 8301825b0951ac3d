package simnet

import (
	"fmt"
	"math"

	"p2prank/internal/xrand"
)

// NodeAddr is a dense index identifying a simulated host.
type NodeAddr int32

// Message is what a handler receives: the payload plus the wire size
// that was charged to the byte counters.
type Message struct {
	From, To NodeAddr
	Payload  any
	Size     int64
}

// Handler consumes messages delivered to a node.
type Handler func(Message)

// NetConfig parameterizes the network layer.
type NetConfig struct {
	// MinLatency and MaxLatency bound the uniform per-message delivery
	// latency, in virtual time units.
	MinLatency, MaxLatency float64
	// NodeBandwidth is each node's upstream bottleneck in bytes per
	// virtual time unit (the paper's §4.5 constraint 4.7). Messages
	// serialize through the sender's uplink: each occupies it for
	// size/NodeBandwidth time units and queues behind earlier sends.
	// 0 means unlimited.
	NodeBandwidth float64
	// BatchDelivery is ignored; every delivery is batched (see
	// Network.Send). It remains so configurations that set it still
	// compile.
	BatchDelivery bool
}

// DefaultNetConfig returns a mildly jittered, lossless network.
func DefaultNetConfig() NetConfig {
	return NetConfig{MinLatency: 0.05, MaxLatency: 0.15}
}

func (c NetConfig) validate() error {
	// NaN compares false with every bound below, so non-finite values
	// are refused by name first.
	for _, f := range []struct {
		name string
		v    float64
	}{{"MinLatency", c.MinLatency}, {"MaxLatency", c.MaxLatency}, {"NodeBandwidth", c.NodeBandwidth}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("simnet: non-finite %s %v", f.name, f.v)
		}
	}
	switch {
	case c.MinLatency < 0:
		return fmt.Errorf("simnet: negative MinLatency %v", c.MinLatency)
	case c.MaxLatency < c.MinLatency:
		return fmt.Errorf("simnet: MaxLatency %v below MinLatency %v", c.MaxLatency, c.MinLatency)
	case c.NodeBandwidth < 0:
		return fmt.Errorf("simnet: negative NodeBandwidth %v", c.NodeBandwidth)
	}
	return nil
}

// Stats counts traffic. All fields are cumulative.
type Stats struct {
	MessagesSent      int64
	MessagesDelivered int64
	MessagesDropped   int64
	BytesSent         int64
	BytesDelivered    int64
}

type node struct {
	handler Handler
	down    bool
	// uplinkFree is the virtual time the node's uplink finishes its
	// queued transmissions (bandwidth-limited networks only).
	uplinkFree float64
	// open is the node's most recent still-pending delivery batch: a
	// send whose delivery instant matches joins it instead of scheduling
	// a new event.
	open *deliveryBatch
}

// deliveryBatch is a pooled batch of same-instant messages to one
// destination. It rides a single scheduled event; messages append in
// send order, so per-destination FIFO holds. The first message lives
// inline (msgs starts as one[:0]), so a batch of one — the only kind
// jittered latency produces — is a single allocation.
type deliveryBatch struct {
	at   float64
	dst  *node
	msgs []Message
	one  [1]Message
}

// Network delivers messages between registered nodes with configurable
// latency, charging every send to byte and message counters.
type Network struct {
	sim   *Simulator
	cfg   NetConfig
	rng   *xrand.Rand
	nodes []*node
	total Stats

	// batchFn is the one function value every in-flight batch shares
	// (see AtArg); batchFree recycles fired batches.
	batchFn   func(any)
	batchFree []*deliveryBatch
}

// NewNetwork builds a Network on sim. The network forks its own random
// stream from the simulator's.
func NewNetwork(sim *Simulator, cfg NetConfig) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{sim: sim, cfg: cfg, rng: sim.Rand().Fork()}
	n.batchFn = n.deliverBatch
	return n, nil
}

// AddNode registers a host with the given message handler and returns
// its address.
func (n *Network) AddNode(h Handler) NodeAddr {
	if h == nil {
		panic("simnet: AddNode with nil handler")
	}
	n.nodes = append(n.nodes, &node{handler: h})
	return NodeAddr(len(n.nodes) - 1)
}

// NumNodes returns the number of registered hosts.
func (n *Network) NumNodes() int { return len(n.nodes) }

// SetDown marks a node as failed (true) or recovered (false). Messages
// to or from a failed node are dropped.
func (n *Network) SetDown(a NodeAddr, down bool) {
	n.node(a).down = down
}

func (n *Network) node(a NodeAddr) *node {
	if a < 0 || int(a) >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: invalid node address %d", a))
	}
	return n.nodes[a]
}

// Send queues a message of the given wire size from one node to
// another. It returns false if the message was dropped at send time
// (source or destination down); delivery itself is
// asynchronous. Sending charges the byte counters whether or not the
// message survives, mirroring a real sender's upstream usage.
//
// Consecutive same-instant messages to one destination share one
// delivery event (the difference between O(messages) and O(instants)
// events at 10⁵ nodes with fixed latency). Per-destination FIFO order
// is exact; a batch drains contiguously at its first message's queue
// position.
func (n *Network) Send(from, to NodeAddr, payload any, size int64) bool {
	if size < 0 {
		panic(fmt.Sprintf("simnet: negative message size %d", size))
	}
	src, dst := n.node(from), n.node(to)
	n.total.MessagesSent++
	n.total.BytesSent += size
	if src.down || dst.down {
		n.total.MessagesDropped++
		return false
	}
	lat := n.cfg.MinLatency
	if n.cfg.MaxLatency > n.cfg.MinLatency {
		lat += n.rng.Float64() * (n.cfg.MaxLatency - n.cfg.MinLatency)
	}
	if n.cfg.NodeBandwidth > 0 {
		// Serialize through the sender's uplink: wait for queued
		// transmissions, then occupy the link for size/bandwidth.
		now := n.sim.Now()
		if src.uplinkFree < now {
			src.uplinkFree = now
		}
		src.uplinkFree += float64(size) / n.cfg.NodeBandwidth
		lat += src.uplinkFree - now
	}
	n.enqueueBatched(from, to, payload, size, dst, lat)
	return true
}

// enqueueBatched joins the destination's open batch when the delivery
// instant matches, and otherwise opens a new batch on a fresh event.
// A batch fires at the queue position of its first message; later
// same-instant joiners ride along instead of scheduling.
//
//p2plint:hotpath -- per-message scheduling path of the simulated network
func (n *Network) enqueueBatched(from, to NodeAddr, payload any, size int64, dst *node, lat float64) {
	at := n.sim.Now() + lat
	m := Message{From: from, To: to, Payload: payload, Size: size}
	if b := dst.open; b != nil && b.at == at {
		b.msgs = append(b.msgs, m)
		return
	}
	var b *deliveryBatch
	if k := len(n.batchFree); k > 0 {
		b = n.batchFree[k-1]
		n.batchFree[k-1] = nil
		n.batchFree = n.batchFree[:k-1]
	} else {
		//p2plint:allow hotalloc -- batch-pool refill; steady state recycles fired batches
		b = &deliveryBatch{}
		b.msgs = b.one[:0]
	}
	b.at, b.dst = at, dst
	b.msgs = append(b.msgs[:0], m)
	dst.open = b
	n.sim.AtArg(at, n.batchFn, b)
}

// deliverBatch completes a batch of same-instant messages to one
// destination and recycles the batch.
func (n *Network) deliverBatch(a any) {
	b := a.(*deliveryBatch)
	dst := b.dst
	if dst.open == b {
		dst.open = nil
	}
	for i := range b.msgs {
		m := b.msgs[i]
		b.msgs[i] = Message{}
		// Re-check liveness at delivery time: the destination may have
		// failed while the message was in flight.
		if dst.down {
			n.total.MessagesDropped++
			continue
		}
		n.total.MessagesDelivered++
		n.total.BytesDelivered += m.Size
		dst.handler(m)
	}
	b.msgs = b.msgs[:0]
	b.dst = nil
	n.batchFree = append(n.batchFree, b)
}

// TotalStats returns network-wide counters.
func (n *Network) TotalStats() Stats { return n.total }
