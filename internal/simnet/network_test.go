package simnet

import (
	"math"
	"strings"
	"testing"
)

func newTestNet(t *testing.T, cfg NetConfig) (*Simulator, *Network) {
	t.Helper()
	s := New(7)
	n, err := NewNetwork(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

func TestSendDeliver(t *testing.T) {
	s, n := newTestNet(t, DefaultNetConfig())
	var got []Message
	a := n.AddNode(func(m Message) { got = append(got, m) })
	b := n.AddNode(func(m Message) { got = append(got, m) })
	if !n.Send(a, b, "hello", 10) {
		t.Fatal("send reported drop on lossless network")
	}
	s.Run(0)
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	m := got[0]
	if m.From != a || m.To != b || m.Payload.(string) != "hello" || m.Size != 10 {
		t.Fatalf("message = %+v", m)
	}
}

func TestLatencyWithinBounds(t *testing.T) {
	s, n := newTestNet(t, NetConfig{MinLatency: 1, MaxLatency: 2})
	var deliveredAt float64
	a := n.AddNode(func(Message) {})
	b := n.AddNode(func(Message) { deliveredAt = s.Now() })
	n.Send(a, b, nil, 1)
	s.Run(0)
	if deliveredAt < 1 || deliveredAt > 2 {
		t.Fatalf("delivered at %v, want in [1,2]", deliveredAt)
	}
}

func TestCounters(t *testing.T) {
	s, n := newTestNet(t, NetConfig{})
	a := n.AddNode(func(Message) {})
	b := n.AddNode(func(Message) {})
	n.Send(a, b, nil, 100)
	n.Send(a, b, nil, 50)
	s.Run(0)
	tot := n.TotalStats()
	if tot.MessagesSent != 2 || tot.BytesSent != 150 {
		t.Fatalf("total sent = %+v", tot)
	}
	if tot.MessagesDelivered != 2 || tot.BytesDelivered != 150 {
		t.Fatalf("total delivered = %+v", tot)
	}
}

func TestDownNodesDropTraffic(t *testing.T) {
	s, n := newTestNet(t, NetConfig{})
	delivered := 0
	a := n.AddNode(func(Message) {})
	b := n.AddNode(func(Message) { delivered++ })
	n.SetDown(b, true)
	if n.Send(a, b, nil, 1) {
		t.Fatal("send to down node reported success")
	}
	n.SetDown(b, false)
	n.SetDown(a, true)
	if n.Send(a, b, nil, 1) {
		t.Fatal("send from down node reported success")
	}
	n.SetDown(a, false)
	if !n.Send(a, b, nil, 1) {
		t.Fatal("send between live nodes failed")
	}
	s.Run(0)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if d := n.TotalStats().MessagesDropped; d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
}

func TestFailureDuringFlight(t *testing.T) {
	s, n := newTestNet(t, NetConfig{MinLatency: 5, MaxLatency: 5})
	delivered := 0
	a := n.AddNode(func(Message) {})
	b := n.AddNode(func(Message) { delivered++ })
	n.Send(a, b, nil, 1)
	// Fail b while the message is in flight.
	s.At(1, func() { n.SetDown(b, true) })
	s.Run(0)
	if delivered != 0 {
		t.Fatal("message delivered to node that failed in flight")
	}
}

func TestInvalidConfigs(t *testing.T) {
	s := New(1)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		cfg  NetConfig
		name string // the field the error must name; "" for any error
	}{
		{NetConfig{MinLatency: -1}, ""},
		{NetConfig{MinLatency: 2, MaxLatency: 1}, ""},
		{NetConfig{MinLatency: nan, MaxLatency: 1}, "MinLatency"},
		{NetConfig{MinLatency: 0.1, MaxLatency: nan}, "MaxLatency"},
		{NetConfig{MinLatency: 0.1, MaxLatency: inf}, "MaxLatency"},
		{NetConfig{MinLatency: -inf, MaxLatency: 1}, "MinLatency"},
		{NetConfig{MinLatency: inf, MaxLatency: inf}, "MinLatency"},
		{NetConfig{MinLatency: 0.1, MaxLatency: 0.1, NodeBandwidth: nan}, "NodeBandwidth"},
		{NetConfig{NodeBandwidth: inf}, "NodeBandwidth"},
	} {
		_, err := NewNetwork(s, c.cfg)
		if err == nil {
			t.Errorf("config %+v accepted", c.cfg)
		} else if !strings.Contains(err.Error(), c.name) {
			t.Errorf("config %+v: error %q does not name %s", c.cfg, err, c.name)
		}
	}
}

func TestInvalidAddressPanics(t *testing.T) {
	_, n := newTestNet(t, NetConfig{})
	a := n.AddNode(func(Message) {})
	for _, f := range []func(){
		func() { n.Send(a, 99, nil, 1) },
		func() { n.Send(-1, a, nil, 1) },
		func() { n.SetDown(42, true) },
		func() { n.Send(a, a, nil, -5) },
		func() { n.AddNode(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		s := New(99)
		n, err := NewNetwork(s, NetConfig{MinLatency: 0.1, MaxLatency: 1})
		if err != nil {
			t.Fatal(err)
		}
		var last float64
		var a, b NodeAddr
		a = n.AddNode(func(m Message) { last = s.Now() })
		b = n.AddNode(func(m Message) {
			last = s.Now()
			if s.Now() < 100 {
				n.Send(b, a, nil, 8)
			}
		})
		for i := 0; i < 50; i++ {
			n.Send(a, b, nil, 16)
		}
		s.Run(0)
		return n.TotalStats().MessagesDelivered, last
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", d1, t1, d2, t2)
	}
}

func TestNodeBandwidthSerializes(t *testing.T) {
	s := New(3)
	n, err := NewNetwork(s, NetConfig{NodeBandwidth: 10}) // 10 B per time unit
	if err != nil {
		t.Fatal(err)
	}
	var deliveredAt []float64
	a := n.AddNode(func(Message) {})
	b := n.AddNode(func(Message) { deliveredAt = append(deliveredAt, s.Now()) })
	// Three 100-byte messages: each takes 10 time units of uplink, so
	// deliveries land at ~10, ~20, ~30.
	for i := 0; i < 3; i++ {
		n.Send(a, b, nil, 100)
	}
	s.Run(0)
	if len(deliveredAt) != 3 {
		t.Fatalf("delivered %d", len(deliveredAt))
	}
	want := []float64{10, 20, 30}
	for i, at := range deliveredAt {
		if math.Abs(at-want[i]) > 1e-9 {
			t.Fatalf("delivery %d at t=%v, want %v (got %v)", i, at, want[i], deliveredAt)
		}
	}
}

func TestNodeBandwidthIndependentUplinks(t *testing.T) {
	s := New(3)
	n, err := NewNetwork(s, NetConfig{NodeBandwidth: 10})
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	sink := n.AddNode(func(Message) { times = append(times, s.Now()) })
	a := n.AddNode(func(Message) {})
	b := n.AddNode(func(Message) {})
	// Two different senders do not share an uplink: both deliveries at ~10.
	n.Send(a, sink, nil, 100)
	n.Send(b, sink, nil, 100)
	s.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	for _, at := range times {
		if math.Abs(at-10) > 1e-9 {
			t.Fatalf("delivery at %v, want 10", at)
		}
	}
}

func TestNodeBandwidthUnlimitedByDefault(t *testing.T) {
	s := New(3)
	n, err := NewNetwork(s, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var at float64 = -1
	a := n.AddNode(func(Message) {})
	b := n.AddNode(func(Message) { at = s.Now() })
	n.Send(a, b, nil, 1<<40)
	s.Run(0)
	if at != 0 {
		t.Fatalf("unlimited network delayed delivery to %v", at)
	}
}

func TestNegativeBandwidthRejected(t *testing.T) {
	s := New(1)
	if _, err := NewNetwork(s, NetConfig{NodeBandwidth: -1}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}
