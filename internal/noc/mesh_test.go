package noc

import (
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

func testMsg(bytes int) *packet.Message {
	return &packet.Message{Pkt: &packet.Packet{PayloadLen: bytes}}
}

func newTestMesh(w, h int) (*Mesh, *sim.Kernel) {
	cfg := DefaultMeshConfig()
	cfg.Width, cfg.Height = w, h
	m := NewMesh(cfg)
	k := sim.NewKernel(500 * sim.MHz)
	m.RegisterWith(k)
	return m, k
}

func TestMeshGeometryHelpers(t *testing.T) {
	m, _ := newTestMesh(4, 3)
	if m.Nodes() != 12 {
		t.Fatalf("Nodes = %d, want 12", m.Nodes())
	}
	id := m.NodeAt(2, 1)
	if c := m.CoordOf(id); c != (Coord{2, 1}) {
		t.Errorf("CoordOf(NodeAt(2,1)) = %v", c)
	}
	defer func() {
		if recover() == nil {
			t.Error("NodeAt out of range did not panic")
		}
	}()
	m.NodeAt(4, 0)
}

func TestMeshFlitSegmentation(t *testing.T) {
	m, _ := newTestMesh(2, 2)
	cases := []struct{ bytes, want int }{
		{1, 1}, {8, 1}, {9, 2}, {64, 8}, {65, 9}, {0, 1},
	}
	for _, c := range cases {
		if got := m.FlitsFor(testMsg(c.bytes)); got != c.want {
			t.Errorf("FlitsFor(%dB @64bit) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestMeshSingleHopLatency(t *testing.T) {
	// One-flit message to an adjacent node: inject at cycle 0, router A
	// forwards at cycle 1, router B ejects at cycle 2, visible at cycle 3
	// — "routers add one cycle of latency at each hop".
	m, k := newTestMesh(2, 1)
	src, dst := m.NodeAt(0, 0), m.NodeAt(1, 0)
	msg := testMsg(8)
	m.Inject(src, dst, msg)
	var got *packet.Message
	arrived := uint64(0)
	k.Register(sim.TickFunc(func(c uint64) {
		if got == nil {
			if mm, ok := m.TryEject(dst); ok {
				got, arrived = mm, c
			}
		}
	}))
	k.Run(10)
	if got != msg {
		t.Fatal("message not delivered")
	}
	if arrived != 3 {
		t.Errorf("visible at cycle %d, want 3", arrived)
	}
	if s := m.Stats(); s.Delivered != 1 || s.Injected != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Recorded latency: delivered at cycle 2, injected at 0.
	if lat := m.Stats().MeanLatency(); lat != 2 {
		t.Errorf("mean latency = %v, want 2", lat)
	}
}

func TestMeshLatencyScalesWithHops(t *testing.T) {
	// Corner to corner of a 5x5 mesh: 8 hops. Latency = hops + ejection.
	m, k := newTestMesh(5, 5)
	m.Inject(m.NodeAt(0, 0), m.NodeAt(4, 4), testMsg(8))
	ok := k.RunUntil(func() bool { return m.Stats().Delivered == 1 }, 100)
	if !ok {
		t.Fatal("not delivered")
	}
	if lat := m.Stats().MeanLatency(); lat != 9 {
		t.Errorf("corner-to-corner latency = %v cycles, want 9 (8 hops + eject)", lat)
	}
}

func TestMeshMultiFlitSerialization(t *testing.T) {
	// A 64-byte message is 8 flits at 64-bit width: the tail arrives 7
	// cycles after the head, so latency = hops + eject + 7.
	m, k := newTestMesh(2, 1)
	m.Inject(m.NodeAt(0, 0), m.NodeAt(1, 0), testMsg(64))
	if !k.RunUntil(func() bool { return m.Stats().Delivered == 1 }, 100) {
		t.Fatal("not delivered")
	}
	if lat := m.Stats().MeanLatency(); lat != 9 {
		t.Errorf("8-flit 1-hop latency = %v, want 9", lat)
	}
}

func TestMeshSelfDelivery(t *testing.T) {
	m, k := newTestMesh(3, 3)
	mid := m.NodeAt(1, 1)
	m.Inject(mid, mid, testMsg(8))
	if !k.RunUntil(func() bool { return m.Stats().Delivered == 1 }, 20) {
		t.Fatal("self-addressed message not delivered")
	}
	if got, ok := m.TryEject(mid); !ok || got == nil {
		t.Error("TryEject failed after delivery")
	}
}

func TestMeshPerPairOrderingPreserved(t *testing.T) {
	// Messages between the same (src,dst) pair must arrive in injection
	// order (XY routing is single-path and wormhole is FIFO per link).
	m, k := newTestMesh(4, 4)
	src, dst := m.NodeAt(0, 0), m.NodeAt(3, 2)
	const n = 20
	sent := make([]*packet.Message, n)
	next := 0
	var order []int
	k.Register(sim.TickFunc(func(uint64) {
		if next < n && m.CanInject(src, dst) {
			msg := testMsg(16)
			msg.ID = uint64(next)
			sent[next] = msg
			m.Inject(src, dst, msg)
			next++
		}
		for {
			mm, ok := m.TryEject(dst)
			if !ok {
				break
			}
			order = append(order, int(mm.ID))
		}
	}))
	k.Run(500)
	if len(order) != n {
		t.Fatalf("delivered %d/%d", len(order), n)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("out of order delivery: %v", order)
		}
	}
}

func TestMeshNoLossUnderRandomTraffic(t *testing.T) {
	// Every injected message is delivered exactly once (lossless network).
	m, k := newTestMesh(4, 4)
	rng := sim.NewRNG(3)
	delivered := make(map[uint64]int)
	injected := uint64(0)
	k.Register(sim.TickFunc(func(uint64) {
		for node := 0; node < m.Nodes(); node++ {
			id := NodeID(node)
			for {
				mm, ok := m.TryEject(id)
				if !ok {
					break
				}
				delivered[mm.ID]++
			}
			if injected < 500 && rng.Bool(0.3) {
				dst := NodeID(rng.Intn(m.Nodes()))
				if m.CanInject(id, dst) {
					msg := testMsg(8 + rng.Intn(120))
					injected++
					msg.ID = injected
					m.Inject(id, dst, msg)
				}
			}
		}
	}))
	k.Run(3000)
	if m.Stats().Injected != injected {
		t.Fatalf("stats.Injected = %d, want %d", m.Stats().Injected, injected)
	}
	if uint64(len(delivered)) != injected {
		t.Fatalf("delivered %d unique, injected %d", len(delivered), injected)
	}
	for id, count := range delivered {
		if count != 1 {
			t.Fatalf("message %d delivered %d times", id, count)
		}
	}
}

func TestMeshBackpressureWithoutDrain(t *testing.T) {
	// Nobody drains eject queues: the network must fill and stall but
	// never drop or panic; total in-flight is bounded by buffer space.
	m, k := newTestMesh(3, 3)
	sent := 0
	k.Register(sim.TickFunc(func(uint64) {
		if m.CanInject(0, m.NodeAt(2, 2)) {
			m.Inject(0, m.NodeAt(2, 2), testMsg(8))
			sent++
		}
	}))
	k.Run(2000)
	s := m.Stats()
	if s.Delivered > uint64(m.Config().EjectDepth) {
		t.Errorf("delivered %d with nobody draining, eject depth %d", s.Delivered, m.Config().EjectDepth)
	}
	if sent > 100 {
		t.Errorf("injected %d messages into a stalled network (backpressure failed)", sent)
	}
}

func TestMeshDeterminism(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		m := NewMesh(DefaultMeshConfig())
		p := MeasureSaturation(m, 500e6, 64, 500, 1000, 42)
		s := m.Stats()
		return s.Delivered, s.FlitHops, p.MeanLatencyCycles
	}
	d1, f1, l1 := run()
	d2, f2, l2 := run()
	if d1 != d2 || f1 != f2 || l1 != l2 {
		t.Errorf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", d1, f1, l1, d2, f2, l2)
	}
}

func TestMeshConfigValidation(t *testing.T) {
	bad := []MeshConfig{
		{Width: 0, Height: 3, FlitWidthBits: 64, BufferDepth: 4, InjectDepth: 4, EjectDepth: 4},
		{Width: 3, Height: 3, FlitWidthBits: 0, BufferDepth: 4, InjectDepth: 4, EjectDepth: 4},
		{Width: 3, Height: 3, FlitWidthBits: 64, BufferDepth: 1, InjectDepth: 4, EjectDepth: 4},
		{Width: 3, Height: 3, FlitWidthBits: 64, BufferDepth: 4, InjectDepth: 0, EjectDepth: 4},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic: %+v", i, cfg)
				}
			}()
			NewMesh(cfg)
		}()
	}
}

func TestMeshInjectInvalidDstPanics(t *testing.T) {
	// Every node-taking entry point rejects a node outside the mesh with a
	// noc: panic that names the node, instead of an index-out-of-range.
	m, _ := newTestMesh(2, 2)
	xb := NewCrossbar(CrossbarConfig{Nodes: 4, FlitWidthBits: 64, TraversalLatency: 1, InjectDepth: 2, EjectDepth: 2})
	calls := map[string]func(){
		"Inject dst":        func() { m.Inject(0, 99, testMsg(8)) },
		"Inject src":        func() { m.Inject(99, 0, testMsg(8)) },
		"Inject negative":   func() { m.Inject(-1, 0, testMsg(8)) },
		"CanInject src":     func() { m.CanInject(99, 0) },
		"CanInject dst":     func() { m.CanInject(0, 99) },
		"TryEject":          func() { m.TryEject(99) },
		"HasEjectable":      func() { m.HasEjectable(99) },
		"SetNodeWaker":      func() { m.SetNodeWaker(99, sim.Poker{}) },
		"SetLinkFault":      func() { m.SetLinkFault(99, 0, LinkFault{Severed: true}) },
		"LinkFaultBetween":  func() { m.LinkFaultBetween(0, 99) },
		"NodeLinkFaulted":   func() { m.NodeLinkFaulted(99) },
		"CoordOf":           func() { m.CoordOf(99) },
		"crossbar Inject":   func() { xb.Inject(99, 0, testMsg(8)) },
		"crossbar TryEject": func() { xb.TryEject(99) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "noc: ") || !(strings.Contains(msg, "99") || strings.Contains(msg, "-1")) {
					t.Errorf("%s: panic %q, want a noc: panic naming the node", name, msg)
				}
			}()
			call()
		}()
	}
}

func TestSingleNodeFabricMeasuresZero(t *testing.T) {
	// One node has no other node to send to: uniform traffic must measure
	// zero deliveries, not panic drawing a destination.
	cfg := DefaultMeshConfig()
	cfg.Width, cfg.Height = 1, 1
	if p := MeasureLoad(NewMesh(cfg), 1e9, 64, 1.0, 100, 1000, 1); p.Delivered != 0 {
		t.Errorf("MeasureLoad on 1x1 delivered %d", p.Delivered)
	}
	if p := MeasurePattern(NewMesh(cfg), PatternUniform, 1e9, 64, 1.0, 100, 1000, 1); p.Delivered != 0 {
		t.Errorf("MeasurePattern(uniform) on 1x1 delivered %d", p.Delivered)
	}
	if got := PatternUniform(sim.NewRNG(1), 0, 1, 1, 1); got != 0 {
		t.Errorf("PatternUniform on one node = %d, want the source (sit out)", got)
	}
}

func TestAuditCatchesCorruptLane(t *testing.T) {
	// Fill some lanes, confirm the audit is clean, then corrupt one lane's
	// books at a time: each must be reported.
	m, k := newTestMesh(3, 3)
	for i := 0; i < 4; i++ {
		m.Inject(0, 8, testMsg(200))
	}
	k.Run(6)
	if err := m.AuditConservation(); err != nil {
		t.Fatalf("clean mesh fails the audit: %v", err)
	}
	var l *lane
	for _, r := range m.routers {
		for i := range r.in {
			if r.in[i].nseg > 0 {
				l = &r.in[i]
			}
		}
	}
	if l == nil {
		t.Fatal("no occupied lane to corrupt")
	}
	corruptions := map[string]func(){
		"count off by one":    func() { l.n++ },
		"segment lost a flit": func() { l.front().flits-- },
		"over buffer depth":   func() { l.n += int32(m.cfg.BufferDepth); l.front().flits += int32(m.cfg.BufferDepth) },
	}
	for name, corrupt := range corruptions {
		saved, seg := l.credits, *l.front()
		corrupt()
		if err := m.AuditConservation(); err == nil || !strings.Contains(err.Error(), "lane") {
			t.Errorf("%s: audit returned %v, want a lane violation", name, err)
		}
		l.credits, *l.front() = saved, seg
	}
	if err := m.AuditConservation(); err != nil {
		t.Fatalf("restored mesh fails the audit: %v", err)
	}
}
