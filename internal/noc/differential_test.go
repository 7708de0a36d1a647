package noc

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
)

// diffMesh is what the differential driver needs from either mesh.
type diffMesh interface {
	Fabric
	RegisterWith(k *sim.Kernel)
	AttachTracer(tr *trace.Tracer)
	Stats() Stats
	SetLinkFault(from, to NodeID, f LinkFault)
}

type diffInject struct {
	cycle    uint64
	src, dst NodeID
	msg      *packet.Message
}

// diffStall keeps a node's tile from draining its eject queue during
// [from, to).
type diffStall struct {
	node     NodeID
	from, to uint64
}

type diffFault struct {
	cycle    uint64
	from, to NodeID
	f        LinkFault
}

// diffScenario is one generated run: a mesh, a traffic script, tile
// stalls and link faults set and lifted mid-run.
type diffScenario struct {
	cfg     MeshConfig
	inject  []diffInject
	stalls  []diffStall
	faults  []diffFault
	cycles  uint64
	chunk   uint64 // cycles per Run call
	touched bool   // the script faults a link
}

var (
	diffFlitWidths = []int{16, 32, 64, 128, 256}
	diffSizes      = []int{1, 8, 24, 64, 200, 700, 1500}
)

// decodeScenario turns a byte script into a scenario. The first seven
// bytes pick the geometry, flit width, buffer depth, VC count and local
// queue depths; every following 4-byte record is an injection, a stall
// window or a link fault, spaced along a cycle cursor. Any byte string
// decodes to a valid scenario.
func decodeScenario(b []byte) diffScenario {
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		return 0
	}
	cfg := MeshConfig{
		Width:           1 + at(0)%8,
		Height:          1 + at(1)%8,
		FlitWidthBits:   diffFlitWidths[at(2)%len(diffFlitWidths)],
		BufferDepth:     2 + at(3)%7,
		VirtualChannels: 1 + at(4)%3,
		InjectDepth:     1 + at(5)%8,
		EjectDepth:      1 + at(6)%8,
	}
	sc := diffScenario{cfg: cfg, chunk: 1 + uint64(at(5))*7}
	n := cfg.Width * cfg.Height
	node := func(v int) NodeID { return NodeID(v % n) }
	var cycle uint64
	for i := 7; i+3 < len(b); i += 4 {
		op, x, y, z := int(b[i]), int(b[i+1]), int(b[i+2]), int(b[i+3])
		cycle += uint64(op>>3) % 8
		switch op % 8 {
		case 0, 1, 2, 3, 4:
			id := uint64(len(sc.inject) + 1)
			msg := &packet.Message{ID: id, TraceID: id, Pkt: &packet.Packet{PayloadLen: diffSizes[z%len(diffSizes)]}}
			sc.inject = append(sc.inject, diffInject{cycle: cycle, src: node(x), dst: node(y), msg: msg})
		case 5:
			sc.stalls = append(sc.stalls, diffStall{node: node(x), from: cycle, to: cycle + uint64(y)*4})
		default:
			from := node(x)
			fx, fy := int(from)%cfg.Width, int(from)/cfg.Width
			var to NodeID
			switch y % 4 {
			case 0:
				if fx+1 >= cfg.Width {
					continue
				}
				to = from + 1
			case 1:
				if fx == 0 {
					continue
				}
				to = from - 1
			case 2:
				if fy+1 >= cfg.Height {
					continue
				}
				to = from + NodeID(cfg.Width)
			default:
				if fy == 0 {
					continue
				}
				to = from - NodeID(cfg.Width)
			}
			var f LinkFault
			switch z % 3 {
			case 0:
				f.Severed = true
			case 1:
				f.PassEveryN = 2 + z%5
			}
			// Every fault is lifted again, so the scenario drains.
			sc.faults = append(sc.faults,
				diffFault{cycle: cycle + 1, from: from, to: to, f: f},
				diffFault{cycle: cycle + 1 + uint64(z)*3, from: from, to: to})
			sc.touched = true
		}
	}
	sc.cycles = cycle + 3000
	return sc
}

// diffDriver plays a scenario into a mesh: due injections queue per
// source and enter as CanInject allows, and every tile not stalled drains
// its eject queue each cycle. It implements sim.Quiescer so fast-forward
// can engage.
type diffDriver struct {
	m       Fabric
	sc      *diffScenario
	next    int
	pending [][]diffInject
	waiting int
	ejects  []string
}

func (d *diffDriver) stalled(node NodeID, c uint64) bool {
	for _, s := range d.sc.stalls {
		if s.node == node && c >= s.from && c < s.to {
			return true
		}
	}
	return false
}

func (d *diffDriver) Tick(c uint64) {
	for node := NodeID(0); int(node) < d.m.Nodes(); node++ {
		if d.stalled(node, c) {
			continue
		}
		for {
			msg, ok := d.m.TryEject(node)
			if !ok {
				break
			}
			d.ejects = append(d.ejects, fmt.Sprintf("msg %d at node %d cycle %d", msg.ID, node, c))
		}
	}
	for d.next < len(d.sc.inject) && d.sc.inject[d.next].cycle <= c {
		x := d.sc.inject[d.next]
		d.pending[x.src] = append(d.pending[x.src], x)
		d.waiting++
		d.next++
	}
	for src, q := range d.pending {
		for len(q) > 0 && d.m.CanInject(NodeID(src), q[0].dst) {
			d.m.Inject(NodeID(src), q[0].dst, q[0].msg)
			q = q[1:]
			d.waiting--
		}
		d.pending[src] = q
	}
}

func (d *diffDriver) NextWork(now uint64) (uint64, bool) {
	if d.waiting > 0 {
		return now, false
	}
	if d.next < len(d.sc.inject) {
		return max(now, d.sc.inject[d.next].cycle), false
	}
	return 0, true
}

// diffRun is everything a run exposes: the ejection log, the statistics
// after every Run call, and the span stream.
type diffRun struct {
	ejects []string
	stats  []Stats
	spans  []trace.Span
}

func runScenario(sc *diffScenario, m diffMesh, mode diffMode, audit func() error) (out diffRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	k := sim.NewKernel(sim.GHz)
	k.SetEventDriven(mode.event)
	k.SetFastForward(mode.fastFwd)
	m.RegisterWith(k)
	tr := trace.New(trace.Options{})
	m.AttachTracer(tr)
	d := &diffDriver{m: m, sc: sc, pending: make([][]diffInject, m.Nodes())}
	k.Register(d)
	k.Register(tr)
	for _, f := range sc.faults {
		f := f
		k.At(f.cycle, func() { m.SetLinkFault(f.from, f.to, f.f) })
	}
	if audit != nil {
		k.ObserveCycleEnd(func(c uint64) {
			if c%61 == 0 && err == nil {
				k.SyncAllAt(c)
				if e := audit(); e != nil {
					err = fmt.Errorf("cycle %d: %w", c, e)
				}
			}
		})
	}
	for k.Now() < sc.cycles {
		k.Run(min(sc.chunk, sc.cycles-k.Now()))
		out.stats = append(out.stats, m.Stats())
		if mode.alternate {
			k.SetEventDriven(!k.EventDriven())
		}
	}
	out.ejects = d.ejects
	out.spans = tr.Set().Spans
	return out, err
}

// diffMode is a kernel configuration; alternate switches between the
// ticked and event-driven loops after every Run call.
type diffMode struct {
	name                      string
	event, fastFwd, alternate bool
}

// diffModes are the kernel modes the worm mesh must match the oracle in.
var diffModes = []diffMode{
	{name: "ticked"},
	{name: "ticked+ff", fastFwd: true},
	{name: "event", event: true},
	{name: "event+ff", event: true, fastFwd: true},
	{name: "alternating", event: true, alternate: true},
}

// checkDifferential runs the scenario on the flit oracle and on the worm
// mesh in every kernel mode and reports the first difference.
func checkDifferential(sc diffScenario) error {
	want, err := runScenario(&sc, newFlitMesh(sc.cfg), diffMode{name: "oracle"}, nil)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for _, mode := range diffModes {
		m := NewMesh(sc.cfg)
		got, err := runScenario(&sc, m, mode, m.AuditConservation)
		if err != nil {
			return fmt.Errorf("%s: %w", mode.name, err)
		}
		if d := firstDiff(want.ejects, got.ejects); d != "" {
			return fmt.Errorf("%s: ejections differ: %s", mode.name, d)
		}
		if !reflect.DeepEqual(want.stats, got.stats) {
			for i := range want.stats {
				if i < len(got.stats) && want.stats[i] != got.stats[i] {
					return fmt.Errorf("%s: stats after run %d: oracle %+v, worm %+v", mode.name, i, want.stats[i], got.stats[i])
				}
			}
			return fmt.Errorf("%s: %d stats snapshots, oracle %d", mode.name, len(got.stats), len(want.stats))
		}
		if !reflect.DeepEqual(want.spans, got.spans) {
			for i := range want.spans {
				if i >= len(got.spans) || want.spans[i] != got.spans[i] {
					g := "none"
					if i < len(got.spans) {
						g = fmt.Sprintf("%+v", got.spans[i])
					}
					return fmt.Errorf("%s: span %d: oracle %+v, worm %s", mode.name, i, want.spans[i], g)
				}
			}
			return fmt.Errorf("%s: %d spans, oracle %d", mode.name, len(got.spans), len(want.spans))
		}
	}
	return nil
}

func firstDiff(a, b []string) string {
	for i := range a {
		if i >= len(b) {
			return fmt.Sprintf("worm stops after %d ejections; oracle next: %s", len(b), a[i])
		}
		if a[i] != b[i] {
			return fmt.Sprintf("#%d: oracle %s, worm %s", i, a[i], b[i])
		}
	}
	if len(b) > len(a) {
		return fmt.Sprintf("worm ejects more: %s", b[len(a)])
	}
	return ""
}

// diffScript generates a scenario script from a seed. Scenario i pins the
// header so that across the suite every axis value occurs: mesh sides 1 to
// 8, every flit width, buffer depths 2 to 8, 1 to 3 VCs.
func diffScript(i int, records int) []byte {
	rng := sim.NewRNG(uint64(1000 + i))
	b := make([]byte, 7+4*records)
	for j := range b {
		b[j] = byte(rng.Intn(256))
	}
	b[0], b[1] = byte(i%8), byte((i/3)%8)
	b[2] = byte(i % len(diffFlitWidths))
	b[3] = byte(i % 7)
	b[4] = byte(i % 3)
	return b
}

// TestMeshDifferential runs the worm mesh against the flit-granular oracle
// on generated scenarios and requires identical per-message eject cycles,
// Stats after every Run call, and hop/eject trace spans, in the ticked and
// event kernels with fast-forward off and on, and switching between them.
func TestMeshDifferential(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 12
	}
	faulted, streamed := 0, 0
	for i := 0; i < n; i++ {
		sc := decodeScenario(diffScript(i, 150))
		if sc.touched {
			faulted++
		}
		if err := checkDifferential(sc); err != nil {
			t.Fatalf("scenario %d (%+v): %v", i, sc.cfg, err)
		}
		if sc.cfg.VirtualChannels == 1 {
			streamed++
		}
	}
	if faulted == 0 || streamed == 0 {
		t.Fatalf("suite lost coverage: %d faulted scenarios, %d single-VC", faulted, streamed)
	}
}

// FuzzMeshDifferential decodes arbitrary bytes into a scenario (geometry,
// buffer depth, VC count, injections, eject stalls, link faults set and
// lifted) and fails on any difference between the worm mesh and the flit
// oracle.
func FuzzMeshDifferential(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(diffScript(i, 12))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 7+4*120 {
			b = b[:7+4*120]
		}
		sc := decodeScenario(b)
		if err := checkDifferential(sc); err != nil {
			t.Fatalf("%+v: %v", sc.cfg, err)
		}
	})
}
