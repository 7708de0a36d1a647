package noc

import (
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// Pattern selects a destination for a source under a synthetic traffic
// pattern. Returning src means "skip this injection" (a node that does not
// participate).
type Pattern func(rng *sim.RNG, src, nodes, width, height int) int

// PatternUniform sends to a uniformly random other node — the assumption
// behind the paper's Table 3 analysis. A single-node fabric has no other
// node, so its only node sits out.
func PatternUniform(rng *sim.RNG, src, nodes, _, _ int) int {
	if nodes < 2 {
		return src
	}
	dst := rng.Intn(nodes - 1)
	if dst >= src {
		dst++
	}
	return dst
}

// PatternHotspot sends a fraction of traffic to node 0 (e.g. everyone
// talking to the DMA engine — the pattern a NIC actually exhibits) and the
// rest uniformly.
func PatternHotspot(hotFraction float64) Pattern {
	return func(rng *sim.RNG, src, nodes, w, h int) int {
		if src != 0 && rng.Float64() < hotFraction {
			return 0
		}
		return PatternUniform(rng, src, nodes, w, h)
	}
}

// PatternTranspose sends (x, y) -> (y, x): the classic adversarial pattern
// for dimension-order routing (all traffic crosses the diagonal).
func PatternTranspose(_ *sim.RNG, src, _, width, height int) int {
	x, y := src%width, src/width
	if x >= height || y >= width {
		return src // outside the square sub-mesh: sit out
	}
	return x*width + y
}

// PatternNeighbor sends to the east neighbor (wrapping): maximal locality,
// the upper bound on mesh throughput.
func PatternNeighbor(_ *sim.RNG, src, _, width, _ int) int {
	x, y := src%width, src/width
	return y*width + (x+1)%width
}

// PatternByName resolves a pattern from its configuration name; hotspot
// uses a 30% hot fraction. Unknown names return nil.
func PatternByName(name string) Pattern {
	switch name {
	case "uniform":
		return PatternUniform
	case "hotspot":
		return PatternHotspot(0.3)
	case "transpose":
		return PatternTranspose
	case "neighbor":
		return PatternNeighbor
	default:
		return nil
	}
}

// patternDriver generalizes uniformDriver to arbitrary patterns.
type patternDriver struct {
	fab     Fabric
	rng     *sim.RNG
	load    float64
	msg     *packet.Message
	pattern Pattern
	w, h    int
}

// Tick implements sim.Ticker.
func (d *patternDriver) Tick(uint64) {
	n := d.fab.Nodes()
	for node := 0; node < n; node++ {
		id := NodeID(node)
		for {
			if _, ok := d.fab.TryEject(id); !ok {
				break
			}
		}
		if d.rng.Float64() < d.load {
			dst := d.pattern(d.rng, node, n, d.w, d.h)
			if dst == node {
				continue
			}
			if d.fab.CanInject(id, NodeID(dst)) {
				d.fab.Inject(id, NodeID(dst), d.msg)
			}
		}
	}
}

// MeasurePattern measures delivered throughput and latency under an
// arbitrary traffic pattern at the given offered load (1.0 = saturation
// probing). The mesh dimensions are needed by coordinate-based patterns.
func MeasurePattern(m *Mesh, pattern Pattern, freqHz float64, msgBytes int, load float64, warmup, window uint64, seed uint64) LoadPoint {
	if pattern == nil {
		panic("noc: nil traffic pattern")
	}
	k := sim.NewKernel(sim.Frequency(freqHz))
	m.RegisterWith(k)
	k.Register(&patternDriver{
		fab: m, rng: sim.NewRNG(seed), load: load,
		msg:     &packet.Message{Pkt: &packet.Packet{PayloadLen: msgBytes}},
		pattern: pattern,
		w:       m.Config().Width, h: m.Config().Height,
	})
	k.Run(warmup)
	m.ResetStats()
	k.Run(window)
	s := m.Stats()
	seconds := float64(window) / freqHz
	return LoadPoint{
		OfferedLoad:       load,
		DeliveredGbps:     float64(s.Delivered) * float64(msgBytes) * 8 / seconds / 1e9,
		MeanLatencyCycles: s.MeanLatency(),
		Delivered:         s.Delivered,
	}
}

// PatternNames lists the built-in pattern names.
func PatternNames() []string { return []string{"uniform", "hotspot", "transpose", "neighbor"} }
