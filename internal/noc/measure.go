package noc

import (
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// LoadPoint is one measurement of a fabric under synthetic load.
type LoadPoint struct {
	// OfferedLoad is the per-node injection probability per cycle.
	OfferedLoad float64
	// DeliveredGbps is the aggregate goodput at the given frequency.
	DeliveredGbps float64
	// MeanLatencyCycles is the mean inject-to-eject latency.
	MeanLatencyCycles float64
	// Delivered is the raw message count in the measurement window.
	Delivered uint64
}

// uniformDriver injects fixed-size messages at every node with probability
// load per node per cycle, destination uniform over other nodes, and drains
// every eject queue. A single-node fabric has no other node to send to, so
// it injects nothing. It implements sim.Ticker.
type uniformDriver struct {
	fab  Fabric
	rng  *sim.RNG
	load float64
	msg  *packet.Message
}

func newUniformDriver(fab Fabric, msgBytes int, load float64, seed uint64) *uniformDriver {
	// All messages share one template: the NoC model reads only WireLen
	// and never mutates message content, so identity does not matter and
	// allocation stays off the measurement path.
	msg := &packet.Message{Pkt: &packet.Packet{PayloadLen: msgBytes}}
	return &uniformDriver{fab: fab, rng: sim.NewRNG(seed), load: load, msg: msg}
}

// Tick implements sim.Ticker.
func (d *uniformDriver) Tick(uint64) {
	n := d.fab.Nodes()
	for node := 0; node < n; node++ {
		id := NodeID(node)
		for {
			if _, ok := d.fab.TryEject(id); !ok {
				break
			}
		}
		if d.rng.Float64() < d.load && n > 1 {
			dst := d.rng.Intn(n - 1)
			if dst >= node {
				dst++
			}
			if d.fab.CanInject(id, NodeID(dst)) {
				d.fab.Inject(id, NodeID(dst), d.msg)
			}
		}
	}
}

// resettable lets the measurement loop zero stats after warmup; both
// fabrics implement it.
type resettable interface {
	Fabric
	Stats() Stats
	ResetStats()
}

// registrable fabrics attach themselves to a kernel.
type registrable interface {
	RegisterWith(k *sim.Kernel)
}

// MeasureLoad runs uniform random traffic of msgBytes-sized messages at the
// given offered load (injection probability per node per cycle) and returns
// the delivered throughput and latency over the measurement window.
func MeasureLoad(fab resettable, freqHz float64, msgBytes int, load float64, warmup, window uint64, seed uint64) LoadPoint {
	k := sim.NewKernel(sim.Frequency(freqHz))
	if r, ok := fab.(registrable); ok {
		r.RegisterWith(k)
	} else {
		k.Register(fab)
	}
	k.Register(newUniformDriver(fab, msgBytes, load, seed))
	k.Run(warmup)
	fab.ResetStats()
	k.Run(window)
	s := fab.Stats()
	seconds := float64(window) / freqHz
	return LoadPoint{
		OfferedLoad:       load,
		DeliveredGbps:     float64(s.Delivered) * float64(msgBytes) * 8 / seconds / 1e9,
		MeanLatencyCycles: s.MeanLatency(),
		Delivered:         s.Delivered,
	}
}

// MeasureSaturation measures the fabric's uniform-random saturation
// throughput: every node injects whenever it can.
func MeasureSaturation(fab resettable, freqHz float64, msgBytes int, warmup, window uint64, seed uint64) LoadPoint {
	return MeasureLoad(fab, freqHz, msgBytes, 1.0, warmup, window, seed)
}

// SweepLoad measures a latency-throughput curve over the given offered
// loads. The fabric is rebuilt for each point via the build function, since
// fabrics carry state between runs.
func SweepLoad(build func() resettable, freqHz float64, msgBytes int, loads []float64, warmup, window uint64, seed uint64) []LoadPoint {
	points := make([]LoadPoint, len(loads))
	for i, l := range loads {
		points[i] = MeasureLoad(build(), freqHz, msgBytes, l, warmup, window, seed+uint64(i))
	}
	return points
}
