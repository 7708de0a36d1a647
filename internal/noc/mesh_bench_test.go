package noc

import (
	"testing"

	"github.com/panic-nic/panic/internal/sim"
)

// benchMesh runs uniform random traffic on a default 6x6 mesh for b.N
// cycles, exercising the router hot path (head caching, precomputed
// routes, idle skip-scan) at the given offered load.
func benchMesh(b *testing.B, load float64) {
	b.ReportAllocs()
	MeasureLoad(NewMesh(DefaultMeshConfig()), 1e9, 64, load, 1_000, uint64(b.N), 7)
}

func BenchmarkMeshSaturated(b *testing.B) { benchMesh(b, 1.0) }
func BenchmarkMeshModerate(b *testing.B)  { benchMesh(b, 0.1) }
func BenchmarkMeshIdle(b *testing.B)      { benchMesh(b, 0.0) }

// BenchmarkMeshMTUStream moves 1500 B frames between uniform random node
// pairs on core's mesh geometry (6x6, 128-bit flits, so 94 flits a frame)
// under the event-driven kernel, where worms past their head's ejection
// stream in closed form. b.N counts simulated cycles; ns/flit-hop is the
// host time per flit-link traversal, including the traffic driver.
func BenchmarkMeshMTUStream(b *testing.B) {
	cfg := DefaultMeshConfig()
	cfg.FlitWidthBits = 128
	m := NewMesh(cfg)
	k := sim.NewKernel(500 * sim.MHz)
	k.SetEventDriven(true)
	m.RegisterWith(k)
	k.Register(newUniformDriver(m, 1500, 0.003, 7))
	k.Run(20_000)
	before := m.Stats().FlitHops
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(uint64(b.N))
	b.StopTimer()
	if hops := m.Stats().FlitHops - before; hops > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/flit-hop")
	}
}
