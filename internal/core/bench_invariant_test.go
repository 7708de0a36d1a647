package core

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/panic-nic/panic/internal/invariant"
)

// BenchmarkInvariantOverhead measures the monitor's cost on the
// saturating workload: off, the default 1-in-2048-cycle sampling, and an
// aggressive 1-in-64. ROBUSTNESS.md's overhead table quotes this
// benchmark's msgs/s column; the acceptance bound (<= 5% at the default
// interval) is enforced by TestInvariantOverheadBound.
func BenchmarkInvariantOverhead(b *testing.B) {
	cases := []struct {
		name string
		inv  *invariant.Config
	}{
		{"off", nil},
		{"every-2048", &invariant.Config{Every: 2048}},
		{"every-64", &invariant.Config{Every: 64}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.TenantWeights = map[uint16]uint64{1: 3, 2: 1}
			cfg.Health = DefaultHealthConfig()
			cfg.Invariants = c.inv
			nic := NewNIC(cfg, benchSources(0.9))
			nic.Run(2_000) // warm caches and fill the pipeline
			before := nic.WireLat.Count + nic.HostLat.Count
			b.ResetTimer()
			nic.Run(uint64(b.N))
			b.StopTimer()
			delivered := nic.WireLat.Count + nic.HostLat.Count - before
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "simcycles/s")
				b.ReportMetric(float64(delivered)/sec, "msgs/s")
			}
			if c.inv != nil {
				if err := nic.Invar.Err(); err != nil {
					b.Fatalf("benchmark run not invariant-clean: %v", err)
				}
			}
		})
	}
}

// TestInvariantOverheadBound is the acceptance gate: at the default
// sampling interval the armed monitor may cost at most 5% of saturating
// throughput. Identical simulated work runs with the monitor off and on
// (the stream is bit-identical by construction), so the on/off wall-time
// ratio bounds the overhead. The runs are paired: each pair advances an
// off NIC and an on NIC over the same horizon in alternating chunks,
// swapping which side goes first every chunk, so host load that comes and
// goes lands on both sides instead of on whichever ran second. Each pair
// starts from a collected heap, and the gate takes the median of the
// three paired ratios.
func TestInvariantOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	const cycles, chunk = 150_000, 10_000
	build := func(inv *invariant.Config) *NIC {
		cfg := DefaultConfig()
		cfg.TenantWeights = map[uint16]uint64{1: 3, 2: 1}
		cfg.Health = DefaultHealthConfig()
		cfg.Invariants = inv
		nic := NewNIC(cfg, benchSources(0.9))
		nic.Run(2_000)
		return nic
	}
	// One throwaway run warms the process, then three pairs.
	build(nil).Run(cycles)
	var ratios []float64
	for i := 0; i < 3; i++ {
		nics := [2]*NIC{build(nil), build(&invariant.Config{})}
		runtime.GC()
		var took [2]time.Duration
		for c := 0; c < cycles/chunk; c++ {
			for j := 0; j < 2; j++ {
				side := (c + j) % 2
				start := time.Now()
				nics[side].Run(chunk)
				took[side] += time.Since(start)
			}
		}
		if err := nics[1].Invar.Err(); err != nil {
			t.Fatalf("gate run not invariant-clean: %v", err)
		}
		ratios = append(ratios, float64(took[1])/float64(took[0]))
		t.Logf("pair %d: off=%v on=%v ratio=%.4f", i, took[0], took[1], ratios[i])
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("median paired overhead=%.2f%%", overhead*100)
	if overhead > 0.05 {
		t.Errorf("invariant monitor costs %.1f%% at the default interval (paired on/off ratios %.4f), budget is 5%%",
			overhead*100, ratios)
	}
}
