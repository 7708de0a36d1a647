package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// short shrinks a workload's horizons so a test repetition takes about a
// second, keeping the mid-window reading on a chunk boundary.
func short(sp spec) spec {
	switch sp.name {
	case "nic-loaded":
		sp.warmup, sp.horizon, sp.chunk = 10_000, 60_000, 5_000
	case "nic-idle-ff":
		sp.warmup, sp.horizon, sp.chunk = 200_000, 2_000_000, 250_000
	case "rack-kvs":
		sp.warmup, sp.horizon, sp.chunk = 2_048, 12_288, 1_024
	}
	return sp
}

// simMetrics keeps the deterministic end-to-end metrics.
func simMetrics(m map[string]metric) map[string]metric {
	out := map[string]metric{}
	for k, v := range m {
		if strings.HasPrefix(k, "sim_") {
			out[k] = v
		}
	}
	return out
}

func TestHorizonsSplitOnChunks(t *testing.T) {
	for _, sp := range append(workloads, short(workloads[0]), short(workloads[1]), short(workloads[2])) {
		if sp.horizon%sp.chunk != 0 || (sp.horizon/2)%sp.chunk != 0 {
			t.Errorf("%s: horizon %d does not split into halves of %d-cycle chunks", sp.name, sp.horizon, sp.chunk)
		}
		if sp.rack && (sp.warmup%rackTorLatency != 0 || sp.horizon%(2*rackTorLatency) != 0) {
			t.Errorf("%s: horizons must be whole ToR epochs", sp.name)
		}
	}
}

// TestRepetitionsAreIdentical runs every workload twice with one seed:
// every count and every simulated metric must match exactly, and the run
// must be stationary.
func TestRepetitionsAreIdentical(t *testing.T) {
	for _, w := range workloads {
		sp := short(w)
		t.Run(sp.name, func(t *testing.T) {
			rec := newRecorder()
			a, ga := runRep(sp, 7, modeTimed, 0, "chunk", rec)
			ga.close()
			b, gb := runRep(sp, 7, modeTimed, 0, "chunk", rec)
			gb.close()
			if a.fingerprint != b.fingerprint {
				t.Fatalf("fingerprints differ: %s", firstDiff(a.fingerprint, b.fingerprint))
			}
			if a.win != b.win || !reflect.DeepEqual(a.layersStart, b.layersStart) || !reflect.DeepEqual(a.layersEnd, b.layersEnd) {
				t.Errorf("counts differ:\n%+v\n%+v", a.layersEnd, b.layersEnd)
			}
			pipes := 2 * len(ga.nics)
			if ca, cb := countMetrics(a, pipes), countMetrics(b, pipes); !reflect.DeepEqual(ca, cb) {
				t.Errorf("count metrics differ:\n%v\n%v", ca, cb)
			}
			if sa, sb := simMetrics(a.e2e(500e6)), simMetrics(b.e2e(500e6)); !reflect.DeepEqual(sa, sb) {
				t.Errorf("simulated metrics differ:\n%v\n%v", sa, sb)
			}
			if a.unsteady != "" {
				t.Errorf("not stationary: %s", a.unsteady)
			}
			if a.win.offered == 0 || a.win.dropped != 0 || len(a.lat) == 0 {
				t.Errorf("offered %d, dropped %d, %d latency samples", a.win.offered, a.win.dropped, len(a.lat))
			}
		})
	}
}

// TestStationarityRejectsOverload runs the 90%-of-line-rate point the
// kernel benchmark (BENCH_kernel.json) times: a KVS tenant plus 256 B CBR
// bulk. Its backlog grows without bound, so the check must fail it.
func TestStationarityRejectsOverload(t *testing.T) {
	sp := short(workloads[0])
	sp.name, sp.load, sp.bulkFrame, sp.poisson = "overload", 0.9, 256, false
	sp.horizon = 100_000
	r, g := runRep(sp, 1, modeTimed, 0, "chunk", newRecorder())
	g.close()
	if r.unsteady == "" {
		t.Fatalf("90%% load passed the stationarity check: backlog %.1f -> %.1f, heap %d -> %d",
			r.backlogA, r.backlogB, r.heapMid, r.heapEnd)
	}
	t.Logf("rejected: %s", r.unsteady)
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s not printed", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestEveryMetricPrinted runs each workload's timed and traced runs at a
// short horizon: both must pass their checks and print exactly the
// metrics BENCHMARK.json names, with its units.
func TestEveryMetricPrinted(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workload), len(workloads))
	}
	for _, w := range f.Workload {
		sp, ok := lookup(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown", w.Name)
		}
		sp = short(sp)
		t.Run(sp.name, func(t *testing.T) {
			res := timedRun(sp, 3, 0, 1, newRecorder())
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("timed run: correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.notes)
			}
			checkNames(t, "timed", res.Metrics, f.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}
			res = tracedRun(sp, 3, 0, newRecorder())
			if !res.Correct {
				t.Errorf("traced run failed its checks: %v", res.notes)
			}
			checkNames(t, "traced", res.Metrics, f.PerLayer)
		})
	}
}
