package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// Stationarity limits. A run is stationary when its simulated backlog and
// its live heap stop growing once warmed up: the second half of the timed
// window may not hold more than backlogGrowth times the first half's mean
// backlog plus backlogSlack messages, and the live heap may grow over the
// second half only by what the collectors' exact per-delivery latency
// records retain (heapPerDelivery bytes per delivered message) plus
// heapSlack bytes.
const (
	backlogGrowth   = 1.25
	backlogSlack    = 32
	heapPerDelivery = 512
	heapSlack       = 1 << 20
)

// rtSample is a cumulative reading of the Go runtime's allocation and GC
// counters.
type rtSample struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU       float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// liveHeap collects garbage and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// rep is one timed repetition: build and warm up a fresh system, then run
// the timed window.
type rep struct {
	setup time.Duration
	// wall is the timed window's host time, excluding the mid-window
	// heap reading.
	wall time.Duration
	// win is the change in the simulated counters over the timed window.
	win counters
	// layersStart and layersEnd bracket the window for the traced run.
	layersStart, layersEnd layerCounts
	rt0, rt1               rtSample
	heapMid, heapEnd       uint64
	// backlogA and backlogB are the mean backlog over the first and
	// second halves of the window, sampled after every chunk.
	backlogA, backlogB float64
	// lat holds the window's wire latencies in cycles, sorted.
	lat         []uint64
	fingerprint string
	// unsteady explains a failed stationarity check ("" = stationary).
	unsteady string
}

// runRep performs one repetition. chunk overrides the spec's Run-call
// granularity when non-zero; each Run call is recorded as a span named
// chunkName. The caller owns the returned rig and must close it.
func runRep(sp spec, seed uint64, m mode, chunk uint64, chunkName string, rec *recorder) (rep, *rig) {
	if chunk == 0 {
		chunk = sp.chunk
	}
	var out rep
	t0 := time.Now()
	id := rec.begin("build")
	r := build(sp, seed, m)
	rec.end(id)
	id = rec.begin("warmup")
	r.run(sp.warmup)
	rec.end(id)
	out.setup = time.Since(t0)

	runtime.GC()
	first := r.counters()
	out.layersStart = r.layerCounts()
	out.rt0 = readRuntime()
	r.window = true
	var sumA, sumB float64
	var nA, nB int
	var paused time.Duration
	var mid counters
	start := time.Now()
	for done := uint64(0); done < sp.horizon; done += chunk {
		if done == sp.horizon/2 {
			p := time.Now()
			out.heapMid = liveHeap()
			mid = r.counters()
			paused += time.Since(p)
		}
		rec.time(chunkName, func() { r.run(chunk) })
		b := float64(r.counters().backlog)
		if done < sp.horizon/2 {
			sumA, nA = sumA+b, nA+1
		} else {
			sumB, nB = sumB+b, nB+1
		}
	}
	out.wall = time.Since(start) - paused
	r.window = false
	last := r.counters()
	out.layersEnd = r.layerCounts()
	out.heapEnd = liveHeap()
	out.rt1 = readRuntime()
	out.win = last.sub(first)
	out.backlogA, out.backlogB = sumA/float64(nA), sumB/float64(nB)
	out.lat = r.windowLatencies()
	out.fingerprint = r.fingerprint()

	var why []string
	if out.backlogB > backlogGrowth*out.backlogA+backlogSlack {
		why = append(why, fmt.Sprintf("backlog grew from a mean of %.1f to %.1f messages", out.backlogA, out.backlogB))
	}
	// A traced run keeps every span in memory by design, so only untraced
	// runs hold the heap to the allowance.
	allow := heapPerDelivery*(last.delivered-mid.delivered) + heapSlack
	if m != modeTraced && out.heapEnd > out.heapMid+allow {
		why = append(why, fmt.Sprintf("live heap grew from %d to %d bytes (allowance %d)", out.heapMid, out.heapEnd, allow))
	}
	out.unsteady = strings.Join(why, "; ")
	return out, r
}

func (c counters) sub(o counters) counters {
	return counters{
		cycle:     c.cycle - o.cycle,
		offered:   c.offered - o.offered,
		delivered: c.delivered - o.delivered,
		bytes:     c.bytes - o.bytes,
		dropped:   c.dropped - o.dropped,
		backlog:   c.backlog,
	}
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2e computes the end-to-end metrics of one repetition.
func (r rep) e2e(freqHz float64) map[string]metric {
	wall := r.wall.Seconds()
	us := func(cycles uint64) float64 { return float64(cycles) / freqHz * 1e6 }
	simSeconds := float64(r.win.cycle) / freqHz
	return map[string]metric{
		"msgs_per_s":       {float64(r.win.delivered) / wall, "msgs/s"},
		"simcycles_per_s":  {float64(r.win.cycle) / wall, "cycles/s"},
		"setup_s":          {r.setup.Seconds(), "s"},
		"live_heap_mb":     {float64(r.heapEnd) / 1e6, "MB"},
		"sim_rtt_p50_us":   {us(quantile(r.lat, 0.50)), "us"},
		"sim_rtt_p99_us":   {us(quantile(r.lat, 0.99)), "us"},
		"sim_goodput_gbps": {float64(r.win.bytes) * 8 / simSeconds / 1e9, "Gbps"},
	}
}

// result is the benchmark's final report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed above the JSON line, not inside it.
	notes []string
}

// verdict applies the checks shared by timed and traced runs: every
// repetition reproduces the first, is stationary, and the first equals
// the untimed ticked oracle with no invariant violations.
func verdict(sp spec, seed uint64, reps []rep, rec *recorder) (ok bool, notes []string) {
	ok = true
	for i, r := range reps {
		if r.unsteady != "" {
			ok = false
			notes = append(notes, fmt.Sprintf("repetition %d not stationary: %s", i, r.unsteady))
		}
		if r.fingerprint != reps[0].fingerprint {
			ok = false
			notes = append(notes, fmt.Sprintf("repetition %d diverged from repetition 0", i))
		}
	}
	id := rec.begin("oracle")
	o := build(sp, seed, modeOracle)
	o.run(sp.warmup + sp.horizon)
	fp, viol := o.fingerprint(), o.violations()
	o.close()
	rec.end(id)
	if fp != reps[0].fingerprint {
		ok = false
		notes = append(notes, "fingerprint differs from the ticked oracle: "+firstDiff(reps[0].fingerprint, fp))
	}
	if len(viol) > 0 {
		ok = false
		notes = append(notes, fmt.Sprintf("oracle reported %d invariant violations, first: %v", len(viol), viol[0]))
	}
	return ok, notes
}

// firstDiff describes the first differing line of two fingerprints.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs oracle %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines vs oracle %d", len(la), len(lb))
}

// timedRun repeats the workload until the time budget is spent (and at
// least minReps times), then reports the median of each host metric and
// the first repetition's simulated metrics.
func timedRun(sp spec, seed uint64, budget time.Duration, minReps int, rec *recorder) result {
	var reps []rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		id := rec.begin("repetition")
		r, g := runRep(sp, seed, modeTimed, 0, "chunk", rec)
		g.close()
		rec.end(id)
		if len(reps) > 0 {
			// Later repetitions must reproduce the first one's
			// fingerprint, so the simulated metrics come from the first;
			// dropping their latency samples keeps the live heap that
			// live_heap_mb reads from growing with the repetition count.
			r.lat = nil
		}
		reps = append(reps, r)
	}
	ok, notes := verdict(sp, seed, reps, rec)
	res := result{Correct: ok, notes: notes, Metrics: map[string]metric{}}
	freq := nicConfig(sp, seed, modeTimed).FreqHz
	per := make([]map[string]metric, len(reps))
	for i, r := range reps {
		per[i] = r.e2e(freq)
		res.Attempted += r.win.offered
		res.Failed += r.win.dropped
	}
	for name, m := range per[0] {
		if strings.HasPrefix(name, "sim_") {
			res.Metrics[name] = m
			continue
		}
		vals := make([]float64, len(per))
		for i, p := range per {
			vals[i] = p[name].Value
		}
		res.Metrics[name] = metric{median(vals), m.Unit}
	}
	if !ok {
		res.Failed = res.Attempted
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%s seed=%d: %d repetitions of %d cycles after %d warm-up cycles; %d wire latency samples per repetition; backlog %.1f -> %.1f",
			sp.name, seed, len(reps), sp.horizon, sp.warmup, len(reps[0].lat), reps[0].backlogA, reps[0].backlogB))
	return res
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
