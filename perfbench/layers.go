package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fleet"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

// engineTiles are the engines whose busy and stall fractions are
// reported, by tile name.
var engineTiles = []struct {
	name string
	addr packet.Addr
}{
	{"eth0", core.AddrEthBase},
	{"ipsec", core.AddrIPSec},
	{"dma", core.AddrDMA},
	{"kvscache", core.AddrKVSCache},
}

// layerCounts is a snapshot of every layer's public statistics, summed
// over the system's NICs.
type layerCounts struct {
	cycles, skipped                   uint64 // summed over NIC kernels
	flitHops, meshDelivered, meshLat  uint64
	rmtAccepted, rmtStall, rmtDrops   uint64
	fcHits, fcMisses, fcNeg           uint64
	pushes, queueWait, served         uint64
	highWater                         int
	schedDrops                        uint64
	busy, stall                       []uint64 // per engineTiles entry
	cacheHits, cacheMisses            uint64
	wire                              uint64
	torForwarded, torDropped, torPend uint64
}

func (r *rig) layerCounts() layerCounts {
	c := layerCounts{busy: make([]uint64, len(engineTiles)), stall: make([]uint64, len(engineTiles))}
	for _, n := range r.nics {
		k := n.Builder.Kernel
		c.cycles += k.Now()
		c.skipped += k.SkippedCycles()
		ms := n.Builder.Mesh.Stats()
		c.flitHops += ms.FlitHops
		c.meshDelivered += ms.Delivered
		c.meshLat += ms.TotalLatency
		for _, t := range n.Builder.RMTs {
			s := t.Stats()
			c.rmtAccepted += s.Accepted
			c.rmtStall += s.StallCycles
			c.rmtDrops += s.Dropped + s.QueueDropped + s.Unrouted + s.Refused
		}
		fc := n.FlowCacheStats()
		c.fcHits += fc.Hits
		c.fcMisses += fc.Misses
		c.fcNeg += fc.NegHits
		for _, t := range n.Builder.Tiles {
			pushed, _, _, _, hw := t.QueueStats()
			s := t.Stats()
			c.pushes += pushed
			c.queueWait += s.QueueWaitTotal
			c.served += s.Processed
			if hw > c.highWater {
				c.highWater = hw
			}
		}
		c.schedDrops += n.Drops.Value()
		for i, e := range engineTiles {
			s := n.Tile(e.addr).Stats()
			c.busy[i] += s.BusyCycles
			c.stall[i] += s.StallCycles
		}
		h, m, _ := n.Cache.Counts()
		c.cacheHits += h
		c.cacheMisses += m
		c.wire += n.WireLat.Count
	}
	if r.fleet != nil {
		ts := r.fleet.TorStats()
		c.torForwarded, c.torDropped, c.torPend = ts.Forwarded, ts.Dropped, ts.Pending
	}
	return c
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics derives the exact per-layer counts of a repetition's
// timed window; pipelines is the system's RMT pipeline count.
func countMetrics(r rep, pipelines int) map[string]metric {
	a, b := r.layersStart, r.layersEnd
	d := func(x, y uint64) float64 { return float64(y - x) }
	msgs := float64(r.win.delivered)
	cycles := d(a.cycles, b.cycles) // summed over NICs
	out := map[string]metric{
		"sim.skipped_cycle_frac":       {ratio(d(a.skipped, b.skipped), cycles), "frac"},
		"noc.flit_hops_per_msg":        {ratio(d(a.flitHops, b.flitHops), msgs), "hops/msg"},
		"noc.mean_transit_cycles":      {ratio(d(a.meshLat, b.meshLat), d(a.meshDelivered, b.meshDelivered)), "cycles"},
		"rmt.passes_per_msg":           {ratio(d(a.rmtAccepted, b.rmtAccepted), msgs), "passes/msg"},
		"rmt.flowcache_hit_rate":       {ratio(d(a.fcHits, b.fcHits), d(a.fcHits+a.fcMisses+a.fcNeg, b.fcHits+b.fcMisses+b.fcNeg)), "frac"},
		"rmt.stall_cycle_frac":         {ratio(d(a.rmtStall, b.rmtStall), cycles*float64(pipelines)), "frac"},
		"rmt.drops":                    {d(a.rmtDrops, b.rmtDrops), "count"},
		"sched.mean_queue_wait_cycles": {ratio(d(a.queueWait, b.queueWait), d(a.served, b.served)), "cycles"},
		"sched.high_water":             {float64(b.highWater), "count"},
		"sched.drops":                  {d(a.schedDrops, b.schedDrops), "count"},
		"engine.kvscache_hit_rate":     {ratio(d(a.cacheHits, b.cacheHits), d(a.cacheHits+a.cacheMisses, b.cacheHits+b.cacheMisses)), "frac"},
		"fleet.cross_frac":             {ratio(d(a.torForwarded, b.torForwarded), d(a.torForwarded+a.wire, b.torForwarded+b.wire)), "frac"},
		"fleet.tor_dropped":            {d(a.torDropped, b.torDropped), "count"},
		"fleet.tor_pending":            {float64(b.torPend), "count"},
	}
	for i, e := range engineTiles {
		out["engine.busy_frac."+e.name] = metric{ratio(d(a.busy[i], b.busy[i]), cycles), "frac"}
		out["engine.stall_frac."+e.name] = metric{ratio(d(a.stall[i], b.stall[i]), cycles), "frac"}
	}
	return out
}

// runtimeMetrics derives the Go runtime's allocation and GC cost of a
// repetition's timed window.
func runtimeMetrics(r rep) map[string]metric {
	msgs := float64(r.win.delivered)
	return map[string]metric{
		"runtime.allocs_per_msg": {ratio(float64(r.rt1.allocObjs-r.rt0.allocObjs), msgs), "allocs/msg"},
		"runtime.bytes_per_msg":  {ratio(float64(r.rt1.allocBytes-r.rt0.allocBytes), msgs), "B/msg"},
		"runtime.gc_cpu_frac":    {ratio(r.rt1.gcCPU-r.rt0.gcCPU, r.rt1.totalCPU-r.rt0.totalCPU), "frac"},
	}
}

// injection is one recorded fabric injection.
type injection struct {
	cycle    uint64
	src, dst noc.NodeID
	flits    int
}

// queueOp is one recorded scheduling-queue operation: a push with its
// rank, or a pop.
type queueOp struct {
	push bool
	rank uint64
}

// layerInputs are the per-layer inputs recorded by the program's span
// tracer during a traced repetition, per NIC.
type layerInputs struct {
	injections [][]injection
	// queues holds each NIC's per-engine operation sequences.
	queues [][][]queueOp
	spans  int
}

// recordInputs extracts the mesh injections and scheduling-queue
// operations from a traced rig's span streams. Each engine's spans come
// from its private buffer in program order, so per-engine sequences are
// exact.
func recordInputs(r *rig) (layerInputs, error) {
	var in layerInputs
	for i, tr := range r.tracers {
		set := tr.Set()
		if set.Dropped > 0 {
			return in, fmt.Errorf("nic %d: tracer dropped %d spans", i, set.Dropped)
		}
		in.spans += len(set.Spans)
		nodes := map[uint32]noc.NodeID{}
		for _, t := range r.nics[i].Builder.Tiles {
			nodes[uint32(t.Addr())] = t.Node()
		}
		for _, t := range r.nics[i].Builder.RMTs {
			nodes[uint32(t.Addr())] = t.Node()
		}
		var inj []injection
		perEngine := map[uint32][]queueOp{}
		for _, s := range set.Spans {
			if s.LocKind != trace.LocEngine {
				continue
			}
			switch s.Kind {
			case trace.KindInject:
				inj = append(inj, injection{cycle: s.Start, src: nodes[s.Loc], dst: noc.NodeID(s.A), flits: int(s.B)})
			case trace.KindEnq:
				perEngine[s.Loc] = append(perEngine[s.Loc], queueOp{push: true, rank: s.A})
			case trace.KindWait:
				perEngine[s.Loc] = append(perEngine[s.Loc], queueOp{})
			}
		}
		locs := make([]uint32, 0, len(perEngine))
		for l := range perEngine {
			locs = append(locs, l)
		}
		sort.Slice(locs, func(a, b int) bool { return locs[a] < locs[b] })
		var qs [][]queueOp
		for _, l := range locs {
			qs = append(qs, perEngine[l])
		}
		in.injections = append(in.injections, inj)
		in.queues = append(in.queues, qs)
	}
	return in, nil
}

// timeBatches runs fn (which does ops operations) until at least minDur
// has passed and at least three times, and returns the median ns/op.
func timeBatches(rec *recorder, name string, ops int, minDur time.Duration, fn func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < minDur {
		d := rec.time(name, fn)
		per = append(per, float64(d.Nanoseconds())/float64(ops))
	}
	return median(per)
}

// idleStepNs times Kernel.Step on an assembled NIC with no traffic and
// fast-forward off.
func idleStepNs(seed uint64, rec *recorder) float64 {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	n := core.NewNIC(cfg, nil)
	defer n.Close()
	k := n.Builder.Kernel
	const steps = 20_000
	return timeBatches(rec, "drive:sim-idle-step", steps, 200*time.Millisecond, func() {
		for i := 0; i < steps; i++ {
			k.Step()
		}
	})
}

// idleTickNs times Mesh.Tick on an empty mesh of the NIC's geometry.
func idleTickNs(rec *recorder) float64 {
	m := noc.NewMesh(core.DefaultConfig().Mesh)
	const ticks = 20_000
	var cycle uint64
	return timeBatches(rec, "drive:noc-idle-tick", ticks, 100*time.Millisecond, func() {
		for i := 0; i < ticks; i++ {
			cycle++
			m.Tick(cycle)
		}
	})
}

// meshReplayer re-injects recorded injections into a standalone mesh at
// their recorded cycles (later when the injection lane is full, keeping
// each source's order) and drains every eject queue. Stretches with an
// empty mesh are skipped. It implements sim.Ticker.
type meshReplayer struct {
	mesh    *noc.Mesh
	pending [][]injection // per source node, in recorded order
	left    int
	base    uint64
	tmpl    map[int]*packet.Message // message template per flit count
}

func (d *meshReplayer) Tick(cycle uint64) {
	for node := 0; node < d.mesh.Nodes(); node++ {
		for {
			if _, ok := d.mesh.TryEject(noc.NodeID(node)); !ok {
				break
			}
		}
	}
	now := d.base + cycle
	if s := d.mesh.Stats(); s.Injected == s.Delivered {
		// The mesh is empty: skip ahead to the next recorded injection so
		// idle stretches cost no replay time.
		next := uint64(math.MaxUint64)
		for _, q := range d.pending {
			if len(q) > 0 && q[0].cycle < next {
				next = q[0].cycle
			}
		}
		if next != math.MaxUint64 && next > now {
			d.base += next - now
			now = next
		}
	}
	for src, q := range d.pending {
		for len(q) > 0 && q[0].cycle <= now && d.mesh.CanInject(noc.NodeID(src), q[0].dst) {
			d.mesh.Inject(noc.NodeID(src), q[0].dst, d.tmpl[q[0].flits])
			q = q[1:]
			d.left--
		}
		d.pending[src] = q
	}
}

// template returns a message that occupies exactly flits flits.
func template(m *noc.Mesh, flits int) *packet.Message {
	bytes := flits * m.Config().FlitWidthBits / 8
	msg := &packet.Message{Pkt: &packet.Packet{PayloadLen: bytes}}
	for m.FlitsFor(msg) > flits && msg.Pkt.PayloadLen > 1 {
		msg.Pkt.PayloadLen--
	}
	return msg
}

// replayMesh replays one NIC's injections on a fresh mesh and returns the
// host time spent moving flits and the flit hops made.
func replayMesh(inj []injection) (time.Duration, uint64) {
	if len(inj) == 0 {
		return 0, 0
	}
	mesh := noc.NewMesh(core.DefaultConfig().Mesh)
	k := sim.NewKernel(sim.Frequency(core.DefaultConfig().FreqHz))
	k.SetEventDriven(true)
	mesh.RegisterWith(k)
	d := &meshReplayer{mesh: mesh, pending: make([][]injection, mesh.Nodes()), left: len(inj),
		base: inj[0].cycle, tmpl: map[int]*packet.Message{}}
	for _, x := range inj {
		d.pending[x.src] = append(d.pending[x.src], x)
		if d.tmpl[x.flits] == nil {
			d.tmpl[x.flits] = template(mesh, x.flits)
		}
	}
	k.Register(d)
	start := time.Now()
	k.RunUntil(func() bool {
		s := mesh.Stats()
		return d.left == 0 && s.Delivered == s.Injected
	}, 1<<40)
	wall := time.Since(start)
	// Charge the mesh only for moving flits: subtract what the replayed
	// cycles cost this kernel with the mesh empty.
	cycles := k.Now()
	const idle = 10_000
	t := time.Now()
	k.Run(idle)
	wall -= time.Duration(float64(time.Since(t)) * float64(cycles) / idle)
	if wall < 0 {
		wall = 0
	}
	return wall, mesh.Stats().FlitHops
}

// flitHopNs replays every NIC's recorded injections and returns the
// median ns per flit hop over the repetitions.
func flitHopNs(in layerInputs, rec *recorder) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < 300*time.Millisecond {
		id := rec.begin("drive:noc-replay")
		var wall time.Duration
		var hops uint64
		for _, inj := range in.injections {
			w, h := replayMesh(inj)
			wall += w
			hops += h
		}
		rec.end(id)
		if hops == 0 {
			return 0
		}
		per = append(per, float64(wall.Nanoseconds())/float64(hops))
	}
	return median(per)
}

// pushPopNs replays the recorded queue operations through fresh
// scheduling queues and returns the median ns per push (with its pop).
func pushPopNs(in layerInputs, rec *recorder) float64 {
	cfg := core.DefaultConfig()
	msg := &packet.Message{Class: packet.ClassBulk, Pkt: &packet.Packet{}}
	pushes := 0
	for _, nic := range in.queues {
		for _, ops := range nic {
			for _, op := range ops {
				if op.push {
					pushes++
				}
			}
		}
	}
	if pushes == 0 {
		return 0
	}
	return timeBatches(rec, "drive:sched-replay", pushes, 100*time.Millisecond, func() {
		for _, nic := range in.queues {
			for _, ops := range nic {
				q := sched.NewQueue(cfg.QueueCap, cfg.Policy)
				for _, op := range ops {
					if op.push {
						q.Push(msg, op.rank)
					} else {
						q.Pop()
					}
				}
			}
		}
	})
}

// maxDriveMsgs caps the ingress messages fed to the RMT drive.
const maxDriveMsgs = 20_000

// ingress regenerates the window's ingress messages from the workload's
// sources, as the MACs would receive them (Port and Inject stamped).
func ingress(sp spec, seed uint64) []*packet.Message {
	type src struct {
		s    engine.Source
		port int
	}
	var srcs []src
	if sp.rack {
		specs := rackTenantSpecs(sp, seed)
		homes := map[uint16]int{}
		for _, t := range specs {
			homes[t.Tenant] = t.Home
		}
		freq := core.DefaultConfig().FreqHz
		for _, t := range specs {
			if t.Client != 0 { // NIC 0's clients stand in for the rack's
				continue
			}
			srcs = append(srcs, src{workload.NewRackKVSStream(workload.KVSTenantConfig{
				Tenant: t.Tenant, Class: t.Class, RateGbps: t.RateGbps, FreqHz: freq, Poisson: t.Poisson,
				Keys: t.Keys, GetRatio: t.GetRatio, ValueBytes: t.ValueBytes, Seed: t.Seed,
			}, 0, func(id uint16) int { return homes[id] }), 0})
		}
	} else {
		for p, s := range nicSources(sp, seed) {
			srcs = append(srcs, src{s, p})
		}
	}
	var out []*packet.Message
	end := sp.warmup + sp.horizon
	for _, s := range srcs {
		as := s.s.(engine.ArrivalSource)
		limit := len(out) + maxDriveMsgs/len(srcs)
		for now, ok := as.NextArrival(0); ok && now < end && len(out) < limit; now, ok = as.NextArrival(now + 1) {
			for m := s.s.Poll(now); m != nil; m = s.s.Poll(now) {
				if now >= sp.warmup {
					m.Port, m.Inject = s.port, now
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// rmtProcessNs feeds the window's ingress messages through an RMT
// pipeline built from the NIC's own program, once without a flow cache
// (every message walks the tables) and once through a cache warmed by an
// identical earlier pass (verdicts replayed). It returns ns per message.
func rmtProcessNs(sp spec, seed uint64, prog core.ProgramConfig, rec *recorder) (hit, miss float64) {
	feed := func(p *rmt.Pipeline, msgs []*packet.Message) {
		for _, m := range msgs {
			p.Accept(m, m.Inject)
			p.Tick()
		}
	}
	var hits, misses []float64
	start := time.Now()
	for len(hits) < 3 || time.Since(start) < 200*time.Millisecond {
		warm, timed, plain := ingress(sp, seed), ingress(sp, seed), ingress(sp, seed)
		n := float64(len(timed))
		if n == 0 {
			return 0, 0
		}
		cached := rmt.NewPipeline(core.BuildProgram(prog), 1, 1)
		cached.EnableFlowCache()
		feed(cached, warm)
		d := rec.time("drive:rmt-hit", func() { feed(cached, timed) })
		hits = append(hits, float64(d.Nanoseconds())/n)
		uncached := rmt.NewPipeline(core.BuildProgram(prog), 1, 1)
		d = rec.time("drive:rmt-miss", func() { feed(uncached, plain) })
		misses = append(misses, float64(d.Nanoseconds())/n)
	}
	return median(hits), median(misses)
}

// barrierNs times Fleet.Run(epoch) on the rack with no traffic and
// subtracts the NICs' idle stepping, leaving the barrier and ToR exchange
// cost per epoch.
func barrierNs(seed uint64, stepNs float64, rec *recorder) float64 {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	f := fleet.New(fleet.Config{NICs: rackNICs, TorLatency: rackTorLatency, Shards: rackShards, NIC: cfg})
	defer f.Close()
	const epochs = 200
	epochNs := timeBatches(rec, "drive:fleet-idle-epoch", epochs, 200*time.Millisecond, func() {
		for i := 0; i < epochs; i++ {
			f.Run(rackTorLatency)
		}
	})
	perShard := (rackNICs + rackShards - 1) / rackShards
	b := epochNs - float64(perShard*rackTorLatency)*stepNs
	if b < 0 {
		b = 0
	}
	return b
}

// percentileMs returns the nearest-rank q-quantile of durations in ms.
func percentileMs(d []time.Duration, q float64) float64 {
	v := make([]uint64, len(d))
	for i, x := range d {
		v[i] = uint64(x.Nanoseconds())
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(quantile(v, q)) / 1e6
}

// tracedRun is the per-layer run. It alternates untraced and traced
// repetitions until the time budget is spent: the untraced ones give the
// exact counts, the runtime costs and the chunk or epoch times; the first
// traced one records each layer's inputs through the program's span
// tracer. Each layer's inputs are then replayed through its public
// functions to time it, and the timings are weighed by the untraced
// counts into each layer's estimated share of the wall time.
func tracedRun(sp spec, seed uint64, budget time.Duration, rec *recorder) result {
	chunk := sp.chunk
	chunkName := "chunk"
	if sp.rack {
		chunk, chunkName = rackTorLatency, "epoch"
	}
	var plain, traced []rep
	var in layerInputs
	var prog core.ProgramConfig
	var inErr error
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < budget {
		id := rec.begin("repetition")
		p, g := runRep(sp, seed, modeTimed, chunk, chunkName, rec)
		prog = g.nics[0].Cfg.Program
		g.close()
		rec.end(id)
		plain = append(plain, p)

		id = rec.begin("traced-repetition")
		t, tg := runRep(sp, seed, modeTraced, chunk, "traced-"+chunkName, rec)
		if len(traced) == 0 {
			in, inErr = recordInputs(tg)
		}
		tg.close()
		rec.end(id)
		traced = append(traced, t)
		runtime.GC()
	}
	ok, notes := verdict(sp, seed, plain, rec)
	if inErr != nil {
		ok = false
		notes = append(notes, inErr.Error())
	}
	for i, t := range traced {
		if t.unsteady != "" {
			ok = false
			notes = append(notes, fmt.Sprintf("traced repetition %d not stationary: %s", i, t.unsteady))
		}
	}

	// Shares divide by the CPU time the window could use: one CPU for a
	// NIC, one per shard for the rack.
	r0 := plain[0]
	cpus, nics := 1.0, 1
	if sp.rack {
		cpus, nics = float64(min(rackShards, runtime.GOMAXPROCS(0))), rackNICs
	}
	res := result{Correct: ok, notes: notes, Metrics: map[string]metric{}}
	for k, v := range countMetrics(r0, core.DefaultConfig().RMTPipelines*nics) {
		res.Metrics[k] = v
	}
	var rts []map[string]metric
	var rates, tracedRates, walls []float64
	for _, p := range plain {
		rts = append(rts, runtimeMetrics(p))
		rates = append(rates, float64(p.win.delivered)/p.wall.Seconds())
		walls = append(walls, p.wall.Seconds())
		res.Attempted += p.win.offered
		res.Failed += p.win.dropped
	}
	for _, t := range traced {
		tracedRates = append(tracedRates, float64(t.win.delivered)/t.wall.Seconds())
	}
	for name, m := range rts[0] {
		vals := make([]float64, len(rts))
		for i, r := range rts {
			vals[i] = r[name].Value
		}
		res.Metrics[name] = metric{median(vals), m.Unit}
	}

	chunks := rec.durations(chunkName)
	chunkP50, chunkP99 := percentileMs(chunks, 0.50), percentileMs(chunks, 0.99)
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if sp.rack {
		set("sim.run_chunk_ms_p50", 0, "ms")
		set("sim.run_chunk_ms_p99", 0, "ms")
		set("fleet.epoch_us_p50", chunkP50*1e3, "us")
		set("fleet.epoch_us_p99", chunkP99*1e3, "us")
	} else {
		set("sim.run_chunk_ms_p50", chunkP50, "ms")
		set("sim.run_chunk_ms_p99", chunkP99, "ms")
		set("fleet.epoch_us_p50", 0, "us")
		set("fleet.epoch_us_p99", 0, "us")
	}

	stepNs := idleStepNs(seed, rec)
	tickNs := idleTickNs(rec)
	hopNs := flitHopNs(in, rec)
	ppNs := pushPopNs(in, rec)
	hitNs, missNs := rmtProcessNs(sp, seed, prog, rec)
	var barNs float64
	if sp.rack {
		barNs = barrierNs(seed, stepNs, rec)
	}
	set("sim.idle_step_ns", stepNs, "ns")
	set("noc.idle_tick_ns", tickNs, "ns")
	set("noc.ns_per_flit_hop", hopNs, "ns")
	set("sched.push_pop_ns", ppNs, "ns")
	set("rmt.process_ns_hit", hitNs, "ns")
	set("rmt.process_ns_miss", missNs, "ns")
	set("fleet.barrier_ns", barNs, "ns")

	a, b := r0.layersStart, r0.layersEnd
	d := func(x, y uint64) float64 { return float64(y - x) }
	cpuNs := median(walls) * 1e9 * cpus
	shares := map[string]float64{
		"sim":   (d(a.cycles, b.cycles) - d(a.skipped, b.skipped)) * stepNs,
		"noc":   d(a.flitHops, b.flitHops) * hopNs,
		"rmt":   d(a.fcHits, b.fcHits)*hitNs + d(a.fcMisses+a.fcNeg, b.fcMisses+b.fcNeg)*missNs,
		"sched": (d(a.pushes, b.pushes) + d(a.rmtAccepted, b.rmtAccepted)) * ppNs,
		"fleet": float64(sp.horizon/rackTorLatency) * barNs, // 0 off the rack
	}
	var coverage float64
	for layer, ns := range shares {
		s := ns / cpuNs
		coverage += s
		set(layer+".est_share", s, "frac")
	}
	set("coverage", coverage, "frac")
	set("trace.overhead_frac", 1-median(tracedRates)/median(rates), "frac")
	if !ok {
		res.Failed = res.Attempted
	}
	res.notes = append(res.notes, fmt.Sprintf(
		"%s seed=%d traced: %d untraced + %d traced repetitions; %d spans recorded; untraced %.0f msgs/s, traced %.0f msgs/s",
		sp.name, seed, len(plain), len(traced), in.spans, median(rates), median(tracedRates)))
	return res
}
