package bench

import (
	"strconv"
	"testing"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/workload"
)

// BenchmarkSchedulerIsolation — §3.1.3: a latency-sensitive tenant shares
// an oversubscribed DMA engine with a bulk tenant. Reports the latency
// tenant's p99 (µs) under FIFO, LSTF with moderate bulk slack, and
// effectively-strict-priority slack.
func BenchmarkSchedulerIsolation(b *testing.B) {
	run := func(rank sched.RankFunc, slackBulk uint32) float64 {
		cfg := core.DefaultConfig()
		cfg.Rank = rank
		cfg.PCIeGbps = 16
		cfg.DMAJitter = 100
		cfg.QueueCap = 128
		if slackBulk > 0 {
			cfg.Program.SlackBulk = slackBulk
		}
		mix := workload.NewIsolationMix(cfg.FreqHz, 1, 20, 1500, 42)
		nic := core.NewNIC(cfg, []engine.Source{mix})
		nic.Run(1_000_000)
		return nic.HostLat.Tenant(1).P99() / freq * 1e6
	}
	b.Run("fifo", func(b *testing.B) {
		var p99 float64
		for i := 0; i < b.N; i++ {
			p99 = run(sched.RankFIFO, 0)
		}
		b.ReportMetric(p99, "latency_p99_us")
	})
	b.Run("lstf-40us-bulk-slack", func(b *testing.B) {
		var p99 float64
		for i := 0; i < b.N; i++ {
			p99 = run(nil, 0)
		}
		b.ReportMetric(p99, "latency_p99_us")
	})
	b.Run("lstf-strict", func(b *testing.B) {
		var p99 float64
		for i := 0; i < b.N; i++ {
			p99 = run(nil, 50_000_000)
		}
		b.ReportMetric(p99, "latency_p99_us")
	})
}

// BenchmarkTenantIsolation — the multi-tenant acceptance experiment: a
// 1 Gbps latency-sensitive victim shares a 16 Gbps host link with a
// 24 Gbps bulk aggressor, so a standing queue forms at the DMA tile.
// Reports the victim's p99 host-delivery latency inflation (contended /
// solo baseline) under FIFO admission, plain LSTF, and weighted LSTF at
// equal weights with per-tenant deficit credits. The matching correctness
// bound (weighted LSTF <= 2x) is TestTenantIsolationVictimP99Bounded in
// internal/core.
func BenchmarkTenantIsolation(b *testing.B) {
	type variant struct {
		name     string
		rank     sched.RankFunc
		weights  map[uint16]uint64
		aggClass packet.Class
	}
	equal := map[uint16]uint64{1: 1, 2: 1}
	variants := []variant{
		{"fifo", sched.RankFIFO, nil, packet.ClassBulk},
		{"lstf", nil, nil, packet.ClassBulk},
		// A slack-gaming aggressor declares itself latency class, so plain
		// LSTF ranks it level with the victim; only the per-tenant rate
		// credits can tell them apart.
		{"lstf-gamed-slack", nil, nil, packet.ClassLatency},
		{"wlstf-1to1", nil, equal, packet.ClassBulk},
		{"wlstf-1to1-gamed-slack", nil, equal, packet.ClassLatency},
	}
	run := func(v variant, aggressor bool) float64 {
		cfg := core.DefaultConfig()
		cfg.Rank = v.rank
		cfg.PCIeGbps = 16
		cfg.QueueCap = 128
		cfg.DMAJitter = 100
		cfg.Tenants = []uint16{1, 2}
		cfg.TenantWeights = v.weights
		cfg.TenantQuantumBytes = 128
		var src engine.Source
		if aggressor {
			src = workload.NewTenantMix(cfg.FreqHz, []workload.TenantSpec{
				workload.VictimSpec(1),
				{Tenant: 2, Class: v.aggClass, RateGbps: 24, Bulk: true, FrameBytes: 512},
			}, 21)
		} else {
			src = workload.NewTenantMix(cfg.FreqHz, []workload.TenantSpec{workload.VictimSpec(1)}, 21)
		}
		nic := core.NewNIC(cfg, []engine.Source{src})
		nic.Run(300_000)
		return nic.HostLat.Tenant(1).P99()
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var solo, cont float64
			for i := 0; i < b.N; i++ {
				solo = run(v, false)
				cont = run(v, true)
			}
			b.ReportMetric(solo/freq*1e6, "solo_p99_us")
			b.ReportMetric(cont/freq*1e6, "contended_p99_us")
			b.ReportMetric(cont/solo, "p99_inflation_x")
		})
	}
}

// BenchmarkRMTPerHopVsLightweight — §4.2/§3.1.2: if the heavyweight RMT
// pipeline had to switch the packet between every pair of offloads
// (instead of the lightweight per-engine tables following the chain
// header), each packet would consume chainlen+1 RMT passes, exhausting
// the pipeline's pass budget. Reports RMT passes per packet and the
// packet rate the pipelines could sustain at that pass count.
func BenchmarkRMTPerHopVsLightweight(b *testing.B) {
	for _, mode := range []string{"lightweight-tables", "rmt-every-hop"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var passesPerPkt, sustainableMpps float64
			for i := 0; i < b.N; i++ {
				passesPerPkt = measurePassesPerPacket(mode == "rmt-every-hop")
				// Two 500 MHz pipelines deliver 1000 Mpps of passes.
				sustainableMpps = 1000 / passesPerPkt
			}
			b.ReportMetric(passesPerPkt, "rmt_passes_per_pkt")
			b.ReportMetric(sustainableMpps, "sustainable_Mpps")
		})
	}
}

// measurePassesPerPacket runs a 3-offload chain through a small PANIC rig,
// either following the chain via lightweight tables or bouncing through
// the RMT pipeline between every hop.
func measurePassesPerPacket(rmtEveryHop bool) float64 {
	const (
		addrRMT  packet.Addr = 1
		offBase  packet.Addr = 10
		addrSink packet.Addr = 20
	)
	chainFor := func() []rmt.Op {
		var ops []rmt.Op
		for i := 0; i < 3; i++ {
			if rmtEveryHop && i > 0 {
				ops = append(ops, rmt.OpPushHop{Engine: addrRMT})
			}
			ops = append(ops, rmt.OpPushHop{Engine: offBase + packet.Addr(i)})
		}
		if rmtEveryHop {
			ops = append(ops, rmt.OpPushHop{Engine: addrRMT})
		}
		ops = append(ops, rmt.OpPushHop{Engine: addrSink})
		return ops
	}
	// Build a chain only for messages that do not already carry one:
	// re-entering packets (the rmt-every-hop mode) keep their chain and
	// are simply forwarded to the next hop, which is exactly the
	// "pipeline includes itself as a nexthop" pattern of §3.1.2.
	tbl := rmt.NewTable("steer", rmt.MatchExact, []rmt.FieldID{rmt.FieldChainRemaining}, 0,
		rmt.Action{Name: "pass"})
	tbl.Add(rmt.Entry{Values: []uint64{0}, Action: rmt.Action{Name: "chain", Ops: chainFor()}})
	prog := rmt.NewProgram(rmt.StandardParser(), []*rmt.Table{tbl})

	meshCfg := noc.DefaultMeshConfig()
	b := core.NewBuilder(freq, meshCfg, 1)
	rmtTile := b.PlaceRMT(addrRMT, 2, 2, rmt.NewPipeline(prog, 1, 1))
	for i := 0; i < 3; i++ {
		b.PlaceTile(offBase+packet.Addr(i), 1+i, 3, &forwardEngine{})
	}
	sink := engine.NewCollectorEngine("sink", 1, nil)
	b.PlaceTile(addrSink, 4, 1, sink)
	b.Routes.SetDefault(addrRMT)

	const n = 200
	injected := 0
	src := b.Mesh.NodeAt(0, 0)
	b.Kernel.Register(sim.TickFunc(func(uint64) {
		if injected < n && b.Mesh.CanInject(src, rmtTile.Node()) {
			b.Mesh.Inject(src, rmtTile.Node(), kvsMsg(1))
			injected++
		}
	}))
	b.Kernel.RunUntil(func() bool { return sink.Count() == n }, 2_000_000)
	return float64(rmtTile.Stats().Accepted) / float64(n)
}

// forwardEngine forwards along the chain after one cycle.
type forwardEngine struct{}

func (*forwardEngine) Name() string                         { return "fwd" }
func (*forwardEngine) ServiceCycles(*packet.Message) uint64 { return 1 }
func (*forwardEngine) Process(_ *engine.Ctx, m *packet.Message) []engine.Out {
	return []engine.Out{{Msg: m}}
}

// BenchmarkUnifiedVsSplitNetwork — §3.1 footnote 1: for the same aggregate
// bit width, one unified network beats two dedicated half-width networks
// because idle wires on one network cannot help the other. Traffic is
// 75/25 asymmetric (packet data vs control messages). Reports aggregate
// delivered Gbps.
func BenchmarkUnifiedVsSplitNetwork(b *testing.B) {
	const totalWidth = 128
	b.Run("unified-128bit", func(b *testing.B) {
		var gbps float64
		for i := 0; i < b.N; i++ {
			cfg := noc.DefaultMeshConfig()
			cfg.FlitWidthBits = totalWidth
			gbps = noc.MeasureSaturation(noc.NewMesh(cfg), freq, 64, 2000, 10_000, 3).DeliveredGbps
		}
		b.ReportMetric(gbps, "delivered_Gbps")
	})
	b.Run("split-2x64bit-75-25", func(b *testing.B) {
		var gbps float64
		for i := 0; i < b.N; i++ {
			mk := func() noc.MeshConfig {
				cfg := noc.DefaultMeshConfig()
				cfg.FlitWidthBits = totalWidth / 2
				return cfg
			}
			// Data network saturates at full offered load; the control
			// network runs at 1/3 the data load (25% of traffic), wasting
			// its idle capacity.
			data := noc.MeasureSaturation(noc.NewMesh(mk()), freq, 64, 2000, 10_000, 3)
			control := noc.MeasureLoad(noc.NewMesh(mk()), freq, 64, saturationLoadFraction/3, 2000, 10_000, 4)
			gbps = data.DeliveredGbps + control.DeliveredGbps
		}
		b.ReportMetric(gbps, "delivered_Gbps")
	})
}

// saturationLoadFraction approximates the per-node injection probability
// at which a 6x6/64-bit mesh saturates with 64-byte messages (measured in
// internal/noc tests: ~460 Gbps of ~9.2 Tbps offered).
const saturationLoadFraction = 0.05

// BenchmarkLossyVsLossless — §4.3/§6: overload one engine and compare the
// two admission policies. Lossless backpressure spreads the stall into the
// network (hurting an innocent bystander flow); lossy drop sheds the
// overload locally and never drops lossless control messages.
func BenchmarkLossyVsLossless(b *testing.B) {
	for _, policy := range []sched.Policy{sched.Backpressure, sched.DropLowestPriority} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			var victimP99us, drops float64
			for i := 0; i < b.N; i++ {
				victimP99us, drops = measureOverloadSpill(policy)
			}
			b.ReportMetric(victimP99us, "bystander_p99_us")
			b.ReportMetric(drops, "drops")
		})
	}
}

// measureOverloadSpill overloads the IPSec engine with encrypted traffic
// while a plain bystander tenant shares only the network path, and
// returns the bystander's p99 (µs) and total drops.
func measureOverloadSpill(policy sched.Policy) (float64, float64) {
	cfg := core.DefaultConfig()
	cfg.Policy = policy
	cfg.IPSec = engine.IPSecConfig{BytesPerCycle: 1, SetupCycles: 100} // 4 Gbps crypto
	cfg.QueueCap = 32
	overload := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 2, Class: packet.ClassBulk,
		RateGbps: 10, FreqHz: freq, Poisson: true,
		Keys: 64, GetRatio: 1.0, WANShare: 1.0, ValueBytes: 128, Seed: 9,
	})
	bystander := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 1, Class: packet.ClassLatency,
		RateGbps: 2, FreqHz: freq, Poisson: true,
		Keys: 64, GetRatio: 1.0, ValueBytes: 128, Seed: 10,
	})
	nic := core.NewNIC(cfg, []engine.Source{workload.NewMerge(bystander, overload)})
	nic.Run(1_000_000)
	return nic.HostLat.Tenant(1).P99() / freq * 1e6, float64(nic.Drops.Value())
}

// BenchmarkChainedVsParallelRMT — §3.1.2: "flexible trade-offs between
// pipeline depth and parallelism, with more pipelines leading to more
// throughput." Chained engines form one deep pipeline (1 packet/cycle,
// higher latency); parallel engines double throughput at base latency.
func BenchmarkChainedVsParallelRMT(b *testing.B) {
	prog := core.BuildProgram(core.DefaultProgramConfig(2))
	msg := kvsMsg(1)
	measure := func(pipes []*rmt.Pipeline, cycles uint64) (mpps float64, latency float64) {
		done := uint64(0)
		latSum := uint64(0)
		type entry struct{ in uint64 }
		inflight := make(map[*rmt.Pipeline][]entry)
		for c := uint64(0); c < cycles; c++ {
			for _, p := range pipes {
				if _, ok := p.Tick(); ok {
					done++
					q := inflight[p]
					latSum += c - q[0].in
					inflight[p] = q[1:]
				}
				if p.CanAccept() {
					p.Accept(msg, c)
					inflight[p] = append(inflight[p], entry{in: c})
				}
			}
		}
		if done == 0 {
			return 0, 0
		}
		return float64(done) / (float64(cycles) / freq) / 1e6, float64(latSum) / float64(done)
	}
	b.Run("chained-2-engines", func(b *testing.B) {
		var mpps, lat float64
		for i := 0; i < b.N; i++ {
			// One pipeline spanning all stages plus an extra transfer
			// cycle per engine boundary (modeled by deparser+parser of
			// the second engine: +2 cycles).
			deep := rmt.NewPipeline(prog, 2, 2)
			mpps, lat = measure([]*rmt.Pipeline{deep}, 50_000)
		}
		b.ReportMetric(mpps, "Mpps")
		b.ReportMetric(lat, "latency_cycles")
	})
	b.Run("parallel-2-engines", func(b *testing.B) {
		var mpps, lat float64
		for i := 0; i < b.N; i++ {
			p1 := rmt.NewPipeline(prog, 1, 1)
			p2 := rmt.NewPipeline(prog, 1, 1)
			mpps, lat = measure([]*rmt.Pipeline{p1, p2}, 50_000)
		}
		b.ReportMetric(mpps, "Mpps")
		b.ReportMetric(lat, "latency_cycles")
	})
}

// BenchmarkCrossbarVsMesh — §3.1.2's wire-length argument: an idealized
// single crossbar has lower latency, but a physically realistic large
// crossbar pays long-wire latency that grows with port count, while the
// mesh's per-hop cost stays constant. Reports mean low-load latency.
func BenchmarkCrossbarVsMesh(b *testing.B) {
	const nodes = 36
	lowLoad := 0.02
	b.Run("mesh-6x6", func(b *testing.B) {
		var lat float64
		for i := 0; i < b.N; i++ {
			cfg := noc.DefaultMeshConfig()
			lat = noc.MeasureLoad(noc.NewMesh(cfg), freq, 64, lowLoad, 1000, 5000, 3).MeanLatencyCycles
		}
		b.ReportMetric(lat, "mean_latency_cycles")
	})
	for _, wire := range []int{0, 10, 30} {
		wire := wire
		b.Run("crossbar-wire"+strconv.Itoa(wire), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				x := noc.NewCrossbar(noc.CrossbarConfig{
					Nodes: nodes, FlitWidthBits: 64,
					TraversalLatency: wire, InjectDepth: 8, EjectDepth: 8,
				})
				lat = noc.MeasureLoad(x, freq, 64, lowLoad, 1000, 5000, 3).MeanLatencyCycles
			}
			b.ReportMetric(lat, "mean_latency_cycles")
		})
	}
}
