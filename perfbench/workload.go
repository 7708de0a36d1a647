package main

import (
	"math"
	"sort"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fleet"
	"github.com/panic-nic/panic/internal/invariant"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

// spec is one benchmark workload: the traffic it offers and the simulated
// horizons a run measures. Every horizon is fixed in cycles, so the
// simulated outcome of a run depends only on the seed.
type spec struct {
	name string
	// load is each source's (NIC) or each tenant's (rack) offered rate as
	// a fraction of the 100 Gbps line rate.
	load float64
	// bulkFrame is the NIC bulk tenant's frame size in bytes.
	bulkFrame int
	// poisson selects Poisson arrivals (open loop); false is CBR.
	poisson     bool
	fastForward bool
	rack        bool
	// warmup cycles run before the timed window; horizon is the timed
	// window; chunk is the cycles per Run call inside it.
	warmup, horizon, chunk uint64
}

// Rack geometry for rack-kvs.
const (
	rackNICs       = 4
	rackTenants    = 8
	rackTorLatency = 64
	rackShards     = 2
)

var workloads = []spec{
	{
		name: "nic-loaded", load: 0.13, bulkFrame: 1500, poisson: true,
		warmup: 50_000, horizon: 300_000, chunk: 10_000,
	},
	{
		name: "nic-idle-ff", load: 0.001, bulkFrame: 1500, poisson: true, fastForward: true,
		warmup: 2_000_000, horizon: 24_000_000, chunk: 1_000_000,
	},
	{
		name: "rack-kvs", load: 0.05, poisson: true, rack: true,
		warmup: 10_240, horizon: 61_440, chunk: 2_048,
	},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// mode selects how a rig is assembled.
type mode int

const (
	// modeTimed is the measured configuration: event engine on, no
	// tracing, no invariant monitor.
	modeTimed mode = iota
	// modeOracle is the ticked kernel loop with the invariant monitor
	// armed (and a single fleet shard): the reference every timed run's
	// fingerprint must equal.
	modeOracle
	// modeTraced is modeTimed with the span tracer recording every
	// message's spans.
	modeTraced
)

// rig is an assembled system under test: one NIC, or a rack of NICs.
type rig struct {
	nics  []*core.NIC
	fleet *fleet.Fleet // nil for a single NIC
	// tracers holds one span tracer per NIC in modeTraced.
	tracers []*trace.Tracer
	// lat collects, per NIC, the wire request-to-response latencies (in
	// cycles) of deliveries made while window is true. Per-NIC slices keep
	// fleet shards from sharing a writer.
	lat    [][]uint64
	window bool
}

// nicConfig is the NIC template every workload starts from.
func nicConfig(sp spec, seed uint64, m mode) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.FastForward = sp.fastForward
	if m == modeOracle {
		cfg.NoEventEngine = true
		cfg.Invariants = &invariant.Config{}
	}
	return cfg
}

// nicSources returns the NIC workloads' two ingress streams: a KVS tenant
// on port 0 and a bulk tenant on port 1.
func nicSources(sp spec, seed uint64) []engine.Source {
	freq := core.DefaultConfig().FreqHz
	rate := 100 * sp.load
	return []engine.Source{
		workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: 1, Class: packet.ClassLatency,
			RateGbps: rate, FreqHz: freq, Poisson: sp.poisson,
			Keys: 1024, GetRatio: 0.9, WANShare: 0.2, ValueBytes: 256,
			Seed: seed*1000 + 1,
		}),
		workload.NewFixedStream(workload.FixedStreamConfig{
			FrameBytes: sp.bulkFrame, RateGbps: rate, FreqHz: freq, Poisson: sp.poisson,
			Tenant: 2, Class: packet.ClassBulk, Seed: seed*1000 + 2,
		}),
	}
}

// rackTenantSpecs places rackTenants small-frame KVS tenants: tenant i's
// clients sit on NIC i%rackNICs, and every tenant but those with i%3 == 0
// (5 of 8) is homed one NIC over, so about 60% of requests and responses
// cross the ToR. An even split would put the latency median on the
// boundary between the local and the ToR-crossing modes, where it jumps
// between them from seed to seed.
func rackTenantSpecs(sp spec, seed uint64) []fleet.TenantSpec {
	out := make([]fleet.TenantSpec, 0, rackTenants)
	for i := 0; i < rackTenants; i++ {
		client := i % rackNICs
		home := client
		if i%3 != 0 {
			home = (client + 1) % rackNICs
		}
		out = append(out, fleet.TenantSpec{
			Tenant: uint16(i + 1), Home: home, Client: client,
			Class: packet.ClassLatency, RateGbps: 100 * sp.load,
			Keys: 1024, GetRatio: 0.8, ValueBytes: 64, Poisson: sp.poisson,
			Seed: seed*1000 + uint64(i) + 1,
		})
	}
	return out
}

// build assembles the workload's system for one seed.
func build(sp spec, seed uint64, m mode) *rig {
	r := &rig{}
	cfg := nicConfig(sp, seed, m)
	if !sp.rack {
		if m == modeTraced {
			tr := trace.New(trace.Options{FreqHz: cfg.FreqHz, MaxSpans: 1 << 22})
			cfg.Tracer = tr
			r.tracers = []*trace.Tracer{tr}
		}
		r.nics = []*core.NIC{core.NewNIC(cfg, nicSources(sp, seed))}
	} else {
		shards := rackShards
		if m == modeOracle {
			shards = 1
		}
		fc := fleet.Config{
			NICs: rackNICs, TorLatency: rackTorLatency, Shards: shards,
			NIC: cfg, Tenants: rackTenantSpecs(sp, seed),
			Invariants: cfg.Invariants,
			Trace:      m == modeTraced,
		}
		r.fleet = fleet.New(fc)
		r.nics = r.fleet.NICs
		r.tracers = r.fleet.Tracers
	}
	r.lat = make([][]uint64, len(r.nics))
	for i, n := range r.nics {
		n.WireLat.OnDeliver = func(msg *packet.Message, now uint64) {
			if r.window {
				r.lat[i] = append(r.lat[i], now-msg.Inject)
			}
		}
	}
	return r
}

// run advances the system by cycles (a rack stops at every epoch
// barrier inside Fleet.Run).
func (r *rig) run(cycles uint64) {
	if r.fleet != nil {
		r.fleet.Run(cycles)
		return
	}
	r.nics[0].Run(cycles)
}

func (r *rig) now() uint64 { return r.nics[0].Now() }

func (r *rig) close() {
	if r.fleet != nil {
		r.fleet.Close()
		return
	}
	r.nics[0].Close()
}

// fingerprint is the byte-comparable outcome the oracle check compares.
func (r *rig) fingerprint() string {
	if r.fleet != nil {
		return r.fleet.Fingerprint()
	}
	return r.nics[0].Fingerprint()
}

// violations returns the armed invariant monitors' findings.
func (r *rig) violations() []invariant.Violation {
	if r.fleet != nil {
		return r.fleet.Violations()
	}
	if n := r.nics[0]; n.Invar != nil {
		return n.Invar.Violations()
	}
	return nil
}

// counters is a snapshot of the simulated quantities the end-to-end
// metrics and checks are differences of.
type counters struct {
	cycle     uint64
	offered   uint64 // messages received from the wire on client ports
	delivered uint64 // terminal deliveries, wire + host
	bytes     uint64 // bytes of those deliveries
	dropped   uint64 // scheduling-queue, RMT and ToR drops
	backlog   uint64 // messages resident in the system
}

func (r *rig) counters() counters {
	c := counters{cycle: r.now()}
	for _, n := range r.nics {
		if r.fleet != nil {
			c.offered += n.MACs[0].RxCount() // port 0 is the client side
		} else {
			for _, mac := range n.MACs {
				c.offered += mac.RxCount()
			}
		}
		c.delivered += n.WireLat.Count + n.HostLat.Count
		c.bytes += n.WireLat.Bytes + n.HostLat.Bytes
		c.dropped += n.Drops.Value()
		for _, t := range n.Builder.Tiles {
			c.dropped += t.Stats().Refused
		}
		for _, t := range n.Builder.RMTs {
			s := t.Stats()
			c.dropped += s.Dropped + s.QueueDropped + s.Unrouted + s.Refused
		}
		c.backlog += resident(n)
	}
	if r.fleet != nil {
		ts := r.fleet.TorStats()
		c.dropped += ts.Dropped
		c.backlog += ts.Pending
	}
	return c
}

// resident counts the messages a NIC holds: tile custody (queued, in
// service, staged for the fabric), RMT queues and pipeline stages, mesh
// transit, and responses waiting in the host's TX queue. By custody
// conservation it is offered − delivered − dropped for the NIC.
func resident(n *core.NIC) uint64 {
	var b int
	for _, t := range n.Builder.Tiles {
		b += t.Occupancy()
	}
	for _, t := range n.Builder.RMTs {
		b += t.QueueLen() + t.Pipeline().Occupancy()
	}
	ms := n.Builder.Mesh.Stats()
	b += int(ms.Injected - ms.Delivered)
	b += n.Host.TxBacklog()
	return uint64(b)
}

// windowLatencies returns the window's wire latencies, sorted.
func (r *rig) windowLatencies() []uint64 {
	var all []uint64
	for _, l := range r.lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// quantile is the nearest-rank q-quantile of sorted samples (the
// convention of internal/stats).
func quantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}
