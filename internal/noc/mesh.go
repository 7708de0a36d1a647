package noc

import (
	"fmt"
	"math/bits"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
)

// Port directions on a mesh router. Local is the tile attachment.
const (
	portLocal = iota
	portNorth
	portEast
	portSouth
	portWest
	numPorts
)

var oppositePort = [numPorts]int{portLocal, portSouth, portWest, portNorth, portEast}

// MeshConfig parameterizes a 2D mesh.
type MeshConfig struct {
	// Width and Height are the mesh dimensions in tiles.
	Width, Height int
	// FlitWidthBits is the channel width; a message of b bits occupies
	// ceil(b/FlitWidthBits) flits.
	FlitWidthBits int
	// BufferDepth is the per-input-port buffer depth in flits (per
	// virtual channel). Values below 2 halve channel throughput (the
	// credit loop needs a flit in flight plus one buffered); NewMesh
	// rejects them.
	BufferDepth int
	// VirtualChannels is the number of virtual channels per physical
	// link (0 or 1 = plain wormhole). Packets are assigned a VC at
	// injection and keep it end to end; flits of packets on different
	// VCs interleave on a link, so one blocked packet no longer stalls
	// the wire — the standard answer to the paper's §6 flow-control
	// question. XY routing stays deadlock-free with any VC count.
	VirtualChannels int
	// InjectDepth and EjectDepth are the per-node message queue depths at
	// the local ports.
	InjectDepth, EjectDepth int
}

// DefaultMeshConfig returns the paper's default operating point: a 6×6 mesh
// of 64-bit channels (Table 3, first row).
func DefaultMeshConfig() MeshConfig {
	return MeshConfig{Width: 6, Height: 6, FlitWidthBits: 64, BufferDepth: 8, VirtualChannels: 1, InjectDepth: 8, EjectDepth: 8}
}

// Mesh is a 2D mesh of wormhole routers. It implements Fabric, sim.Ticker,
// sim.Preparer (publishing the cycle before Eval), sim.EventAware (letting
// idle and streaming routers sleep), sim.Quiescer (reporting idleness for
// fast-forward) and sim.Committer: every router lane and local queue is
// mesh-owned staged state that the mesh commits itself, so RegisterWith
// adds exactly one component to a kernel. Routers only read committed
// state from their neighbors' lanes and stage writes into them, so the
// order in which Tick visits them does not matter.
//
// All statistics are accumulated per router — each router's local port is
// owned by exactly one tile — and summed on demand by Stats. Under the
// event-driven kernel, FlitHops may lag while routers sleep through
// streams; the kernel's SyncTo brings it current at every observation
// point (end of Run, RunUntil predicates, invariant passes).
type Mesh struct {
	cfg     MeshConfig
	vcs     int
	routers []*router
	now     uint64
	// statsReset records that ResetStats zeroed the delivered counters,
	// which disarms the delivered-vs-ejected audit (occIn/occOut survive).
	statsReset bool

	// dirty lists every lane and local queue staged this cycle; Commit
	// applies them.
	dirty []*credits
	// parked counts messages sitting in eject queues.
	parked int

	// Event-mode state (see sim.EventAware). eventOn mirrors the kernel's
	// mode each cycle; selfPoke raises the mesh's kernel-level wake flag
	// when a tile or control plane touches mesh state from outside a mesh
	// tick; tileWake[node] wakes the local tile when the mesh hands it an
	// arrival or returns an injection credit; tickAll forces every router
	// live for one cycle (the kernel's wake-all contract).
	k        *sim.Kernel
	eventOn  bool
	selfPoke sim.Poker
	tileWake []sim.Poker
	tickAll  bool

	// Router liveness lists, so Begin, Tick and EndCycle touch only the
	// routers with work. live ticks this cycle; next must tick next cycle
	// (it is busy); poked was poked since the last Begin; timed has a
	// clocked wake (a fault window or a stream tail), none before nextWake;
	// virt sleeps through streams (stream.go).
	live, next, poked, timed, virt []*router
	nextWake                       uint64
	// cands are destinations that ejected a flit of a not yet streaming
	// worm this cycle; EndCycle tries to start a stream for each. path and
	// extra are scratch for that.
	cands, extra []*router
	path         []streamHop
	// streams counts outputs currently carrying a stream; synced is the
	// first cycle the last SyncTo left unsettled.
	streams int
	synced  uint64
}

// injEntry is a message waiting at a local injection port.
type injEntry struct {
	worm
	flits int
}

type router struct {
	m    *Mesh
	id   NodeID
	x, y int
	vcs  int
	in   []lane    // [port*vcs+vc]; the local port's entries unused
	inj  []injLane // per VC
	ej   queue[*packet.Message]
	// nextPort[dst] is the precomputed XY-routing output port for every
	// destination node — the per-flit route computation reduced to one
	// table read, as a real router's route-compute stage would be a small
	// combinational lookup.
	nextPort []uint8
	// heads[p*vcs+v] caches the head flit of input (p, vc) for the duration
	// of one tick, so output arbitration reads an array instead of
	// re-peeking lanes O(outputs × inputs) times. Entries go stale only
	// after a pop, and consumed[p] already guards every read after a pop.
	heads []headState
	// assembly[vc] is the message being reassembled at the local output.
	assembly []worm
	// holder[out*vcs+vc] is the input port whose wormhole owns that VC
	// lane of the output, or -1.
	holder   []int
	rrIn     [numPorts]int // round-robin pointer over inputs, per output
	rrVC     [numPorts]int // round-robin pointer over VCs, per output
	consumed [numPorts]bool
	neighbor [numPorts]*router
	// linkFault[o] is the injected fault on the outgoing link at port o
	// (zero value = healthy). Local ports cannot fault.
	linkFault [numPorts]LinkFault
	// stats are this router's counters. injected/ejected are written by
	// the local tile; the rest by the router's own tick.
	stats routerStats
	// tb is this router's trace buffer (nil when tracing is off); see
	// AttachTracer.
	tb *trace.Buffer

	// Event-mode liveness. A router whose tick moves no flit changes no
	// state at all (round-robin pointers, holders, assembly, and counters
	// only mutate on a send), so it can sleep until one of its inputs,
	// credits, or faults changes — each such edge pokes it. busy marks the
	// outputs whose moves in the last tick may enable a move next cycle
	// (stay awake); keepAwake
	// means a candidate waits on a credit that a sleeping stream consumer
	// frees without a poke; poked is the level-triggered external wake,
	// consumed into live by Mesh.Begin (before Eval, so a poke raised
	// mid-Eval cannot change this cycle's live set depending on tick
	// order); faultWake is the next cycle a PassEveryN-limited output with
	// a waiting candidate opens (0 = none): fault windows open by the
	// clock, not by a poke.
	busy                            uint8
	keepAwake, live, poked, inTimed bool
	// ready flags the input ports that may hold a committed flit: set when
	// a commit or a stream leaves flits in one of their lanes, cleared by
	// the tick that finds them empty. cached flags the ports whose heads
	// hold cache entries from the last tick.
	ready, cached uint8
	faultWake     uint64

	// Streams (stream.go). outTail[o] is the cycle the tail flit of the
	// worm streaming through output o crosses it (0 = no stream);
	// inStream[p] marks the input that stream drains. vfrom is the first
	// cycle of sleeping through streams not yet accounted (0 = not
	// sleeping).
	outTail  [numPorts]uint64
	inStream [numPorts]bool
	vfrom    uint64
	// tailWake is the earliest outTail (0 = no stream); inVirt marks
	// membership of Mesh.virt.
	tailWake uint64
	inVirt   bool
}

// lane returns input lane (p, vc).
func (r *router) lane(p, vc int) *lane { return &r.in[p*r.vcs+vc] }

// nextVC returns the VC after v in round-robin order.
func (r *router) nextVC(v int) int {
	if v++; v == r.vcs {
		return 0
	}
	return v
}

// head returns the cached head flit of input lane (p, vc).
func (r *router) head(p, vc int) *headState { return &r.heads[p*r.vcs+vc] }

// poke marks the router live for the next cycle (or the current one if
// called from a start-of-cycle event, before Begin samples the flags).
func (r *router) poke() {
	if !r.poked {
		r.poked = true
		r.m.poked = append(r.m.poked, r)
	}
}

// headState is one input lane's cached head flit for the current tick.
type headState struct {
	w          worm
	head, tail bool
	ok         bool
}

// routerStats are one router's contribution to the mesh totals. occIn and
// occOut count every message ever injected at / ejected from this router
// and are never reset: summed over all routers their difference is the
// in-flight message count, which the fast-forward quiescence check uses.
type routerStats struct {
	injected     uint64
	occIn        uint64
	occOut       uint64
	delivered    uint64
	flitHops     uint64
	totalLatency uint64
}

// LinkFault is an injected condition on one directional mesh link. The
// zero value means healthy.
type LinkFault struct {
	// Severed blocks the link entirely: no flit crosses until the fault
	// is lifted. Under XY routing traffic for that turn wedges in place
	// (and backpressure spreads) — exactly the failure a health monitor
	// has to detect from the outside.
	Severed bool
	// PassEveryN >= 2 degrades the link to at most one flit every N
	// cycles (a flaky SerDes running with retries). 0 or 1 = full rate.
	PassEveryN int
}

// Clean reports whether the fault is the healthy zero state.
func (f LinkFault) Clean() bool { return !f.Severed && f.PassEveryN < 2 }

// blocks reports whether the fault gates the link shut at the given cycle.
func (f LinkFault) blocks(now uint64) bool {
	if f.Severed {
		return true
	}
	return f.PassEveryN >= 2 && now%uint64(f.PassEveryN) != 0
}

// injLane serializes queued messages into flits at the local input port.
// Each virtual channel has an independent lane, so a backpressured packet
// does not block later packets on other VCs; the physical port still
// emits at most one flit per cycle. Packets are assigned to VCs by
// destination, which preserves per-(src,dst) ordering — packets to the
// same destination always share a lane and a single wormhole path.
type injLane struct {
	q     queue[injEntry]
	cur   injEntry
	sent  int
	valid bool
}

// vcFor maps a destination to its virtual channel.
func (m *Mesh) vcFor(dst NodeID) int { return int(dst) % m.vcs }

// ready reports whether the lane has a flit to offer: a message
// mid-serialization or a queued one.
func (l *injLane) ready() bool { return l.valid || l.q.canPop() }

// peek fills h with the lane's candidate flit; the caller checks ready.
func (l *injLane) peek(h *headState) {
	if l.valid {
		h.w, h.head, h.tail, h.ok = l.cur.worm, false, l.sent == l.cur.flits-1, true
		return
	}
	e := l.q.front()
	h.w, h.head, h.tail, h.ok = e.worm, true, e.flits == 1, true
}

func (l *injLane) pop(m *Mesh) {
	if l.valid {
		l.sent++
		if l.sent == l.cur.flits {
			l.valid = false
		}
		return
	}
	e := l.q.pop(m)
	if e.flits > 1 {
		l.cur, l.sent, l.valid = e, 1, true
	}
}

// NewMesh builds a Width×Height mesh.
func NewMesh(cfg MeshConfig) *Mesh {
	if cfg.Width < 1 || cfg.Height < 1 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.FlitWidthBits < 1 {
		panic("noc: flit width must be positive")
	}
	if cfg.BufferDepth < 2 {
		panic("noc: buffer depth below 2 cannot sustain wormhole throughput")
	}
	if cfg.InjectDepth < 1 || cfg.EjectDepth < 1 {
		panic("noc: local queue depths must be positive")
	}
	if cfg.VirtualChannels < 0 {
		panic("noc: negative virtual channel count")
	}
	vcs := cfg.VirtualChannels
	if vcs == 0 {
		vcs = 1
	}
	m := &Mesh{cfg: cfg, vcs: vcs, nextWake: sim.WakeNever}
	n := cfg.Width * cfg.Height
	m.routers = make([]*router, n)
	for id := range m.routers {
		r := &router{m: m, id: NodeID(id), x: id % cfg.Width, y: id / cfg.Width, vcs: vcs}
		r.in = make([]lane, numPorts*vcs)
		for i := vcs; i < len(r.in); i++ {
			r.in[i] = newLane(cfg.BufferDepth)
			r.in[i].owner, r.in[i].port = r, uint8(i/vcs)
		}
		r.inj = make([]injLane, vcs)
		for v := range r.inj {
			r.inj[v].q = newQueue[injEntry](cfg.InjectDepth)
			r.inj[v].q.owner = r
		}
		r.ej = newQueue[*packet.Message](cfg.EjectDepth)
		r.assembly = make([]worm, vcs)
		r.holder = make([]int, numPorts*vcs)
		for i := range r.holder {
			r.holder[i] = -1
		}
		r.heads = make([]headState, numPorts*vcs)
		m.routers[id] = r
	}
	for _, r := range m.routers {
		r.nextPort = make([]uint8, n)
		for dst := range r.nextPort {
			r.nextPort[dst] = uint8(r.route(NodeID(dst)))
		}
	}
	for _, r := range m.routers {
		if r.y > 0 {
			r.neighbor[portNorth] = m.routers[int(r.id)-cfg.Width]
		}
		if r.y < cfg.Height-1 {
			r.neighbor[portSouth] = m.routers[int(r.id)+cfg.Width]
		}
		if r.x > 0 {
			r.neighbor[portWest] = m.routers[int(r.id)-1]
		}
		if r.x < cfg.Width-1 {
			r.neighbor[portEast] = m.routers[int(r.id)+1]
		}
	}
	return m
}

// RegisterWith attaches the mesh to a kernel as one Ticker, Preparer and
// Committer. The mesh keeps the kernel handle so each cycle's Begin can
// mirror the kernel's event mode, and wires its own kernel-level poker for
// wakes originating outside mesh ticks (Inject, TryEject, SetLinkFault).
func (m *Mesh) RegisterWith(k *sim.Kernel) {
	k.Register(m)
	m.k = k
	m.selfPoke = k.PokerFor(m)
}

// Commit implements sim.Committer: every lane and local queue staged this
// cycle makes its pushes visible and returns its pops' credits. A cycle in
// which nothing moved leaves the list empty, and Commit returns at once.
func (m *Mesh) Commit() {
	for _, c := range m.dirty {
		c.commit()
	}
	m.dirty = m.dirty[:0]
}

// node returns the router at n, panicking with the entry point's name when
// n is not a node of this mesh.
func (m *Mesh) node(op string, n NodeID) *router {
	return m.routers[checkNode(op, n, len(m.routers))]
}

// SetNodeWaker wires the poker that wakes the tile attached at node when
// the mesh ejects a message to it or returns an injection credit. Unwired
// nodes keep the zero no-op Poker, which is only safe for tiles that never
// sleep; the builder wires every placed tile.
func (m *Mesh) SetNodeWaker(node NodeID, p sim.Poker) {
	m.node("SetNodeWaker", node)
	if m.tileWake == nil {
		m.tileWake = make([]sim.Poker, len(m.routers))
	}
	m.tileWake[node] = p
}

// wakeTile pokes the tile attached at the given node, if wired.
func (m *Mesh) wakeTile(node NodeID) {
	if m.tileWake != nil {
		m.tileWake[node].Poke()
	}
}

// AttachTracer gives every router its own trace buffer. Buffers are
// created in router-ID order, which fixes their drain order at commit: a
// cycle's hop and transit spans reach the stream in topology order, not in
// the order routers, tiles and control plane happened to emit them.
func (m *Mesh) AttachTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	for _, r := range m.routers {
		name := "router" + m.CoordOf(r.id).String()
		tr.NameLoc(trace.LocNode, uint32(r.id), name)
		r.tb = tr.Buffer(name)
	}
}

// Config returns the mesh configuration.
func (m *Mesh) Config() MeshConfig { return m.cfg }

// Nodes implements Fabric.
func (m *Mesh) Nodes() int { return len(m.routers) }

// NodeAt returns the node at mesh coordinate (x, y).
func (m *Mesh) NodeAt(x, y int) NodeID {
	if x < 0 || x >= m.cfg.Width || y < 0 || y >= m.cfg.Height {
		panic(fmt.Sprintf("noc: NodeAt(%d,%d) outside %dx%d mesh", x, y, m.cfg.Width, m.cfg.Height))
	}
	return NodeID(y*m.cfg.Width + x)
}

// CoordOf returns the mesh coordinate of a node.
func (m *Mesh) CoordOf(id NodeID) Coord {
	checkNode("CoordOf", id, len(m.routers))
	return Coord{X: int(id) % m.cfg.Width, Y: int(id) / m.cfg.Width}
}

// FlitsFor implements Fabric.
func (m *Mesh) FlitsFor(msg *packet.Message) int {
	return flitsFor(msg.WireLen(), m.cfg.FlitWidthBits)
}

// CanInject implements Fabric.
func (m *Mesh) CanInject(src, dst NodeID) bool {
	q := &m.node("CanInject src", src).inj[m.vcFor(dst)].q
	m.node("CanInject dst", dst)
	return q.canPush()
}

// Inject implements Fabric.
func (m *Mesh) Inject(src, dst NodeID, msg *packet.Message) {
	r := m.node("Inject src", src)
	m.node("Inject dst", dst)
	l := &r.inj[m.vcFor(dst)]
	// The staged entry commits at end of cycle; the router must look then
	// if it will be the lane's candidate. Behind a message it waits for
	// that message to leave, which keeps the router awake.
	if !l.valid && l.q.length() == 0 {
		r.poke()
		m.selfPoke.Poke()
	}
	l.q.push(m, injEntry{worm: worm{msg: msg, dst: dst, enq: m.now}, flits: m.FlitsFor(msg)})
	r.stats.injected++
	r.stats.occIn++
}

// TryEject implements Fabric.
func (m *Mesh) TryEject(node NodeID) (*packet.Message, bool) {
	r := m.node("TryEject", node)
	if !r.ej.canPop() {
		return nil, false
	}
	r.stats.occOut++
	m.parked--
	// The freed eject slot may unblock a head flit the router reserved
	// against; the credit lands at commit, so the router looks next cycle.
	// A head can only be waiting while fewer slots are free than the VCs
	// that may hold reservations.
	if r.ej.cap-r.ej.pending() < int32(m.vcs) {
		r.poke()
		m.selfPoke.Poke()
	}
	return r.ej.pop(m), true
}

// HasEjectable implements Fabric.
func (m *Mesh) HasEjectable(node NodeID) bool {
	return m.node("HasEjectable", node).ej.canPop()
}

// portToward returns the output port on from's router facing the adjacent
// node to; it panics when the nodes are not mesh neighbors (link faults
// are per physical link, not per path).
func (m *Mesh) portToward(from, to NodeID) int {
	r := m.node("link from", from)
	m.node("link to", to)
	for p := portNorth; p < numPorts; p++ {
		if nb := r.neighbor[p]; nb != nil && nb.id == to {
			return p
		}
	}
	panic(fmt.Sprintf("noc: nodes %v and %v are not adjacent", m.CoordOf(from), m.CoordOf(to)))
}

// SetLinkFault installs (or, with the zero LinkFault, lifts) a fault on
// the directional link from -> to. The nodes must be adjacent. Any fault
// change ends every stream (their wake cycles assumed the old link
// state); the routers involved step flit by flit from the next Eval.
func (m *Mesh) SetLinkFault(from, to NodeID, f LinkFault) {
	o := m.portToward(from, to)
	m.routers[from].linkFault[o] = f
	m.dropStreams(m.frontier())
	// Lifting a fault can unblock a sleeping router's waiting candidate.
	m.routers[from].poke()
	m.selfPoke.Poke()
}

// LinkFaultBetween returns the installed fault on the directional link
// from -> to.
func (m *Mesh) LinkFaultBetween(from, to NodeID) LinkFault {
	o := m.portToward(from, to)
	return m.routers[from].linkFault[o]
}

// Stats returns the accumulated statistics, summed over routers.
func (m *Mesh) Stats() Stats {
	var s Stats
	for _, r := range m.routers {
		s.Injected += r.stats.injected
		s.Delivered += r.stats.delivered
		s.FlitHops += r.stats.flitHops
		s.TotalLatency += r.stats.totalLatency
	}
	return s
}

// ResetStats zeroes the accumulated statistics (for measuring steady state
// after warmup). The occupancy counters behind fast-forward are preserved.
// Flit hops that sleeping streams have already made are counted first, so
// they are not charged to the new window.
func (m *Mesh) ResetStats() {
	c := m.frontier()
	for _, r := range m.virt {
		r.account(c)
	}
	m.statsReset = true
	for _, r := range m.routers {
		r.stats = routerStats{occIn: r.stats.occIn, occOut: r.stats.occOut}
	}
}

// frontier returns the first cycle whose Eval phase has not run yet: the
// current cycle during its start-of-cycle events, the next one once Begin
// has published it.
func (m *Mesh) frontier() uint64 {
	if m.k != nil && m.k.Now() != m.now {
		return m.k.Now()
	}
	return m.now + 1
}

// Begin implements sim.Preparer: the cycle number is published before Eval
// so routers and injecting tiles read a stable value whether or not the
// mesh has ticked yet this cycle. Under an event-driven kernel Begin also
// fixes the cycle's live routers — pokes are consumed here, before Eval,
// so the set of routers that tick can never depend on whether a poking
// tile ticked before or after the mesh. A poke landing later in this cycle
// keeps the mesh awake (EndCycle sees it) and is consumed by the next
// Begin.
func (m *Mesh) Begin(cycle uint64) {
	m.now = cycle
	m.eventOn = m.k != nil && m.k.EventDriven()
	if !m.eventOn {
		// The ticked loop steps every router; streams only pay off when
		// routers may sleep, so a kernel leaving event mode ends them.
		if m.streams > 0 {
			m.dropStreams(cycle)
		}
		for _, r := range m.poked {
			r.poked = false
		}
		m.poked = m.poked[:0]
		return
	}
	if m.tickAll {
		m.tickAll = false
		for _, r := range m.routers {
			m.wake(r)
		}
	}
	for _, r := range m.next {
		m.wake(r)
	}
	m.next = m.next[:0]
	for _, r := range m.poked {
		r.poked = false
		m.wake(r)
	}
	m.poked = m.poked[:0]
	if cycle >= m.nextWake {
		// Wake the due routers, drop those left without a clocked wake,
		// and tighten the bound over the rest; the woken ones report their
		// next wakes when EndCycle parks them.
		m.nextWake = sim.WakeNever
		timed := m.timed[:0]
		for _, r := range m.timed {
			w := r.wakeAt()
			if w == sim.WakeNever {
				r.inTimed = false
				continue
			}
			timed = append(timed, r)
			if w <= cycle {
				m.wake(r)
			} else {
				m.nextWake = min(m.nextWake, w)
			}
		}
		m.timed = timed
	}
}

// wake adds a router to this cycle's live list.
func (m *Mesh) wake(r *router) {
	if !r.live {
		r.live = true
		m.live = append(m.live, r)
	}
}

// WakeAll implements sim.BulkWaker: the next Begin marks every router live.
func (m *Mesh) WakeAll() { m.tickAll = true }

// Tick implements sim.Ticker: one cycle of every live router (every router
// under the ticked kernel or without one). A router waking from a stream
// first settles the moves it slept through.
func (m *Mesh) Tick(cycle uint64) {
	m.now = cycle
	if m.eventOn {
		for _, r := range m.live {
			if r.vfrom != 0 {
				r.rouse(cycle)
			}
			r.tick()
		}
		return
	}
	for _, r := range m.routers {
		r.tick()
	}
}

// EndCycle implements sim.EventAware. It starts the streams this cycle's
// ejections made possible, puts routers that only stream to sleep, and
// then asks to tick next cycle while any router is busy or has a pending
// poke; otherwise the earliest clocked wake (a fault window or a stream
// tail) bounds the sleep, and with none the mesh sleeps until poked.
func (m *Mesh) EndCycle(cycle uint64) uint64 {
	for _, r := range m.cands {
		m.startStream(r, cycle)
	}
	m.cands = m.cands[:0]
	for _, r := range m.extra {
		if !r.live {
			m.park(r, cycle)
		}
	}
	m.extra = m.extra[:0]
	for _, r := range m.live {
		r.live = false
		if r.busy != 0 || r.keepAwake {
			m.next = append(m.next, r)
		}
		m.park(r, cycle)
	}
	m.live = m.live[:0]
	// A parked eject queue keeps the mesh awake even though no router
	// moves: the waiting tile cannot see the arrival in its own NextWork,
	// so the mesh must be the component that pins the cycle live, exactly
	// as NextWork does for the ticked loop's skip.
	if len(m.next) > 0 || len(m.poked) > 0 || m.parked > 0 {
		return cycle + 1
	}
	return m.nextWake
}

// park files a router after its tick (or after a stream started through
// it): one with only streams left to move sleeps through them, and one
// with a clocked wake joins the timed list. nextWake stays a lower bound
// on every timed router's wake: wakes only change in ticks and stream
// starts, both of which park the router.
func (m *Mesh) park(r *router, cycle uint64) {
	if r.busy == 0 && !r.keepAwake && !r.poked && r.tailWake != 0 {
		r.sleep(cycle + 1)
	}
	if w := r.wakeAt(); w != sim.WakeNever {
		if w <= cycle {
			panic(fmt.Sprintf("noc: router %d missed its wake at cycle %d", r.id, w))
		}
		if !r.inTimed {
			r.inTimed = true
			m.timed = append(m.timed, r)
		}
		m.nextWake = min(m.nextWake, w)
	}
}

// wakeAt returns the router's clocked wake: the earlier of its fault
// window and its first stream tail.
func (r *router) wakeAt() uint64 {
	w := uint64(sim.WakeNever)
	if r.faultWake != 0 {
		w = r.faultWake
	}
	if r.tailWake != 0 && r.tailWake < w {
		w = r.tailWake
	}
	return w
}

// SyncTo implements sim.EventAware: routers sleeping through streams
// settle the flit hops and injector progress of every cycle through the
// given one, and keep sleeping. Their lanes stay lazy — only the mesh's
// own audit reads them, and it settles them to the same cycle first.
func (m *Mesh) SyncTo(cycle uint64) {
	m.synced = cycle + 1
	virt := m.virt[:0]
	for _, r := range m.virt {
		if r.vfrom == 0 {
			r.inVirt = false
			continue
		}
		r.account(m.synced)
		virt = append(virt, r)
	}
	m.virt = virt
}

// NextWork implements sim.Quiescer: an empty mesh — every injected message
// handed to the local tile, nothing buffered anywhere — has no work until
// someone injects, and an injecting tile is never itself idle. While any
// message is in flight (including one parked in an eject queue awaiting a
// tile) the mesh vetoes the skip, covering tiles' blindness to pending
// arrivals.
func (m *Mesh) NextWork(now uint64) (uint64, bool) {
	if m.InFlight() != 0 {
		return now, false
	}
	return 0, true
}

// route returns the output port for a flit under XY dimension-order
// routing.
func (r *router) route(dst NodeID) int {
	dx := int(dst)%r.m.cfg.Width - r.x
	dy := int(dst)/r.m.cfg.Width - r.y
	switch {
	case dx > 0:
		return portEast
	case dx < 0:
		return portWest
	case dy > 0:
		return portSouth
	case dy < 0:
		return portNorth
	default:
		return portLocal
	}
}

// laneReady reports whether input lane (p, vc) holds a committed flit (for
// the injector: a mid-serialization message or a queued one). A lane fed
// by a sleeping stream first takes the flits streamed into it.
func (r *router) laneReady(p, vc int) bool {
	if p == portLocal {
		return r.inj[vc].ready()
	}
	l := r.lane(p, vc)
	if l.vpush != 0 {
		l.catchUp(r.m.now)
	}
	return l.canPop()
}

// peekIn caches the head flit of (input port, vc); the caller checks
// laneReady.
func (r *router) peekIn(p, vc int, h *headState) {
	if p == portLocal {
		r.inj[vc].peek(h)
		return
	}
	r.lane(p, vc).peek(h)
}

// popIn pops the head flit of (input port, vc). The freed buffer slot is
// an upstream credit at commit, so the neighbor feeding the port is poked
// when the lane was full in its view (otherwise no candidate of its can
// be waiting on this credit) — unless that neighbor streams into this
// lane: its stream moves one flit a cycle regardless, and no other
// candidate can want the output the stream holds.
func (r *router) popIn(p, vc int) {
	if p == portLocal {
		l := &r.inj[vc]
		if !l.valid {
			// This pop drains the lane's message queue, returning an
			// injection credit to the local tile at commit.
			r.m.wakeTile(r.id)
		}
		l.pop(r.m)
		return
	}
	l := r.lane(p, vc)
	full := !l.canPush()
	l.pop(r.m)
	if nb := r.neighbor[p]; full && nb.outTail[oppositePort[p]] == 0 {
		nb.poke()
	}
}

// canAccept reports whether output port o can take one more flit on VC vc.
func (r *router) canAccept(o, vc int, h *headState) bool {
	if o == portLocal {
		if h.head {
			// Reserve an eject slot: other VCs mid-assembly also hold
			// reservations. Occupancy is the conservative pending count —
			// committed entries plus same-cycle pushes, blind to the local
			// tile's same-cycle pops — so the decision is identical whether
			// the tile has ticked yet or not (the order-independence
			// contract; same-cycle eject credits return next cycle).
			free := r.ej.cap - r.ej.pending()
			reserved := int32(0)
			for v := range r.assembly {
				if v != vc && r.assembly[v].msg != nil {
					reserved++
				}
			}
			return free > reserved
		}
		return true
	}
	nb := r.neighbor[o]
	if nb == nil {
		panic(fmt.Sprintf("noc: route to missing neighbor %d from %v", o, r.m.CoordOf(r.id)))
	}
	l := nb.lane(oppositePort[o], vc)
	if l.vpop == 0 {
		return l.canPush()
	}
	// The downstream router sleeps through a stream out of this lane and
	// frees a slot every cycle without poking: settle its pops, and stay
	// awake while waiting on them.
	l.catchUp(r.m.now)
	if !l.canPush() {
		r.keepAwake = true
		return false
	}
	return true
}

// send pops the cached head flit of input lane (p, vc) and delivers it
// through output o. A flit moved by a stream (any of its worm's flits but
// the tail) leaves the router free to sleep; any other move marks o busy,
// keeping the router awake next cycle (for a tail only when followUp
// finds work), and the tail ends the stream.
func (r *router) send(o, p, vc int) headState {
	h := *r.head(p, vc)
	stream := r.outTail[o] != 0
	if stream && h.tail {
		r.endStream(o, p)
		stream = false
	}
	r.popIn(p, vc)
	r.deliver(o, vc, &h, stream)
	if !stream && (!h.tail || r.vcs > 1 || r.followUp(o, p)) {
		r.busy |= 1 << o
	}
	return h
}

// followUp reports whether a tail just sent from input p through output o
// (one VC) leaves this router work for the next cycle: more flits behind
// it in p, or a head at another input that the tail's wormhole kept from
// o. Without either, nothing the move changed can be moved next cycle.
func (r *router) followUp(o, p int) bool {
	if p == portLocal {
		if l := &r.inj[0]; l.valid || l.q.length() > 0 || l.q.staged > 0 {
			return true
		}
	} else if l := r.lane(p, 0); l.length() > 0 || l.staged > 0 {
		return true
	}
	for in := 0; in < numPorts; in++ {
		if h := r.head(in, 0); in != p && h.ok && h.head && int(r.nextPort[h.w.dst]) == o {
			return true
		}
	}
	return false
}

// deliver moves a flit out through output port o.
func (r *router) deliver(o, vc int, h *headState, stream bool) {
	if o == portLocal {
		a := &r.assembly[vc]
		if h.head {
			*a = h.w
		}
		if !h.tail {
			if !stream && r.m.eventOn && r.m.vcs == 1 {
				r.m.cands = append(r.m.cands, r)
			}
			return
		}
		msg, enq := a.msg, a.enq
		*a = worm{}
		r.ej.push(r.m, msg)
		r.m.parked++
		r.m.wakeTile(r.id) // arrival visible to the tile at commit
		r.stats.delivered++
		r.stats.totalLatency += r.m.now - enq
		if r.tb.Want(msg.TraceID) {
			// One mesh-transit span per message, from injection-queue
			// entry to tail-flit ejection at the destination router.
			r.tb.Emit(trace.Span{
				Msg: msg.TraceID, Kind: trace.KindEject,
				LocKind: trace.LocNode, Loc: uint32(r.id),
				Start: enq, End: r.m.now,
				Tenant: msg.Tenant,
			})
		}
		return
	}
	if h.head && h.w.msg != nil && r.tb.Want(h.w.msg.TraceID) {
		r.tb.Emit(trace.Span{
			Msg: h.w.msg.TraceID, Kind: trace.KindHop,
			LocKind: trace.LocNode, Loc: uint32(r.id),
			Start: r.m.now, End: r.m.now,
			A: uint64(o), B: uint64(h.w.dst),
			Tenant: h.w.msg.Tenant,
		})
	}
	nb := r.neighbor[o]
	in := oppositePort[o]
	l := nb.lane(in, vc)
	// The flit is the neighbor's input next cycle. It only gives the
	// neighbor work when it will be the lane's head: behind a committed
	// flit it waits for that flit's move, which keeps the neighbor awake
	// or wakes it. A neighbor streaming out of the lane has its wake
	// scheduled already.
	if l.length() == 0 && !nb.inStream[in] {
		nb.poke()
	}
	l.push(r.m, h.w, h.head, h.tail)
	r.stats.flitHops++
}

// holderOf returns the output port whose VC-v wormhole is owned by input
// port p, or -1. A body flit is only ever forwarded by its holder, so this
// is the fast-path route lookup.
func (r *router) holderOf(p, v int) int {
	for o := 0; o < numPorts; o++ {
		if r.holder[o*r.vcs+v] == p {
			return o
		}
	}
	return -1
}

// gated reports whether a fault gates output o shut this cycle, recording
// the next PassEveryN window as a timed wake: such windows open by the
// clock, with no poke to ride, while a severed link only reopens via
// SetLinkFault, which pokes.
func (r *router) gated(o int) bool {
	if o == portLocal || !r.linkFault[o].blocks(r.m.now) {
		return false
	}
	if n := uint64(r.linkFault[o].PassEveryN); n >= 2 {
		next := r.m.now + n - r.m.now%n
		if r.faultWake == 0 || next < r.faultWake {
			r.faultWake = next
		}
	}
	return true
}

// streamOne forwards the cached head flit of input lane (p, v) through
// output o, exactly as the general arbitration below would when that lane
// is the only live input competing for o: the wormhole already owns the
// output, so the only questions left are the link fault gate and
// downstream acceptance.
func (r *router) streamOne(o, p, v int) {
	if r.gated(o) || !r.canAccept(o, v, r.head(p, v)) {
		return
	}
	if r.send(o, p, v).tail {
		r.holder[o*r.vcs+v] = -1
	}
	r.rrVC[o] = r.nextVC(v)
}

func (r *router) tick() {
	r.faultWake = 0
	r.busy, r.keepAwake = 0, false
	vcs := r.m.vcs
	// Cache every input lane's head flit once: output arbitration below
	// would otherwise re-peek each input once per output port. consumed[p]
	// guards the cache after a pop (one pop per input port per cycle).
	// The same pass counts live lanes, so an idle router is proven idle
	// (and a lone mid-wormhole lane spotted) without a separate scan.
	inputs := 0
	headSeen := false
	var livePort [numPorts]int8
	// Only ports flagged ready can hold a committed flit; heads cached on
	// ports no longer flagged are cleared so arbitration never reads them.
	for stale := r.cached &^ r.ready; stale != 0; stale &= stale - 1 {
		p := bits.TrailingZeros8(stale)
		for v := 0; v < vcs; v++ {
			r.head(p, v).ok = false
		}
	}
	r.cached = r.ready
	for ready := r.ready; ready != 0; ready &= ready - 1 {
		p := bits.TrailingZeros8(ready)
		any := false
		for v := 0; v < vcs; v++ {
			h := r.head(p, v)
			if !r.laneReady(p, v) {
				h.ok = false
				continue
			}
			any = true
			r.peekIn(p, v, h)
			headSeen = headSeen || h.head
			if inputs < numPorts {
				livePort[inputs] = int8(p)
			}
			inputs++
		}
		if !any {
			r.ready &^= 1 << p
		}
	}
	if inputs == 0 {
		return
	}
	// Streaming fast path: every live lane is mid-wormhole (no head flit
	// needs allocating), and each wormhole owns a distinct output — then
	// arbitration degenerates to "move each flit if its output accepts it",
	// with no cross-lane interaction to order. Restricted to single-VC
	// meshes so a lane is identified by its port.
	if !headSeen && vcs == 1 && inputs <= numPorts {
		var outOf [numPorts]int8
		var used [numPorts]bool
		ok := true
		for i := 0; i < inputs; i++ {
			o := r.holderOf(int(livePort[i]), 0)
			if o < 0 || used[o] {
				ok = false
				break
			}
			used[o] = true
			outOf[i] = int8(o)
		}
		if ok {
			for i := 0; i < inputs; i++ {
				r.streamOne(int(outOf[i]), int(livePort[i]), 0)
			}
			return
		}
	}
	for p := range r.consumed {
		r.consumed[p] = false
	}
	// Build a conservative per-output candidate mask (a head flit routed
	// to o, or an active wormhole with flits waiting) so arbitration skips
	// outputs nothing can use this cycle.
	var cand [numPorts]bool
	for ready := r.cached; ready != 0; ready &= ready - 1 {
		p := bits.TrailingZeros8(ready)
		for v := 0; v < vcs; v++ {
			if h := r.head(p, v); h.ok && h.head {
				cand[r.nextPort[h.w.dst]] = true
			}
		}
	}
	for o := 0; o < numPorts; o++ {
		if cand[o] {
			continue
		}
		for v := 0; v < vcs; v++ {
			if h := r.holder[o*r.vcs+v]; h >= 0 && r.head(h, v).ok {
				cand[o] = true
				break
			}
		}
	}
	for o := 0; o < numPorts; o++ {
		if !cand[o] || r.gated(o) {
			continue
		}
		// One flit per output per cycle; VCs take turns (round-robin),
		// letting packets interleave on the physical link.
		sent := false
		for vi, v := 0, r.rrVC[o]; vi < vcs && !sent; vi, v = vi+1, r.nextVC(v) {
			if h := r.holder[o*r.vcs+v]; h >= 0 {
				hs := r.head(h, v)
				if !hs.ok || r.consumed[h] || !r.canAccept(o, v, hs) {
					continue
				}
				r.consumed[h] = true
				if r.send(o, h, v).tail {
					r.holder[o*r.vcs+v] = -1
				}
				r.rrVC[o] = r.nextVC(v)
				sent = true
				continue
			}
			// Allocate this VC lane to a waiting head flit.
			for ii := 0; ii < numPorts; ii++ {
				in := (r.rrIn[o] + ii) % numPorts
				if r.consumed[in] {
					continue
				}
				hs := r.head(in, v)
				if !hs.ok || !hs.head || int(r.nextPort[hs.w.dst]) != o || !r.canAccept(o, v, hs) {
					continue
				}
				r.consumed[in] = true
				if !r.send(o, in, v).tail {
					r.holder[o*r.vcs+v] = in
				}
				r.rrIn[o] = (in + 1) % numPorts
				r.rrVC[o] = r.nextVC(v)
				sent = true
				break
			}
		}
	}
	// A tick that moved nothing outside a stream changed nothing a stream
	// does not account for (the no-op proof behind the idle early-return
	// applies to a fully blocked router too: round-robin state, holders,
	// assembly, and stats only mutate on a send), so the router sleeps
	// until an input, credit, or fault edge pokes it, or its first stream
	// tail is due.
}
