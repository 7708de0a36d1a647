// Package noc models PANIC's on-chip interconnect: a lossless 2D-mesh
// network of wormhole routers with credit-based flow control and XY
// dimension-order routing (§3.1.2 of the paper), plus a single central
// crossbar used as an ablation baseline for the paper's wire-length
// argument against large crossbars.
//
// Timing model, following the paper: "The routers add one cycle of latency
// at each hop." A flit moves from one router's input buffer to the next
// router's input buffer in exactly one cycle; ejection into the local
// port's delivery queue also takes one cycle. Messages are segmented into
// width-bit flits; a message of b bits occupies ceil(b/width) consecutive
// flits that travel as a wormhole: the head flit reserves each output port
// and the tail flit releases it.
//
// The mesh moves worms, not flit records. Each router input lane is a
// ring of worm segments — runs of consecutive flits of one message — with
// per-flit credit counts that keep the conservative rule of a staged
// hardware FIFO: a flit popped in one cycle frees its slot for the
// upstream router in the next. Timing is exact at flit granularity: one
// pop per input port and one flit per output port per cycle, round-robin
// arbitration, and eject-slot reservation are unchanged from a router
// that moves every flit individually, which the package's differential
// tests keep as their oracle. Once a worm's head has ejected, the routers
// still carrying it stream the rest in closed form: under the
// event-driven kernel they sleep until the cycle its tail crosses them,
// computed from the lane counts (stream.go).
//
// The network is lossless: routers never drop flits, and backpressure is
// credit-based — an upstream router forwards a flit only when the
// downstream input buffer has space. Drops, when policy requires them,
// happen in the logical scheduler (internal/sched), never here.
//
// With a tracer attached (Mesh.AttachTracer), every router owns a private
// span buffer and emits hop instants for forwarded head flits plus one
// mesh-transit span per delivered message (injection enqueue to tail-flit
// ejection) — see internal/trace for the determinism and cost contracts.
package noc

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// NodeID identifies a tile on the fabric.
type NodeID int

// Coord is a mesh coordinate.
type Coord struct{ X, Y int }

// String formats the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Fabric is an interconnect that moves messages between tiles. Both the 2D
// mesh and the crossbar baseline implement it, so higher layers are
// topology-agnostic.
type Fabric interface {
	// Nodes returns the number of attachment points.
	Nodes() int
	// CanInject reports whether the source tile can start injecting a
	// message to dst this cycle (with virtual channels, each VC lane has
	// its own injection queue, so admission depends on the destination).
	CanInject(src, dst NodeID) bool
	// Inject queues a message for delivery; the caller must check
	// CanInject first. Latency and bandwidth are simulated by the fabric.
	Inject(src, dst NodeID, msg *packet.Message)
	// TryEject removes and returns the next message delivered to the
	// node, if any.
	TryEject(node NodeID) (*packet.Message, bool)
	// HasEjectable reports whether TryEject would currently succeed,
	// without consuming the message. Event-aware tiles use it to decide
	// whether a pending arrival forces them to stay awake.
	HasEjectable(node NodeID) bool
	// FlitsFor returns the number of flits a message occupies.
	FlitsFor(msg *packet.Message) int
}

// checkNode returns n as an index when it names one of a fabric's nodes and
// otherwise panics with the entry point's name and the bad node.
func checkNode(op string, n NodeID, nodes int) int {
	if uint(n) >= uint(nodes) {
		panic(fmt.Sprintf("noc: %s: invalid node %d (fabric has %d nodes)", op, n, nodes))
	}
	return int(n)
}

// flitsFor segments a message of the given wire length into width-bit flits.
func flitsFor(wireBytes, widthBits int) int {
	bits := wireBytes * 8
	n := (bits + widthBits - 1) / widthBits
	if n < 1 {
		n = 1
	}
	return n
}

// Stats aggregates fabric-level measurements.
type Stats struct {
	// Injected and Delivered count messages.
	Injected, Delivered uint64
	// FlitHops counts flit-link traversals (for utilization).
	FlitHops uint64
	// TotalLatency accumulates inject-to-eject cycles over delivered
	// messages.
	TotalLatency uint64
}

// MeanLatency returns the mean delivery latency in cycles.
func (s Stats) MeanLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}
