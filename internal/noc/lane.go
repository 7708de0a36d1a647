package noc

import "github.com/panic-nic/panic/internal/packet"

// credits is the occupancy of one mesh-owned staged queue, with sim.FIFO's
// conservative credit rule: a push or pop made during a cycle takes effect
// at the mesh's Commit, and the producer's view (n+staged) never observes
// a same-cycle pop, so a freed slot is visible one cycle later whichever
// side ticked first.
type credits struct {
	n      int32 // committed entries, including those popped this cycle
	staged int32 // pushes this cycle
	popped int32 // pops this cycle
	cap    int32
	dirty  bool // on the mesh's commit list
	// owner and port name the router input the queue feeds (nil for an
	// eject queue): a commit that leaves entries flags the port ready.
	port  uint8
	owner *router
}

// canPop reports whether a committed entry is still unconsumed this cycle.
func (c *credits) canPop() bool { return c.popped < c.n }

// canPush reports whether a push this cycle stays within capacity.
func (c *credits) canPush() bool { return c.n+c.staged < c.cap }

// pending is the conservative occupancy: committed plus staged, blind to
// same-cycle pops (sim.FIFO.Pending).
func (c *credits) pending() int32 { return c.n + c.staged }

// length is the committed occupancy not yet popped this cycle.
func (c *credits) length() int32 { return c.n - c.popped }

func (c *credits) commit() {
	c.n += c.staged - c.popped
	c.staged, c.popped = 0, 0
	c.dirty = false
	if c.owner != nil && c.n > 0 {
		c.owner.ready |= 1 << c.port
	}
}

// stage puts a queue touched this cycle on the commit list.
func (m *Mesh) stage(c *credits) {
	if !c.dirty {
		c.dirty = true
		m.dirty = append(m.dirty, c)
	}
}

// queue is a bounded message-granular ring (the local injection and
// ejection queues). Pops take their entry out of the ring at once; the
// credit returns at commit. The ring is allocated by the first push: a
// NIC attaches tiles to a fraction of its mesh's nodes.
type queue[T any] struct {
	credits
	buf  []T
	head int // ring index of the oldest unpopped entry
}

func newQueue[T any](capacity int) queue[T] { return queue[T]{credits: credits{cap: int32(capacity)}} }

// front returns the oldest unpopped committed entry; the caller checks
// canPop.
func (q *queue[T]) front() *T { return &q.buf[q.head] }

func (q *queue[T]) push(m *Mesh, v T) {
	if !q.canPush() {
		panic("noc: push on a full local queue (writer ignored CanInject)")
	}
	if q.buf == nil {
		q.buf = make([]T, q.cap)
	}
	i := q.head + int(q.length()+q.staged)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.staged++
	m.stage(&q.credits)
}

func (q *queue[T]) pop(m *Mesh) T {
	if !q.canPop() {
		panic("noc: pop on an empty local queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // a popped message must not stay reachable
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.popped++
	m.stage(&q.credits)
	return v
}

// worm is what every flit of one message shares: the message, its
// destination and its injection cycle.
type worm struct {
	msg *packet.Message
	dst NodeID
	enq uint64
}

// segment is a run of consecutive flits of one worm inside a lane. head
// marks that the run starts with the worm's head flit, tail that it ends
// with the worm's tail flit.
type segment struct {
	worm
	flits      int32
	head, tail bool
}

// lane is one router input buffer (one port, one virtual channel) held as
// a ring of worm segments plus per-flit credit counts. Committed flits come
// first and flits staged this cycle last, so the committed head flit is
// always the first flit of the front segment. A ring of BufferDepth
// segments always suffices: every segment holds at least one flit. The
// ring is allocated by the first push: lanes off every XY path between
// attached tiles never carry a flit.
//
// vpop and vpush support closed-form streams (stream.go): while the
// lane's consumer (vpop) or producer (vpush) router sleeps through a
// stream, it pops or pushes exactly one flit of the streaming worm per
// cycle from that cycle on, and catchUp applies those moves lazily. 0
// means the side is awake.
type lane struct {
	credits
	segs        []segment
	first, nseg int
	vpop, vpush uint64
}

func newLane(depth int) lane { return lane{credits: credits{cap: int32(depth)}} }

func (l *lane) front() *segment { return &l.segs[l.first] }

func (l *lane) back() *segment {
	i := l.first + l.nseg - 1
	if i >= len(l.segs) {
		i -= len(l.segs)
	}
	return &l.segs[i]
}

// peek fills h with the committed head flit; the caller checks canPop.
func (l *lane) peek(h *headState) {
	s := l.front()
	h.w, h.head, h.tail, h.ok = s.worm, s.head, s.tail && s.flits == 1, true
}

func (l *lane) pop(m *Mesh) {
	s := l.front()
	s.flits--
	s.head = false
	// A lane whose producer sleeps through a stream keeps its worm's
	// segment even when a real pop empties it before catchUp refills it.
	if s.flits == 0 && (l.vpush == 0 || l.nseg > 1) {
		*s = segment{}
		if l.first++; l.first == len(l.segs) {
			l.first = 0
		}
		l.nseg--
	}
	l.popped++
	m.stage(&l.credits)
}

// push appends one flit. A body or tail flit extends the back segment when
// that segment's worm is still unfinished: one virtual channel carries one
// worm at a time, so the flit can only belong to it.
func (l *lane) push(m *Mesh, w worm, head, tail bool) {
	if l.segs == nil {
		l.segs = make([]segment, l.cap)
	}
	if l.nseg > 0 && !head {
		if b := l.back(); !b.tail {
			b.flits++
			b.tail = tail
			l.staged++
			m.stage(&l.credits)
			return
		}
	}
	i := l.first + l.nseg
	if i >= len(l.segs) {
		i -= len(l.segs)
	}
	l.segs[i] = segment{worm: w, flits: 1, head: head, tail: tail}
	l.nseg++
	l.staged++
	m.stage(&l.credits)
}

// catchUp applies the virtual stream moves of every cycle before c. A
// sleeping producer only ever streams into a lane that holds nothing but
// its worm, so its pushes extend the back segment; a sleeping consumer
// stops one flit short of the tail, so its pops never empty the front
// segment. Pushes go first so a lane with both sides asleep never dips
// below its steady count.
func (l *lane) catchUp(c uint64) {
	if l.vpush != 0 && c > l.vpush {
		k := int32(c - l.vpush)
		l.back().flits += k
		l.n += k
		l.vpush = c
		l.owner.ready |= 1 << l.port
	}
	if l.vpop != 0 && c > l.vpop {
		k := int32(c - l.vpop)
		s := l.front()
		if s.flits <= k {
			panic("noc: stream drained a lane past its worm's tail")
		}
		s.flits -= k
		s.head = false
		l.n -= k
		l.vpop = c
	}
}
