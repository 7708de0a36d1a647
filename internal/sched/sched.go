// Package sched implements PANIC's logical scheduler (§3.1.3): the
// per-engine priority queues that order competing messages by the slack
// values the heavyweight RMT pipeline computed and stamped into the chain
// header.
//
// Each queue is a PIFO (push-in-first-out) priority queue: an arriving
// message is inserted at the position given by its rank and the head is
// always the minimum rank, which is sufficient to express arbitrary
// scheduling algorithms (the paper cites Universal Packet Scheduling and
// the PIFO line of work). Rank = arrival + slack implements
// least-slack-time-first; rank = arrival implements FIFO; rank = class
// implements strict priority. The PIFO is an ordering contract, not a
// data structure: the queue is a binary min-heap on (rank, seq), O(log n)
// per push and pop. Hardware PIFOs make that decision in constant time;
// in the simulator the loaded workloads keep a dozen or so messages per
// queue, where a heap costs a few comparisons and no per-queue bucket
// arrays.
//
// Admission is a policy decision the paper leaves open (§6): Backpressure
// never drops (the queue fills and the fabric stalls — lossless), while
// DropLowestPriority sheds the worst-ranked droppable message on overflow,
// never dropping messages marked lossless (descriptor DMA and other
// control traffic).
//
// Scheduling decisions are observable through internal/trace: the owning
// tile records the rank and queue depth at every accepted push (enqueue
// spans), the depth and slack at every pop (queue-wait spans), and each
// overflow eviction (drop spans), so a trace shows exactly how the PIFO
// ordered competing messages.
package sched

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// Policy is a queue's overflow behaviour.
type Policy int

// Policies.
const (
	// Backpressure rejects pushes when full; the caller must stall
	// (lossless forwarding).
	Backpressure Policy = iota
	// DropLowestPriority accepts the push if the incoming message ranks
	// better than the worst droppable occupant, which is then dropped.
	// Messages for which Lossless() is true are never dropped.
	DropLowestPriority
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case DropLowestPriority:
		return "drop-lowest-priority"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PushResult reports what a Push did.
type PushResult struct {
	// Accepted is false when the message was refused (Backpressure and
	// full, or lossy and it ranked worse than everything present).
	Accepted bool
	// Dropped is the message evicted to make room, if any.
	Dropped *packet.Message
}

// Queue is one engine's scheduling queue: a binary min-heap of entries
// ordered by (rank, seq), so lower rank is served first and equal ranks
// are served in push order.
type Queue struct {
	h      eheap
	cap    int
	policy Policy
	seq    uint64

	// Stats. evicted counts resident messages removed by lossy overflow
	// (the Dropped result of a winning push); self-drops shed before
	// insertion count only in drops. Len == pushed − popped − evicted is
	// the queue's conservation invariant (see Audit).
	pushed, popped, drops, rejects uint64
	evicted                        uint64
	highWater                      int
}

// NewQueue builds a queue with the given capacity and overflow policy.
func NewQueue(capacity int, policy Policy) *Queue {
	if capacity < 1 {
		panic(fmt.Sprintf("sched: queue capacity %d", capacity))
	}
	return &Queue{cap: capacity, policy: policy}
}

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.h) }

// Cap returns the capacity.
func (q *Queue) Cap() int { return q.cap }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return len(q.h) >= q.cap }

// Push inserts a message with the given rank (lower = served sooner).
// Equal ranks are served in arrival order.
func (q *Queue) Push(msg *packet.Message, rank uint64) PushResult {
	if !q.Full() {
		q.seq++
		q.h.push(entry{msg: msg, rank: rank, seq: q.seq})
		q.pushed++
		if n := len(q.h); n > q.highWater {
			q.highWater = n
		}
		return PushResult{Accepted: true}
	}
	if q.policy == Backpressure {
		q.rejects++
		return PushResult{}
	}
	// Lossy: evict the worst droppable occupant if the newcomer beats it.
	i := q.worstDroppable()
	if i < 0 {
		// Everything resident is lossless; the newcomer itself is shed
		// unless it is lossless too, in which case the push is refused
		// and the caller must stall.
		if msg.Lossless() {
			q.rejects++
			return PushResult{}
		}
		q.drops++
		return PushResult{Accepted: true, Dropped: msg}
	}
	w := q.h[i]
	newcomerLoses := rank > w.rank || (rank == w.rank && !msg.Lossless())
	if newcomerLoses && !msg.Lossless() {
		q.drops++
		return PushResult{Accepted: true, Dropped: msg}
	}
	q.h.removeAt(i)
	q.seq++
	q.h.push(entry{msg: msg, rank: rank, seq: q.seq})
	q.pushed++
	q.drops++
	q.evicted++
	return PushResult{Accepted: true, Dropped: w.msg}
}

// worstDroppable returns the index of the entry the lossy overflow policy
// evicts: maximum rank, ties to the largest seq (youngest, so older traffic
// survives), never a lossless message; -1 if every resident is lossless.
// O(n), but it runs only on overflow of a DropLowestPriority queue, not on
// the served path.
func (q *Queue) worstDroppable() int {
	worst := -1
	for i, e := range q.h {
		if !e.msg.Lossless() && (worst < 0 || eless(q.h[worst], e)) {
			worst = i
		}
	}
	return worst
}

// Peek returns the best-ranked message without removing it.
func (q *Queue) Peek() (*packet.Message, bool) {
	if len(q.h) == 0 {
		return nil, false
	}
	return q.h[0].msg, true
}

// PeekRank returns the best rank present.
func (q *Queue) PeekRank() (uint64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].rank, true
}

// Pop removes and returns the best-ranked message.
func (q *Queue) Pop() (*packet.Message, bool) {
	if len(q.h) == 0 {
		return nil, false
	}
	q.popped++
	return q.h.pop().msg, true
}

// Stats returns (pushed, popped, dropped, rejected, high-water mark).
func (q *Queue) Stats() (pushed, popped, drops, rejects uint64, highWater int) {
	return q.pushed, q.popped, q.drops, q.rejects, q.highWater
}

// Evicted returns how many resident messages lossy overflow removed.
func (q *Queue) Evicted() uint64 { return q.evicted }

// Each visits every resident message with its rank, in unspecified order.
// It exists for occupancy audits (per-tenant conservation); scheduling
// order comes only from Pop.
func (q *Queue) Each(fn func(msg *packet.Message, rank uint64)) {
	for _, e := range q.h {
		fn(e.msg, e.rank)
	}
}

// Audit checks the queue's internal conservation, bound and ordering
// invariants: occupancy equals pushed − popped − evicted, occupancy and the
// high-water mark never exceed capacity, and no entry's (rank, seq) is
// below its heap parent's. It returns the first violation found.
func (q *Queue) Audit() error {
	n := uint64(len(q.h))
	if want := q.pushed - q.popped - q.evicted; n != want {
		return fmt.Errorf("sched: occupancy %d != pushed %d - popped %d - evicted %d",
			n, q.pushed, q.popped, q.evicted)
	}
	if n > uint64(q.cap) {
		return fmt.Errorf("sched: occupancy %d exceeds capacity %d", n, q.cap)
	}
	if q.highWater > q.cap {
		return fmt.Errorf("sched: high-water %d exceeds capacity %d", q.highWater, q.cap)
	}
	// A broken heap order would silently corrupt scheduling order.
	for i := 1; i < len(q.h); i++ {
		if p := (i - 1) / 2; eless(q.h[i], q.h[p]) {
			return fmt.Errorf("sched: heap order: entry %d (rank %d, seq %d) below its parent %d (rank %d, seq %d)",
				i, q.h[i].rank, q.h[i].seq, p, q.h[p].rank, q.h[p].seq)
		}
	}
	return nil
}

type entry struct {
	msg  *packet.Message
	rank uint64
	seq  uint64
}

// eheap is a binary min-heap of entries ordered by (rank, seq), written
// against the concrete type so pushes do not box through interface{} the
// way container/heap does, keeping the served path allocation-free once
// the backing array has grown to the queue's high-water mark.
type eheap []entry

func eless(a, b entry) bool {
	return a.rank < b.rank || (a.rank == b.rank && a.seq < b.seq)
}

func (h *eheap) push(e entry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h eheap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !eless(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h eheap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eless(h[r], h[l]) {
			m = r
		}
		if !eless(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *eheap) pop() entry {
	old := *h
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	old[n] = entry{} // drop the message reference
	*h = old[:n]
	if n > 0 {
		old[:n].down(0)
	}
	return e
}

func (h *eheap) removeAt(i int) {
	old := *h
	n := len(old) - 1
	old[i] = old[n]
	old[n] = entry{}
	*h = old[:n]
	if i < n {
		old[:n].down(i)
		old[:n].up(i)
	}
}
