package noc

// Closed-form streams. Once a worm's head has ejected at its destination,
// every router it still crosses holds its output for it alone, so with one
// virtual channel and healthy links the rest of the worm moves like a
// conveyor: each such router forwards exactly one of its flits per cycle
// until the tail, and each lane between two of them keeps a constant
// count. The routers sleep through that and wake at the cycle their tail
// crosses, computed from the lane counts the moment the stream starts.
//
// The conditions, checked after the commit of each cycle in which the
// destination ejects a flit of a worm not yet streaming (so a worm that
// was compressed behind a blocked head joins once its lanes relax),
// walking from the destination back along the holders:
//
//   - every lane the worm's producer still streams into holds 1 to
//     BufferDepth-1 of its flits and nothing else (never empty, so the
//     consumer can pop every cycle; never full, so the producer's credit
//     never lapses);
//   - the most upstream lane holds the tail (or the source injector still
//     serializes the worm), so nothing behind it depends on the stream;
//   - no output on the way carries a link fault.
//
// Sleeping routers move flits only in the books: router counters (flit
// hops, injector progress) are settled from vfrom when the router wakes
// and at every SyncTo; lane occupancy from the lane's vpop/vpush
// (lane.catchUp) when the router wakes, a neighbor touches the lane, or
// the audit reads it. A router that wakes for other traffic moves its
// stream flits for real and may sleep again; a fault change or a kernel
// leaving event mode ends every stream.

// streamHop is one router on a stream: the input the worm enters by, the
// output it holds, and the worm's flits waiting in that input (for the
// source, the flits the injector has yet to send).
type streamHop struct {
	r       *router
	in, out int
	flits   uint64
}

// endStream clears the stream through output o as its tail leaves input p.
func (r *router) endStream(o, p int) {
	r.outTail[o], r.inStream[p] = 0, false
	r.m.streams--
	r.tailWake = 0
	for _, t := range r.outTail {
		if t != 0 && (r.tailWake == 0 || t < r.tailWake) {
			r.tailWake = t
		}
	}
}

// startStream tries to start a stream for the worm dst is reassembling,
// after the commit of the given cycle.
func (m *Mesh) startStream(dst *router, cycle uint64) {
	if dst.outTail[portLocal] != 0 || dst.holder[portLocal] < 0 {
		return
	}
	depth := int32(m.cfg.BufferDepth)
	path := m.path[:0]
	r, in, out := dst, dst.holder[portLocal], portLocal
	for {
		if !r.linkFault[out].Clean() || r.outTail[out] != 0 {
			return
		}
		if in == portLocal {
			l := &r.inj[0]
			if !l.valid {
				return
			}
			path = append(path, streamHop{r, in, out, uint64(l.cur.flits - l.sent)})
			break
		}
		l := r.lane(in, 0)
		if l.n == 0 || l.vpush != 0 || l.vpop != 0 {
			return
		}
		s := l.front()
		path = append(path, streamHop{r, in, out, uint64(s.flits)})
		if s.tail {
			break
		}
		if l.nseg != 1 || s.flits >= depth {
			return
		}
		up := r.neighbor[in]
		out = oppositePort[in]
		r, in = up, up.holder[out]
		if in < 0 {
			return
		}
	}
	m.path = path
	// Each router's tail crosses its output once the flits ahead of it in
	// its own lane, and everything upstream, have gone: tails are the
	// running sums from the most upstream hop down.
	tail := cycle
	for i := len(path) - 1; i >= 0; i-- {
		tail += path[i].flits
	}
	if tail <= cycle+1 {
		return // the tail ejects next cycle: nothing to sleep through
	}
	tail = cycle
	for i := len(path) - 1; i >= 0; i-- {
		h := &path[i]
		tail += h.flits
		if h.r.vfrom != 0 {
			// Already asleep through other streams: settle them before
			// this one joins.
			h.r.account(cycle + 1)
		}
		h.r.outTail[h.out] = tail
		h.r.inStream[h.in] = true
		// Moving the worm's flits this cycle kept the router busy; from
		// now on the stream moves them.
		h.r.busy &^= 1 << h.out
		if h.r.tailWake == 0 || tail < h.r.tailWake {
			h.r.tailWake = tail
		}
		m.streams++
		m.extra = append(m.extra, h.r)
	}
}

// sleep puts a router to sleep through its streams from cycle c on: its
// stream lanes start moving in the books.
func (r *router) sleep(c uint64) {
	if r.vfrom == 0 {
		r.vfrom = c
	}
	if !r.inVirt {
		r.inVirt = true
		r.m.virt = append(r.m.virt, r)
	}
	for o, t := range r.outTail {
		if t == 0 {
			continue
		}
		if o != portLocal {
			if l := r.neighbor[o].lane(oppositePort[o], 0); l.vpush == 0 {
				l.vpush = c
			}
		}
		if p := r.holder[o]; p != portLocal {
			if l := r.lane(p, 0); l.vpop == 0 {
				l.vpop = c
			}
		}
	}
}

// account settles the router counters of every stream move before cycle c.
func (r *router) account(c uint64) {
	if c <= r.vfrom {
		return
	}
	k := c - r.vfrom
	for o, t := range r.outTail {
		if t == 0 {
			continue
		}
		if o != portLocal {
			r.stats.flitHops += k
		}
		if r.holder[o] == portLocal {
			r.inj[0].sent += int(k)
		}
	}
	r.vfrom = c
}

// settle brings a sleeping router's counters and stream lanes current
// through cycle c-1; it keeps sleeping.
func (r *router) settle(c uint64) {
	r.account(c)
	for o, t := range r.outTail {
		if t == 0 {
			continue
		}
		if o != portLocal {
			r.neighbor[o].lane(oppositePort[o], 0).catchUp(c)
		}
		if p := r.holder[o]; p != portLocal {
			r.lane(p, 0).catchUp(c)
		}
	}
}

// rouse wakes a sleeping router at cycle c: its moves before c are
// settled and its stream lanes go back to real pushes and pops.
func (r *router) rouse(c uint64) {
	r.settle(c)
	for o, t := range r.outTail {
		if t == 0 {
			continue
		}
		if o != portLocal {
			r.neighbor[o].lane(oppositePort[o], 0).vpush = 0
		}
		if p := r.holder[o]; p != portLocal {
			r.lane(p, 0).vpop = 0
		}
	}
	r.vfrom = 0
}

// dropStreams ends every stream: sleeping routers settle through cycle
// c-1, and every router that carried a stream is poked so it steps flit
// by flit from cycle c.
func (m *Mesh) dropStreams(c uint64) {
	if m.streams == 0 {
		return
	}
	for _, r := range m.virt {
		if r.vfrom != 0 {
			r.rouse(c)
		}
		r.inVirt = false
	}
	m.virt = m.virt[:0]
	for _, r := range m.routers {
		if r.tailWake != 0 {
			r.outTail, r.inStream, r.tailWake = [numPorts]uint64{}, [numPorts]bool{}, 0
			r.poke()
		}
	}
	m.streams = 0
	m.selfPoke.Poke()
}
