package noc

import "fmt"

// This file is the mesh's contribution to the runtime invariant monitor
// (internal/invariant): custody accounting over the occupancy counters
// that already drive fast-forward quiescence, cross-checked against the
// actual buffer occupancy of every router. The audits change no model
// state (they only bring the lazily kept books of sleeping streams
// current) and are meant to run at the kernel's end-of-cycle barrier,
// when all staged lane and queue state is committed.

// InFlight returns the number of messages currently inside the fabric:
// injected by a tile but not yet handed back out of TryEject. It is the
// same quantity the fast-forward quiescence check gates on.
func (m *Mesh) InFlight() uint64 {
	in, out := m.OccCounts()
	return in - out
}

// OccCounts returns the lifetime totals of messages injected into and
// ejected from the mesh. They are never reset, so the boundary
// cross-check "every tile emission is a mesh injection" holds over whole
// runs: sum of tile Emitted counters == in, sum of tile Ejected counters
// == out.
func (m *Mesh) OccCounts() (in, out uint64) {
	for _, r := range m.routers {
		in += r.stats.occIn
		out += r.stats.occOut
	}
	return in, out
}

// AuditConservation checks message custody inside the fabric and returns
// the first violation found:
//
//   - occIn >= occOut globally (a message cannot leave before it entered);
//   - per router, delivered − occOut == eject-queue occupancy (every
//     assembled message is either parked awaiting its tile or already
//     ejected) — skipped after ResetStats, which zeroes delivered;
//   - in-flight >= the whole messages visibly buffered (injection queues,
//     partial reassemblies, eject queues) — the remainder is flits in
//     transit. A message mid-serialization at its source lane is not
//     counted: its head flit is already in the network and may already
//     occupy the destination's assembly slot, so counting the source lane
//     too would double-count it;
//   - every worm lane holds at most BufferDepth flits, exactly the sum of
//     its segments' flits, with no segment empty;
//   - in-flight == 0 implies every lane is empty and no injector is
//     mid-serialization.
//
// Call it only between cycles (e.g. from sim.Kernel.ObserveCycleEnd, after
// the kernel's SyncAllAt); mid-cycle the staged occupancy makes the counts
// undefined. Lanes of routers sleeping through streams are first settled
// through the cycle of the last SyncTo.
func (m *Mesh) AuditConservation() error {
	for _, r := range m.virt {
		if r.vfrom != 0 {
			r.settle(m.synced)
		}
	}
	var in, out, buffered uint64
	for _, r := range m.routers {
		in += r.stats.occIn
		out += r.stats.occOut
		ej := uint64(r.ej.length())
		if !m.statsReset && r.stats.delivered-r.stats.occOut != ej {
			return fmt.Errorf("noc: router %d delivered %d - ejected %d != eject queue occupancy %d",
				r.id, r.stats.delivered, r.stats.occOut, ej)
		}
		buffered += ej
		for v := range r.inj {
			buffered += uint64(r.inj[v].q.length())
		}
		for v := range r.assembly {
			if r.assembly[v].msg != nil {
				buffered++
			}
		}
		for p := portNorth; p < numPorts; p++ {
			for v := 0; v < r.vcs; v++ {
				if err := r.lane(p, v).audit(m.cfg.BufferDepth); err != nil {
					return fmt.Errorf("noc: router %d port %d vc %d: %w", r.id, p, v, err)
				}
			}
		}
	}
	if in < out {
		return fmt.Errorf("noc: ejected %d messages but only %d were injected", out, in)
	}
	inFlight := in - out
	if inFlight < buffered {
		return fmt.Errorf("noc: in-flight %d < visibly buffered %d (occupancy counters undercount)",
			inFlight, buffered)
	}
	if inFlight == 0 {
		for _, r := range m.routers {
			for i := range r.in {
				if l := &r.in[i]; l.n != 0 || l.nseg != 0 {
					return fmt.Errorf("noc: router %d holds %d flits while mesh reports empty", r.id, l.n)
				}
			}
			for v := range r.inj {
				if r.inj[v].valid {
					return fmt.Errorf("noc: router %d injector mid-message while mesh reports empty", r.id)
				}
			}
		}
	}
	return nil
}

// audit checks one lane's books: its flit count within the buffer depth
// and equal to the flits its segments hold, every segment non-empty.
func (l *lane) audit(depth int) error {
	n := l.n + l.staged - l.popped
	if n > int32(depth) {
		return fmt.Errorf("lane holds %d flits, buffer depth %d", n, depth)
	}
	sum := int32(0)
	for i := 0; i < l.nseg; i++ {
		s := &l.segs[(l.first+i)%len(l.segs)]
		if s.flits < 1 {
			return fmt.Errorf("lane segment %d holds %d flits", i, s.flits)
		}
		sum += s.flits
	}
	if sum != n {
		return fmt.Errorf("lane counts %d flits but its segments hold %d", n, sum)
	}
	return nil
}

// NodeLinkFaulted reports whether any mesh link adjacent to n — incoming
// or outgoing, any direction — carries an injected fault. The health
// control plane reads it as a fabric health register when vetting
// failover targets: a replica behind a severed or degraded link is not a
// safe reroute destination even when the tile itself is healthy.
func (m *Mesh) NodeLinkFaulted(n NodeID) bool {
	r := m.node("NodeLinkFaulted", n)
	for p := portNorth; p < numPorts; p++ {
		nb := r.neighbor[p]
		if nb == nil {
			continue
		}
		if !r.linkFault[p].Clean() {
			return true
		}
		if !nb.linkFault[m.portToward(nb.id, n)].Clean() {
			return true
		}
	}
	return false
}
