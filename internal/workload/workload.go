// Package workload generates the synthetic traffic the experiments run:
// minimum-size line-rate streams (Table 2), the paper's multi-tenant
// geodistributed key-value-store mix (§2.2: Zipf-skewed keys, GET/SET mix,
// a WAN share that needs IPSec), and latency-sensitive vs bulk tenant
// blends for the scheduler-isolation experiments (§3.1.3).
//
// All generators implement engine.Source: the Ethernet MAC polls them each
// cycle and paces arrivals onto the NIC at line rate. Generators are
// deterministic from their seed.
package workload

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// Arrival is an inter-arrival time process, in cycles.
type Arrival interface {
	Next(rng *sim.RNG) float64
}

// CBR is a constant bit rate process.
type CBR struct{ Interval float64 }

// Next implements Arrival.
func (c CBR) Next(*sim.RNG) float64 { return c.Interval }

// Poisson is a memoryless process with the given mean inter-arrival.
type Poisson struct{ Mean float64 }

// Next implements Arrival.
func (p Poisson) Next(rng *sim.RNG) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) * p.Mean
}

// IntervalFor returns the inter-arrival time in cycles for frames of the
// given size (plus preamble/IFG overhead) at rateGbps on a clock of
// freqHz.
func IntervalFor(frameBytes int, rateGbps, freqHz float64) float64 {
	wireBits := float64((frameBytes + packet.WireOverheadBytes) * 8)
	bitsPerCycle := rateGbps * 1e9 / freqHz
	return wireBits / bitsPerCycle
}

// base holds common generator state: an arrival clock and a count limit.
type base struct {
	rng     *sim.RNG
	arrival Arrival
	nextAt  float64
	count   uint64
	limit   uint64 // 0 = unlimited
	nextID  uint64
}

func newBase(seed uint64, arrival Arrival, limit uint64) base {
	return base{rng: sim.NewRNG(seed), arrival: arrival, limit: limit}
}

// due reports whether an arrival is pending at now, and consumes it.
func (b *base) due(now uint64) bool {
	if b.limit > 0 && b.count >= b.limit {
		return false
	}
	if float64(now) < b.nextAt {
		return false
	}
	b.nextAt += b.arrival.Next(b.rng)
	if b.nextAt < float64(now) {
		// Long idle gap (or saturating load): don't accumulate an
		// unbounded backlog beyond one frame.
		b.nextAt = float64(now)
	}
	b.count++
	b.nextID++
	return true
}

// Generated returns how many messages the source has produced.
func (b *base) Generated() uint64 { return b.count }

// NextArrival implements engine.ArrivalSource for every generator built on
// base: the first cycle at which due will fire is the first integer cycle
// at or past the arrival clock — exactly ceil(nextAt) — so polling cycles
// a fast-forwarding kernel skips are provably fruitless. ok is false once
// a bounded stream is exhausted.
func (b *base) NextArrival(now uint64) (uint64, bool) {
	if b.limit > 0 && b.count >= b.limit {
		return 0, false
	}
	at := uint64(math.Ceil(b.nextAt))
	if at < now {
		at = now
	}
	return at, true
}

// FixedStream emits fixed-size UDP packets — the minimum-size line-rate
// workload of Table 2.
type FixedStream struct {
	base
	frameBytes int
	tenant     uint16
	class      packet.Class
	dstIP      packet.IP4
}

// FixedStreamConfig parameterizes a FixedStream.
type FixedStreamConfig struct {
	// FrameBytes is the Ethernet frame size (64 = minimum).
	FrameBytes int
	// RateGbps and FreqHz set the arrival rate; Load scales it (1.0 =
	// line rate).
	RateGbps, FreqHz, Load float64
	// Poisson switches from CBR to Poisson arrivals.
	Poisson bool
	// Tenant and Class tag the messages.
	Tenant uint16
	Class  packet.Class
	// Count bounds the stream (0 = unlimited).
	Count uint64
	Seed  uint64
}

// NewFixedStream builds the stream.
func NewFixedStream(cfg FixedStreamConfig) *FixedStream {
	if cfg.FrameBytes < 64 {
		panic(fmt.Sprintf("workload: frame %dB below Ethernet minimum", cfg.FrameBytes))
	}
	if cfg.Load <= 0 {
		cfg.Load = 1
	}
	interval := IntervalFor(cfg.FrameBytes, cfg.RateGbps*cfg.Load, cfg.FreqHz)
	var arr Arrival = CBR{Interval: interval}
	if cfg.Poisson {
		arr = Poisson{Mean: interval}
	}
	return &FixedStream{
		base:       newBase(cfg.Seed, arr, cfg.Count),
		frameBytes: cfg.FrameBytes,
		tenant:     cfg.Tenant,
		class:      cfg.Class,
		dstIP:      packet.IP4{10, 0, 0, 2},
	}
}

// Poll implements engine.Source.
func (s *FixedStream) Poll(now uint64) *packet.Message {
	if !s.due(now) {
		return nil
	}
	hdrs := 14 + 20 + 8
	payload := s.frameBytes - hdrs
	if payload < 0 {
		payload = 0
	}
	eth := packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4}
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP4{10, 0, 0, 1}, Dst: s.dstIP}
	udp := packet.UDP{SrcPort: uint16(4000 + s.tenant), DstPort: 9}
	return &packet.Message{
		ID:     s.nextID,
		Tenant: s.tenant,
		Class:  s.class,
		Pkt:    packet.NewPacket(payload, &eth, &ip, &udp),
	}
}
