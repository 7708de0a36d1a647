package sched

import (
	"testing"
)

// BenchmarkQueue measures the served path — push then pop at a steady
// occupancy of 128 — with LSTF-shaped ranks (clustered around the
// advancing cycle).
func BenchmarkQueue(b *testing.B) {
	b.ReportAllocs()
	q := NewQueue(256, Backpressure)
	msg := bulkMsg(1)
	for i := 0; i < 128; i++ {
		q.Push(msg, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(msg, uint64(128+i%512))
		q.Pop()
	}
}
