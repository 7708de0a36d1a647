package sim

import (
	"testing"
)

// TestRunUntilHonorsStop is the regression test for RunUntil ignoring
// Stop(): a component that calls Stop mid-run must end RunUntil at that
// cycle even though the predicate never becomes true.
func TestRunUntilHonorsStop(t *testing.T) {
	k := NewKernel(GHz)
	ticks := 0
	k.Register(TickFunc(func(cycle uint64) {
		ticks++
		if cycle == 7 {
			k.Stop()
		}
	}))
	ok := k.RunUntil(func() bool { return false }, 1000)
	if ok {
		t.Fatal("predicate never true, RunUntil returned true")
	}
	if ticks != 8 {
		t.Fatalf("RunUntil ran %d cycles after Stop at cycle 7, want 8", ticks)
	}
	// A subsequent RunUntil must not see the stale stop flag.
	ok = k.RunUntil(func() bool { return k.Now() >= 20 }, 1000)
	if !ok {
		t.Fatal("second RunUntil saw stale stopped flag")
	}
}

// TestRunResetsStop mirrors the regression for Run: a Stop from a previous
// window must not shorten the next one.
func TestRunResetsStop(t *testing.T) {
	k := NewKernel(GHz)
	k.Register(TickFunc(func(cycle uint64) {
		if cycle == 3 {
			k.Stop()
		}
	}))
	k.Run(100)
	if k.Now() != 4 {
		t.Fatalf("first Run stopped at cycle %d, want 4", k.Now())
	}
	k.Run(100)
	if k.Now() != 104 {
		t.Fatalf("second Run ended at %d, want 104", k.Now())
	}
}

// idleTicker implements Quiescer: it works every `period` cycles and
// records which cycles it was actually ticked at.
type idleTicker struct {
	period uint64
	ticked []uint64
	work   uint64
}

func (i *idleTicker) Tick(cycle uint64) {
	i.ticked = append(i.ticked, cycle)
	if cycle%i.period == 0 {
		i.work++
	}
}

func (i *idleTicker) NextWork(now uint64) (uint64, bool) {
	if now%i.period == 0 {
		return now, false
	}
	return now + (i.period - now%i.period), false
}

// TestFastForwardSkipsIdleCycles checks the jump lands exactly on work
// cycles and that the end state matches a stepped run.
func TestFastForwardSkipsIdleCycles(t *testing.T) {
	k := NewKernel(GHz)
	k.SetFastForward(true)
	it := &idleTicker{period: 10}
	k.Register(it)
	k.Run(100)
	if k.Now() != 100 {
		t.Fatalf("clock at %d after Run(100), want 100", k.Now())
	}
	if it.work != 10 {
		t.Fatalf("work ran %d times, want 10 (cycles 0,10,...,90)", it.work)
	}
	for _, c := range it.ticked {
		if c%10 != 0 {
			t.Fatalf("ticked at idle cycle %d", c)
		}
	}
	if k.SkippedCycles() != 100-uint64(len(it.ticked)) {
		t.Fatalf("SkippedCycles = %d, ticked %d, want them to sum to 100",
			k.SkippedCycles(), len(it.ticked))
	}
}

// TestFastForwardBoundedByEvents checks a scheduled event interrupts an
// otherwise unbounded idle jump.
func TestFastForwardBoundedByEvents(t *testing.T) {
	k := NewKernel(GHz)
	k.SetFastForward(true)
	var tickedAt []uint64
	q := quiescentTicker{onTick: func(c uint64) { tickedAt = append(tickedAt, c) }}
	k.Register(&q)
	fired := uint64(0)
	k.At(500, func() { fired = k.Now() })
	k.Run(1000)
	if fired != 500 {
		t.Fatalf("event fired at %d, want 500", fired)
	}
	if k.Now() != 1000 {
		t.Fatalf("clock at %d, want 1000", k.Now())
	}
	// The fully idle ticker only runs at the event cycle.
	if len(tickedAt) != 1 || tickedAt[0] != 500 {
		t.Fatalf("idle ticker ran at %v, want exactly [500]", tickedAt)
	}
}

// quiescentTicker is always idle.
type quiescentTicker struct {
	onTick func(uint64)
}

func (q *quiescentTicker) Tick(cycle uint64) { q.onTick(cycle) }

func (q *quiescentTicker) NextWork(now uint64) (uint64, bool) { return 0, true }

// TestFastForwardInertWithOpaqueTicker: one Ticker without NextWork makes
// every cycle potentially live, so nothing is skipped.
func TestFastForwardInertWithOpaqueTicker(t *testing.T) {
	k := NewKernel(GHz)
	k.SetFastForward(true)
	n := 0
	k.Register(TickFunc(func(uint64) { n++ }))
	k.Run(64)
	if n != 64 {
		t.Fatalf("opaque ticker ran %d cycles of 64: fast-forward must be inert", n)
	}
	if k.SkippedCycles() != 0 {
		t.Fatalf("SkippedCycles = %d with an opaque ticker, want 0", k.SkippedCycles())
	}
}

// TestRunUntilFastForward: the predicate still terminates the run, and the
// clock lands exactly where stepping would have put it.
func TestRunUntilFastForward(t *testing.T) {
	k := NewKernel(GHz)
	k.SetFastForward(true)
	it := &idleTicker{period: 100}
	k.Register(it)
	ok := k.RunUntil(func() bool { return it.work >= 3 }, 10000)
	if !ok {
		t.Fatal("RunUntil did not satisfy the predicate")
	}
	// work hits 3 when cycle 200 has run; the predicate is checked at the
	// start of the next stepped cycle.
	if it.work != 3 {
		t.Fatalf("work = %d, want 3", it.work)
	}
}
