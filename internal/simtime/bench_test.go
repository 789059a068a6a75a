package simtime

import "testing"

// BenchmarkSleepWake measures one Sleep/wake round trip of a single proc:
// the engine schedules the proc's intrusive wake event, switches to the
// proc's coroutine, and the proc switches back. Steady state must be 0 allocs/op — the
// wake event is pre-allocated in the Proc and the heap slot is recycled.
func BenchmarkSleepWake(b *testing.B) {
	eng := NewEngine()
	n := b.N
	eng.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkTimer measures a self-rescheduling Timer callback: the pure
// engine-loop path with no proc switch at all. 0 allocs/op.
func BenchmarkTimer(b *testing.B) {
	eng := NewEngine()
	n := b.N
	var t *Timer
	t = eng.NewTimer(func() {
		if n--; n > 0 {
			t.ScheduleAfter(1)
		}
	})
	t.ScheduleAfter(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkAfter measures closure-scheduled events through the engine's
// event free list: the event object is pooled, the closure is the only
// allocation (1 alloc/op).
func BenchmarkAfter(b *testing.B) {
	eng := NewEngine()
	n := b.N
	var step func()
	step = func() {
		if n--; n > 0 {
			eng.After(1, step)
		}
	}
	eng.After(1, step)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkQueueCallback measures the OnNext fast path: a producer timer
// puts an item, the armed callback consumes it inline and re-arms. This is
// the pattern the RNIC pipelines run per packet. 0 allocs/op.
func BenchmarkQueueCallback(b *testing.B) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	n := b.N
	var tick *Timer
	var onItem func(int)
	onItem = func(int) {
		if n--; n > 0 {
			q.OnNext(onItem)
			tick.ScheduleAfter(1)
		}
	}
	tick = eng.NewTimer(func() { q.Put(1) })
	q.OnNext(onItem)
	tick.ScheduleAfter(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkQueueProcPingPong measures the blocking path: a producer proc
// and a consumer proc alternating Put/Get, so every Get parks the consumer
// and every Put wakes it through the pooled waiter records. 0 allocs/op in
// steady state.
func BenchmarkQueueProcPingPong(b *testing.B) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	n := b.N
	eng.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	eng.Spawn("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Get(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkResource measures Acquire/Release handoff between two procs
// contending for a capacity-1 resource (the firmware-serialization
// pattern). Waiter records are pooled; 0 allocs/op in steady state.
func BenchmarkResource(b *testing.B) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	n := b.N
	worker := func(p *Proc) {
		for i := 0; i < n/2; i++ {
			r.Acquire(p)
			p.Sleep(1)
			r.Release()
		}
	}
	eng.Spawn("w1", worker)
	eng.Spawn("w2", worker)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEventHeap measures raw push/pop through the 4-ary event heap
// with a K-deep backlog, the core O(log n) cost of every event.
func BenchmarkEventHeap(b *testing.B) {
	eng := NewEngine()
	const depth = 1024
	n := b.N
	fn := func() {}
	// Seed a standing backlog so push/pop exercise real heap depth.
	for i := 0; i < depth; i++ {
		eng.After(Duration(1+(i*7919)%4096), fn)
	}
	var t *Timer
	t = eng.NewTimer(func() {
		if n--; n > 0 {
			t.ScheduleAfter(Duration(1 + (n*7919)%4096))
		}
	})
	t.ScheduleAfter(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkGateContended measures a standing herd on a controller-shard
// style slot: 64 waiters park, then a holder extends the deadline b.N
// times, each extension landing before the waiters' turn, so every op
// sends the whole herd round once more. "gate" is Gate, where a round is
// one event and a re-park is a slice append; "resleep" is the reference
// loop it replaced, where every waiter wakes and sleeps again.
func BenchmarkGateContended(b *testing.B) {
	const waiters = 64
	for _, bc := range []struct {
		name string
		mk   func(*Engine) slot
	}{{"gate", newGateSlot}, {"resleep", newResleepSlot}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := NewEngine()
			s := bc.mk(eng)
			n := b.N
			eng.Spawn("holder", func(p *Proc) {
				for i := 0; i < n; i++ {
					s.Wait(p)
					s.Hold(p.Now().Add(1))
					p.Sleep(1)
				}
			})
			for i := 0; i < waiters; i++ {
				eng.Spawn("waiter", func(p *Proc) { s.Wait(p) })
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
			b.ReportMetric(float64(eng.Events())/float64(n), "events/op")
		})
	}
}
