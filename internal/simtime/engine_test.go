package simtime

import (
	"fmt"
	"testing"

	"masq/internal/quickcheck"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5µs", woke)
	}
}

func TestSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var ts []Time
	e.Spawn("s", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Millisecond)
			ts = append(ts, p.Now())
		}
	})
	e.Run()
	want := []Time{Time(Millisecond), Time(2 * Millisecond), Time(3 * Millisecond)}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("ts[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(2 * Microsecond)
				order = append(order, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(3 * Microsecond)
				order = append(order, "b")
			}
		})
		e.Run()
		return order
	}
	first := run()
	// t=2,3,4,6,6; at t=6 b wakes first because its wakeup was scheduled
	// earlier (at t=3) than a's (at t=4).
	want := []string{"a", "b", "a", "b", "a"}
	if len(first) != len(want) {
		t.Fatalf("order = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: nondeterministic order %v", trial, got)
			}
		}
	}
}

func TestAtCallbacksRunInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 0) })
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(Time(Second), func() { fired = true })
	end := e.RunUntil(Time(Millisecond))
	if fired {
		t.Fatal("event past deadline fired")
	}
	if end != Time(Millisecond) {
		t.Fatalf("end = %v, want 1ms", end)
	}
	e.Run()
	if !fired {
		t.Fatal("event did not fire after resuming")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			n++
			if n == 10 {
				e.Stop()
				return
			}
		}
	})
	e.Run()
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
}

func TestEventTriggerWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	ev := NewEvent[int](e)
	var got []int
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) { got = append(got, ev.Wait(p)) })
	}
	e.Spawn("t", func(p *Proc) {
		p.Sleep(Microsecond)
		ev.Trigger(42)
	})
	e.Run()
	if len(got) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(got))
	}
	for _, v := range got {
		if v != 42 {
			t.Fatalf("got %v", got)
		}
	}
}

func TestEventIsSticky(t *testing.T) {
	e := NewEngine()
	ev := NewEvent[string](e)
	ev.Trigger("x")
	ev.Trigger("y") // ignored
	var got string
	var at Time
	e.Spawn("late", func(p *Proc) {
		p.Sleep(Millisecond)
		got = ev.Wait(p)
		at = p.Now()
	})
	e.Run()
	if got != "x" {
		t.Fatalf("got %q, want x (second trigger must be ignored)", got)
	}
	if at != Time(Millisecond) {
		t.Fatalf("late waiter blocked; woke at %v", at)
	}
}

func TestEventWaitTimeout(t *testing.T) {
	e := NewEngine()
	ev := NewEvent[int](e)
	var ok1, ok2 bool
	var t1, t2 Time
	e.Spawn("timesout", func(p *Proc) {
		_, ok1 = ev.WaitTimeout(p, 10*Microsecond)
		t1 = p.Now()
	})
	e.Spawn("succeeds", func(p *Proc) {
		_, ok2 = ev.WaitTimeout(p, 100*Microsecond)
		t2 = p.Now()
	})
	e.Spawn("trigger", func(p *Proc) {
		p.Sleep(50 * Microsecond)
		ev.Trigger(1)
	})
	e.Run()
	if ok1 || t1 != Time(10*Microsecond) {
		t.Fatalf("waiter 1: ok=%v at %v, want timeout at 10µs", ok1, t1)
	}
	if !ok2 || t2 != Time(50*Microsecond) {
		t.Fatalf("waiter 2: ok=%v at %v, want success at 50µs", ok2, t2)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microsecond)
			q.Put(i)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestQueueBuffersWhenNoWaiter(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	q.Put("a")
	q.Put("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != "a" {
		t.Fatalf("TryGet = %q, %v", v, ok)
	}
	var second string
	e.Spawn("c", func(p *Proc) { second = q.Get(p) })
	e.Run()
	if second != "b" {
		t.Fatalf("second = %q", second)
	}
}

// TestQueueCallbackDelivery: a Put that finds the queue empty, a callback
// armed and no delivery pending calls the callback before returning and
// dispatches no event; a backlog, or a Put while a delivery is pending,
// goes through the delivery event; and a callback that puts back into its
// own queue sees items in the order they were put.
func TestQueueCallbackDelivery(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		e := NewEngine()
		q := NewQueue[int](e)
		var got []int
		q.OnNext(func(v int) { got = append(got, v) })
		q.Put(7)
		if len(got) != 1 || got[0] != 7 {
			t.Fatalf("after Put: callback got %v, want [7] before Put returns", got)
		}
		q.Put(8) // the callback is consumed: 8 waits in the queue
		e.Run()
		if e.Events() != 0 || q.Len() != 1 || len(got) != 1 {
			t.Fatalf("events=%d len=%d got=%v, want 0 events, 8 queued, [7]", e.Events(), q.Len(), got)
		}
	})
	for _, tc := range []struct {
		name    string
		backlog []int // put before the callback is armed
		tryGet  bool  // take one item back after arming, leaving the delivery pending
		puts    []int // put after arming
		want    []int
	}{
		{"backlog", []int{1, 2}, false, []int{3}, []int{1, 2, 3}},
		{"pending-after-tryget", []int{1}, true, []int{2, 3}, []int{2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			q := NewQueue[int](e)
			for _, v := range tc.backlog {
				q.Put(v)
			}
			var got []int
			var cb func(int)
			cb = func(v int) {
				got = append(got, v)
				q.OnNext(cb)
			}
			q.OnNext(cb) // the backlog schedules the delivery event
			if tc.tryGet {
				q.TryGet()
			}
			for _, v := range tc.puts {
				q.Put(v)
			}
			if len(got) != 0 {
				t.Fatalf("callback ran inside Put (%v) while a delivery was pending", got)
			}
			e.Run()
			if fmt.Sprint(got) != fmt.Sprint(tc.want) || e.Events() == 0 {
				t.Fatalf("got %v in %d events, want %v through delivery events", got, e.Events(), tc.want)
			}
		})
	}
	for _, rearmFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("self-put/rearm-first=%v", rearmFirst), func(t *testing.T) {
			e := NewEngine()
			q := NewQueue[int](e)
			var put, got []int
			putQ := func(v int) {
				put = append(put, v)
				q.Put(v)
			}
			var cb func(int)
			cb = func(v int) {
				got = append(got, v)
				if rearmFirst {
					q.OnNext(cb)
				}
				if v < 20 {
					putQ(2*v + 1)
					putQ(2*v + 2)
				}
				if !rearmFirst {
					if next, ok := q.TryGet(); ok {
						cb(next)
						return
					}
					q.OnNext(cb)
				}
			}
			q.OnNext(cb)
			e.At(0, func() { putQ(0) })
			e.Run()
			if len(got) != 41 || fmt.Sprint(got) != fmt.Sprint(put) {
				t.Fatalf("delivered %v\nput       %v", got, put)
			}
		})
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var ok bool
	var at Time
	e.Spawn("c", func(p *Proc) {
		_, ok = q.GetTimeout(p, 7*Microsecond)
		at = p.Now()
	})
	e.Run()
	if ok || at != Time(7*Microsecond) {
		t.Fatalf("ok=%v at=%v", ok, at)
	}
	// A timed-out waiter must not swallow a later Put.
	var got int
	e.Spawn("c2", func(p *Proc) { got = q.Get(p) })
	e.Spawn("p", func(p *Proc) { q.Put(99) })
	e.Run()
	if got != 99 {
		t.Fatalf("got %d, want 99", got)
	}
}

func TestResourceSerializesAccess(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Microsecond)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	if len(finish) != 3 {
		t.Fatalf("finish = %v", finish)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Microsecond)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	// Two run in [0,10], two in [10,20].
	want := []Time{Time(10 * Microsecond), Time(10 * Microsecond), Time(20 * Microsecond), Time(20 * Microsecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Microsecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(Microsecond)
			childAt = c.Now()
		})
		p.Sleep(10 * Microsecond)
	})
	e.Run()
	if childAt != Time(2*Microsecond) {
		t.Fatalf("child finished at %v, want 2µs", childAt)
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		500 * Nanosecond: "500ns",
		2 * Microsecond:  "2µs",
		Ms(1.5):          "1.5ms",
		3 * Second:       "3s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestUsMsHelpers(t *testing.T) {
	if Us(2.5) != 2500*Nanosecond {
		t.Errorf("Us(2.5) = %v", Us(2.5))
	}
	if Ms(0.5) != 500*Microsecond {
		t.Errorf("Ms(0.5) = %v", Ms(0.5))
	}
	if Us(1).Micros() != 1 {
		t.Errorf("Micros() = %v", Us(1).Micros())
	}
	if Ms(1).Millis() != 1 {
		t.Errorf("Millis() = %v", Ms(1).Millis())
	}
	if Second.Seconds() != 1 {
		t.Errorf("Seconds() = %v", Second.Seconds())
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	if t0.Add(50) != Time(150) {
		t.Error("Add")
	}
	if Time(150).Sub(t0) != 50 {
		t.Error("Sub")
	}
}

func TestPendingProcsReportsBlocked(t *testing.T) {
	e := NewEngine()
	ev := NewEvent[int](e)
	e.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	e.Run() // drains: stuck is blocked forever, queue empties
	got := e.PendingProcs()
	if len(got) != 1 || got[0] != "stuck" {
		t.Fatalf("PendingProcs = %v", got)
	}
}

// TestQuickScheduleOrdering: for any random set of sleep schedules, every
// process observes Now() as non-decreasing and wakeups never fire early.
func TestQuickScheduleOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		e := NewEngine()
		ok := true
		var last Time
		for _, d := range delays {
			d := Duration(d%5000) * Microsecond
			e.Spawn("s", func(p *Proc) {
				start := p.Now()
				p.Sleep(d)
				if p.Now() < start.Add(d) {
					ok = false // woke early
				}
			})
		}
		e.At(0, func() { last = e.Now() })
		prev := Time(-1)
		for i := 0; i < 16; i++ {
			at := Time(Duration(i) * 100 * Microsecond)
			e.At(at, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			})
		}
		e.Run()
		_ = last
		return ok
	}
	quickcheck.Check(t, f, 50)
}

// TestQueueOrderPreservedUnderMixedOps: random interleavings of puts and
// gets preserve FIFO order.
func TestQueueOrderPreservedUnderMixedOps(t *testing.T) {
	f := func(script []bool) bool {
		e := NewEngine()
		q := NewQueue[int](e)
		var got []int
		want := 0
		e.Spawn("driver", func(p *Proc) {
			next := 0
			for _, put := range script {
				if put {
					q.Put(next)
					next++
					want++
				} else if v, ok := q.TryGet(); ok {
					got = append(got, v)
				}
				p.Sleep(Microsecond)
			}
			for {
				v, ok := q.TryGet()
				if !ok {
					break
				}
				got = append(got, v)
			}
		})
		e.Run()
		if len(got) != want {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	quickcheck.Check(t, f, 100)
}
