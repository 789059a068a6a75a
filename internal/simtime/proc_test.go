package simtime

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesAtMost returns the goroutine count once it is at most limit,
// giving it up to 100 ms: Close frees proc coroutines synchronously, but
// the runtime may briefly count a goroutine of its own (a finalizer run).
func goroutinesAtMost(limit int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > limit; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCloseStopsParkedProcs: 100 procs parked forever (on an event, a
// gate, a queue and a long sleep) each keep a coroutine after Run drains;
// Close unwinds every one of them, running their defers in spawn order,
// and the goroutine count returns to where it was before the spawns.
func TestCloseStopsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	ev := NewEvent[int](e)
	g := NewGate(e)
	q := NewQueue[int](e)
	var unwound []int
	for i := 0; i < 100; i++ {
		i := i
		e.Spawn("parked", func(p *Proc) {
			defer func() { unwound = append(unwound, i) }()
			switch i % 4 {
			case 0:
				ev.Wait(p)
			case 1:
				g.Hold(p.Now().Add(Second))
				g.Wait(p)
			case 2:
				q.Get(p)
			default:
				p.Sleep(Second)
			}
			t.Errorf("proc %d resumed", i)
		})
	}
	e.RunUntil(Time(Millisecond))
	if n := len(e.PendingProcs()); n != 100 {
		t.Fatalf("pending procs = %d, want 100", n)
	}
	during := runtime.NumGoroutine()
	e.Close()
	after := goroutinesAtMost(before)
	if after > before || during-after < 100 {
		t.Fatalf("goroutines: %d before spawning, %d parked, %d after Close; want Close to free 100 and return to <= %d",
			before, during, after, before)
	}
	if n := len(e.PendingProcs()); n != 0 {
		t.Fatalf("pending procs after Close = %d", n)
	}
	want := make([]int, 100)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(unwound, want) {
		t.Fatalf("unwind order %v, want spawn order", unwound)
	}
}

// TestShardedCloseStopsParkedProcs: the same across engine shards, after a
// windowed run.
func TestShardedCloseStopsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	se := NewSharded(4)
	se.NewExchange(0, 1, Microsecond)
	for i := 0; i < 100; i++ {
		e := se.Shard(i % 4)
		ev := NewEvent[int](e)
		e.Spawn("parked", func(p *Proc) { ev.Wait(p) })
	}
	se.Run()
	se.Close()
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("goroutines = %d after Close, want <= %d", n, before)
	}
	if n := len(se.PendingProcs()); n != 0 {
		t.Fatalf("pending procs after Close = %d", n)
	}
}

// TestProcPanicReachesRun: a panic inside a proc surfaces from Run on the
// caller's goroutine, naming the proc and carrying its stack.
func TestProcPanicReachesRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `proc "boom"`) || !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "proc_test.go") {
			t.Fatalf("recovered %v", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned normally")
}
