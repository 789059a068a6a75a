package simtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// slot is the service-queue model a controller shard needs: wait for the
// slot, then hold it until some later instant.
type slot interface {
	Wait(p *Proc)
	Hold(t Time)
	Peak() int
}

// resleep is the controller shard's original service queue, kept as the
// Gate's reference: enter below is that loop verbatim. Every contended
// caller sleeps until busyUntil and re-checks, because a caller woken
// ahead of it at the same instant may have extended the slot.
type resleep struct {
	busyUntil Time
	waiting   int
	queueHWM  int
}

func (sh *resleep) Wait(p *Proc) { sh.enter(p) }
func (sh *resleep) Hold(t Time)  { sh.busyUntil = t }
func (sh *resleep) Peak() int    { return sh.queueHWM }

func (sh *resleep) enter(p *Proc) {
	for {
		wait := sh.busyUntil.Sub(p.Now())
		if wait <= 0 {
			return
		}
		sh.waiting++
		if sh.waiting > sh.queueHWM {
			sh.queueHWM = sh.waiting
		}
		p.Sleep(wait)
		sh.waiting--
	}
}

// gop is one scripted step: 'e' waits for the slot (a resolve's front
// door), 'o' waits and then holds the slot for d (a batch's
// serialization, occupy), 's' sleeps d (an RPC round trip; d may be 0).
type gop struct {
	kind byte
	d    Duration
}

// gsched is a seeded schedule: procs spawned by callbacks at their start
// instants, plus plain callbacks ticking at instants of their own so heap
// events interleave with the gate's inline work.
type gsched struct {
	starts []Time
	ops    [][]gop
	ticks  []Time
}

// byteSrc draws small numbers from fuzz input, reading zeros once it is
// exhausted.
type byteSrc []byte

func (b *byteSrc) n(k int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % k
	*b = (*b)[1:]
	return v
}

// genGateSched decodes a schedule from data. Every duration and instant is
// drawn from a handful of small values, so arrivals land exactly on the
// deadline, occupy costs equal RTTs, Sleep(0) yields share the deadline
// instant, and a proc often re-enters at the instant it passed.
func genGateSched(data []byte) gsched {
	src := byteSrc(data)
	durs := []Duration{0, 1, 2, 3, 5}
	var sc gsched
	nprocs := 1 + src.n(16)
	for i := 0; i < nprocs; i++ {
		sc.starts = append(sc.starts, Time(src.n(8)))
		var ops []gop
		for j, n := 0, 1+src.n(12); j < n; j++ {
			switch src.n(4) {
			case 0:
				ops = append(ops, gop{'e', 0})
			case 1, 2:
				ops = append(ops, gop{'o', durs[src.n(len(durs))]})
			default:
				ops = append(ops, gop{'s', durs[src.n(len(durs))]})
			}
		}
		sc.ops = append(sc.ops, ops)
	}
	for i, n := 0, src.n(8); i < n; i++ {
		sc.ticks = append(sc.ticks, Time(src.n(24)))
	}
	return sc
}

// gateRun is everything a schedule's run exposes: the per-proc pass log
// (time, proc, step) in pass order, the engine's final seq and clock, the
// queue HWM and the dispatched event count.
type gateRun struct {
	log    []string
	seq    uint64
	now    Time
	peak   int
	events uint64
}

func runGateSched(sc gsched, mk func(*Engine) slot) gateRun {
	e := NewEngine()
	s := mk(e)
	var r gateRun
	for i, start := range sc.starts {
		i, ops := i, sc.ops[i]
		e.At(start, func() {
			e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				for j, op := range ops {
					switch op.kind {
					case 'e', 'o':
						s.Wait(p)
						r.log = append(r.log, fmt.Sprintf("t=%d p%d.%d pass", p.Now(), i, j))
						if op.kind == 'o' {
							s.Hold(p.Now().Add(op.d))
							p.Sleep(op.d)
						}
					case 's':
						p.Sleep(op.d)
						r.log = append(r.log, fmt.Sprintf("t=%d p%d.%d woke", p.Now(), i, j))
					}
				}
			})
		})
	}
	for i, at := range sc.ticks {
		i := i
		e.At(at, func() { r.log = append(r.log, fmt.Sprintf("t=%d tick%d", e.Now(), i)) })
	}
	e.Run()
	r.seq, r.now, r.peak, r.events = e.seq, e.now, s.Peak(), e.Events()
	return r
}

func newGateSlot(e *Engine) slot    { return NewGate(e) }
func newResleepSlot(e *Engine) slot { return &resleep{} }

// checkGateMatchesResleep runs one schedule on the Gate and on the re-sleep
// reference and demands identical pass order and times, the same final
// seq and clock, and the same HWM. The gate may only dispatch fewer
// events: it skips the re-sleeps.
func checkGateMatchesResleep(t *testing.T, data []byte) {
	t.Helper()
	sc := genGateSched(data)
	got, want := runGateSched(sc, newGateSlot), runGateSched(sc, newResleepSlot)
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("pass log differs for %v\ngate:    %v\nresleep: %v", sc, got.log, want.log)
	}
	if got.seq != want.seq || got.now != want.now || got.peak != want.peak {
		t.Fatalf("gate (seq %d, now %v, hwm %d) != resleep (seq %d, now %v, hwm %d) for %v",
			got.seq, got.now, got.peak, want.seq, want.now, want.peak, sc)
	}
	if got.events > want.events {
		t.Fatalf("gate dispatched %d events, resleep %d", got.events, want.events)
	}
}

func TestGateMatchesResleep(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		data := make([]byte, 8+r.Intn(200))
		r.Read(data)
		checkGateMatchesResleep(t, data)
	}
}

// FuzzGateMatchesResleep explores schedules beyond the seeded ones:
// go test -fuzz FuzzGateMatchesResleep ./internal/simtime
func FuzzGateMatchesResleep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 2, 1, 3, 1, 0, 1, 1, 2, 1, 1, 0, 1, 1, 3, 2})
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkGateMatchesResleep)
}

// TestGateTieCases pins the same-instant ties by name, each against the
// reference.
func TestGateTieCases(t *testing.T) {
	e, o, s := func() gop { return gop{'e', 0} }, func(d Duration) gop { return gop{'o', d} },
		func(d Duration) gop { return gop{'s', d} }
	cases := map[string]gsched{
		// p1 arrives exactly when p0's hold ends, beside p2 parked for it.
		"arrival at deadline": {starts: []Time{0, 3, 1}, ops: [][]gop{{o(3)}, {e()}, {e()}}},
		// p1 yields with Sleep(0) at the deadline while p2 waits on it.
		"sleep0 at deadline": {starts: []Time{0, 3, 1}, ops: [][]gop{{o(3)}, {s(0), o(1)}, {e(), s(0), e()}}},
		// The first woken waiter extends the slot; the rest re-park twice.
		"first woken extends": {starts: []Time{0, 1, 1, 1}, ops: [][]gop{{o(2)}, {o(2)}, {o(2)}, {e()}}},
		// Occupy costs equal the RTT sleeps between them.
		"cost equals rtt": {starts: []Time{0, 0, 0}, ops: [][]gop{{o(2), s(2), o(2)}, {s(2), o(2), s(2), e()}, {e(), s(2), o(2)}}},
		// A proc passes and at once re-enters, then holds.
		"re-enter at pass": {starts: []Time{0, 1, 1}, ops: [][]gop{{o(3)}, {e(), e(), o(1)}, {e(), o(2)}}, ticks: []Time{3, 4}},
	}
	for name, sc := range cases {
		got, want := runGateSched(sc, newGateSlot), runGateSched(sc, newResleepSlot)
		if !reflect.DeepEqual(got.log, want.log) || got.seq != want.seq || got.peak != want.peak {
			t.Errorf("%s:\ngate:    %v seq %d hwm %d\nresleep: %v seq %d hwm %d",
				name, got.log, got.seq, got.peak, want.log, want.seq, want.peak)
		}
	}
}

// TestGateCountsResumesOnly: three procs park until 2; the first through
// holds until 4, so the other two re-park once. The re-sleep loop
// dispatches those two re-sleeps as events; the gate does not.
func TestGateCountsResumesOnly(t *testing.T) {
	sc := gsched{starts: []Time{0, 1, 1, 1}, ops: [][]gop{{{'o', 2}}, {{'o', 2}}, {{'e', 0}}, {{'e', 0}}}}
	got, want := runGateSched(sc, newGateSlot), runGateSched(sc, newResleepSlot)
	if want.events-got.events != 2 {
		t.Fatalf("events: gate %d, resleep %d; want exactly the 2 re-sleeps saved", got.events, want.events)
	}
	if got.peak != 3 || want.peak != 3 {
		t.Fatalf("hwm: gate %d, resleep %d, want 3", got.peak, want.peak)
	}
}

// TestGateStopMidRound: a Stop from a resumed waiter halts the run before
// the next waiter due at the same instant, exactly as it halts before
// that waiter's wake event, and the next run picks the round up.
func TestGateStopMidRound(t *testing.T) {
	run := func(mk func(*Engine) slot) []string {
		e := NewEngine()
		s := mk(e)
		var log []string
		e.Spawn("holder", func(p *Proc) {
			s.Wait(p)
			s.Hold(5)
			p.Sleep(5)
		})
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn("w", func(p *Proc) {
				s.Wait(p)
				log = append(log, fmt.Sprintf("t=%d w%d", p.Now(), i))
				if i == 0 {
					e.Stop()
				}
			})
		}
		e.Run()
		log = append(log, "stopped")
		e.Run()
		return log
	}
	got, want := run(newGateSlot), run(newResleepSlot)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gate %v, resleep %v", got, want)
	}
	if want[1] != "stopped" {
		t.Fatalf("reference did not stop after the first waiter: %v", want)
	}
}

func TestGateHoldEarlierPanics(t *testing.T) {
	g := NewGate(NewEngine())
	g.Hold(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Hold(5) after Hold(10) did not panic")
		}
	}()
	g.Hold(5)
}
