package simtime

import (
	"fmt"
	"reflect"
	"testing"

	"masq/internal/quickcheck"
)

// fop is one scripted step of a fold program:
//
//	'g' take an item from queue k, then sleep d (GetThenSleep when fused)
//	'u' hold resource k for d (Use when fused)
//	'p' put an item into queue k
//	't' GetTimeout on queue k with timeout d
//	'y' Yield
//	's' Sleep(d)
//	'c' schedule a callback d from now that puts an item into queue k
type fop struct {
	kind byte
	k    int
	d    Duration
}

// fprog is a seeded program: procs spawned at their start instants plus
// plain callbacks at instants of their own, each of which logs and puts
// into a queue, so heap events land on the instants the procs wake at.
type fprog struct {
	starts []Time
	ops    [][]fop
	ticks  []Time
	tickQ  []int
}

// genFoldProg decodes a program from data. Durations and instants come
// from a handful of small values (zero included), so wakes, handoffs,
// timeouts and callbacks keep landing on the same instant.
func genFoldProg(data []byte) fprog {
	src := byteSrc(data)
	durs := []Duration{0, 1, 2, 3, 5}
	var pr fprog
	nprocs := 1 + src.n(10)
	for i := 0; i < nprocs; i++ {
		pr.starts = append(pr.starts, Time(src.n(6)))
		var ops []fop
		for j, n := 0, 1+src.n(10); j < n; j++ {
			op := fop{kind: "gguuptysc"[src.n(9)], k: src.n(2), d: durs[src.n(len(durs))]}
			ops = append(ops, op)
		}
		pr.ops = append(pr.ops, ops)
	}
	for i, n := 0, src.n(8); i < n; i++ {
		pr.ticks = append(pr.ticks, Time(src.n(20)))
		pr.tickQ = append(pr.tickQ, src.n(2))
	}
	return pr
}

// foldRun is what a program's run exposes: the (time, proc, step) log in
// execution order, the engine's final seq and clock, and Events().
type foldRun struct {
	log    []string
	seq    uint64
	now    Time
	events uint64
}

// runFoldProg runs pr with the fused calls (fused) or with the plain
// Get; Sleep and Acquire; Sleep; Release sequences they stand for.
func runFoldProg(pr fprog, fused bool) foldRun {
	e := NewEngine()
	defer e.Close()
	qs := [2]*Queue[int]{NewQueue[int](e), NewQueue[int](e)}
	rs := [2]*Resource{NewResource(e, 1), NewResource(e, 2)}
	var r foldRun
	logf := func(format string, args ...any) { r.log = append(r.log, fmt.Sprintf(format, args...)) }
	item := 0
	put := func(k int) {
		item++
		qs[k].Put(item)
	}
	for i, start := range pr.starts {
		i, ops := i, pr.ops[i]
		e.At(start, func() {
			e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				for j, op := range ops {
					switch op.kind {
					case 'g':
						var v int
						if fused {
							v = qs[op.k].GetThenSleep(p, op.d)
						} else {
							v = qs[op.k].Get(p)
							p.Sleep(op.d)
						}
						logf("t=%d p%d.%d got %d", p.Now(), i, j, v)
					case 'u':
						if fused {
							rs[op.k].Use(p, op.d)
						} else {
							rs[op.k].Acquire(p)
							p.Sleep(op.d)
							rs[op.k].Release()
						}
						logf("t=%d p%d.%d used r%d", p.Now(), i, j, op.k)
					case 'p':
						put(op.k)
						logf("t=%d p%d.%d put", p.Now(), i, j)
					case 't':
						v, ok := qs[op.k].GetTimeout(p, op.d)
						logf("t=%d p%d.%d timeout-get %d %v", p.Now(), i, j, v, ok)
					case 'y':
						p.Yield()
						logf("t=%d p%d.%d yielded", p.Now(), i, j)
					case 's':
						p.Sleep(op.d)
						logf("t=%d p%d.%d slept", p.Now(), i, j)
					case 'c':
						k := op.k
						e.After(op.d, func() {
							logf("t=%d p%d.%d callback", e.Now(), i, j)
							put(k)
						})
					}
				}
			})
		})
	}
	for i, at := range pr.ticks {
		i, k := i, pr.tickQ[i]
		e.At(at, func() {
			logf("t=%d tick%d", e.Now(), i)
			put(k)
		})
	}
	e.Run()
	r.seq, r.now, r.events = e.seq, e.now, e.Events()
	return r
}

// checkFoldMatchesPlain demands that the fused calls reproduce the plain
// sequences exactly: the same log, the same final seq and clock, and the
// same number of dispatched events.
func checkFoldMatchesPlain(data []byte) error {
	pr := genFoldProg(data)
	got, want := runFoldProg(pr, true), runFoldProg(pr, false)
	if !reflect.DeepEqual(got.log, want.log) {
		return fmt.Errorf("log differs for %+v\nfused: %v\nplain: %v", pr, got.log, want.log)
	}
	if got.seq != want.seq || got.now != want.now || got.events != want.events {
		return fmt.Errorf("fused (seq %d, now %v, events %d) != plain (seq %d, now %v, events %d) for %+v",
			got.seq, got.now, got.events, want.seq, want.now, want.events, pr)
	}
	return nil
}

// TestFoldMatchesPlain is the fold oracle: seeded random programs mixing
// the fused Queue and Resource calls with timeouts, yields and callbacks
// at equal instants run identically to their unfused forms.
func TestFoldMatchesPlain(t *testing.T) {
	quickcheck.Check(t, func(data []byte) bool {
		if err := checkFoldMatchesPlain(data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}, 2000)
}

// TestFoldTieCases pins the same-instant cases by name.
func TestFoldTieCases(t *testing.T) {
	g := func(k int, d Duration) fop { return fop{'g', k, d} }
	u := func(k int, d Duration) fop { return fop{'u', k, d} }
	p := func(k int) fop { return fop{'p', k, 0} }
	c := func(k int, d Duration) fop { return fop{'c', k, d} }
	s := func(d Duration) fop { return fop{'s', 0, d} }
	y := fop{'y', 0, 0}
	cases := map[string]fprog{
		// A getter parked before the put, then a zero-length fused sleep:
		// it still re-parks once, behind the putter's yield.
		"zero sleep after handoff": {starts: []Time{0, 0}, ops: [][]fop{{g(0, 0)}, {p(0), y}}},
		// Three procs queue on a 1-unit resource; each handoff lands on
		// the instant a tick and a callback also fire.
		"handoff beside callbacks": {starts: []Time{0, 0, 0}, ops: [][]fop{{u(0, 2), c(0, 0)}, {u(0, 2)}, {c(1, 2), u(0, 0)}},
			ticks: []Time{2, 4}, tickQ: []int{0, 1}},
		// An item already queued: the fused get does not park and
		// behaves as Get then Sleep.
		"item waiting": {starts: []Time{0, 1}, ops: [][]fop{{p(0), p(0)}, {g(0, 1), g(0, 0), s(0)}}},
		// A fused getter and a timed getter contend for one put.
		"timeout beside fused": {starts: []Time{0, 0, 3}, ops: [][]fop{{g(0, 2)}, {{'t', 0, 3}, g(0, 1)}, {p(0)}}},
	}
	for name, pr := range cases {
		got, want := runFoldProg(pr, true), runFoldProg(pr, false)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nfused: %+v\nplain: %+v", name, got, want)
		}
	}
}
