package virtio

import (
	"testing"

	"masq/internal/simtime"
)

func TestCallRoundTripCost(t *testing.T) {
	eng := simtime.NewEngine()
	ring := NewRing[int, int](eng, DefaultParams())
	ring.Serve("backend", func(p *simtime.Proc, cmd *int) int {
		return *cmd * 2
	})
	var elapsed simtime.Duration
	var resp int
	eng.Spawn("guest", func(p *simtime.Proc) {
		start := p.Now()
		resp = ring.Call(p, 21)
		elapsed = p.Now().Sub(start)
	})
	eng.Run()
	if resp != 42 {
		t.Fatalf("resp = %v", resp)
	}
	if elapsed != simtime.Us(20) {
		t.Fatalf("RTT = %v, want 20µs (paper's measured virtio overhead)", elapsed)
	}
}

func TestHandlerWorkAddsToRTT(t *testing.T) {
	eng := simtime.NewEngine()
	ring := NewRing[int, int](eng, DefaultParams())
	ring.Serve("backend", func(p *simtime.Proc, cmd *int) int {
		p.Sleep(simtime.Us(100)) // device work
		return 0
	})
	var elapsed simtime.Duration
	eng.Spawn("guest", func(p *simtime.Proc) {
		start := p.Now()
		ring.Call(p, 0)
		elapsed = p.Now().Sub(start)
	})
	eng.Run()
	if elapsed != simtime.Us(120) {
		t.Fatalf("elapsed = %v, want 120µs", elapsed)
	}
}

func TestCallsAreSerializedFIFO(t *testing.T) {
	eng := simtime.NewEngine()
	ring := NewRing[int, int](eng, DefaultParams())
	var order []int
	ring.Serve("backend", func(p *simtime.Proc, cmd *int) int {
		order = append(order, *cmd)
		return 0
	})
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("guest", func(p *simtime.Proc) {
			p.Sleep(simtime.Duration(i) * simtime.Microsecond)
			ring.Call(p, i)
		})
	}
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestBatchSharesKickAndIRQ(t *testing.T) {
	eng := simtime.NewEngine()
	pr := DefaultParams()
	ring := NewRing[int, int](eng, pr)
	ring.Serve("backend", func(p *simtime.Proc, cmd *int) int {
		p.Sleep(simtime.Us(10))
		return *cmd
	})
	var batched, serial simtime.Duration
	eng.Spawn("guest", func(p *simtime.Proc) {
		start := p.Now()
		resp := ring.CallBatch(p, []int{1, 2, 3, 4})
		batched = p.Now().Sub(start)
		if len(resp) != 4 || resp[3] != 4 {
			t.Errorf("batch resp = %v", resp)
		}
		start = p.Now()
		for i := 0; i < 4; i++ {
			ring.Call(p, i)
		}
		serial = p.Now().Sub(start)
	})
	eng.Run()
	// Batched: one kick(8) + one hostproc(4) + 4×10 work + one irq(8) = 60µs.
	if batched != simtime.Us(60) {
		t.Fatalf("batched = %v, want 60µs", batched)
	}
	// Serial: 4 × (20 + 10) = 120µs.
	if serial != simtime.Us(120) {
		t.Fatalf("serial = %v, want 120µs", serial)
	}
}

func TestRTTHelper(t *testing.T) {
	if DefaultParams().RTT() != simtime.Us(20) {
		t.Fatalf("RTT = %v", DefaultParams().RTT())
	}
}

// TestRoundTripZeroAlloc: once the ring's call record and the queues'
// waiter records exist, a round trip allocates nothing.
func TestRoundTripZeroAlloc(t *testing.T) {
	eng := simtime.NewEngine()
	defer eng.Close()
	ring := NewRing[int, int](eng, DefaultParams())
	ring.Serve("backend", func(p *simtime.Proc, cmd *int) int { return *cmd + 1 })
	next := simtime.NewQueue[int](eng)
	sum := 0
	eng.Spawn("guest", func(p *simtime.Proc) {
		for {
			sum += ring.Call(p, next.Get(p))
		}
	})
	allocs := testing.AllocsPerRun(100, func() {
		next.Put(1)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("warmed-up round trip: %v allocs, want 0", allocs)
	}
	if sum != 2*101 {
		t.Fatalf("sum of responses = %d, want %d", sum, 2*101)
	}
}
