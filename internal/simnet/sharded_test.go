package simnet

import (
	"fmt"
	"strings"
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// burstSizes are the payload sizes each host sends back to back after its
// paced frames. At 40 Gb/s the largest serializes in under 2 µs, so several
// frames of the burst are on the wire at once.
var burstSizes = []int{1400, 64, 900, 256, 1400, 128, 700, 64}

// pingRun is one run of pingLog: each side's arrival log, and the most
// frames each direction had propagating at once.
type pingRun struct {
	logs     [2]string
	inFlight [2]int
}

// pingLog runs two hosts exchanging frames across a ConnectVia link on a
// ShardedEngine with the given shard count (host 0 on shard 0, host 1 on
// shard min(1, shards-1)) and returns each side's arrival log. Each host
// sends 20 frames a microsecond apart, then burstSizes back to back.
func pingLog(shards int) pingRun {
	const prop = 2 * simtime.Microsecond
	se := simtime.NewSharded(shards)
	s0, s1 := 0, 0
	if shards > 1 {
		s1 = 1
	}
	a := NewPort(se.Shard(s0), "a")
	b := NewPort(se.Shard(s1), "b")
	ConnectVia(se, a, b, Gbps(40), prop)

	host := func(eng *simtime.Engine, name string, p *Port, dst, src packet.MAC, base int) {
		eng.Spawn(name, func(pr *simtime.Proc) {
			for i := 0; i < 20; i++ {
				p.Send(frameTo(dst, src, base+i))
				pr.Sleep(simtime.Us(1))
			}
			for i, n := range burstSizes {
				p.Send(frameTo(dst, src, n+i))
			}
		})
	}
	host(se.Shard(s0), "host-a", a, macB, macA, 100)
	host(se.Shard(s1), "host-b", b, macA, macB, 200)

	var logs [2]strings.Builder
	var arrivals [2][]simtime.Time
	rx := func(eng *simtime.Engine, side int, p *Port) {
		eng.Spawn("rx-"+p.Name, func(pr *simtime.Proc) {
			for {
				f := p.RX.Get(pr)
				arrivals[side] = append(arrivals[side], pr.Now())
				fmt.Fprintf(&logs[side], "%d %s<-%d\n", pr.Now(), p.Name, len(f))
			}
		})
	}
	rx(se.Shard(s0), 0, a)
	rx(se.Shard(s1), 1, b)
	se.RunUntil(simtime.Time(simtime.Ms(1)))

	var r pingRun
	for side := range r.logs {
		r.logs[side] = logs[side].String()
		// Frames arriving less than prop after an arrival were already on
		// the wire when it arrived.
		ts := arrivals[side]
		for i := range ts {
			n := 1
			for j := i + 1; j < len(ts) && ts[j].Sub(ts[i]) < prop; j++ {
				n++
			}
			r.inFlight[side] = max(r.inFlight[side], n)
		}
	}
	return r
}

// TestConnectViaCrossShardMatchesOracle: the same two-host frame exchange
// over a ConnectVia link yields byte-identical arrival logs whether both
// hosts share one shard (the oracle) or sit on separate shards. The
// back-to-back bursts of mixed sizes keep several frames propagating in
// each direction, so arrivals must pop the in-flight FIFO in send order.
func TestConnectViaCrossShardMatchesOracle(t *testing.T) {
	oracle := pingLog(1)
	got := pingLog(2)
	for side, log := range oracle.logs {
		if n := strings.Count(log, "\n"); n != 20+len(burstSizes) {
			t.Fatalf("side %d: %d frames delivered, want %d", side, n, 20+len(burstSizes))
		}
		if oracle.inFlight[side] < 3 {
			t.Fatalf("side %d: at most %d frames in flight at once; the burst should keep >= 3 propagating",
				side, oracle.inFlight[side])
		}
	}
	for side, log := range oracle.logs {
		lines := strings.Split(strings.TrimSpace(log), "\n")
		for i, n := range burstSizes {
			line := lines[20+i]
			if !strings.HasSuffix(line, fmt.Sprintf("<-%d", len(frameTo(macA, macB, n+i)))) {
				t.Fatalf("side %d: burst frame %d arrived as %q, want size of payload %d (send order)", side, i, line, n+i)
			}
		}
	}
	if got != oracle {
		t.Fatalf("cross-shard run diverges from oracle:\noracle a:\n%sgot a:\n%s\noracle b:\n%sgot b:\n%s",
			oracle.logs[0], got.logs[0], oracle.logs[1], got.logs[1])
	}
}

// TestConnectViaDeliveryZeroAlloc: once the link's queues, timers and
// FIFOs are warm, carrying frames over a cross-shard ConnectVia link
// allocates nothing per frame.
func TestConnectViaDeliveryZeroAlloc(t *testing.T) {
	se := simtime.NewSharded(2)
	a := NewPort(se.Shard(0), "a")
	b := NewPort(se.Shard(1), "b")
	ConnectVia(se, a, b, Gbps(40), simtime.Us(2))
	got := 0
	var onFrame func(Frame)
	onFrame = func(Frame) {
		got++
		b.RX.OnNext(onFrame)
	}
	b.RX.OnNext(onFrame)
	f := frameTo(macB, macA, 512)
	step := func() {
		for i := 0; i < 4; i++ {
			a.Send(f)
		}
		se.Run()
	}
	step() // grow the link's queue, event pools and FIFOs to their working size
	allocs := testing.AllocsPerRun(100, step)
	if want := 4 * 102; got != want {
		t.Fatalf("delivered %d frames, want %d", got, want)
	}
	if allocs != 0 {
		t.Fatalf("steady-state ConnectVia delivery allocates %.1f times per 4 frames, want 0", allocs)
	}
}

// TestConnectViaMatchesConnectTiming: on one shard, a ConnectVia link
// delivers frames at exactly the same virtual instants as a plain Connect
// link with the same bandwidth and propagation delay — the exchange hop
// reorders nothing and adds no virtual latency.
func TestConnectViaMatchesConnectTiming(t *testing.T) {
	run := func(via bool) string {
		var log strings.Builder
		var eng *simtime.Engine
		var a, b *Port
		if via {
			se := simtime.NewSharded(1)
			eng = se.Shard(0)
			a, b = NewPort(eng, "a"), NewPort(eng, "b")
			ConnectVia(se, a, b, Gbps(40), simtime.Us(2))
			send(eng, a, b, &log)
			se.Run()
		} else {
			eng = simtime.NewEngine()
			a, b = NewPort(eng, "a"), NewPort(eng, "b")
			Connect(eng, a, b, Gbps(40), simtime.Us(2))
			send(eng, a, b, &log)
			eng.Run()
		}
		return log.String()
	}
	plain, via := run(false), run(true)
	if plain == "" {
		t.Fatal("no arrivals logged")
	}
	if plain != via {
		t.Fatalf("ConnectVia timing diverges from Connect:\nplain:\n%svia:\n%s", plain, via)
	}
}

func send(eng *simtime.Engine, a, b *Port, log *strings.Builder) {
	eng.Spawn("tx", func(p *simtime.Proc) {
		for i := 0; i < 5; i++ {
			a.Send(frameTo(macB, macA, 1000))
		}
	})
	eng.Spawn("rx", func(p *simtime.Proc) {
		for {
			f := b.RX.Get(p)
			fmt.Fprintf(log, "%d len=%d\n", p.Now(), len(f))
		}
	})
}

// TestLinkMinLatencyAndCrossShard: accessors used by the cluster layer to
// derive the lookahead and gate unsupported features.
func TestLinkMinLatencyAndCrossShard(t *testing.T) {
	se := simtime.NewSharded(2)
	a := NewPort(se.Shard(0), "a")
	b := NewPort(se.Shard(1), "b")
	l := ConnectVia(se, a, b, Gbps(40), simtime.Us(3))
	if l.MinLatency() != simtime.Us(3) {
		t.Fatalf("MinLatency = %v, want 3µs", l.MinLatency())
	}
	if !l.CrossShard() {
		t.Fatal("link spanning shards 0 and 1 not marked cross-shard")
	}
	if se.Lookahead() != simtime.Us(3) {
		t.Fatalf("lookahead = %v, want 3µs", se.Lookahead())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AttachTap on a cross-shard link did not panic")
		}
	}()
	l.AttachTap()
}

// TestSwitchAttachPortVia: a ToR switch on shard 0 with uplinks to hosts
// on distinct shards forwards frames between them, byte-identically to
// the single-shard oracle.
func TestSwitchAttachPortVia(t *testing.T) {
	run := func(shards int) string {
		se := simtime.NewSharded(shards)
		sw := NewSwitch(se.Shard(0), "tor", simtime.Us(0.3))
		shardOf := func(i int) int { return i % shards }
		ports := make([]*Port, 3)
		for i := range ports {
			ports[i] = NewPort(se.Shard(shardOf(i)), "h"+itoa(i))
			sw.AttachPortVia(se, ports[i], Gbps(40), simtime.Us(1))
		}
		var logs [3]strings.Builder
		for i := range ports {
			i := i
			p := ports[i]
			se.Shard(shardOf(i)).Spawn("rx", func(pr *simtime.Proc) {
				for {
					f := p.RX.Get(pr)
					fmt.Fprintf(&logs[i], "%d h%d<-%v\n", pr.Now(), i, f.SrcMAC())
				}
			})
		}
		mac := func(i int) packet.MAC { return packet.MAC{2, 0, 0, 0, 0, byte(i)} }
		for i := range ports {
			i := i
			p := ports[i]
			se.Shard(shardOf(i)).Spawn("tx", func(pr *simtime.Proc) {
				for k := 0; k < 10; k++ {
					dst := (i + 1 + k%2) % 3
					p.Send(frameTo(mac(dst), mac(i), 64))
					pr.Sleep(simtime.Us(2))
				}
			})
		}
		se.RunUntil(simtime.Time(simtime.Ms(1)))
		return logs[0].String() + logs[1].String() + logs[2].String()
	}
	oracle := run(1)
	if oracle == "" {
		t.Fatal("no frames forwarded")
	}
	for _, n := range []int{2, 3} {
		if got := run(n); got != oracle {
			t.Fatalf("%d-shard switch run diverges from oracle:\n%s\nvs\n%s", n, oracle, got)
		}
	}
}
