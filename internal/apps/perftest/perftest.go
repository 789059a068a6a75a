// Package perftest reimplements the Mellanox perftest-suite tools the
// paper's Sec. 4.2 uses — ib_send_lat, ib_write_lat, ib_send_bw and
// ib_write_bw — over connected cluster endpoints. Latency tools ping-pong
// and report one-way time (RTT/2), exactly like the originals; bandwidth
// tools stream with a posting window and report goodput.
package perftest

import (
	"sort"

	"masq/internal/cluster"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// LatencyResult summarizes a latency run (one-way times).
type LatencyResult struct {
	Iters         int
	Avg, Min, Max simtime.Duration
	P50, P99      simtime.Duration
}

// ThroughputResult summarizes a bandwidth run.
type ThroughputResult struct {
	Msgs    int
	Bytes   int64
	Elapsed simtime.Duration
}

// Gbps returns goodput in gigabits per second.
func (r ThroughputResult) Gbps() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Bytes*8) / r.Elapsed.Seconds() / 1e9
}

// Mops returns message rate in millions of messages per second.
func (r ThroughputResult) Mops() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Msgs) / r.Elapsed.Seconds() / 1e6
}

func summarize(samples []simtime.Duration) LatencyResult {
	r := LatencyResult{Iters: len(samples)}
	if len(samples) == 0 {
		return r
	}
	sorted := append([]simtime.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum simtime.Duration
	for _, s := range sorted {
		sum += s
	}
	r.Min, r.Max = sorted[0], sorted[len(sorted)-1]
	r.Avg = sum / simtime.Duration(len(sorted))
	r.P50 = sorted[len(sorted)/2]
	r.P99 = sorted[len(sorted)*99/100]
	return r
}

// StartSendLat runs ib_send_lat: a SEND ping-pong of size-byte messages.
// One-way latency is half the measured round trip.
func StartSendLat(eng *simtime.Engine, client, server *cluster.Endpoint, size, iters int) *simtime.Event[LatencyResult] {
	done := simtime.NewEvent[LatencyResult](eng)
	eng.Spawn("send_lat.server", func(p *simtime.Proc) {
		s := server
		for i := 0; i < iters; i++ {
			s.QP.PostRecv(p, verbs.RecvWR{WRID: uint64(i), Addr: s.Buf, LKey: s.MR.LKey(), Len: size})
			if wc := s.RCQ.Wait(p); wc.Status != verbs.WCSuccess {
				return
			}
			s.QP.PostSend(p, verbs.SendWR{WRID: uint64(i), Op: verbs.WRSend, LocalAddr: s.Buf, LKey: s.MR.LKey(), Len: size})
			if wc := s.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
				return
			}
		}
	})
	eng.Spawn("send_lat.client", func(p *simtime.Proc) {
		c := client
		samples := make([]simtime.Duration, 0, iters)
		for i := 0; i < iters; i++ {
			c.QP.PostRecv(p, verbs.RecvWR{WRID: uint64(i), Addr: c.Buf, LKey: c.MR.LKey(), Len: size})
			start := p.Now()
			c.QP.PostSend(p, verbs.SendWR{WRID: uint64(i), Op: verbs.WRSend, LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: size})
			if wc := c.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
				return
			}
			if wc := c.RCQ.Wait(p); wc.Status != verbs.WCSuccess {
				return
			}
			samples = append(samples, p.Now().Sub(start)/2)
		}
		done.Trigger(summarize(samples))
	})
	return done
}

// StartWriteLat runs ib_write_lat: an RDMA WRITE ping-pong where each side
// detects the other's write by polling the last byte of the target buffer,
// as the real tool does. Each side runs on its own host's engine, so the
// ping-pong also runs on an engine-sharded testbed; the result event lives
// on the client's. The engine argument is unused and kept so the signature
// matches the other Start functions.
func StartWriteLat(_ *simtime.Engine, client, server *cluster.Endpoint, size, iters int) *simtime.Event[LatencyResult] {
	cEng, sEng := client.Node.Host.Eng, server.Node.Host.Eng
	done := simtime.NewEvent[LatencyResult](cEng)
	const pollInterval = 25 * simtime.Nanosecond

	// Each iteration writes a distinct flag value so duplicates are
	// harmless. The flag lives at offset size-1 (or 0 for size 1).
	flagOff := uint64(size - 1)
	if size < 1 {
		flagOff = 0
	}

	waitFlag := func(p *simtime.Proc, ep *cluster.Endpoint, want byte) {
		b := make([]byte, 1)
		for {
			ep.Node.Read(ep.Buf+flagOff, b)
			if b[0] == want {
				return
			}
			p.Sleep(pollInterval)
		}
	}
	writePeer := func(p *simtime.Proc, ep *cluster.Endpoint, peer verbs.ConnInfo, val byte) {
		buf := make([]byte, size)
		buf[flagOff] = val
		ep.Node.Write(ep.Buf+uint64(size), buf) // staging area
		ep.QP.PostSend(p, verbs.SendWR{
			WRID: uint64(val), Op: verbs.WRWrite,
			LocalAddr: ep.Buf + uint64(size), LKey: ep.MR.LKey(), Len: size,
			RemoteAddr: peer.Addr, RKey: peer.RKey,
		})
		ep.SCQ.Wait(p)
	}

	sEng.Spawn("write_lat.server", func(p *simtime.Proc) {
		cpeer := client.Info()
		for i := 0; i < iters; i++ {
			val := byte(i%200 + 1)
			waitFlag(p, server, val)
			writePeer(p, server, cpeer, val)
		}
	})
	cEng.Spawn("write_lat.client", func(p *simtime.Proc) {
		speer := server.Info()
		samples := make([]simtime.Duration, 0, iters)
		for i := 0; i < iters; i++ {
			val := byte(i%200 + 1)
			start := p.Now()
			writePeer(p, client, speer, val)
			waitFlag(p, client, val)
			samples = append(samples, p.Now().Sub(start)/2)
		}
		done.Trigger(summarize(samples))
	})
	return done
}

// StartSendBW runs ib_send_bw: the client streams iters messages with a
// posting window; the server replenishes receives.
func StartSendBW(eng *simtime.Engine, client, server *cluster.Endpoint, size, iters, window int) *simtime.Event[ThroughputResult] {
	done := simtime.NewEvent[ThroughputResult](eng)
	if window <= 0 {
		window = 64
	}
	eng.Spawn("send_bw.server", func(p *simtime.Proc) {
		s := server
		outstanding := 0
		for outstanding < window && outstanding < iters {
			s.QP.PostRecv(p, verbs.RecvWR{WRID: uint64(outstanding), Addr: s.Buf, LKey: s.MR.LKey(), Len: size})
			outstanding++
		}
		for done := 0; done < iters; done++ {
			if wc := s.RCQ.Wait(p); wc.Status != verbs.WCSuccess {
				return
			}
			if outstanding < iters {
				s.QP.PostRecv(p, verbs.RecvWR{WRID: uint64(outstanding), Addr: s.Buf, LKey: s.MR.LKey(), Len: size})
				outstanding++
			}
		}
	})
	eng.Spawn("send_bw.client", func(p *simtime.Proc) {
		c := client
		start := p.Now()
		posted, completed := 0, 0
		for posted < window && posted < iters {
			c.QP.PostSend(p, verbs.SendWR{WRID: uint64(posted), Op: verbs.WRSend, LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: size})
			posted++
		}
		for completed < iters {
			if wc := c.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
				return
			}
			completed++
			if posted < iters {
				c.QP.PostSend(p, verbs.SendWR{WRID: uint64(posted), Op: verbs.WRSend, LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: size})
				posted++
			}
		}
		done.Trigger(ThroughputResult{Msgs: iters, Bytes: int64(iters) * int64(size), Elapsed: p.Now().Sub(start)})
	})
	return done
}

// StartWriteBW runs ib_write_bw: one-sided writes, no server involvement.
//
// When the client's provider exposes the callback-style verbs capabilities
// (AsyncCQ + AsyncQP — direct-mapped rings, no relay process), the loop runs
// as a timer-driven state machine on the engine's callback fast path: no
// proc, no coroutine switch per message. The state machine replays the
// process loop's schedule calls one for one (post charge ↔ PostSend's
// leading Sleep, OnComplete ↔ the parked Wait, the poll charge ↔ Wait's
// trailing Sleep), so both styles produce bit-identical virtual time.
func StartWriteBW(eng *simtime.Engine, client, server *cluster.Endpoint, size, iters, window int) *simtime.Event[ThroughputResult] {
	done := simtime.NewEvent[ThroughputResult](eng)
	if window <= 0 {
		window = 64
	}
	peer := server.Info()
	if acq, ok := client.SCQ.(verbs.AsyncCQ); ok {
		if aqp, ok := client.QP.(verbs.AsyncQP); ok {
			r := &writeBWRun{
				eng: eng, c: client, acq: acq, aqp: aqp, peer: peer,
				size: size, iters: iters, window: window, done: done,
			}
			r.timer = eng.NewTimer(r.fired)
			r.onWC = r.completionArrived
			eng.At(eng.Now(), r.begin) // one event, like Spawn's starter
			return done
		}
	}
	eng.Spawn("write_bw.client", func(p *simtime.Proc) {
		c := client
		start := p.Now()
		posted, completed := 0, 0
		post := func() {
			c.QP.PostSend(p, verbs.SendWR{
				WRID: uint64(posted), Op: verbs.WRWrite,
				LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: size,
				RemoteAddr: peer.Addr, RKey: peer.RKey,
			})
			posted++
		}
		for posted < window && posted < iters {
			post()
		}
		for completed < iters {
			if wc := c.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
				return
			}
			completed++
			if posted < iters {
				post()
			}
		}
		done.Trigger(ThroughputResult{Msgs: iters, Bytes: int64(iters) * int64(size), Elapsed: p.Now().Sub(start)})
	})
	return done
}

// writeBWRun is the callback-style ib_write_bw client. One intrusive timer
// carries both verb-cost charges; charging says which one is pending.
type writeBWRun struct {
	eng  *simtime.Engine
	c    *cluster.Endpoint
	acq  verbs.AsyncCQ
	aqp  verbs.AsyncQP
	peer verbs.ConnInfo

	size, iters, window int
	posted, completed   int
	start               simtime.Time

	timer    *simtime.Timer
	charging int          // what the pending timer firing pays for
	wr       verbs.SendWR // WR whose post cost is being charged
	wc       verbs.WC     // completion whose poll cost is being charged
	onWC     func(verbs.WC)
	done     *simtime.Event[ThroughputResult]
}

const (
	chargePost = iota // timer is paying PostSendCost; post r.wr when it fires
	chargePoll        // timer is paying PollCost; consume r.wc when it fires
)

func (r *writeBWRun) begin() {
	r.start = r.eng.Now()
	if r.posted < r.window && r.posted < r.iters {
		r.chargePostCost()
		return
	}
	r.advance()
}

// chargePostCost builds the next WR (as the process loop does before
// calling PostSend) and schedules its verb-cost charge.
func (r *writeBWRun) chargePostCost() {
	r.wr = verbs.SendWR{
		WRID: uint64(r.posted), Op: verbs.WRWrite,
		LocalAddr: r.c.Buf, LKey: r.c.MR.LKey(), Len: r.size,
		RemoteAddr: r.peer.Addr, RKey: r.peer.RKey,
	}
	r.charging = chargePost
	r.timer.ScheduleAfter(r.aqp.PostSendCost())
}

func (r *writeBWRun) fired() {
	if r.charging == chargePost {
		r.aqp.PostSendAsync(r.wr) // errors ignored, as in the process loop
		r.posted++
		if r.posted < r.window && r.posted < r.iters {
			r.chargePostCost() // still filling the initial window
			return
		}
		r.advance()
		return
	}
	// Poll cost paid: the Wait completes.
	if r.wc.Status != verbs.WCSuccess {
		return // abandon the run, as the process loop does
	}
	r.completed++
	if r.posted < r.iters {
		r.chargePostCost()
		return
	}
	r.advance()
}

// advance is the head of the completion loop: finish, or wait for the next
// completion (inline if one is buffered, via OnComplete otherwise).
func (r *writeBWRun) advance() {
	if r.completed >= r.iters {
		r.done.Trigger(ThroughputResult{
			Msgs: r.iters, Bytes: int64(r.iters) * int64(r.size),
			Elapsed: r.eng.Now().Sub(r.start),
		})
		return
	}
	if wc, ok := r.acq.TryGet(); ok {
		r.completionArrived(wc)
		return
	}
	r.acq.OnComplete(r.onWC)
}

func (r *writeBWRun) completionArrived(wc verbs.WC) {
	r.wc = wc
	r.charging = chargePoll
	r.timer.ScheduleAfter(r.acq.PollCost())
}

// StartTimedWriteBW streams writes for a fixed duration and reports the
// achieved goodput — used by the aggregate/scaling experiments (Figs. 11,
// 12, 17, 19) where flow counts vary and a fixed message count would bias
// the window.
func StartTimedWriteBW(eng *simtime.Engine, client, server *cluster.Endpoint, size int, dur simtime.Duration) *simtime.Event[ThroughputResult] {
	done := simtime.NewEvent[ThroughputResult](eng)
	peer := server.Info()
	const window = 16
	eng.Spawn("write_bw.timed", func(p *simtime.Proc) {
		c := client
		start := p.Now()
		deadline := start.Add(dur)
		posted, completed := 0, 0
		post := func() {
			c.QP.PostSend(p, verbs.SendWR{
				WRID: uint64(posted), Op: verbs.WRWrite,
				LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: size,
				RemoteAddr: peer.Addr, RKey: peer.RKey,
			})
			posted++
		}
		for posted < window {
			post()
		}
		for {
			wc, ok := c.SCQ.WaitTimeout(p, dur)
			if !ok || wc.Status != verbs.WCSuccess {
				break
			}
			completed++
			if p.Now() >= deadline {
				break
			}
			post()
		}
		done.Trigger(ThroughputResult{
			Msgs: completed, Bytes: int64(completed) * int64(size),
			Elapsed: p.Now().Sub(start),
		})
	})
	return done
}
