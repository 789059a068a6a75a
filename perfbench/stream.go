package main

import (
	"fmt"
	"math/rand"

	"masq/internal/apps/perftest"
	"masq/internal/cluster"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// stream runs the data path on the parallel engine: two MasQ VM pairs,
// each client on the other engine shard from its server, stream 512 B RDMA
// writes over 16 RC QPs while a 2 B write ping-pong probes latency. RNIC
// TX/RX and simnet links carry the cost; the control plane is idle. A
// second run on one engine shard is the oracle the two-shard run must
// match event for event.
func init() {
	register(&workload{
		name:         "stream",
		shards:       2,
		oracleShards: 1,
		aliases:      [3]string{"write_lat_p50_us", "write_lat_p99_us", "write_rate_ps"},
		build:        buildStream,
	})
}

const (
	stHosts     = 4
	stQPs       = 16 // streaming QPs per pair
	stMsg       = 512
	stWindowMin = 14 // outstanding writes per QP, drawn uniformly from [stWindowMin, stWindowMax]
	stWindowMax = 18
	stMsgsPerQP = 8000
	stProbeSize = 2
	stVNI       = 200
	stPollEvery = 100 * simtime.Nanosecond
)

// stPairs places each pair's client and server: host i runs on engine
// shard i % 2, so every pair crosses shards.
var stPairs = [][2]int{{0, 1}, {3, 2}}

type streamPair struct {
	client, server *cluster.Node
	cEng, sEng     *simtime.Engine
	cEPs, sEPs     []*cluster.Endpoint // stQPs streaming endpoints + 1 probe
	startAt        []simtime.Duration  // per streaming QP, after the phase starts
	window         []int               // per streaming QP
	probeAt        simtime.Duration
	bw             []*simtime.Event[perftest.ThroughputResult]
	lats           []simtime.Duration
	probes         int  // probe iterations the client started
	served         int  // probe iterations the server answered
	stopped        bool // the server saw the client's stop flag
}

type stream struct {
	c     *config
	tb    *cluster.Testbed
	pairs []*streamPair
	start simtime.Time

	tx0, retx0, drop0, deliv0, linkDrop0 uint64
}

func buildStream(c *config, res *repResult) (instance, error) {
	w := &stream{c: c}
	rng := rand.New(rand.NewSource(c.seed))
	build := cpuTimer()
	cfg := cluster.DefaultConfig()
	cfg.Hosts = stHosts
	cfg.Shards = c.shards
	cfg.CtrlShards = 2
	cfg.Trace = c.traced
	end := c.spans.host("cluster", "New")
	w.tb = cluster.New(cfg)
	end()
	w.tb.AddTenant(stVNI, "stream")
	w.tb.AllowAll(stVNI)
	for i, hp := range stPairs {
		sp := &streamPair{cEng: w.tb.HostEngine(hp[0]), sEng: w.tb.HostEngine(hp[1])}
		var err error
		end := c.spans.host("cluster", "NewNode")
		sp.client, err = w.tb.NewNode(cluster.ModeMasQ, hp[0], stVNI, packet.NewIP(192, 168, 20, byte(10+2*i)))
		if err == nil {
			sp.server, err = w.tb.NewNode(cluster.ModeMasQ, hp[1], stVNI, packet.NewIP(192, 168, 20, byte(11+2*i)))
		}
		end()
		if err != nil {
			return nil, err
		}
		for q := 0; q < stQPs; q++ {
			sp.startAt = append(sp.startAt, simtime.Duration(rng.Int63n(int64(2*simtime.Microsecond))))
			sp.window = append(sp.window, stWindowMin+rng.Intn(stWindowMax-stWindowMin+1))
		}
		sp.probeAt = simtime.Duration(rng.Int63n(int64(2 * simtime.Microsecond)))
		w.pairs = append(w.pairs, sp)
	}
	res.Layer["cluster.build_s"] = build()

	prep := cpuTimer()
	errs := make([]error, 2*len(w.pairs))
	for i, sp := range w.pairs {
		i, sp := i, sp
		port := uint16(7000 + 100*i)
		sp.cEPs = make([]*cluster.Endpoint, stQPs+1)
		sp.sEPs = make([]*cluster.Endpoint, stQPs+1)
		sp.sEng.Spawn(fmt.Sprintf("prep-server%d", i), func(p *simtime.Proc) {
			errs[2*i] = connectAll(p, sp.server, sp.sEPs, func(ep *cluster.Endpoint, q int) (verbs.ConnInfo, error) {
				return ep.ExchangeServer(p, port+uint16(q))
			})
		})
		sp.cEng.Spawn(fmt.Sprintf("prep-client%d", i), func(p *simtime.Proc) {
			errs[2*i+1] = connectAll(p, sp.client, sp.cEPs, func(ep *cluster.Endpoint, q int) (verbs.ConnInfo, error) {
				return ep.ExchangeClient(p, sp.server.VIP, port+uint16(q), simtime.Ms(50))
			})
		})
	}
	end = c.spans.host("simtime", "Run")
	w.tb.Run()
	end()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
	}
	res.Layer["cluster.prep_s"] = prep()
	return w, nil
}

// connectAll sets up len(eps) endpoints on n, exchanging connection
// information with the peer through exchange, and walks each to RTS.
func connectAll(p *simtime.Proc, n *cluster.Node, eps []*cluster.Endpoint,
	exchange func(*cluster.Endpoint, int) (verbs.ConnInfo, error)) error {
	for q := range eps {
		ep, err := n.Setup(p, cluster.DefaultEndpointOpts())
		if err != nil {
			return err
		}
		peer, err := exchange(ep, q)
		if err != nil {
			return err
		}
		if err := ep.ConnectRC(p, peer); err != nil {
			return err
		}
		eps[q] = ep
	}
	return nil
}

func (w *stream) events() uint64 {
	if w.tb.Sharded != nil {
		return w.tb.Sharded.Events()
	}
	return w.tb.Eng.Events()
}

func (w *stream) run() {
	w.start = w.tb.Eng.Now()
	w.tx0, w.retx0, w.drop0 = w.rnicTotals()
	w.deliv0, w.linkDrop0 = w.linkTotals()
	for _, sp := range w.pairs {
		sp := sp
		sp.bw = make([]*simtime.Event[perftest.ThroughputResult], stQPs)
		for q := 0; q < stQPs; q++ {
			q := q
			sp.cEng.At(w.start.Add(sp.startAt[q]), func() {
				sp.bw[q] = perftest.StartWriteBW(sp.cEng, sp.cEPs[q], sp.sEPs[q], stMsg, stMsgsPerQP, sp.window[q])
			})
		}
		cp, spr := sp.cEPs[stQPs], sp.sEPs[stQPs]
		sp.sEng.Spawn("probe.server", func(p *simtime.Proc) {
			for i := 0; ; i++ {
				val := probeVal(i)
				if got, ok := waitFlag(p, spr, val); !ok || got == probeStop {
					sp.stopped = ok
					return
				}
				if !writeFlag(p, spr, cp.Info(), val) {
					return
				}
				sp.served++
			}
		})
		sp.cEng.Spawn("probe.client", func(p *simtime.Proc) {
			p.Sleep(sp.probeAt)
			// Probe for as long as this pair streams; the pair's writes run
			// on this engine, so their completion events are safe to read.
			for i := 0; !sp.streamDone(); i++ {
				val := probeVal(i)
				start := p.Now()
				sp.probes++
				if !writeFlag(p, cp, spr.Info(), val) {
					return
				}
				if _, ok := waitFlag(p, cp, val); !ok {
					return
				}
				w.c.spans.virtual(0, 0, 0, "verbs", "probe_rtt", start, p.Now())
				sp.lats = append(sp.lats, p.Now().Sub(start)/2)
			}
			writeFlag(p, cp, spr.Info(), probeStop)
		})
	}
	end := w.c.spans.host("simtime", "Run")
	w.tb.Run()
	end()
}

func (sp *streamPair) streamDone() bool {
	for _, ev := range sp.bw {
		if ev == nil || !ev.Triggered() {
			return false
		}
	}
	return true
}

// The probe is ib_write_lat's ping-pong with each side on its own host's
// engine: a side polls the last byte of its own buffer for the peer's
// write, then writes the same value back. The payload's last byte is the
// flag; the write is staged just past the flag area. The client ends the
// probe by writing probeStop.
const (
	stProbeFlag = stProbeSize - 1
	probeStop   = 0xff
)

func probeVal(i int) byte { return byte(i%200 + 1) }

// waitFlag polls ep's buffer until the flag byte reads want or probeStop,
// and returns what it read. It gives up (false) after a virtual 100 ms: a
// lost write must fail the probe, not hang the run.
func waitFlag(p *simtime.Proc, ep *cluster.Endpoint, want byte) (byte, bool) {
	b := make([]byte, 1)
	deadline := p.Now().Add(simtime.Ms(100))
	for p.Now() < deadline {
		if ep.Node.Read(ep.Buf+stProbeFlag, b) == nil && (b[0] == want || b[0] == probeStop) {
			return b[0], true
		}
		p.Sleep(stPollEvery)
	}
	return 0, false
}

// writeFlag RDMA-writes a stProbeSize-byte message carrying val into the
// peer's buffer and waits for its completion.
func writeFlag(p *simtime.Proc, ep *cluster.Endpoint, peer verbs.ConnInfo, val byte) bool {
	msg := make([]byte, stProbeSize)
	msg[stProbeFlag] = val
	stage := ep.Buf + 64
	if ep.Node.Write(stage, msg) != nil {
		return false
	}
	if ep.QP.PostSend(p, verbs.SendWR{WRID: uint64(val), Op: verbs.WRWrite,
		LocalAddr: stage, LKey: ep.MR.LKey(), Len: stProbeSize,
		RemoteAddr: peer.Addr, RKey: peer.RKey}) != nil {
		return false
	}
	return ep.SCQ.Wait(p).Status == verbs.WCSuccess
}

func (w *stream) rnicTotals() (tx, retx, drop uint64) {
	for _, h := range w.tb.Hosts {
		tx += h.Dev.Stats.TxPackets
		retx += h.Dev.Stats.Retransmits
		drop += h.Dev.Stats.Dropped
	}
	return
}

func (w *stream) linkTotals() (delivered, dropped uint64) {
	for _, l := range w.tb.Links {
		st := l.Stats()
		delivered += st.Delivered
		dropped += st.Dropped
	}
	return
}

func (w *stream) finish(res *repResult) {
	var lats []simtime.Duration
	var msgs, bytes int64
	var end simtime.Time
	incomplete := 0
	for _, sp := range w.pairs {
		res.Attempted += int64(stQPs*stMsgsPerQP + sp.probes)
		for q, ev := range sp.bw {
			if ev == nil || !ev.Triggered() || ev.Value().Msgs != stMsgsPerQP {
				incomplete++
				res.Failed += stMsgsPerQP
				continue
			}
			r := ev.Value()
			msgs += int64(r.Msgs)
			bytes += r.Bytes
			end = max(end, w.start.Add(sp.startAt[q]+r.Elapsed))
		}
		res.Failed += int64(sp.probes - len(sp.lats))
		lats = append(lats, sp.lats...)
		res.check(sp.stopped && sp.served == sp.probes && len(sp.lats) == sp.probes,
			"probe answered %d and completed %d of %d iterations (stopped: %v)", sp.served, len(sp.lats), sp.probes, sp.stopped)
	}
	res.check(incomplete == 0, "%d streaming QPs did not complete every posted write", incomplete)

	elapsed := end.Sub(w.start).Seconds()
	lat := percentiles(lats)
	res.VT["write_lat_p50_us"] = lat.p50
	res.VT["write_lat_p99_us"] = lat.p99
	res.VT["write_rate_ps"] = float64(msgs) / elapsed
	res.VT["goodput_gbps"] = float64(bytes*8) / elapsed / 1e9
	res.VT["probes"] = float64(len(lats))

	tx, retx, drop := w.rnicTotals()
	deliv, linkDrop := w.linkTotals()
	res.Layer["rnic.tx_packets"] = float64(tx - w.tx0)
	res.Layer["rnic.retransmits"] = float64(retx - w.retx0)
	res.Layer["rnic.dropped"] = float64(drop - w.drop0)
	res.Layer["rnic.goodput_gbps"] = res.VT["goodput_gbps"]
	res.Layer["simnet.delivered"] = float64(deliv - w.deliv0)
	res.Layer["simnet.dropped"] = float64(linkDrop - w.linkDrop0)
}
