package main

import (
	"fmt"
	"math/rand"
	"sort"

	"masq/internal/controller"
	"masq/internal/packet"
	"masq/internal/simtime"
)

// ctrl-storm drives the sharded controller directly, with no testbed
// around it: 1000 hosts × 100 VMs registered across 4 replicated shards,
// then a synchronized lease-renewal wave racing a rename flood. Controller
// queueing and simtime sleep/wake are the whole cost; virtio, rnic and
// simnet do no work.
func init() {
	register(&workload{
		name:    "ctrl-storm",
		aliases: [3]string{"flood_p50_us", "flood_p99_us", "resolve_rate_ps"},
		build:   buildCtrlStorm,
	})
}

const (
	csHosts     = 1000
	csVMs       = 100
	csResolves  = 20 // per host, each waiting for the previous one
	csShards    = 4
	csVNI       = 42
	csJitterUs  = 100 // renewal-wave spread
	retryBudget = 8   // attempts before a resolve or renewal counts as failed
)

var retryBackoff = simtime.Us(500)

type ctrlStorm struct {
	c   *config
	eng *simtime.Engine
	s   *controller.Sharded
	rng *rand.Rand

	waveStart, waveEnd simtime.Time
	wavesDone          int
	lastResolve        simtime.Time
	lats               []simtime.Duration // per resolve
	floods             []simtime.Duration // per host: its whole rename flood
	waits              []simtime.Duration // resolve span minus the idle RTT
	resolveFailed      int
	retries            int64
	attempted, failed  int64
	wrong              int
}

func csKey(h, v int) controller.Key {
	return controller.Key{VNI: csVNI, VGID: packet.GIDFromIP(packet.NewIP(10, byte(h>>8), byte(h), byte(v)))}
}

func csMapping(h int) controller.Mapping {
	ip := packet.NewIP(172, 16, byte(h>>8), byte(h))
	return controller.Mapping{PGID: packet.GIDFromIP(ip), PIP: ip}
}

func buildCtrlStorm(c *config, res *repResult) (instance, error) {
	w := &ctrlStorm{c: c, eng: simtime.NewEngine(), rng: rand.New(rand.NewSource(c.seed))}
	p := controller.DefaultParams()
	p.LeaseTTL = simtime.Ms(10000) // nothing expires mid-storm
	p.Replicate = true
	p.ReplDelay = simtime.Us(20)
	p.Seed = c.seed
	w.s = controller.NewSharded([]*simtime.Engine{w.eng}, p, csShards)

	elapsed := cpuTimer()
	for h := 0; h < csHosts; h++ {
		end := c.spans.host("controller", "Register")
		m := csMapping(h)
		for v := 0; v < csVMs; v++ {
			w.s.Register(csKey(h, v), m)
		}
		end()
	}
	// Drain the replication log, so the storm starts from a quiet control
	// plane.
	end := c.spans.host("simtime", "Run")
	w.eng.Run()
	end()
	res.Layer["controller.register_s"] = elapsed()
	w.waveStart = w.eng.Now().Add(simtime.Ms(1))
	return w, nil
}

func (w *ctrlStorm) events() uint64 { return w.eng.Events() }

func (w *ctrlStorm) run() {
	// Inputs are drawn up front, host by host, so they depend only on the
	// seed.
	type hostPlan struct {
		renewAt, floodAt simtime.Duration
		targets          [csResolves][2]int
	}
	plans := make([]hostPlan, csHosts)
	for h := range plans {
		plans[h].renewAt = simtime.Duration(w.rng.Int63n(int64(simtime.Us(csJitterUs))))
		plans[h].floodAt = simtime.Us(50) + simtime.Duration(w.rng.Int63n(int64(simtime.Us(csJitterUs))))
		for i := range plans[h].targets {
			plans[h].targets[i] = [2]int{w.rng.Intn(csHosts), w.rng.Intn(csVMs)}
		}
	}
	for h := 0; h < csHosts; h++ {
		h, plan := h, plans[h]
		w.eng.Spawn(fmt.Sprintf("wave%d", h), func(p *simtime.Proc) {
			p.Sleep(w.waveStart.Sub(p.Now()) + plan.renewAt)
			w.renewHost(p, h)
		})
		w.eng.Spawn(fmt.Sprintf("flood%d", h), func(p *simtime.Proc) {
			p.Sleep(w.waveStart.Sub(p.Now()) + plan.floodAt)
			start := p.Now()
			for _, t := range plan.targets {
				w.resolve(p, t[0], t[1])
			}
			w.floods = append(w.floods, p.Now().Sub(start))
		})
	}
	end := w.c.spans.host("simtime", "Run")
	w.eng.Run()
	end()
}

// renewHost re-asserts all of host h's leases, one batch RPC per owning
// shard — the edge's per-shard fan-out.
func (w *ctrlStorm) renewHost(p *simtime.Proc, h int) {
	m := csMapping(h)
	perShard := make([][]controller.RenewReq, csShards)
	for v := 0; v < csVMs; v++ {
		k := csKey(h, v)
		sh := w.s.Owner(k)
		perShard[sh] = append(perShard[sh], controller.RenewReq{K: k, M: m})
	}
	req := w.c.spans.newID()
	for sh, renew := range perShard {
		if len(renew) == 0 {
			continue
		}
		w.attempted++
		err := w.retry(p, func() error {
			start := p.Now()
			_, _, err := w.s.BatchLookupShard(p, sh, nil, renew)
			w.c.spans.virtual(0, req, req, "controller", "BatchLookupShard", start, p.Now())
			return err
		})
		if err != nil {
			w.failed++
		}
	}
	w.wavesDone++
	if w.wavesDone == csHosts {
		w.waveEnd = p.Now()
	}
}

// resolve looks one key up and checks the answer against the registration.
func (w *ctrlStorm) resolve(p *simtime.Proc, th, tv int) {
	w.attempted++
	req := w.c.spans.newID()
	start := p.Now()
	var m controller.Mapping
	var ok bool
	err := w.retry(p, func() error {
		t := p.Now()
		var err error
		m, ok, _, err = w.s.Resolve(p, csKey(th, tv))
		w.c.spans.virtual(0, req, req, "controller", "Resolve", t, p.Now())
		return err
	})
	if err != nil {
		w.failed++
		w.resolveFailed++
		return
	}
	if !ok || m != csMapping(th) {
		w.wrong++
	}
	lat := p.Now().Sub(start)
	w.lats = append(w.lats, lat)
	w.waits = append(w.waits, lat-w.s.RPCParams().QueryRTT)
	if p.Now() > w.lastResolve {
		w.lastResolve = p.Now()
	}
}

// retry calls rpc until it succeeds or the budget is spent, backing off
// between attempts.
func (w *ctrlStorm) retry(p *simtime.Proc, rpc func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		if err = rpc(); err == nil || attempt == retryBudget {
			return err
		}
		w.retries++
		p.Sleep(retryBackoff)
	}
}

func (w *ctrlStorm) finish(res *repResult) {
	res.Attempted, res.Failed = w.attempted, w.failed
	lat := percentiles(w.lats)
	res.VT["resolve_p50_us"] = lat.p50
	res.VT["resolve_p99_us"] = lat.p99
	res.VT["resolve_rate_ps"] = float64(len(w.lats)) / w.lastResolve.Sub(w.waveStart).Seconds()
	res.VT["renew_wave_ms"] = w.waveEnd.Sub(w.waveStart).Millis()
	flood := percentiles(w.floods)
	res.VT["flood_p50_us"] = flood.p50
	res.VT["flood_p99_us"] = flood.p99

	var hwm int
	var rpcs uint64
	for i := 0; i < csShards; i++ {
		hwm = max(hwm, w.s.ShardStats(i).QueueHWM)
		st := w.s.Primary(i).Stats
		rpcs += st.Queries
	}
	res.Layer["controller.queue_hwm"] = float64(hwm)
	res.Layer["controller.queue_wait_p99_us"] = percentiles(w.waits).p99
	res.Layer["controller.rpcs"] = float64(rpcs)
	res.Layer["controller.retries"] = float64(w.retries)
	res.Layer["controller.renew_wave_ms"] = res.VT["renew_wave_ms"]

	res.check(w.wrong == 0, "%d resolves returned a mapping other than the registered one", w.wrong)
	res.check(w.wavesDone == csHosts, "renewal wave finished on %d of %d hosts", w.wavesDone, csHosts)
	res.check(w.s.Size() == csHosts*csVMs, "controller table holds %d mappings, want %d", w.s.Size(), csHosts*csVMs)
	res.check(len(w.floods) == csHosts && len(w.lats)+w.resolveFailed == csHosts*csResolves,
		"rename flood finished on %d of %d hosts, %d of %d resolves answered",
		len(w.floods), csHosts, len(w.lats), csHosts*csResolves)
}

type pcts struct{ p50, p99 float64 }

// percentiles returns the p50 and p99 of ds in microseconds, by the same
// nearest-rank rule the repo's benches use.
func percentiles(ds []simtime.Duration) pcts {
	if len(ds) == 0 {
		return pcts{}
	}
	s := append([]simtime.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return pcts{p50: s[len(s)/2].Micros(), p99: s[len(s)*99/100].Micros()}
}
