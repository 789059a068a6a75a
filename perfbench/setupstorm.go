package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"masq/internal/cluster"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/trace"
	"masq/internal/verbs"
)

// setup-storm runs the full MasQ control path: every VM of an 8-host
// testbed sets up and tears down RC connections back to back, each
// create_cq → create_qp → INIT → RTR → RTS crossing verbs, virtio, the
// backend, RConnrename, RConntrack and RNIC firmware. A churn proc revokes
// and re-grants the rule that admits a set of long-lived victim
// connections, so RConntrack enforcement runs beside valid_conn.
func init() {
	register(&workload{
		name:    "setup-storm",
		aliases: [3]string{"setup_p50_us", "setup_p99_us", "setup_rate_cps"},
		build:   buildSetupStorm,
	})
}

const (
	ssHosts       = 8
	ssVMsPerHost  = 4
	ssSetupsPerVM = 500
	ssVNI         = 100
	ssDeadRules   = 10000 // security chain that never matches
	ssVictims     = 4     // victim connections (QP pairs) per churn round
	ssChurnPeriod = 10 * simtime.Millisecond
	ssRevokeLimit = 10 * simtime.Millisecond  // a revoke slower than this fails its check
	ssMaxThink    = 100 * simtime.Microsecond // a VM idles uniformly up to this long between setups
)

var ssVictimNet = mustCIDR("192.168.9.0/24")

type setupStorm struct {
	c      *config
	tb     *cluster.Testbed
	tenant *overlay.Tenant
	rng    *rand.Rand

	vms     []*stormVM
	victims [2]*stormVM
	actors  map[string]bool // trace actors of the storm VMs

	allow      overlay.Rule // the churned narrow allow
	allowID    int
	ruleNs     []float64 // host ns per Policy.AddRule/RemoveRule
	stormStart simtime.Time
	lastSetup  simtime.Time
	stormLeft  int

	setupLats []simtime.Duration
	revokes   []simtime.Duration
	rounds    int
	attempted int64
	failed    int64
	slowRevs  int
}

// stormVM is one VM with an open device and PD, plus an idle target QP
// whose address other VMs' connections point at.
type stormVM struct {
	host   int
	node   *cluster.Node
	dev    verbs.Device
	pd     verbs.PD
	target verbs.ConnInfo
}

func mustCIDR(s string) packet.CIDR {
	c, ok := packet.ParseCIDR(s)
	if !ok {
		panic("bad CIDR " + s)
	}
	return c
}

func buildSetupStorm(c *config, res *repResult) (instance, error) {
	w := &setupStorm{c: c, rng: rand.New(rand.NewSource(c.seed)), actors: map[string]bool{}}
	build := cpuTimer()
	cfg := cluster.DefaultConfig()
	cfg.Hosts = ssHosts
	cfg.CtrlShards = 4
	cfg.Trace = c.traced
	end := c.spans.host("cluster", "New")
	w.tb = cluster.New(cfg)
	end()

	w.tenant = w.tb.AddTenant(ssVNI, "storm")
	end = c.spans.host("overlay", "Policy.AddRules")
	dead := make([]overlay.Rule, ssDeadRules)
	for i := range dead {
		// 10.0.0.0/8 sources never appear in this tenant.
		src := packet.CIDR{IP: packet.NewIP(10, byte(i>>16), byte(i>>8), byte(i)), Bits: 32}
		dead[i] = overlay.Rule{Priority: 500, Proto: overlay.ProtoAny, Src: src, Dst: mustCIDR("0.0.0.0/0"), Action: overlay.Deny}
	}
	w.tenant.Policy.AddRules(dead)
	// Victim traffic is denied unless the churned allow above it is in place.
	w.tenant.Policy.AddRule(overlay.Rule{Priority: 200, Proto: overlay.ProtoAny,
		Src: ssVictimNet, Dst: ssVictimNet, Action: overlay.Deny})
	w.allow = overlay.Rule{Priority: 300, Proto: overlay.ProtoAny, Src: ssVictimNet, Dst: ssVictimNet, Action: overlay.Allow}
	w.allowID = w.tenant.Policy.AddRule(w.allow)
	w.tb.AllowAll(ssVNI)
	end()

	newVM := func(host int, vip packet.IP) (*stormVM, error) {
		end := c.spans.host("cluster", "NewNode")
		defer end()
		n, err := w.tb.NewNode(cluster.ModeMasQ, host, ssVNI, vip)
		if err != nil {
			return nil, err
		}
		return &stormVM{host: host, node: n}, nil
	}
	for h := 0; h < ssHosts; h++ {
		for v := 0; v < ssVMsPerHost; v++ {
			vm, err := newVM(h, packet.NewIP(192, 168, byte(1+h), byte(10+v)))
			if err != nil {
				return nil, err
			}
			w.vms = append(w.vms, vm)
			w.actors[fmt.Sprintf("vni%d/%s", ssVNI, vm.node.Name)] = true
		}
	}
	for i := range w.victims {
		vm, err := newVM(i, packet.NewIP(192, 168, 9, byte(1+i)))
		if err != nil {
			return nil, err
		}
		w.victims[i] = vm
	}
	res.Layer["cluster.build_s"] = build()

	prep := cpuTimer()
	var prepErr error
	w.tb.Eng.Spawn("prep", func(p *simtime.Proc) {
		opts := cluster.DefaultEndpointOpts()
		opts.BufLen, opts.CQE, opts.Caps = 4096, 4, verbs.QPCaps{MaxSendWR: 1, MaxRecvWR: 1}
		for _, vm := range append(w.vms, w.victims[:]...) {
			ep, err := vm.node.Setup(p, opts)
			if err != nil {
				prepErr = err
				return
			}
			vm.dev, vm.pd, vm.target = ep.Dev, ep.PD, ep.Info()
		}
	})
	end = c.spans.host("simtime", "Run")
	w.tb.Run()
	end()
	if prepErr != nil {
		return nil, fmt.Errorf("prep: %w", prepErr)
	}
	res.Layer["cluster.prep_s"] = prep()
	return w, nil
}

func (w *setupStorm) events() uint64 { return w.tb.Eng.Events() }

func (w *setupStorm) run() {
	w.stormStart = w.tb.Eng.Now()
	w.stormLeft = len(w.vms)
	for i, vm := range w.vms {
		// Each VM's peers and think times are drawn up front so they
		// depend only on the seed.
		peers := make([]verbs.ConnInfo, ssSetupsPerVM)
		think := make([]simtime.Duration, ssSetupsPerVM)
		for j := range peers {
			for {
				peer := w.vms[w.rng.Intn(len(w.vms))]
				if peer.host != vm.host {
					peers[j] = peer.target
					break
				}
			}
			think[j] = simtime.Duration(w.rng.Int63n(int64(ssMaxThink)))
		}
		vm := vm
		w.tb.Eng.Spawn(fmt.Sprintf("storm%d", i), func(p *simtime.Proc) {
			for j, peer := range peers {
				p.Sleep(think[j])
				w.setupOnce(p, vm, peer)
			}
			w.stormLeft--
		})
	}
	w.tb.Eng.Spawn("churn", w.churn)
	end := w.c.spans.host("simtime", "Run")
	w.tb.Run()
	end()
}

// setupOnce creates, connects and destroys one RC connection toward peer.
func (w *setupStorm) setupOnce(p *simtime.Proc, vm *stormVM, peer verbs.ConnInfo) {
	w.attempted++
	req := w.c.spans.newID()
	start := p.Now()
	step := func(name string, f func() error) error {
		t := p.Now()
		err := f()
		w.c.spans.virtual(0, req, req, "verbs", name, t, p.Now())
		return err
	}
	var cq verbs.CQ
	var qp verbs.QP
	err := step("create_cq", func() (err error) { cq, err = vm.dev.CreateCQ(p, 4); return })
	if err == nil {
		err = step("create_qp", func() (err error) {
			qp, err = vm.dev.CreateQP(p, vm.pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 1, MaxRecvWR: 1})
			return
		})
	}
	if err == nil {
		err = step("modify_init", func() error { return qp.Modify(p, verbs.Attr{ToState: verbs.StateInit}) })
	}
	if err == nil {
		err = step("modify_rtr", func() error {
			return qp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: peer.GID, DQPN: peer.QPN})
		})
	}
	if err == nil {
		err = step("modify_rts", func() error { return qp.Modify(p, verbs.Attr{ToState: verbs.StateRTS}) })
	}
	if err == nil {
		w.setupLats = append(w.setupLats, p.Now().Sub(start))
		w.c.spans.virtual(req, 0, req, "apps", "setup", start, p.Now())
		w.lastSetup = max(w.lastSetup, p.Now())
	} else {
		w.failed++
	}
	derr := step("destroy", func() error {
		var err error
		if qp != nil {
			err = qp.Destroy(p)
		}
		if cq != nil {
			if cerr := cq.Destroy(p); err == nil {
				err = cerr
			}
		}
		return err
	})
	if derr != nil && err == nil {
		w.failed++
	}
}

// victimConn is one long-lived connection between the two victim VMs.
type victimConn struct {
	cq [2]verbs.CQ
	qp [2]verbs.QP
}

// churn connects the victims, revokes their allow rule after a fixed
// period, waits for RConntrack to reset every victim QP, tears them down
// and re-grants the rule — until the storm is over.
func (w *setupStorm) churn(p *simtime.Proc) {
	for w.stormLeft > 0 {
		round := p.Now()
		conns, ok := w.connectVictims(p)
		if !ok {
			return
		}
		p.Sleep(round.Add(ssChurnPeriod).Sub(p.Now()))

		revoked := p.Now()
		w.timeRule("Policy.RemoveRule", func() { w.tenant.Policy.RemoveRule(w.allowID) })
		for !victimsReset(conns) && p.Now().Sub(revoked) < ssRevokeLimit {
			p.Sleep(simtime.Microsecond)
		}
		if !victimsReset(conns) {
			w.slowRevs++
		}
		w.revokes = append(w.revokes, p.Now().Sub(revoked))
		w.c.spans.virtual(0, 0, 0, "rconntrack", "revoke", revoked, p.Now())
		w.rounds++

		for _, vc := range conns {
			for s := 0; s < 2; s++ {
				w.attempted++
				if vc.qp[s].Destroy(p) != nil || vc.cq[s].Destroy(p) != nil {
					w.failed++
				}
			}
		}
		w.timeRule("Policy.AddRule", func() { w.allowID = w.tenant.Policy.AddRule(w.allow) })
	}
}

// timeRule runs one policy update and records its host cost.
func (w *setupStorm) timeRule(name string, f func()) {
	end := w.c.spans.host("overlay", name)
	t := time.Now()
	f()
	w.ruleNs = append(w.ruleNs, float64(time.Since(t).Nanoseconds()))
	end()
}

// connectVictims builds ssVictims QP pairs between the two victim VMs and
// walks both sides of each to RTS.
func (w *setupStorm) connectVictims(p *simtime.Proc) ([]victimConn, bool) {
	start := p.Now()
	conns := make([]victimConn, ssVictims)
	fail := func() ([]victimConn, bool) {
		w.failed++
		return nil, false
	}
	for i := range conns {
		for s, vm := range w.victims {
			w.attempted++
			cq, err := vm.dev.CreateCQ(p, 4)
			if err != nil {
				return fail()
			}
			qp, err := vm.dev.CreateQP(p, vm.pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 1, MaxRecvWR: 1})
			if err != nil {
				return fail()
			}
			if err := qp.Modify(p, verbs.Attr{ToState: verbs.StateInit}); err != nil {
				return fail()
			}
			conns[i].cq[s], conns[i].qp[s] = cq, qp
		}
		for s := range w.victims {
			peer := w.victims[1-s]
			if err := conns[i].qp[s].Modify(p, verbs.Attr{ToState: verbs.StateRTR,
				DGID: peer.target.GID, DQPN: conns[i].qp[1-s].Num()}); err != nil {
				return fail()
			}
			if err := conns[i].qp[s].Modify(p, verbs.Attr{ToState: verbs.StateRTS}); err != nil {
				return fail()
			}
		}
	}
	w.c.spans.virtual(0, 0, 0, "verbs", "victim_connect", start, p.Now())
	return conns, true
}

func victimsReset(conns []victimConn) bool {
	for _, vc := range conns {
		for _, qp := range vc.qp {
			if qp.State() != verbs.StateError {
				return false
			}
		}
	}
	return true
}

func (w *setupStorm) finish(res *repResult) {
	res.Attempted, res.Failed = w.attempted, w.failed
	lat := percentiles(w.setupLats)
	res.VT["setup_p50_us"] = lat.p50
	res.VT["setup_p99_us"] = lat.p99
	res.VT["setup_rate_cps"] = float64(len(w.setupLats)) / w.lastSetup.Sub(w.stormStart).Seconds()
	res.VT["revoke_p50_us"] = percentiles(w.revokes).p50
	res.VT["revoke_rounds"] = float64(w.rounds)

	var hits, misses, retries, vHits, vMisses, validated, resets, revalidated, rctRows uint64
	for _, b := range w.tb.Backends {
		if b == nil {
			continue
		}
		hits += b.Stats.CacheHits
		misses += b.Stats.CacheMisses
		retries += b.Stats.QueryRetries
		st := b.CT.Stats
		vHits += st.VerdictHits
		vMisses += st.VerdictMisses
		validated += st.Validated
		resets += st.Resets
		revalidated += st.Revalidated
		rctRows += uint64(len(b.CT.Conns()))
	}
	res.Layer["rconnrename.cache_hit_ratio"] = ratio(hits, hits+misses)
	res.Layer["rconnrename.query_retries"] = float64(retries)
	res.Layer["rconntrack.verdict_hit_ratio"] = ratio(vHits, vHits+vMisses)
	res.Layer["rconntrack.validated"] = float64(validated)
	res.Layer["rconntrack.resets"] = float64(resets)
	res.Layer["rconntrack.revalidated"] = float64(revalidated)
	res.Layer["rconntrack.revoke_p50_us"] = res.VT["revoke_p50_us"]
	res.Layer["overlay.rule_update_ns"] = median(w.ruleNs)
	var rpcs uint64
	var hwm int
	for i := 0; i < w.tb.CtrlSharded.NumShards(); i++ {
		rpcs += w.tb.CtrlSharded.Primary(i).Stats.Queries
		hwm = max(hwm, w.tb.CtrlSharded.ShardStats(i).QueueHWM)
	}
	res.Layer["controller.rpcs"] = float64(rpcs)
	res.Layer["controller.queue_hwm"] = float64(hwm)
	if w.c.traced {
		w.attribute(res)
	}

	res.check(w.stormLeft == 0, "%d storm VMs never finished", w.stormLeft)
	res.check(w.slowRevs == 0, "%d of %d revokes left a victim QP out of ERROR for %v", w.slowRevs, w.rounds, ssRevokeLimit)
	res.check(resets == uint64(w.rounds*ssVictims*2),
		"RConntrack reset %d QPs over %d revokes, want %d", resets, w.rounds, w.rounds*ssVictims*2)
	res.check(rctRows == 0, "%d RCT rows left after every connection was destroyed", rctRows)
}

// attribute turns the trace recorder's per-invocation layer self times
// into per-setup means, and checks that they add up to the benchmark's own
// verb spans.
func (w *setupStorm) attribute(res *repResult) {
	verbOf := map[string]string{
		"create_cq": "create_cq", "create_qp": "create_qp", "modify_qp_INIT": "modify_init",
		"modify_qp_RTR": "modify_rtr", "modify_qp_RTS": "modify_rts",
		"destroy_qp": "destroy", "destroy_cq": "destroy",
	}
	var layer [trace.NumLayers]simtime.Duration
	var total simtime.Duration
	for _, b := range w.tb.Trace.Attribute() {
		if !w.actors[b.Actor] || b.Start < w.stormStart || verbOf[b.Verb] == "" {
			continue
		}
		for l := range layer {
			layer[l] += b.Layer[l]
		}
		total += b.Total
	}
	setups := float64(len(w.vms) * ssSetupsPerVM)
	var selfSum simtime.Duration
	for l := trace.Layer(0); l < trace.NumLayers; l++ {
		res.Layer["vt."+strings.ReplaceAll(l.String(), "/", "-")+"_us"] = layer[l].Micros() / setups
		selfSum += layer[l]
	}
	var spanSum float64
	for _, v := range []string{"create_cq", "create_qp", "modify_init", "modify_rtr", "modify_rts", "destroy"} {
		m := w.c.spans.meanMicros(v)
		res.Layer["verb."+v+"_us"] = m
		spanSum += m
	}
	perSetup := selfSum.Micros() / setups
	res.check(selfSum == total && abs(perSetup-spanSum) <= 1e-6*spanSum,
		"layer self times (%.3f µs per setup) do not sum to the verb spans (%.3f µs)", perSetup, spanSum)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
