package controller

import (
	"errors"

	"masq/internal/simtime"
	"masq/internal/trace"
)

// ErrFenced is returned by a write RPC that raced a shard failover: the
// shard promoted its standby while the request was in flight, so the
// caller cannot know which incarnation holds its write. Fencing turns the
// ambiguity into an explicit failure — the caller retries against the new
// primary (renewals and moves are idempotent), and a deposed primary can
// never silently confirm a write the promoted table does not hold.
var ErrFenced = errors.New("controller: write fenced by shard failover")

// Sharded partitions the mapping table across N controller shards by
// consistent hash of (VNI, vGID). Each shard is a full Controller — its
// own epoch, lease table, fault plan, and push queues — so a crash, a
// partition, or a failover touches one slice of the keyspace while
// connections owned by other shards never notice. With Params.Replicate
// set, every shard also runs a standby Replica fed by a push-replicated
// mutation log; a primary unreachable for FailoverDetect is promoted
// automatically: the replicated prefix becomes the new table under a
// bumped epoch, and the un-replicated tail is fenced.
//
// Concurrency contract: a Sharded whose shards live on different DES
// engine shards must be reached through per-host Remote proxies (the
// front-door methods touch shard state directly). On a single engine the
// front door is safe to call from any proc.
type Sharded struct {
	p      Params
	sm     *ShardMap
	shards []*Shard
}

// Shard is one keyspace slice: the serving primary, its optional standby,
// and the front door's per-shard bookkeeping (service queue, fencing
// generation, failover accounting).
type Shard struct {
	pri *Controller
	rep *Replica
	eng *simtime.Engine

	// gen is the promotion generation — the fencing token. Write RPCs
	// capture it at send and fail with ErrFenced when it moved by reply.
	gen uint64

	// Analytic service queue: every RPC waits at the slot's gate, and
	// batch/dump serialization holds it (see occupy). Uncontended callers
	// pass straight through with no event, which keeps a one-shard
	// Sharded byte-identical to a bare Controller; contended callers park
	// until the deadline, which a batch that slipped in ahead may have
	// extended. The gate's peak is the shard's queue HWM.
	slot *simtime.Gate

	genFenced  uint64 // write RPCs rejected by the gen fence
	failovers  uint64 // standby promotions
	partitions uint64 // partition events begun
}

// ShardStats is one shard's observability snapshot (masqctl's per-shard
// counter table).
type ShardStats struct {
	Epoch        uint64 // current incarnation
	Leases       int    // live table entries
	Down         bool   // primary currently unreachable
	QueueHWM     int    // deepest the service queue has been
	ReplLag      int    // replication-log records not yet applied on the standby
	FencedWrites uint64 // gen-fenced RPCs + truncated log records
	Failovers    uint64 // standby promotions
	Partitions   uint64 // partitions injected
}

// NewSharded builds an N-shard controller. engines supplies the DES engine
// for each shard — shard s runs on engines[s % len(engines)], which is how
// the cluster gives controller shards their own engine-shard affinity. All
// shards share the same Params; per-shard notification-loss PRNGs are
// decorrelated by offsetting the seed with the shard index (shard 0 keeps
// the configured seed, so a one-shard Sharded matches a bare Controller
// byte-for-byte).
func NewSharded(engines []*simtime.Engine, p Params, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	if len(engines) == 0 {
		panic("controller: NewSharded needs at least one engine")
	}
	s := &Sharded{p: p, sm: NewShardMap(n), shards: make([]*Shard, n)}
	for i := 0; i < n; i++ {
		eng := engines[i%len(engines)]
		sp := p
		sp.Seed = p.Seed + int64(i)
		sh := &Shard{pri: New(eng, sp), eng: eng, slot: simtime.NewGate(eng)}
		sh.pri.occupy = sh.occupy
		if p.Replicate {
			sh.rep = newReplica(eng, p.ReplDelay)
			sh.pri.mutated = sh.rep.append
		}
		s.shards[i] = sh
	}
	return s
}

// SetRecorder attaches a trace recorder to every shard primary.
func (s *Sharded) SetRecorder(r *trace.Recorder) {
	for _, sh := range s.shards {
		sh.pri.SetRecorder(r)
	}
}

// SetFaultPlan arms the same fault plan on every shard primary.
func (s *Sharded) SetFaultPlan(fp FaultPlan) {
	for _, sh := range s.shards {
		sh.pri.SetFaultPlan(fp)
	}
}

// Primary returns shard i's serving controller (tests, fault injection,
// per-shard stats).
func (s *Sharded) Primary(i int) *Controller { return s.shards[i].pri }

// StandbyLag returns shard i's replication backlog (0 without replication).
func (s *Sharded) StandbyLag(i int) int {
	if rep := s.shards[i].rep; rep != nil {
		return rep.Lag()
	}
	return 0
}

// SetLagWindow injects replication lag on shard i until the given instant
// (chaos replica-lag event). No-op without replication.
func (s *Sharded) SetLagWindow(i int, until simtime.Time, extra simtime.Duration) {
	if rep := s.shards[i].rep; rep != nil {
		rep.SetLagWindow(until, extra)
	}
}

// ShardStats snapshots shard i's counters.
func (s *Sharded) ShardStats(i int) ShardStats {
	sh := s.shards[i]
	st := ShardStats{
		Epoch:      sh.pri.epoch,
		Down:       sh.pri.down,
		QueueHWM:   sh.slot.Peak(),
		Failovers:  sh.failovers,
		Partitions: sh.partitions,
	}
	now := sh.eng.Now()
	for _, e := range sh.pri.table {
		if e.live(now) {
			st.Leases++
		}
	}
	st.FencedWrites = sh.genFenced
	if sh.rep != nil {
		st.ReplLag = sh.rep.Lag()
		st.FencedWrites += sh.rep.Fenced()
	}
	return st
}

// Dump unions every shard's live mappings for a tenant — the omniscient
// test/ops oracle (see Controller.Dump).
func (s *Sharded) Dump(vni uint32) map[Key]Mapping {
	out := make(map[Key]Mapping)
	for _, sh := range s.shards {
		for k, m := range sh.pri.Dump(vni) {
			out[k] = m
		}
	}
	return out
}

// Size returns the total raw table size across shards.
func (s *Sharded) Size() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.pri.Size()
	}
	return n
}

// MaxEpoch returns the highest shard epoch (coarse convergence oracle).
func (s *Sharded) MaxEpoch() uint64 {
	var ep uint64
	for _, sh := range s.shards {
		if sh.pri.epoch > ep {
			ep = sh.pri.epoch
		}
	}
	return ep
}

// ─── Shard service queue ─────────────────────────────────────────────────

// occupy is the Controller serialization hook: hold the shard's slot for
// cost. When the slot is free this is exactly one Sleep(cost) — the bare
// controller's serialization — so the queue model costs nothing until
// there is actual contention.
func (sh *Shard) occupy(p *simtime.Proc, cost simtime.Duration) {
	sh.slot.Wait(p)
	sh.slot.Hold(p.Now().Add(cost))
	p.Sleep(cost)
}

// ─── Service implementation ──────────────────────────────────────────────

// NumShards returns the keyspace shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Owner returns the shard owning k (pure consistent-hash routing).
func (s *Sharded) Owner(k Key) int { return s.sm.Owner(k) }

// RPCParams returns the shared control-RPC cost model.
func (s *Sharded) RPCParams() Params { return s.p }

// Register routes a fire-and-forget registration to the owning shard.
func (s *Sharded) Register(k Key, m Mapping) {
	s.shards[s.sm.Owner(k)].pri.Register(k, m)
}

// Unregister routes a fire-and-forget removal to the owning shard.
func (s *Sharded) Unregister(k Key) {
	s.shards[s.sm.Owner(k)].pri.Unregister(k)
}

// Resolve looks k up on its owning shard.
func (s *Sharded) Resolve(p *simtime.Proc, k Key) (Mapping, bool, uint64, error) {
	return s.resolveOn(p, s.sm.Owner(k), k)
}

func (s *Sharded) resolveOn(p *simtime.Proc, shard int, k Key) (Mapping, bool, uint64, error) {
	sh := s.shards[shard]
	sh.slot.Wait(p)
	m, ok, err := sh.pri.Lookup(p, k)
	return m, ok, sh.pri.epoch, err
}

// Renew re-asserts a lease on the owning shard, fenced against failover.
func (s *Sharded) Renew(p *simtime.Proc, k Key, m Mapping) (uint64, error) {
	return s.renewOn(p, s.sm.Owner(k), k, m)
}

func (s *Sharded) renewOn(p *simtime.Proc, shard int, k Key, m Mapping) (uint64, error) {
	sh := s.shards[shard]
	sh.slot.Wait(p)
	gen := sh.gen
	ep, err := sh.pri.Renew(p, k, m)
	if err == nil && sh.gen != gen {
		sh.genFenced++
		return 0, ErrFenced
	}
	return ep, err
}

// BatchLookupShard resolves one shard's keys (and applies its renewals) in
// one RPC, fenced against failover because the batch writes.
func (s *Sharded) BatchLookupShard(p *simtime.Proc, shard int, keys []Key, renew []RenewReq) ([]BatchResult, uint64, error) {
	return s.batchOn(p, shard, keys, renew)
}

func (s *Sharded) batchOn(p *simtime.Proc, shard int, keys []Key, renew []RenewReq) ([]BatchResult, uint64, error) {
	sh := s.shards[shard]
	sh.slot.Wait(p)
	gen := sh.gen
	res, ep, err := sh.pri.BatchLookup(p, keys, renew)
	if err == nil && len(renew) > 0 && sh.gen != gen {
		sh.genFenced++
		return nil, 0, ErrFenced
	}
	return res, ep, err
}

// FetchShardDump returns one shard's live mappings for a tenant.
func (s *Sharded) FetchShardDump(p *simtime.Proc, shard int, vni uint32) (map[Key]Mapping, uint64, error) {
	return s.dumpOn(p, shard, vni)
}

func (s *Sharded) dumpOn(p *simtime.Proc, shard int, vni uint32) (map[Key]Mapping, uint64, error) {
	sh := s.shards[shard]
	sh.slot.Wait(p)
	return sh.pri.FetchDump(p, vni)
}

// Suspend routes the migration freeze announcement to the owning shard.
func (s *Sharded) Suspend(p *simtime.Proc, k Key) error {
	return s.suspendOn(p, s.sm.Owner(k), k)
}

func (s *Sharded) suspendOn(p *simtime.Proc, shard int, k Key) error {
	sh := s.shards[shard]
	sh.slot.Wait(p)
	return sh.pri.Suspend(p, k)
}

// Move routes the migration commit to the owning shard, fenced against
// failover.
func (s *Sharded) Move(p *simtime.Proc, k Key, m Mapping, qpnMap map[uint32]uint32) error {
	return s.moveOn(p, s.sm.Owner(k), k, m, qpnMap)
}

func (s *Sharded) moveOn(p *simtime.Proc, shard int, k Key, m Mapping, qpnMap map[uint32]uint32) error {
	sh := s.shards[shard]
	sh.slot.Wait(p)
	gen := sh.gen
	err := sh.pri.Move(p, k, m, qpnMap)
	if err == nil && sh.gen != gen {
		sh.genFenced++
		return ErrFenced
	}
	return err
}

// SubscribeShards subscribes fn to every shard's push channel.
func (s *Sharded) SubscribeShards(fn func(shard int, n Notify)) []SubView {
	out := make([]SubView, len(s.shards))
	for i, sh := range s.shards {
		i := i
		out[i] = sh.pri.Subscribe(func(n Notify) { fn(i, n) })
	}
	return out
}

// subscribeOn subscribes to one shard (the Remote relay's entry point).
func (s *Sharded) subscribeOn(shard int, fn func(Notify)) *Subscription {
	return s.shards[shard].pri.Subscribe(fn)
}

// ─── Failover, fencing, partition ────────────────────────────────────────

// CrashShard kills shard i's primary: its slice of the table and its
// queued pushes are gone, and RPCs to it time out. With replication the
// standby is promoted after FailoverDetect; without, the shard stays dark
// until RestartShard.
func (s *Sharded) CrashShard(i int) {
	sh := s.shards[i]
	if sh.pri.down {
		return
	}
	sh.pri.Crash()
	s.scheduleFailover(i)
}

// RestartShard brings a crashed shard primary back empty under a bumped
// epoch (the no-replication recovery path — leases rebuild the slice). A
// standby, if any, is re-imaged from the restarted (empty) table.
func (s *Sharded) RestartShard(i int) {
	sh := s.shards[i]
	if !sh.pri.down {
		return
	}
	sh.pri.Restart()
	sh.gen++
	if sh.rep != nil {
		sh.rep.reset(sh.pri.table)
	}
}

// PartitionShard makes shard i's primary unreachable for heal. Unlike a
// crash nothing is lost on the primary — its table and queued pushes
// survive — but clients cannot tell the difference. Healing before
// FailoverDetect is a blip: the primary resumes in place. Healing after
// it finds the standby already promoted; the deposed primary rejoins as a
// fresh standby (its un-replicated writes were fenced at promotion).
func (s *Sharded) PartitionShard(i int, heal simtime.Duration) {
	sh := s.shards[i]
	if sh.pri.down {
		return
	}
	sh.pri.down = true
	sh.partitions++
	s.scheduleFailover(i)
	sh.eng.After(heal, func() { s.healPartition(i) })
}

func (s *Sharded) healPartition(i int) {
	sh := s.shards[i]
	if sh.pri.down {
		// Healed before the failover detector fired: no promotion happened,
		// the primary picks up where it left off.
		sh.pri.down = false
		return
	}
	// The standby was promoted while we were dark: the deposed primary's
	// state is obsolete. It rejoins as a fresh standby imaged from the
	// promoted table.
	if sh.rep != nil {
		sh.rep.reset(sh.pri.table)
	}
}

// scheduleFailover arms the promotion timer for a down shard (replication
// only — without a standby there is nothing to promote).
func (s *Sharded) scheduleFailover(i int) {
	if !s.p.Replicate {
		return
	}
	sh := s.shards[i]
	sh.eng.After(s.p.failoverDetect(), func() { s.promote(i) })
}

// promote installs shard i's standby as the new primary: the replicated
// prefix becomes the serving table under a bumped epoch, the un-applied
// log tail is truncated (fenced writes), and the fencing generation moves
// so in-flight writes spanning the promotion fail explicitly. The lag
// tail's mappings are repaired the same way a crash is: lease renewals
// re-assert them against the new incarnation.
func (s *Sharded) promote(i int) {
	sh := s.shards[i]
	c := sh.pri
	if !c.down {
		return // healed or manually restarted before the detector fired
	}
	c.down = false
	c.Stats.Restarts++
	c.epoch++
	sh.rep.truncate()
	c.table = sh.rep.snapshot()
	sh.gen++
	sh.failovers++
}

// CrashAll crashes every shard primary (total control-plane outage — the
// chaos CtrlOutage event on a sharded deployment).
func (s *Sharded) CrashAll() {
	for i := range s.shards {
		s.CrashShard(i)
	}
}

// RestartAll restarts every crashed shard primary.
func (s *Sharded) RestartAll() {
	for i := range s.shards {
		s.RestartShard(i)
	}
}
