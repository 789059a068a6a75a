package controller

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// keyN derives a distinct (VNI, vGID) key from an index.
func keyN(vni uint32, i int) Key {
	return Key{VNI: vni, VGID: packet.GIDFromIP(packet.NewIP(10, byte(i>>16), byte(i>>8), byte(i)))}
}

func TestShardMapDeterministicAndBalanced(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		sm := NewShardMap(n)
		sm2 := NewShardMap(n)
		counts := make([]int, n)
		const keys = 4096
		for i := 0; i < keys; i++ {
			k := keyN(uint32(1+i%5), i)
			o := sm.Owner(k)
			if o < 0 || o >= n {
				t.Fatalf("n=%d: owner %d out of range", n, o)
			}
			if o2 := sm2.Owner(k); o2 != o {
				t.Fatalf("n=%d: owner not deterministic (%d vs %d)", n, o, o2)
			}
			counts[o]++
		}
		// Consistent hashing with 64 vnodes/shard should stay within a
		// loose factor of even; a collapsed ring would fail this wildly.
		want := keys / n
		for s, c := range counts {
			if c < want/3 || c > want*3 {
				t.Fatalf("n=%d: shard %d owns %d of %d keys (expected ~%d)", n, s, c, keys, want)
			}
		}
	}
}

// TestOneShardMatchesBareController is the Shards=1 oracle: the same
// operation sequence against a bare Controller and a one-shard Sharded must
// produce identical reply instants and identical stats — the sharding
// layer's serialization queue must cost nothing when the caller stream is
// uncontended (concurrent callers DO queue; that contention model is what
// the HWM test below exercises).
func TestOneShardMatchesBareController(t *testing.T) {
	type runResult struct {
		times []simtime.Duration
		stats string
	}
	drive := func(reg func(Key, Mapping), resolve func(p *simtime.Proc, k Key) error,
		dump func(p *simtime.Proc) error, eng *simtime.Engine) runResult {
		var res runResult
		for i := 0; i < 8; i++ {
			reg(keyN(7, i), mapping(packet.NewIP(172, 16, 0, byte(i+1))))
		}
		eng.Spawn("driver", func(p *simtime.Proc) {
			for i := 0; i < 12; i++ {
				start := p.Now()
				if err := resolve(p, keyN(7, i%8)); err != nil {
					t.Errorf("resolve: %v", err)
				}
				res.times = append(res.times, p.Now().Sub(start))
			}
			if err := dump(p); err != nil {
				t.Errorf("dump: %v", err)
			}
			res.times = append(res.times, p.Now().Sub(simtime.Time(0)))
		})
		eng.Run()
		return res
	}

	engA := simtime.NewEngine()
	bare := New(engA, DefaultParams())
	a := drive(bare.Register,
		func(p *simtime.Proc, k Key) error { _, _, err := bare.Lookup(p, k); return err },
		func(p *simtime.Proc) error { _, _, err := bare.FetchDump(p, 7); return err },
		engA)
	a.stats = fmt.Sprintf("%+v", bare.Stats)

	engB := simtime.NewEngine()
	sh := NewSharded([]*simtime.Engine{engB}, DefaultParams(), 1)
	b := drive(sh.Register,
		func(p *simtime.Proc, k Key) error { _, _, _, err := sh.Resolve(p, k); return err },
		func(p *simtime.Proc) error { _, _, err := sh.FetchShardDump(p, 0, 7); return err },
		engB)
	b.stats = fmt.Sprintf("%+v", sh.Primary(0).Stats)

	if len(a.times) != len(b.times) {
		t.Fatalf("op counts differ: %d vs %d", len(a.times), len(b.times))
	}
	for i := range a.times {
		if a.times[i] != b.times[i] {
			t.Fatalf("op %d: bare %v vs one-shard %v", i, a.times[i], b.times[i])
		}
	}
	if a.stats != b.stats {
		t.Fatalf("stats diverge:\nbare:  %s\nshard: %s", a.stats, b.stats)
	}
}

// TestShardCrashIsolation: crashing one shard's primary fails only RPCs for
// keys it owns; the other shards keep serving.
func TestShardCrashIsolation(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewSharded([]*simtime.Engine{eng}, DefaultParams(), 4)
	const n = 64
	for i := 0; i < n; i++ {
		s.Register(keyN(7, i), mapping(packet.NewIP(172, 16, 0, byte(i+1))))
	}
	victim := s.Owner(keyN(7, 0))
	eng.Spawn("crash", func(p *simtime.Proc) {
		p.Sleep(simtime.Ms(1))
		s.CrashShard(victim)
		for i := 0; i < n; i++ {
			k := keyN(7, i)
			_, ok, _, err := s.Resolve(p, k)
			if s.Owner(k) == victim {
				if err == nil {
					t.Errorf("key %d on crashed shard resolved", i)
				}
			} else if err != nil || !ok {
				t.Errorf("key %d on healthy shard %d failed: ok=%v err=%v", i, s.Owner(k), ok, err)
			}
		}
	})
	eng.Run()
	for i := 0; i < 4; i++ {
		st := s.ShardStats(i)
		if i == victim {
			if !st.Down || st.Leases != 0 {
				t.Fatalf("victim shard %d: %+v", i, st)
			}
		} else if st.Down || st.Leases == 0 || st.Epoch != 1 {
			t.Fatalf("healthy shard %d disturbed: %+v", i, st)
		}
	}
}

// TestFailoverPromotesStandby: with replication, a crashed primary's
// standby is promoted after the detect window with the replicated table and
// a bumped epoch — on that shard only.
func TestFailoverPromotesStandby(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.Replicate = true
	p.ReplDelay = simtime.Us(10)
	s := NewSharded([]*simtime.Engine{eng}, p, 2)
	const n = 32
	for i := 0; i < n; i++ {
		s.Register(keyN(7, i), mapping(packet.NewIP(172, 16, 0, byte(i+1))))
	}
	victim := s.Owner(keyN(7, 0))
	eng.Spawn("driver", func(pr *simtime.Proc) {
		pr.Sleep(simtime.Ms(5)) // let the replication log drain
		if lag := s.StandbyLag(victim); lag != 0 {
			t.Errorf("standby lag %d before crash", lag)
		}
		s.CrashShard(victim)
		pr.Sleep(p.failoverDetect() + simtime.Ms(1))
		for i := 0; i < n; i++ {
			k := keyN(7, i)
			_, ok, ep, err := s.Resolve(pr, k)
			if err != nil || !ok {
				t.Errorf("key %d lost after failover (shard %d): ok=%v err=%v", i, s.Owner(k), ok, err)
				continue
			}
			wantEp := uint64(1)
			if s.Owner(k) == victim {
				wantEp = 2
			}
			if ep != wantEp {
				t.Errorf("key %d: epoch %d, want %d", i, ep, wantEp)
			}
		}
	})
	eng.Run()
	st := s.ShardStats(victim)
	if st.Epoch != 2 || st.Failovers != 1 || st.Down {
		t.Fatalf("victim shard after failover: %+v", st)
	}
	other := 1 - victim
	if st := s.ShardStats(other); st.Epoch != 1 || st.Failovers != 0 {
		t.Fatalf("other shard disturbed by failover: %+v", st)
	}
}

// TestFencedWriteAcrossPromotion: a write RPC in flight across a promotion
// must fail with ErrFenced — the deposed incarnation cannot silently
// confirm it.
func TestFencedWriteAcrossPromotion(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.Replicate = true
	p.FailoverDetect = simtime.Us(30) // promotion lands inside the 100µs RPC flight
	s := NewSharded([]*simtime.Engine{eng}, p, 1)
	k := keyN(7, 1)
	s.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	var renewErr error
	eng.Spawn("renew", func(pr *simtime.Proc) {
		_, renewErr = s.Renew(pr, k, mapping(packet.NewIP(172, 16, 0, 1)))
	})
	eng.Spawn("crash", func(pr *simtime.Proc) {
		pr.Sleep(simtime.Us(10)) // after the renew's send check, before its reply
		s.CrashShard(0)
	})
	eng.Run()
	if !errors.Is(renewErr, ErrFenced) {
		t.Fatalf("renew across promotion returned %v, want ErrFenced", renewErr)
	}
	if st := s.ShardStats(0); st.FencedWrites == 0 || st.Failovers != 1 {
		t.Fatalf("shard stats after fenced write: %+v", st)
	}
}

// TestPartitionBlipResumesInPlace: a partition healed before the failover
// detector fires resumes the primary in place — no promotion, no epoch
// bump, nothing lost.
func TestPartitionBlipResumesInPlace(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.Replicate = true
	p.FailoverDetect = simtime.Ms(10)
	s := NewSharded([]*simtime.Engine{eng}, p, 2)
	const n = 16
	for i := 0; i < n; i++ {
		s.Register(keyN(7, i), mapping(packet.NewIP(172, 16, 0, byte(i+1))))
	}
	victim := s.Owner(keyN(7, 0))
	eng.Spawn("driver", func(pr *simtime.Proc) {
		pr.Sleep(simtime.Ms(1))
		s.PartitionShard(victim, simtime.Ms(2)) // heals well before detect
		pr.Sleep(simtime.Ms(1))
		if _, _, _, err := s.Resolve(pr, keyN(7, 0)); err == nil {
			t.Error("resolve succeeded into a partitioned shard")
		}
		pr.Sleep(simtime.Ms(20))
		_, ok, ep, err := s.Resolve(pr, keyN(7, 0))
		if err != nil || !ok || ep != 1 {
			t.Errorf("after blip heal: ok=%v ep=%d err=%v (want hit at epoch 1)", ok, ep, err)
		}
	})
	eng.Run()
	if st := s.ShardStats(victim); st.Failovers != 0 || st.Partitions != 1 || st.Epoch != 1 {
		t.Fatalf("blip partition stats: %+v", st)
	}
}

// TestPartitionFailoverFencesDeposedPrimary: a partition outliving the
// failover detector promotes the standby; the deposed primary's
// un-replicated writes are fenced and it rejoins as a fresh standby.
func TestPartitionFailoverFencesDeposedPrimary(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.Replicate = true
	p.ReplDelay = simtime.Us(10)
	p.FailoverDetect = simtime.Ms(1)
	s := NewSharded([]*simtime.Engine{eng}, p, 1)
	const n = 8
	for i := 0; i < n; i++ {
		s.Register(keyN(7, i), mapping(packet.NewIP(172, 16, 0, byte(i+1))))
	}
	eng.Spawn("driver", func(pr *simtime.Proc) {
		pr.Sleep(simtime.Ms(5)) // replica catches up
		s.PartitionShard(0, simtime.Ms(10))
		pr.Sleep(simtime.Ms(20)) // promotion at +1ms, heal at +10ms
		for i := 0; i < n; i++ {
			_, ok, ep, err := s.Resolve(pr, keyN(7, i))
			if err != nil || !ok || ep != 2 {
				t.Errorf("key %d after partition failover: ok=%v ep=%d err=%v", i, ok, ep, err)
			}
		}
	})
	eng.Run()
	st := s.ShardStats(0)
	if st.Failovers != 1 || st.Partitions != 1 || st.Epoch != 2 || st.Down {
		t.Fatalf("partition-failover stats: %+v", st)
	}
	if lag := s.StandbyLag(0); lag != 0 {
		t.Fatalf("rejoined standby lag = %d, want 0", lag)
	}
}

// TestRenewalRacesPromotionNotLost is the lease-renewal-vs-failover race:
// renewals landing while the old primary is dark (or fenced mid-promotion)
// must not lose the registration — the edge retries, and the promoted
// incarnation ends up holding exactly the live set.
func TestRenewalRacesPromotionNotLost(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.Replicate = true
	p.ReplDelay = simtime.Us(10)
	p.FailoverDetect = simtime.Ms(1)
	p.LeaseTTL = simtime.Ms(50)
	s := NewSharded([]*simtime.Engine{eng}, p, 2)
	const n = 24
	live := make(map[Key]Mapping)
	for i := 0; i < n; i++ {
		k, m := keyN(7, i), mapping(packet.NewIP(172, 16, 0, byte(i+1)))
		s.Register(k, m)
		live[k] = m
	}
	victim := s.Owner(keyN(7, 0))
	// One renewal proc per key, renewing every 2ms like a backend would,
	// retrying on error (ErrUnavailable during the dark window, ErrFenced
	// across the promotion instant).
	for i := 0; i < n; i++ {
		k, m := keyN(7, i), live[keyN(7, i)]
		eng.Spawn(fmt.Sprintf("renew%d", i), func(pr *simtime.Proc) {
			for round := 0; round < 10; round++ {
				pr.Sleep(simtime.Ms(2))
				if _, err := s.Renew(pr, k, m); err != nil {
					pr.Sleep(simtime.Us(500))
					_, _ = s.Renew(pr, k, m) // one retry per round is enough here
				}
			}
		})
	}
	eng.Spawn("chaos", func(pr *simtime.Proc) {
		pr.Sleep(simtime.Ms(5))
		s.CrashShard(victim) // mid renewal storm
	})
	eng.Run()
	// The promoted incarnation must hold exactly the live set for its
	// slice, and the union across shards exactly the registrations.
	got := s.Dump(7)
	if len(got) != n {
		t.Fatalf("post-failover table holds %d of %d live keys", len(got), n)
	}
	for k, m := range live {
		gm, ok := got[k]
		if !ok || gm != m {
			t.Fatalf("key %v lost or changed across failover: %+v ok=%v", k, gm, ok)
		}
	}
	if st := s.ShardStats(victim); st.Failovers != 1 || st.Epoch != 2 {
		t.Fatalf("victim shard: %+v", st)
	}
}

// TestPagedDumpAvoidsHeadOfLineBlocking: with DumpPageSize set, a lookup
// arriving mid-dump waits for at most one page of serialization instead of
// the whole table.
func TestPagedDumpAvoidsHeadOfLineBlocking(t *testing.T) {
	const entries = 1000
	run := func(pageSize int) simtime.Duration {
		eng := simtime.NewEngine()
		p := DefaultParams()
		p.DumpPageSize = pageSize
		s := NewSharded([]*simtime.Engine{eng}, p, 1)
		for i := 0; i < entries; i++ {
			s.Register(keyN(7, i), mapping(packet.NewIP(172, 16, byte(i>>8), byte(i+1))))
		}
		var lookupLat simtime.Duration
		eng.Spawn("dump", func(pr *simtime.Proc) {
			if _, _, err := s.FetchShardDump(pr, 0, 7); err != nil {
				t.Errorf("dump: %v", err)
			}
		})
		eng.Spawn("lookup", func(pr *simtime.Proc) {
			pr.Sleep(simtime.Us(150)) // dump is past its RTT, serializing entries
			start := pr.Now()
			if _, _, _, err := s.Resolve(pr, keyN(7, 3)); err != nil {
				t.Errorf("lookup: %v", err)
			}
			lookupLat = pr.Now().Sub(start)
		})
		eng.Run()
		return lookupLat
	}
	unpaged := run(0)
	paged := run(50)
	if paged >= unpaged {
		t.Fatalf("paged dump did not cut lookup latency: paged %v vs unpaged %v", paged, unpaged)
	}
	// 1000 entries × 1µs ≈ 1ms of serialization; a 50-entry page bounds
	// the wait near 50µs + RTT.
	if paged > simtime.Us(300) {
		t.Fatalf("mid-dump lookup latency %v with 50-entry pages, want well under the full-dump stall", paged)
	}
}

// TestQueueHWMTracksContention: concurrent batch serialization on one shard
// drives the waiting high-water mark.
func TestQueueHWMTracksContention(t *testing.T) {
	eng := simtime.NewEngine()
	s := NewSharded([]*simtime.Engine{eng}, DefaultParams(), 1)
	const n = 40
	keys := make([]Key, n)
	for i := 0; i < n; i++ {
		keys[i] = keyN(7, i)
		s.Register(keys[i], mapping(packet.NewIP(172, 16, 0, byte(i+1))))
	}
	for w := 0; w < 6; w++ {
		eng.Spawn(fmt.Sprintf("batch%d", w), func(pr *simtime.Proc) {
			if _, _, err := s.BatchLookupShard(pr, 0, keys, nil); err != nil {
				t.Errorf("batch: %v", err)
			}
		})
	}
	eng.Run()
	if hwm := s.ShardStats(0).QueueHWM; hwm == 0 {
		t.Fatal("six concurrent batches left queue HWM at 0")
	}
}

// TestShardGateMatchesResleepGolden replays a seeded, contended storm on
// one shard — batches holding the slot for exactly one RTT, resolves,
// renewals and dumps queueing behind them, arrivals landing on the slot's
// deadline, Sleep(0) yields — and pins every reply instant, the queue HWM
// and the final clock to what the original re-sleep service queue
// produced (recorded before the gate replaced it). The gate may only
// dispatch fewer events than the re-sleep loop did.
func TestShardGateMatchesResleepGolden(t *testing.T) {
	const (
		goldenDigest = 0x9713ab98688ca156
		goldenHWM    = 46
		goldenNow    = simtime.Time(5914 * simtime.Microsecond)
		resleepEvts  = 2306
	)
	eng := simtime.NewEngine()
	s := NewSharded([]*simtime.Engine{eng}, DefaultParams(), 1)
	const nkeys = 100
	keys := make([]Key, nkeys)
	for i := range keys {
		keys[i] = keyN(7, i)
		s.Register(keys[i], mapping(packet.NewIP(172, 16, byte(i>>8), byte(i+1))))
	}
	rng := rand.New(rand.NewSource(7))
	h := fnv.New64a()
	for w := 0; w < 48; w++ {
		start := simtime.Time(rng.Intn(4)) * simtime.Time(simtime.Us(50))
		ops := make([]int, 4)
		for i := range ops {
			ops[i] = rng.Intn(6)
		}
		batch := []int{1, 2, 51, 101}[rng.Intn(4)] // serialization 0, 1, 50, 100 µs
		k := keys[rng.Intn(nkeys)]
		name := fmt.Sprint("w", w)
		eng.At(start, func() {
			eng.Spawn(name, func(p *simtime.Proc) {
				for i, op := range ops {
					var err error
					switch op {
					case 0:
						_, _, _, err = s.Resolve(p, k)
					case 1:
						bk := make([]Key, batch)
						for j := range bk {
							bk[j] = keys[(w+j)%nkeys]
						}
						_, _, err = s.BatchLookupShard(p, 0, bk, nil)
					case 2:
						_, _, err = s.FetchShardDump(p, 0, 7)
					case 3:
						_, err = s.Renew(p, k, mapping(packet.NewIP(172, 16, 0, 1)))
					case 4:
						p.Sleep(0)
					default:
						p.Sleep(simtime.Us(50))
					}
					fmt.Fprintf(h, "%s.%d op%d t=%d err=%v\n", name, i, op, p.Now(), err)
				}
			})
		})
	}
	end := eng.Run()
	digest, hwm := h.Sum64(), s.ShardStats(0).QueueHWM
	if digest != goldenDigest || hwm != goldenHWM || end != goldenNow {
		t.Fatalf("digest %#x hwm %d now %v, want %#x hwm %d now %v",
			digest, hwm, end, uint64(goldenDigest), goldenHWM, goldenNow)
	}
	if eng.Events() >= resleepEvts {
		t.Fatalf("gate dispatched %d events, re-sleep loop %d", eng.Events(), resleepEvts)
	}
}
