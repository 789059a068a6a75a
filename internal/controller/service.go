package controller

import (
	"masq/internal/simtime"
)

// Service is the control-plane surface backends program against, abstract
// over how many controller shards stand behind it. *Sharded partitions the
// keyspace across N ≥ 1 primaries with optional standby replicas; *Remote
// proxies it across DES engine shards.
//
// Shard-indexed calls (BatchLookupShard, FetchShardDump) let the caller
// keep failure isolation: a batch is per owning shard, so one dark shard
// cannot fail another shard's keys, and the retry policy stays at the edge.
// Every RPC that reaches a shard returns that shard's epoch as of the reply
// instant — callers must never read epochs out-of-band, which would race
// across engine shards under Remote.
type Service interface {
	// NumShards returns the number of keyspace shards.
	NumShards() int
	// Owner maps a key to its owning shard index — pure and immutable, so
	// callers may group work by shard without an RPC.
	Owner(k Key) int
	// RPCParams returns the control-RPC cost model (timeouts, RTT) the
	// edge uses to plan retries.
	RPCParams() Params

	// Register/Unregister are vBond's fire-and-forget table updates.
	Register(k Key, m Mapping)
	Unregister(k Key)

	// Resolve is one remote lookup attempt against the owning shard. On
	// success it returns the shard's epoch at the reply instant.
	Resolve(p *simtime.Proc, k Key) (Mapping, bool, uint64, error)
	// Renew re-asserts a lease with the owning shard and returns its epoch.
	Renew(p *simtime.Proc, k Key, m Mapping) (uint64, error)
	// BatchLookupShard resolves many keys owned by one shard in one RPC,
	// applying the piggybacked renewals (which must be owned by the same
	// shard) first.
	BatchLookupShard(p *simtime.Proc, shard int, keys []Key, renew []RenewReq) ([]BatchResult, uint64, error)
	// FetchShardDump returns the owning shard's live mappings for one
	// tenant — a shard-scoped resync snapshot.
	FetchShardDump(p *simtime.Proc, shard int, vni uint32) (map[Key]Mapping, uint64, error)

	// Suspend/Move are the live-migration freeze and commit RPCs, routed
	// to the key's owning shard.
	Suspend(p *simtime.Proc, k Key) error
	Move(p *simtime.Proc, k Key, m Mapping, qpnMap map[uint32]uint32) error

	// SubscribeShards hooks one push-notification callback per shard
	// (invoked with the shard index) and returns per-shard channel views
	// in shard order.
	SubscribeShards(fn func(shard int, n Notify)) []SubView
}

// SubView is the read side of one shard's push-notification channel: the
// fencing metadata a subscriber audits (see Subscription for the concrete
// single-engine implementation).
type SubView interface {
	// Seq returns the highest notification sequence number addressed to
	// this subscriber.
	Seq() uint64
	// Pending returns the current delivery-queue depth.
	Pending() int
	// HighWater returns the deepest the delivery queue has ever been.
	HighWater() int
}
