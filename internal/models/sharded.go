package models

import (
	"fmt"
	"runtime"
	"strconv"

	"threading/internal/shard"
	"threading/internal/worksteal"
)

// ShardedPrefix is the model-name prefix selecting sharded execution:
// "sharded:cilk_for" is the cilk_for model over a shard.Resolver.
const ShardedPrefix = "sharded:"

// shardableNames lists the base models whose runtime can be sharded:
// the pooled runtimes. The thread-per-chunk models have no persistent
// scheduler to shard.
var shardableNames = []string{CilkFor, CilkSpawn, OMPFor, OMPTask}

// shardable reports whether the named base model can back a shard.
func shardable(name string) bool {
	for _, n := range shardableNames {
		if n == name {
			return true
		}
	}
	return false
}

// defaultShardCount is used when sharding is requested by name prefix
// without an explicit count: enough shards to bound steal domains
// while keeping at least two workers per shard where possible.
func defaultShardCount(threads int) int {
	k := threads / 2
	if k < 2 {
		k = 2
	}
	if k > threads {
		k = threads
	}
	return k
}

// newShardResolver builds the resolver behind a sharded name: the
// base model's thread budget split near-evenly across k family-native
// shards (pools for the cilk bases, teams for the omp bases) routed
// by the configured balancer. Shard counts of 0 pick
// defaultShardCount, negative ones GOMAXPROCS.
func newShardResolver(base string, threads int, cfg config) (*shard.Resolver, error) {
	if !shardable(base) {
		return nil, fmt.Errorf("models: model %q cannot be sharded (shardable: %v)", base, shardableNames)
	}
	bal, err := shard.ParseBalancer(cfg.balancer)
	if err != nil {
		return nil, err
	}
	k := cfg.shards
	switch {
	case k == 0:
		k = defaultShardCount(threads)
	case k < 0:
		k = runtime.GOMAXPROCS(0)
	}
	if k > threads {
		k = threads
	}
	if k < 1 {
		k = 1
	}
	execs := make([]shard.Executor, 0, k)
	offset := 0 // next free tracer ring id; shards get disjoint ranges
	for i := 0; i < k; i++ {
		lo, hi := chunkFor(threads, k, i)
		w := hi - lo
		sub := cfg
		sub.tracer = cfg.tracer.View(offset, "s"+strconv.Itoa(i)+"/")
		switch base {
		case CilkFor, CilkSpawn:
			execs = append(execs, newPool(w, sub))
			offset += w + worksteal.MaxHelpers
		case OMPFor, OMPTask:
			execs = append(execs, newTeam(w, sub))
			offset += w
		}
	}
	res, err := shard.New(shard.WithBalancer(bal), shard.WithShards(execs...))
	if err != nil {
		for _, e := range execs {
			e.Close()
		}
		return nil, err
	}
	return res, nil
}
