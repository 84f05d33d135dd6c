package collect

import (
	"fmt"
	"math/rand"

	"repro/internal/arrival"
	"repro/internal/attack"
	"repro/internal/stats"
)

// ShardGen seeds the shard-local data plane (DESIGN.md §7): arrivals are
// not drawn by a central generator and fanned out — each shard derives its
// own RNG stream stats.NewRand(stats.DeriveSeed(MasterSeed, shard, round))
// and draws its slice of every round locally. A cluster coordinator
// broadcasts an O(1) round directive (seed material, counts, the injection
// spec, the resolved threshold) instead of an O(batch) value slice, and a
// run is a pure function of (MasterSeed, shard count). Every sharded
// engine (RunSharded, RunShardedRows, RunShardedLDP) and every cluster
// config requires one; only the in-process Run, RunRows and RunLDP keep
// central generation.
//
// The mode trades generality for locality, enforced at validation:
//
//   - the adversary must implement attack.SpecInjector (an opaque sampling
//     closure cannot cross a process boundary);
//   - Config.Honest/Rng are ignored — honest draws sample the game's own
//     clean data: the sorted reference (scalar), the sorted input pool
//     (LDP) or the dataset (rows);
//   - Quality must be nil (the coordinator never sees raw values, so only
//     summary-native standards apply).
type ShardGen struct {
	// MasterSeed is the run's single seed. Shard and round streams derive
	// from it; workers only ever learn derived seeds.
	MasterSeed int64
}

// seed derives the RNG seed of one (shard, round) cell; round 0 / shard 0
// is the coordinator's own pre-game stream (clean baseline draws).
func (g *ShardGen) seed(shard, round int) int64 {
	return stats.DeriveSeed(g.MasterSeed, shard, round)
}

// preRand returns the coordinator's pre-game stream.
func (g *ShardGen) preRand() *rand.Rand { return stats.NewShardRand(g.MasterSeed, 0, 0) }

// genSpecs splits one round's generation across n shards: shard s draws
// the shardBounds share of the honest batch and of the poison budget, all
// from the same injection spec. The split is the contract both the
// single-process reference engines and the cluster coordinators follow, so
// the two produce identical arrivals per shard slot.
func genSpecs(batch, poison int, inject attack.InjectionSpec, jitter float64, n int) []arrival.Spec {
	specs := make([]arrival.Spec, n)
	for s := 0; s < n; s++ {
		hLo, hHi := shardBounds(batch, n, s)
		pLo, pHi := shardBounds(poison, n, s)
		specs[s] = arrival.Spec{
			HonestN: hHi - hLo,
			PoisonN: pHi - pLo,
			Inject:  inject,
			Jitter:  jitter,
		}
	}
	return specs
}

// specInjector asserts the shard-local capability of an adversary.
func specInjector(adv attack.Strategy) (attack.SpecInjector, error) {
	si, ok := adv.(attack.SpecInjector)
	if !ok {
		return nil, fmt.Errorf("collect: shard-local generation requires a spec-codable adversary (attack.SpecInjector); %T is not", adv)
	}
	return si, nil
}
