//! Frequency-aware, deterministic shard partitions.
//!
//! The parallel trainer routes every positive to a shard by its tail-cache
//! key `(h, r)`. The original assignment hashed the key uniformly
//! ([`shard_of_key`]), which balances the
//! number of *keys* per shard but not the number of *positives*: on skewed
//! graphs a few hub heads can concentrate most of the training triples in
//! one shard and leave the other workers idle.
//!
//! [`ShardPartition`] fixes that with the observed key frequencies. Keys are
//! taken in descending weight (ties broken by the key's SplitMix64 hash —
//! the same rendezvous-style mixing the uniform assignment uses — then by
//! the key itself, so the order is total and platform-independent) and each
//! key goes to the currently lightest shard, lowest index on load ties: the
//! classic LPT greedy, whose heaviest shard is bounded by
//! `average + max key weight`. The construction reads nothing but the
//! `(key, weight)` list, so a fixed `(dataset, shards)` pair always yields
//! the same partition — the determinism contract the bit-reproducible
//! trainer needs — and the assignment stays *key-based*, so the shard-
//! disjointness of keyed sampler state is preserved by construction.

use crate::sampler::shard_of_key;
use nscaching_kg::Triple;
use nscaching_math::split_seed;
use std::collections::{BTreeMap, HashMap};

/// A cache key: the `(h, r)` (or `(r, t)`) index pair of the paper's caches.
pub type PartitionKey = (u32, u32);

/// A deterministic, load-balanced `key → shard` map. See the module docs.
#[derive(Debug, Clone)]
pub struct ShardPartition {
    shards: usize,
    assignment: HashMap<PartitionKey, u32>,
    loads: Vec<u64>,
}

impl ShardPartition {
    /// Build the LPT-greedy partition of `counts` (a list of unique keys
    /// with their observed frequencies) over `shards` shards.
    pub fn balanced(counts: &[(PartitionKey, u64)], shards: usize) -> Self {
        let shards = shards.max(1);
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by_key(|&i| {
            let ((a, b), w) = counts[i];
            (std::cmp::Reverse(w), split_seed(a as u64, b as u64), (a, b))
        });
        let mut loads = vec![0u64; shards];
        let mut assignment = HashMap::with_capacity(counts.len());
        for &i in &order {
            let (key, w) = counts[i];
            let lightest = (0..shards)
                .min_by_key(|&s| (loads[s], s))
                .expect("at least one shard");
            // Weight-0 keys still occupy a slot so repeated zeros spread out.
            loads[lightest] += w.max(1);
            let previous = assignment.insert(key, lightest as u32);
            debug_assert!(previous.is_none(), "keys must be unique");
        }
        Self {
            shards,
            assignment,
            loads,
        }
    }

    /// Shard count this partition was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`, or `None` for keys not in the observed set
    /// (callers fall back to the uniform hash assignment).
    #[inline]
    pub fn shard_of(&self, key: PartitionKey) -> Option<usize> {
        self.assignment.get(&key).map(|&s| s as usize)
    }

    /// Total observed weight assigned to each shard.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }
}

/// Frequency-observed `(h, r) → shard` routing with uniform-hash fallback —
/// the one piece of partition state every sampler shares.
///
/// Samplers call [`observe`](Self::observe) once with the training split,
/// [`prepare`](Self::prepare) from their `prepare_shards` hook, and
/// [`shard_of`](Self::shard_of) from their `shard_of` hook. When frequencies
/// were observed and a partition is built for the current shard count, keys
/// route through the balanced [`ShardPartition`]; otherwise (unobserved keys,
/// hand-constructed samplers, `shards = 1`) they fall back to the uniform
/// [`shard_of_key`] hash. Both paths are pure functions of
/// `(key, shards, observed split)`, preserving the bit-reproducibility
/// contract of the parallel trainer.
#[derive(Debug, Clone, Default)]
pub struct ObservedPartition {
    /// Observed key frequencies, sorted by key; `None` until observed.
    counts: Option<Vec<(PartitionKey, u64)>>,
    /// Balanced routing built from `counts` by [`prepare`](Self::prepare).
    partition: Option<ShardPartition>,
}

impl ObservedPartition {
    /// Record the `(h, r)` key frequencies of `triples` (normally the
    /// training split), sorted by key so later partitions are pure functions
    /// of `(split, shard count)`. Drops any previously built partition.
    pub fn observe(&mut self, triples: &[Triple]) {
        let mut counts: BTreeMap<PartitionKey, u64> = BTreeMap::new();
        for t in triples {
            *counts.entry((t.head, t.relation)).or_insert(0) += 1;
        }
        self.counts = Some(counts.into_iter().collect());
        self.partition = None;
    }

    /// (Re)build the balanced partition for `shards`. Cheap when the shard
    /// count is unchanged: one comparison per epoch.
    pub fn prepare(&mut self, shards: usize) {
        if shards <= 1 {
            self.partition = None;
        } else if self.partition.as_ref().is_none_or(|p| p.shards() != shards) {
            self.partition = self
                .counts
                .as_deref()
                .map(|counts| ShardPartition::balanced(counts, shards));
        }
    }

    /// Route `key` under `shards` shards: balanced partition when one is
    /// built for this shard count, else the uniform hash.
    #[inline]
    pub fn shard_of(&self, key: PartitionKey, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        if let Some(partition) = &self.partition {
            if partition.shards() == shards {
                if let Some(s) = partition.shard_of(key) {
                    return s;
                }
            }
        }
        shard_of_key(key.0, key.1, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_counts() -> Vec<(PartitionKey, u64)> {
        // One hub key with 60% of the mass plus a tail of small keys.
        let mut counts = vec![((0u32, 0u32), 600u64)];
        counts.extend((1..41u32).map(|h| ((h, h % 3), 10u64)));
        counts
    }

    #[test]
    fn every_key_is_assigned_in_range() {
        let counts = skewed_counts();
        let p = ShardPartition::balanced(&counts, 4);
        assert_eq!(p.shards(), 4);
        for &(key, _) in &counts {
            let s = p.shard_of(key).expect("observed key must be assigned");
            assert!(s < 4);
        }
        assert_eq!(p.shard_of((999, 999)), None, "unknown keys fall back");
    }

    #[test]
    fn construction_is_deterministic() {
        let counts = skewed_counts();
        let a = ShardPartition::balanced(&counts, 4);
        let b = ShardPartition::balanced(&counts, 4);
        for &(key, _) in &counts {
            assert_eq!(a.shard_of(key), b.shard_of(key));
        }
        assert_eq!(a.loads(), b.loads());
    }

    #[test]
    fn hub_keys_do_not_starve_the_other_shards() {
        // Uniform hashing of the hub key gives one shard ≥600 of 1000; the
        // LPT greedy puts the hub alone on one shard and spreads the tail
        // over the rest, so the heaviest shard holds exactly the hub.
        let counts = skewed_counts();
        let p = ShardPartition::balanced(&counts, 4);
        let max = *p.loads().iter().max().unwrap();
        let min = *p.loads().iter().min().unwrap();
        assert_eq!(max, 600, "the hub is isolated");
        assert!(
            min >= 130,
            "the tail spreads over the remaining shards: {:?}",
            p.loads()
        );
        // The LPT bound: max load ≤ average + max single weight.
        let total: u64 = counts.iter().map(|&(_, w)| w).sum();
        assert!(max <= total / 4 + 600);
    }

    #[test]
    fn single_shard_partition_maps_everything_to_zero() {
        let p = ShardPartition::balanced(&skewed_counts(), 1);
        assert_eq!(p.shard_of((0, 0)), Some(0));
        assert_eq!(p.loads().len(), 1);
    }

    #[test]
    fn observed_routing_is_balanced_when_observed_and_hashed_otherwise() {
        let triples: Vec<Triple> = (0..40u32).map(|h| Triple::new(h, h % 3, h + 50)).collect();
        let mut observed = ObservedPartition::default();
        let unobserved = ObservedPartition::default();
        observed.observe(&triples);
        observed.prepare(4);

        for t in &triples {
            let key = (t.head, t.relation);
            let s = observed.shard_of(key, 4);
            assert!(s < 4);
            assert_eq!(s, observed.shard_of(key, 4), "routing is pure");
            // The unobserved router must agree with the raw uniform hash.
            assert_eq!(unobserved.shard_of(key, 4), shard_of_key(key.0, key.1, 4));
            // Single shard always routes to 0.
            assert_eq!(observed.shard_of(key, 1), 0);
        }
        // Keys outside the observed split fall back to the uniform hash.
        assert_eq!(observed.shard_of((999, 7), 4), shard_of_key(999, 7, 4));

        // Re-preparing for a new shard count rebuilds; shards = 1 drops it.
        observed.prepare(2);
        assert!(triples
            .iter()
            .all(|t| observed.shard_of((t.head, t.relation), 2) < 2));
        observed.prepare(1);
        assert_eq!(observed.shard_of((0, 0), 1), 0);
    }
}
