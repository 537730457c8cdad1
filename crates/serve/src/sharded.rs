//! Hash-sharded concurrent cache: N independent [`PolicyCache`] instances
//! behind per-shard locks.
//!
//! The pre-shard serving cache was one [`LruCache`](crate::cache::LruCache)
//! behind one mutex — every hit, miss and insert from every worker
//! serialised on it, which is exactly the contention profile that kills
//! many-core batch serving. [`ShardedCache`] splits the key space by hash
//! over `shards` independent policy instances, each behind its own mutex, so
//! concurrent queries for different keys proceed in parallel and only
//! same-shard traffic ever waits.
//!
//! # What sharding changes — and what it provably does not
//!
//! * **Eviction scope.** Each shard runs its policy over its own `capacity /
//!   shards` slots. A uniformly hashing key population sees near-identical
//!   hit rates to the unsharded cache (the `cache_sim` bench's parity gate,
//!   `NSC_CACHE_SIM_OK`, measures exactly this on the Zipf trace); an
//!   adversarially skewed *shard* (not key) distribution would trade hit
//!   rate for concurrency.
//! * **Staleness: unchanged.** The version-stamp invalidation contract
//!   lives in the *values* (every cached answer carries the model stamp it
//!   was computed under) and is checked by the server on every lookup —
//!   per entry, not per cache. Splitting entries across shards cannot widen
//!   the contract: a stale entry in any shard still carries its old stamp
//!   and still fails the comparison. The staleness proptests in
//!   `tests/policy_invariants.rs` re-prove the invariant at 1 and 4 shards
//!   for every policy.
//! * **Stats.** Counters are aggregated across shards ([`stats`]
//!   sums them); they remain exact because each operation touches exactly
//!   one shard.
//!
//! Shard selection must be deterministic and stable (entries must be found
//! again), but need not be portable across processes — the std `HashMap`
//! hasher with fixed keys provides both.
//!
//! [`stats`]: ShardedCache::stats

use crate::cache::{CacheStats, PolicyCache};
use crate::policy::{EvictionPolicy, PolicyKind};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

/// One shard: a [`PolicyCache`] running a boxed policy behind its own lock.
type Shard<K, V> = Mutex<PolicyCache<K, V, Box<dyn EvictionPolicy + Send>>>;
/// A locked shard, as handed out by the internal routing helpers.
type ShardGuard<'a, K, V> = MutexGuard<'a, PolicyCache<K, V, Box<dyn EvictionPolicy + Send>>>;

/// A concurrent cache: `shards` independent [`PolicyCache`]s, each behind
/// its own lock, all running the same [`PolicyKind`]. Values are returned by
/// clone (the serving engine stores `Arc`-backed answers, so a clone is a
/// refcount bump).
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Box<[Shard<K, V>]>,
    policy: PolicyKind,
}

impl<K: Hash + Eq + Copy, V: Clone> ShardedCache<K, V> {
    /// A cache of `capacity` total entries split over `shards` instances of
    /// `policy` (each shard gets `⌈capacity / shards⌉` slots). `shards` is
    /// clamped to at least 1; capacity 0 disables caching entirely.
    pub fn new(capacity: usize, policy: PolicyKind, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        let shards = (0..shards)
            .map(|_| Mutex::new(PolicyCache::with_policy(per_shard, policy.build(per_shard))))
            .collect();
        Self { shards, policy }
    }

    /// Which policy every shard runs.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.lock(0).capacity()
    }

    /// Current number of entries across shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock(i).len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated hit/miss/eviction counters across shards.
    pub fn stats(&self) -> CacheStats {
        (0..self.shards.len())
            .map(|i| self.lock(i).stats())
            .fold(CacheStats::default(), CacheStats::merged)
    }

    /// Look up `key` in its shard, cloning the value out under the shard
    /// lock. Promotes the entry per the shard's policy.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_for(key).get(key).cloned()
    }

    /// Insert (or replace) `key` in its shard, evicting that shard's policy
    /// victim if the shard is full.
    pub fn insert(&self, key: K, value: V) {
        self.shard_for(&key).insert(key, value);
    }

    /// Remove `key` from its shard (explicit invalidation).
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Default,
    {
        self.shard_for(key).remove(key)
    }

    /// Drop every entry and reset every shard's counters.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.lock(i).clear();
        }
    }

    fn lock(&self, index: usize) -> ShardGuard<'_, K, V> {
        self.shards[index].lock().expect("shard lock")
    }

    fn shard_for(&self, key: &K) -> ShardGuard<'_, K, V> {
        // DefaultHasher with fixed keys: deterministic within a process,
        // which is all shard routing needs.
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = (hasher.finish() % self.shards.len() as u64) as usize;
        self.lock(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_behaves_like_the_flat_cache() {
        let sharded: ShardedCache<u32, u64> = ShardedCache::new(3, PolicyKind::Lru, 1);
        let mut flat: crate::cache::LruCache<u32, u64> = crate::cache::LruCache::new(3);
        for key in [1u32, 2, 3, 1, 4, 5, 2] {
            sharded.insert(key, key as u64 * 10);
            flat.insert(key, key as u64 * 10);
        }
        for key in 0..8 {
            assert_eq!(sharded.get(&key), flat.get(&key).copied(), "key {key}");
        }
        assert_eq!(sharded.stats(), flat.stats());
        assert_eq!(sharded.len(), flat.len());
    }

    #[test]
    fn shards_split_the_key_space_and_aggregate_stats() {
        // 64 slots per shard: 48 total keys can never overflow any shard,
        // however the hash splits them.
        let cache: ShardedCache<u32, u64> = ShardedCache::new(256, PolicyKind::Lru, 4);
        assert_eq!(cache.shards(), 4);
        assert_eq!(cache.capacity(), 256);
        for key in 0..48u32 {
            cache.insert(key, key as u64);
        }
        assert_eq!(cache.len(), 48, "no shard can evict below 64 live keys");
        let mut hits = 0;
        for key in 0..48u32 {
            if cache.get(&key) == Some(key as u64) {
                hits += 1;
            }
        }
        assert_eq!(hits, 48);
        let stats = cache.stats();
        assert_eq!(stats.hits, 48);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn remove_and_clear_reach_the_right_shard() {
        let cache: ShardedCache<u32, u64> = ShardedCache::new(32, PolicyKind::Slru, 4);
        cache.insert(7, 70);
        assert_eq!(cache.remove(&7), Some(70));
        assert_eq!(cache.remove(&7), None);
        cache.insert(9, 90);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_access_from_clones_is_safe() {
        let cache: std::sync::Arc<ShardedCache<u32, u64>> =
            std::sync::Arc::new(ShardedCache::new(256, PolicyKind::Slru, 8));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let key = (t * 1000 + i) % 300;
                        cache.insert(key, key as u64);
                        let _ = cache.get(&key);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2000);
    }
}
