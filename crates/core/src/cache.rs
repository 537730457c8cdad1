//! The negative-sample cache (the `H` and `T` structures of Algorithm 2).
//!
//! A cache maps an index pair — `(r, t)` for the head cache, `(h, r)` for the
//! tail cache — to at most `N1` candidate entity ids. Entries are created
//! lazily with uniformly random entities the first time a key is touched,
//! which matches the reference implementation's initialisation and gives the
//! "easy samples first" behaviour discussed in the self-paced-learning
//! section of the paper.
//!
//! The entries live in one `std` `HashMap` with its randomly keyed hasher:
//! restored keys come from checkpoint files, which a fixed hasher would let
//! a crafted file fill with colliding keys. Besides the entries (at most `N1`
//! ids per key, 4 bytes each), a cache holds one membership bitset of
//! `num_entities` bits, with which a refresh counts its changed elements in
//! one `O(N1)` pass.

use nscaching_kg::EntityId;
use rand::Rng;
use std::collections::HashMap;

/// A cache key: `(relation, tail)` for the head cache `H`, `(head, relation)`
/// for the tail cache `T`.
pub type CacheKey = (u32, u32);

/// A fixed-capacity cache of high-scoring corruption candidates per key.
#[derive(Debug, Clone)]
pub struct NegativeCache {
    capacity: usize,
    num_entities: u32,
    entries: HashMap<CacheKey, Vec<EntityId>>,
    changed_elements: u64,
    /// Membership bitset over the vocabulary for change counting in
    /// `replace_from_slice`: all zeros between calls, `num_entities` bits, so
    /// its size never depends on an entity id a caller passes in.
    marks: Vec<u64>,
}

impl NegativeCache {
    /// Create a cache of per-key capacity `N1` over `num_entities` entities.
    pub fn new(capacity: usize, num_entities: usize) -> Self {
        assert!(capacity > 0, "cache capacity N1 must be positive");
        assert!(num_entities > 1, "need at least two entities");
        Self {
            capacity,
            num_entities: num_entities as u32,
            entries: HashMap::new(),
            changed_elements: 0,
            marks: vec![0; num_entities.div_ceil(64)],
        }
    }

    /// Per-key capacity `N1`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys with materialised entries.
    pub fn num_keys(&self) -> usize {
        self.entries.len()
    }

    /// Total number of cached entity slots across all keys.
    pub fn num_cached_entities(&self) -> usize {
        self.entries.values().map(|v| v.len()).sum()
    }

    /// Borrow the candidates for `key`, materialising a random entry if the
    /// key has never been seen.
    pub fn get_or_init<R: Rng + ?Sized>(&mut self, key: CacheKey, rng: &mut R) -> &[EntityId] {
        let capacity = self.capacity;
        let num_entities = self.num_entities;
        self.entries
            .entry(key)
            .or_insert_with(|| {
                (0..capacity)
                    .map(|_| rng.gen_range(0..num_entities))
                    .collect()
            })
            .as_slice()
    }

    /// Peek at the candidates for `key` without materialising anything.
    pub fn peek(&self, key: CacheKey) -> Option<&[EntityId]> {
        self.entries.get(&key).map(|v| v.as_slice())
    }

    /// Replace the entry for `key`, returning how many cached entities
    /// actually changed (the "CE" measure of Figure 8). The replacement is
    /// truncated to the cache capacity.
    pub fn replace(&mut self, key: CacheKey, new_entries: Vec<EntityId>) -> usize {
        self.replace_from_slice(key, &new_entries)
    }

    /// Like [`Self::replace`] but borrows the replacement, reusing the
    /// existing entry's storage. The sampler's refresh path calls this with a
    /// scratch buffer so a steady-state cache update performs no heap
    /// allocation at all.
    ///
    /// A new entity counts as changed when the old entry does not hold it,
    /// once per occurrence. Counting is one `O(N1)` pass: the old entry's
    /// in-vocabulary ids are marked in a bitset, each new id is tested, and
    /// the marked words are cleared again. An id at or past `num_entities`,
    /// which only a direct `replace` call can pass, is looked up in the old
    /// entry by a scan instead.
    pub fn replace_from_slice(&mut self, key: CacheKey, new_entries: &[EntityId]) -> usize {
        let new_entries = &new_entries[..new_entries.len().min(self.capacity)];
        let changed = match self.entries.get_mut(&key) {
            Some(old) => {
                let n = self.num_entities;
                for &e in old.iter().filter(|&&e| e < n) {
                    self.marks[e as usize / 64] |= 1 << (e % 64);
                }
                let changed = new_entries
                    .iter()
                    .filter(|&&e| {
                        if e < n {
                            (self.marks[e as usize / 64] >> (e % 64)) & 1 == 0
                        } else {
                            !old.contains(&e)
                        }
                    })
                    .count();
                for &e in old.iter().filter(|&&e| e < n) {
                    self.marks[e as usize / 64] = 0;
                }
                old.clear();
                old.extend_from_slice(new_entries);
                changed
            }
            None => {
                self.entries.insert(key, new_entries.to_vec());
                new_entries.len()
            }
        };
        self.changed_elements += changed as u64;
        changed
    }

    /// Total number of changed cache elements since the last call to
    /// [`take_changed_elements`](Self::take_changed_elements).
    pub fn take_changed_elements(&mut self) -> u64 {
        std::mem::take(&mut self.changed_elements)
    }

    /// Changed-element counter without resetting it.
    pub fn changed_elements(&self) -> u64 {
        self.changed_elements
    }

    /// Snapshot of a probed key's cache contents (used by the Table VI /
    /// self-paced-learning experiment).
    pub fn probe(&self, key: CacheKey) -> CacheProbe {
        CacheProbe {
            key,
            entities: self.peek(key).map(|s| s.to_vec()).unwrap_or_default(),
        }
    }

    /// Approximate memory footprint of the cache in bytes (entity slots only),
    /// used by the Table I space comparison.
    pub fn memory_bytes(&self) -> usize {
        self.num_cached_entities() * std::mem::size_of::<EntityId>()
    }

    /// Every materialised entry as `(key, entities)`, **sorted by key** so
    /// the capture is deterministic despite the hash map's arbitrary
    /// iteration order. Entity order within an entry is preserved — sampling
    /// indexes into it, so it is part of the trajectory.
    pub fn export_entries(&self) -> Vec<(CacheKey, Vec<EntityId>)> {
        let mut entries: Vec<(CacheKey, Vec<EntityId>)> =
            self.entries.iter().map(|(k, v)| (*k, v.clone())).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        entries
    }

    /// Materialise one entry with externally captured contents (checkpoint
    /// restore). Rejects entries that violate the cache's invariants — an
    /// over-capacity entry or an out-of-vocabulary entity id means the
    /// capture does not belong to this cache's configuration.
    pub fn restore_entry(&mut self, key: CacheKey, entities: Vec<EntityId>) -> Result<(), String> {
        if entities.len() > self.capacity {
            return Err(format!(
                "cache entry for {key:?} holds {} entities, capacity is {}",
                entities.len(),
                self.capacity
            ));
        }
        if let Some(&bad) = entities.iter().find(|&&e| e >= self.num_entities) {
            return Err(format!(
                "cache entry for {key:?} holds entity {bad}, vocabulary has {}",
                self.num_entities
            ));
        }
        self.entries.insert(key, entities);
        Ok(())
    }

    /// Overwrite the pending changed-element counter (checkpoint restore —
    /// the counter is trajectory state until the next `take_changed_elements`
    /// drains it into the epoch statistics).
    pub fn set_changed_elements(&mut self, changed: u64) {
        self.changed_elements = changed;
    }
}

/// A snapshot of one key's cache contents at some training step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheProbe {
    /// The probed key.
    pub key: CacheKey,
    /// The cached entity ids (empty if the key was never materialised).
    pub entities: Vec<EntityId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;

    #[test]
    fn lazily_initialised_entries_have_capacity_entities() {
        let mut cache = NegativeCache::new(8, 100);
        let mut rng = seeded_rng(1);
        assert_eq!(cache.num_keys(), 0);
        let entry = cache.get_or_init((3, 4), &mut rng).to_vec();
        assert_eq!(entry.len(), 8);
        assert!(entry.iter().all(|e| *e < 100));
        assert_eq!(cache.num_keys(), 1);
        // second access returns the same entry
        let again = cache.get_or_init((3, 4), &mut rng).to_vec();
        assert_eq!(entry, again);
    }

    #[test]
    fn replace_counts_changed_elements() {
        let mut cache = NegativeCache::new(4, 50);
        let mut rng = seeded_rng(2);
        let _ = cache.get_or_init((0, 0), &mut rng);
        let old = cache.peek((0, 0)).unwrap().to_vec();
        // keep two old entries, add two new ones that are guaranteed fresh
        let fresh: Vec<u32> = vec![old[0], old[1], 47, 48];
        let changed = cache.replace((0, 0), fresh);
        let expected = [47u32, 48].iter().filter(|e| !old.contains(e)).count();
        assert_eq!(changed, expected);
        assert_eq!(cache.changed_elements(), expected as u64);
        assert_eq!(cache.take_changed_elements(), expected as u64);
        assert_eq!(cache.changed_elements(), 0);
    }

    #[test]
    fn replace_counts_every_occurrence_of_a_new_id() {
        let mut cache = NegativeCache::new(5, 10);
        cache.restore_entry((0, 0), vec![2, 2, 2]).unwrap();
        assert_eq!(cache.replace((0, 0), vec![2, 5, 5, 2]), 2);
        // Ids past the vocabulary are compared like any other.
        assert_eq!(cache.replace((0, 0), vec![40, 5, 40, 9]), 3);
        assert_eq!(cache.replace((0, 0), vec![40, 41, 9]), 1);
    }

    #[test]
    fn replace_on_missing_key_counts_everything_and_truncates() {
        let mut cache = NegativeCache::new(3, 50);
        let changed = cache.replace((9, 9), vec![1, 2, 3, 4, 5]);
        assert_eq!(changed, 3, "truncated to capacity before counting");
        assert_eq!(cache.peek((9, 9)).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn probe_returns_empty_for_unknown_keys() {
        let cache = NegativeCache::new(4, 10);
        let p = cache.probe((1, 2));
        assert_eq!(p.key, (1, 2));
        assert!(p.entities.is_empty());
    }

    #[test]
    fn memory_accounting_counts_slots() {
        let mut cache = NegativeCache::new(16, 1000);
        let mut rng = seeded_rng(3);
        for k in 0..10u32 {
            let _ = cache.get_or_init((k, 0), &mut rng);
        }
        assert_eq!(cache.num_cached_entities(), 160);
        assert_eq!(cache.memory_bytes(), 160 * 4);
    }

    #[test]
    #[should_panic(expected = "N1 must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = NegativeCache::new(0, 10);
    }
}
