//! The serving cache's eviction order: segmented LRU (SLRU).
//!
//! A cache ([`PolicyCache`](crate::cache::PolicyCache)) owns the *storage* —
//! the key→slot map, the slot arena of keys and values, the free list and
//! the hit/miss/eviction counters. [`SlruPolicy`] owns only the *ordering*:
//! pure slot-index bookkeeping deciding who dies when the cache is full.
//!
//! | hook | called when | the policy |
//! |------|-------------|------------|
//! | [`on_insert`](SlruPolicy::on_insert) | a key was added under `slot` | starts tracking `slot` |
//! | [`on_hit`](SlruPolicy::on_hit) | `slot` was read or its value replaced | updates its recency books |
//! | [`on_remove`](SlruPolicy::on_remove) | `slot` was explicitly removed | forgets `slot` |
//! | [`victim`](SlruPolicy::victim) | the cache is full and needs room | picks a tracked slot, forgets it, returns it |
//!
//! Slots are dense `u32` indices below the capacity the policy was built
//! for, so the books live in pre-sized, slot-indexed vectors and the steady
//! state is allocation-free. New keys enter a *probationary* segment; a hit
//! promotes to a *protected* segment (capped at 4/5 of capacity, its
//! overflow demoted back to probation's head). One-touch keys can never
//! displace the protected set, which is what makes it scan resistant — an
//! eval sweep that touches everything once churns only the probation
//! segment. Why SLRU and not plain LRU or a frequency policy is a measured
//! choice; see [`crate::cache`].
//!
//! # Concurrency and invalidation
//!
//! The policy is single-threaded by design; the server keeps its one
//! `PolicyCache` behind one mutex. Staleness protection lives *above* the
//! policy: the server stamps every cached value with the model generation ⊕
//! table-version sum and verifies the stamp on every lookup, so no eviction
//! order can make a stale answer servable — see the staleness tests in
//! `tests/policy_invariants.rs`, single-threaded and under concurrent
//! queries and updates.

/// Niche slot index marking "none".
const NIL: u32 = u32::MAX;

/// Slot-indexed intrusive doubly-linked-list links: one `(prev, next)`
/// pair per slot, threaded through the policy's two lists. Pre-sized to capacity; `ensure` never reallocates after
/// construction.
#[derive(Debug, Default)]
struct Links {
    prev: Vec<u32>,
    next: Vec<u32>,
}

/// Head/tail of one intrusive list through a [`Links`] arena.
#[derive(Debug, Clone, Copy)]
struct ListHead {
    head: u32,
    tail: u32,
    len: usize,
}

impl ListHead {
    const EMPTY: ListHead = ListHead {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Links {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
        }
    }

    /// Grow the (pre-reserved) link arrays to cover `slot`.
    fn ensure(&mut self, slot: u32) {
        let need = slot as usize + 1;
        if self.prev.len() < need {
            self.prev.resize(need, NIL);
            self.next.resize(need, NIL);
        }
    }

    /// Link `slot` in as the head (most-recent end) of `list`.
    fn attach_front(&mut self, list: &mut ListHead, slot: u32) {
        self.ensure(slot);
        let old_head = list.head;
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = old_head;
        if old_head != NIL {
            self.prev[old_head as usize] = slot;
        }
        list.head = slot;
        if list.tail == NIL {
            list.tail = slot;
        }
        list.len += 1;
    }

    /// Unlink `slot` from `list` (it must be a member).
    fn detach(&mut self, list: &mut ListHead, slot: u32) {
        let prev = self.prev[slot as usize];
        let next = self.next[slot as usize];
        match prev {
            NIL => list.head = next,
            p => self.next[p as usize] = next,
        }
        match next {
            NIL => list.tail = prev,
            n => self.prev[n as usize] = prev,
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
        list.len -= 1;
    }

    fn clear(&mut self) {
        self.prev.clear();
        self.next.clear();
    }
}

/// Which SLRU segment a slot currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

/// Segmented LRU: a probationary list for one-touch keys and a protected
/// list (capped at ⌈4/5⌉ of capacity) for re-referenced ones.
///
/// * insert → probation head;
/// * hit → promote to protected head; protected overflow demotes its tail
///   back to probation's head (most-recent probationary position);
/// * victim → probation tail, falling back to protected tail only when
///   probation is empty.
///
/// Scan resistance follows: a one-pass sweep (an eval run walking every
/// entity once) inserts only into probation and can never displace the
/// protected working set.
///
/// The cache guarantees that `on_insert` slots were not already tracked,
/// that `on_hit`/`on_remove` slots are currently tracked, and that `victim`
/// is only called while at least one slot is tracked.
#[derive(Debug)]
pub(crate) struct SlruPolicy {
    links: Links,
    probation: ListHead,
    protected: ListHead,
    /// Which list each slot is on.
    segment: Vec<Segment>,
    /// Maximum protected population before demotion.
    protected_capacity: usize,
}

impl SlruPolicy {
    /// A policy pre-sized for slots `0..capacity`.
    pub(crate) fn for_capacity(capacity: usize) -> Self {
        Self {
            links: Links::with_capacity(capacity),
            probation: ListHead::EMPTY,
            protected: ListHead::EMPTY,
            segment: Vec::with_capacity(capacity),
            protected_capacity: capacity * 4 / 5,
        }
    }

    fn set_segment(&mut self, slot: u32, segment: Segment) {
        let need = slot as usize + 1;
        if self.segment.len() < need {
            self.segment.resize(need, Segment::Probation);
        }
        self.segment[slot as usize] = segment;
    }

    /// Start tracking a freshly inserted slot.
    pub(crate) fn on_insert(&mut self, slot: u32) {
        self.links.attach_front(&mut self.probation, slot);
        self.set_segment(slot, Segment::Probation);
    }

    /// A tracked slot was accessed (lookup hit, or value replaced in place).
    pub(crate) fn on_hit(&mut self, slot: u32) {
        match self.segment[slot as usize] {
            Segment::Probation => self.links.detach(&mut self.probation, slot),
            Segment::Protected => self.links.detach(&mut self.protected, slot),
        }
        self.links.attach_front(&mut self.protected, slot);
        self.set_segment(slot, Segment::Protected);
        if self.protected.len > self.protected_capacity {
            let demoted = self.protected.tail;
            self.links.detach(&mut self.protected, demoted);
            self.links.attach_front(&mut self.probation, demoted);
            self.set_segment(demoted, Segment::Probation);
        }
    }

    /// Stop tracking an explicitly removed slot.
    pub(crate) fn on_remove(&mut self, slot: u32) {
        match self.segment[slot as usize] {
            Segment::Probation => self.links.detach(&mut self.probation, slot),
            Segment::Protected => self.links.detach(&mut self.protected, slot),
        }
    }

    /// Choose the slot to evict, stop tracking it, and return it.
    pub(crate) fn victim(&mut self) -> u32 {
        if !self.probation.is_empty() {
            let victim = self.probation.tail;
            self.links.detach(&mut self.probation, victim);
            victim
        } else {
            let victim = self.protected.tail;
            debug_assert_ne!(victim, NIL, "victim() on an empty policy");
            self.links.detach(&mut self.protected, victim);
            victim
        }
    }

    /// Forget every slot (cache clear). Keeps allocations.
    pub(crate) fn clear(&mut self) {
        self.links.clear();
        self.segment.clear();
        self.probation = ListHead::EMPTY;
        self.protected = ListHead::EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the policy like a cache of `capacity` would and collect
    /// evictions.
    fn run(policy: &mut SlruPolicy, ops: &[(&str, u32)], capacity: usize) -> Vec<u32> {
        let mut live: Vec<u32> = Vec::new();
        let mut evicted = Vec::new();
        for &(op, slot) in ops {
            match op {
                "ins" => {
                    if live.len() == capacity {
                        let v = policy.victim();
                        live.retain(|&s| s != v);
                        evicted.push(v);
                    }
                    policy.on_insert(slot);
                    live.push(slot);
                }
                "hit" => policy.on_hit(slot),
                "rm" => {
                    policy.on_remove(slot);
                    live.retain(|&s| s != slot);
                }
                _ => unreachable!(),
            }
        }
        evicted
    }

    #[test]
    fn slru_protects_re_referenced_slots_from_a_scan() {
        let mut p = SlruPolicy::for_capacity(5); // protected capacity 4
                                                 // 0 and 1 are re-referenced (protected); 2, 3, 4 are one-touch.
        let evicted = run(
            &mut p,
            &[
                ("ins", 0),
                ("ins", 1),
                ("hit", 0),
                ("hit", 1),
                ("ins", 2),
                ("ins", 3),
                ("ins", 4),
                // The scan: new one-touch slots displace only probation.
                ("ins", 5),
                ("ins", 6),
                ("ins", 7),
            ],
            5,
        );
        assert_eq!(evicted, vec![2, 3, 4], "the protected set survived");
    }

    #[test]
    fn slru_falls_back_to_protected_when_probation_is_empty() {
        let mut p = SlruPolicy::for_capacity(3); // protected capacity 2
        p.on_insert(0);
        p.on_insert(1);
        p.on_hit(0);
        p.on_hit(1); // both protected, probation empty
        assert_eq!(p.victim(), 0, "protected LRU is the fallback victim");
    }
}
