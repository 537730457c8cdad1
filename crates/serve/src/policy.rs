//! Pluggable eviction policies for the serving cache.
//!
//! # The plug-in contract
//!
//! A cache ([`PolicyCache`](crate::cache::PolicyCache)) owns the *storage* —
//! the key→slot map, the slot arena of keys and values, the free list and
//! the hit/miss/eviction counters. A policy owns only the *ordering*: pure
//! slot-index bookkeeping deciding who dies when the cache is full. The
//! split is the [`EvictionPolicy`] trait:
//!
//! | hook | called when | the policy must |
//! |------|-------------|-----------------|
//! | [`on_insert`](EvictionPolicy::on_insert) | a key was added under `slot` | start tracking `slot` |
//! | [`on_hit`](EvictionPolicy::on_hit) | `slot` was read or its value replaced | update its recency books |
//! | [`on_remove`](EvictionPolicy::on_remove) | `slot` was explicitly removed | forget `slot` |
//! | [`victim`](EvictionPolicy::victim) | the cache is full and needs room | pick a tracked slot, forget it, return it |
//!
//! Slots are dense `u32` indices below the capacity the policy was built
//! for, so implementations keep all their books in pre-sized, slot-indexed
//! vectors — both policies here are allocation-free in the steady state. To
//! plug in a new policy: implement the trait, add a [`PolicyKind`] variant
//! and its arm in [`PolicyKind::build`]; `PolicyCache::new`, the simulator
//! (`cache_sim` bench) and the server pick it up from the enum.
//!
//! # The catalog
//!
//! * [`LruPolicy`] — classic recency list: one intrusive doubly-linked
//!   list, hit promotes to head, victim is the tail. Its eviction decisions
//!   are the original serving cache's, pinned against a brute-force
//!   reference by the `lru_invariants` suite.
//! * [`SlruPolicy`] — segmented LRU: new keys enter a *probationary*
//!   segment; a hit promotes to a *protected* segment (capped at 4/5 of
//!   capacity, its overflow demoted back to probation's head). One-touch
//!   keys can never displace the protected set, which is what makes it scan
//!   resistant — an eval sweep that touches everything once churns only the
//!   probation segment.
//!
//! Which to serve with is a measurement, not a guess: the `cache_sim` bench
//! replays synthetic Zipf / scan / shifting-popularity traces through both
//! and records the hit-rate table into `BENCH_serve.json` (section
//! `cache_sim`). SLRU beats LRU by about 1 pp on Zipf and 3.5 pp on scan and
//! gives up about 1 pp on the shift trace, so it has the higher minimum hit
//! rate over the three traces (the bench asserts this), which is why
//! [`CacheConfig`](crate::server::CacheConfig) defaults to it while the
//! legacy `KnowledgeServer::new` constructor stays on LRU.
//!
//! The frequency family was measured on the same traces and retired. LFU
//! came within 0.14 pp of SLRU on Zipf (92.60% vs 92.46%) and 0.22 pp on
//! scan (82.30% vs 82.08%), but collapsed on the shift trace (77.63% vs
//! 89.89%, 12.3 pp); LFUDA won no trace; and a TinyLFU admission filter in
//! front of SLRU moved its hit rate by at most 0.03 pp. None of them paid
//! for its code on this traffic.
//!
//! # Concurrency and invalidation
//!
//! Policies are single-threaded by design; the server keeps its one
//! `PolicyCache` behind one mutex. Staleness protection lives *above* the
//! policy: the server stamps every cached value with the model generation ⊕
//! table-version sum and verifies the stamp on every lookup, so no policy
//! choice can make a stale answer servable — see the staleness tests in
//! `tests/policy_invariants.rs`, which re-prove the invariant for every
//! policy, single-threaded and under concurrent queries and updates.

/// Niche slot index marking "none".
const NIL: u32 = u32::MAX;

/// Which eviction policy a cache runs. See the [module docs](self) for the
/// catalog and the simulator-driven selection guidance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used (the bit-compatible original).
    Lru,
    /// Segmented LRU (scan-resistant).
    Slru,
}

impl PolicyKind {
    /// Every available policy, in simulator/table order.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::Slru];

    /// Stable lowercase name (bench tables, logs).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Slru => "slru",
        }
    }

    /// Build a boxed instance of this policy sized for `capacity` slots.
    pub fn build(self, capacity: usize) -> Box<dyn EvictionPolicy + Send> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::for_capacity(capacity)),
            PolicyKind::Slru => Box::new(SlruPolicy::for_capacity(capacity)),
        }
    }
}

/// The ordering half of a cache: pure slot-index bookkeeping. See the
/// [module docs](self) for the full contract; the cache guarantees that
/// `on_insert` slots were not already tracked, that `on_hit`/`on_remove`
/// slots are currently tracked, and that `victim` is only called while at
/// least one slot is tracked.
pub trait EvictionPolicy: std::fmt::Debug {
    /// Which catalog entry this is.
    fn kind(&self) -> PolicyKind;

    /// Start tracking a freshly inserted slot.
    fn on_insert(&mut self, slot: u32);

    /// A tracked slot was accessed (lookup hit, or value replaced in place).
    fn on_hit(&mut self, slot: u32);

    /// Stop tracking an explicitly removed slot.
    fn on_remove(&mut self, slot: u32);

    /// Choose the slot to evict, stop tracking it, and return it.
    fn victim(&mut self) -> u32;

    /// Forget every slot (cache clear). Keeps allocations.
    fn clear(&mut self);
}

/// Slot-indexed intrusive doubly-linked-list links shared by every policy:
/// one `(prev, next)` pair per slot, threaded through whatever list(s) the
/// policy keeps. Pre-sized to capacity; `ensure` never reallocates after
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

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Classic least-recently-used: one recency list, hit promotes to head,
/// victim is the tail. This is the original serving cache's list code moved
/// behind the trait; the `lru_invariants` suite pins its eviction decisions
/// against a brute-force reference model.
#[derive(Debug)]
pub struct LruPolicy {
    links: Links,
    list: ListHead,
}

impl LruPolicy {
    /// A policy pre-sized for slots `0..capacity`.
    pub(crate) fn for_capacity(capacity: usize) -> Self {
        Self {
            links: Links::with_capacity(capacity),
            list: ListHead::EMPTY,
        }
    }
}

impl EvictionPolicy for LruPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn on_insert(&mut self, slot: u32) {
        self.links.attach_front(&mut self.list, slot);
    }

    fn on_hit(&mut self, slot: u32) {
        self.links.detach(&mut self.list, slot);
        self.links.attach_front(&mut self.list, slot);
    }

    fn on_remove(&mut self, slot: u32) {
        self.links.detach(&mut self.list, slot);
    }

    fn victim(&mut self) -> u32 {
        let victim = self.list.tail;
        debug_assert_ne!(victim, NIL, "victim() on an empty policy");
        self.links.detach(&mut self.list, victim);
        victim
    }

    fn clear(&mut self) {
        self.links.clear();
        self.list = ListHead::EMPTY;
    }
}

// ---------------------------------------------------------------------------
// SLRU
// ---------------------------------------------------------------------------

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
#[derive(Debug)]
pub struct SlruPolicy {
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
}

impl EvictionPolicy for SlruPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Slru
    }

    fn on_insert(&mut self, slot: u32) {
        self.links.attach_front(&mut self.probation, slot);
        self.set_segment(slot, Segment::Probation);
    }

    fn on_hit(&mut self, slot: u32) {
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

    fn on_remove(&mut self, slot: u32) {
        match self.segment[slot as usize] {
            Segment::Probation => self.links.detach(&mut self.probation, slot),
            Segment::Protected => self.links.detach(&mut self.protected, slot),
        }
    }

    fn victim(&mut self) -> u32 {
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

    fn clear(&mut self) {
        self.links.clear();
        self.segment.clear();
        self.probation = ListHead::EMPTY;
        self.protected = ListHead::EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a policy like a capacity-3 cache would and collect evictions.
    fn run<P: EvictionPolicy>(policy: &mut P, ops: &[(&str, u32)], capacity: usize) -> Vec<u32> {
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
    fn lru_evicts_the_least_recent() {
        let mut p = LruPolicy::for_capacity(3);
        let evicted = run(
            &mut p,
            &[
                ("ins", 0),
                ("ins", 1),
                ("ins", 2),
                ("hit", 0),
                ("ins", 3), // 1 is now the least recent
            ],
            3,
        );
        assert_eq!(evicted, vec![1]);
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

    #[test]
    fn policy_kind_builds_every_variant() {
        for kind in PolicyKind::ALL {
            let mut policy = kind.build(4);
            assert_eq!(policy.kind(), kind);
            // Slot 0 was re-referenced after slot 1 arrived, so both
            // policies agree that slot 1 is the victim.
            policy.on_insert(0);
            policy.on_insert(1);
            policy.on_hit(0);
            assert_eq!(
                policy.victim(),
                1,
                "{}: slot 1 is strictly colder",
                kind.name()
            );
            policy.on_remove(0);
            policy.clear();
        }
    }
}
