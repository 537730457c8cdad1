//! Per-relation candidate indexes for the top-k miss path.
//!
//! A cold top-k query scores **every** entity — `O(|E|)` fused kernel passes
//! per miss, which dominates serve-path latency on large vocabularies even
//! after the bounded one-pass selection removed the sort. But real knowledge
//! graphs are heavily typed: most relations are only ever observed with a
//! small slice of the entity set (`born_in` never takes a protein as its
//! tail), and link-prediction answers outside that slice are noise to a
//! downstream consumer.
//!
//! [`CandidateIndex`] captures that structure once, at snapshot-bind time:
//! for every relation, the sorted, deduplicated sets of entities observed as
//! its tails and as its heads. A server with a bound index answers top-k
//! misses by scoring only the query relation's candidate set (the batched
//! [`score_candidates`](nscaching_models::KgeModel::score_candidates)
//! gather), falling back to the full-|E| streaming scan whenever the index
//! cannot shrink the scan — an unobserved relation, or one whose candidate
//! set covers the whole vocabulary.
//!
//! # Answer semantics
//!
//! Binding an index *changes the answer set* of affected queries: candidates
//! never observed with the relation no longer appear, exactly like a SQL
//! index-only plan over a typed column. The ranking *within* the candidate
//! set is bit-identical to a full scan restricted to the same set — same
//! scoring kernel, same top-k selection kernel, same lower-entity-id tie
//! break (candidate lists are sorted ascending, so index-order ties *are*
//! entity-id ties). [`KnowledgeServer::bind_candidate_index`] therefore
//! bumps the server's model stamp: cached answers computed under different
//! candidate semantics die the same death as answers computed from stale
//! tables, and can never be served.
//!
//! [`KnowledgeServer::bind_candidate_index`]: crate::KnowledgeServer::bind_candidate_index

use nscaching_kg::{CorruptionSide, EntityId, RelationId, Triple};

/// Sorted, deduplicated observed-entity sets per relation and direction.
/// Immutable once built; the server shares it behind an `Arc`.
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    /// `tails[r]`: entities observed as the tail of relation `r`, ascending.
    tails: Vec<Box<[EntityId]>>,
    /// `heads[r]`: entities observed as the head of relation `r`, ascending.
    heads: Vec<Box<[EntityId]>>,
}

impl CandidateIndex {
    /// Build the index from an observed triple set (typically the training
    /// split the served model was fitted on). Relations beyond
    /// `num_relations` are ignored; relations never observed get empty
    /// candidate sets (which the serve path treats as "cannot shrink" and
    /// answers by full scan).
    pub fn build(triples: &[Triple], num_relations: usize) -> Self {
        let mut tails: Vec<Vec<EntityId>> = vec![Vec::new(); num_relations];
        let mut heads: Vec<Vec<EntityId>> = vec![Vec::new(); num_relations];
        for t in triples {
            let r = t.relation as usize;
            if r >= num_relations {
                continue;
            }
            tails[r].push(t.tail);
            heads[r].push(t.head);
        }
        let compact = |mut sets: Vec<Vec<EntityId>>| {
            sets.drain(..)
                .map(|mut set| {
                    set.sort_unstable();
                    set.dedup();
                    set.into_boxed_slice()
                })
                .collect()
        };
        Self {
            tails: compact(tails),
            heads: compact(heads),
        }
    }

    /// The candidate set for predicting `direction` of a query on
    /// `relation`: observed tails for [`CorruptionSide::Tail`], observed
    /// heads for [`CorruptionSide::Head`]. Empty for out-of-range or
    /// never-observed relations.
    pub fn candidates(&self, relation: RelationId, direction: CorruptionSide) -> &[EntityId] {
        let sets = match direction {
            CorruptionSide::Tail => &self.tails,
            CorruptionSide::Head => &self.heads,
        };
        sets.get(relation as usize).map_or(&[], |set| &set[..])
    }

    /// The candidate set, but only when scoring it beats the streaming full
    /// scan: `None` when the set is empty (nothing observed — answer from
    /// the full vocabulary rather than returning nothing) or when it covers
    /// the whole vocabulary (the gather path would do the same work as the
    /// stream without the streaming layout).
    pub fn shrinking_candidates(
        &self,
        relation: RelationId,
        direction: CorruptionSide,
        num_entities: usize,
    ) -> Option<&[EntityId]> {
        let set = self.candidates(relation, direction);
        (!set.is_empty() && set.len() < num_entities).then_some(set)
    }

    /// Number of relations the index was built over.
    pub fn num_relations(&self) -> usize {
        self.tails.len()
    }

    /// Total candidate entries across all relations and both directions
    /// (a memory proxy: 4 bytes each).
    pub fn total_entries(&self) -> usize {
        let count = |sets: &[Box<[EntityId]>]| sets.iter().map(|s| s.len()).sum::<usize>();
        count(&self.tails) + count(&self.heads)
    }

    /// Mean fraction of `num_entities` a candidate-set scan touches,
    /// averaged over observed (relation, direction) pairs — the scan
    /// shrinkage the index buys on a uniform query mix. 1.0 when nothing is
    /// observed.
    pub fn mean_coverage(&self, num_entities: usize) -> f64 {
        if num_entities == 0 {
            return 1.0;
        }
        let mut observed = 0usize;
        let mut fraction_sum = 0.0;
        for set in self.tails.iter().chain(&self.heads) {
            if !set.is_empty() {
                observed += 1;
                fraction_sum += set.len() as f64 / num_entities as f64;
            }
        }
        if observed == 0 {
            1.0
        } else {
            fraction_sum / observed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triples() -> Vec<Triple> {
        vec![
            Triple::new(0, 0, 5),
            Triple::new(1, 0, 5),
            Triple::new(2, 0, 7),
            Triple::new(9, 1, 3),
            // duplicate observation must collapse
            Triple::new(9, 1, 3),
            // out-of-range relation must be ignored, not panic
            Triple::new(4, 9, 4),
        ]
    }

    #[test]
    fn sets_are_sorted_deduplicated_and_direction_correct() {
        let index = CandidateIndex::build(&triples(), 3);
        assert_eq!(index.num_relations(), 3);
        assert_eq!(index.candidates(0, CorruptionSide::Tail), &[5, 7]);
        assert_eq!(index.candidates(0, CorruptionSide::Head), &[0, 1, 2]);
        assert_eq!(index.candidates(1, CorruptionSide::Tail), &[3]);
        assert_eq!(index.candidates(1, CorruptionSide::Head), &[9]);
        assert_eq!(index.candidates(2, CorruptionSide::Tail), &[] as &[u32]);
        assert_eq!(index.total_entries(), 7);
    }

    #[test]
    fn out_of_range_relations_are_empty_not_panics() {
        let index = CandidateIndex::build(&triples(), 3);
        assert_eq!(index.candidates(9, CorruptionSide::Tail), &[] as &[u32]);
        assert_eq!(
            index.candidates(u32::MAX, CorruptionSide::Head),
            &[] as &[u32]
        );
    }

    #[test]
    fn shrinking_candidates_rejects_empty_and_full_sets() {
        let index = CandidateIndex::build(&triples(), 3);
        // Observed and smaller than the vocabulary: usable.
        assert_eq!(
            index.shrinking_candidates(0, CorruptionSide::Tail, 10),
            Some(&[5u32, 7][..])
        );
        // Unobserved: full scan.
        assert_eq!(
            index.shrinking_candidates(2, CorruptionSide::Tail, 10),
            None
        );
        // Covers the whole vocabulary: full scan.
        assert_eq!(index.shrinking_candidates(0, CorruptionSide::Tail, 2), None);
    }

    #[test]
    fn coverage_reflects_scan_shrinkage() {
        let index = CandidateIndex::build(&triples(), 3);
        // Observed sets: {5,7}, {0,1,2}, {3}, {9} over |E| = 10
        // → mean (2 + 3 + 1 + 1) / 4 / 10 = 0.175.
        assert!((index.mean_coverage(10) - 0.175).abs() < 1e-12);
        assert_eq!(CandidateIndex::default().mean_coverage(10), 1.0);
    }
}
