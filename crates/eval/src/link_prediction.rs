//! Filtered / raw link prediction.

use crate::metrics::{RankAccumulator, RankingMetrics};
use crate::protocol::EvalProtocol;
use nscaching_kg::{CorruptionSide, FilterIndex, Triple};
use nscaching_math::rank_contenders_into;
use nscaching_models::KgeModel;

/// Reusable buffers for the ranking hot loop: the full score vector and the
/// contender index list of the top-k early-termination path. Keep one per
/// worker thread and reuse it across queries to avoid per-query allocations.
#[derive(Debug, Default)]
pub struct RankScratch {
    scores: Vec<f64>,
    contenders: Vec<usize>,
}

/// Per-side and combined link-prediction metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPredictionReport {
    /// Metrics over head-replacement queries.
    pub head: RankingMetrics,
    /// Metrics over tail-replacement queries.
    pub tail: RankingMetrics,
    /// Metrics over both query directions (what the paper's tables report).
    pub combined: RankingMetrics,
}

/// Rank the correct entity of every test triple against all corruptions.
///
/// For each triple `(h, r, t)` two queries are scored: `(?, r, t)` and
/// `(h, r, ?)`. In the filtered setting, any candidate entity that forms a
/// known triple (other than the test triple itself) is skipped. Ranks use
/// "competition" counting with half-credit ties so results are deterministic
/// and unbiased for models that produce tied scores.
pub fn evaluate_link_prediction(
    model: &dyn KgeModel,
    test: &[Triple],
    filter: &FilterIndex,
    protocol: &EvalProtocol,
) -> LinkPredictionReport {
    let limit = protocol.max_triples.unwrap_or(test.len()).min(test.len());
    let triples = &test[..limit];
    let threads = protocol.threads.max(1).min(triples.len().max(1));

    let chunk_size = triples.len().div_ceil(threads).max(1);
    let mut partials: Vec<(RankAccumulator, RankAccumulator)> = Vec::new();
    if triples.is_empty() {
        partials.push((RankAccumulator::new(), RankAccumulator::new()));
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in triples.chunks(chunk_size) {
                handles.push(scope.spawn(move || rank_chunk(model, chunk, filter, protocol)));
            }
            for handle in handles {
                partials.push(handle.join().expect("ranking worker panicked"));
            }
        });
    }

    let mut head = RankAccumulator::new();
    let mut tail = RankAccumulator::new();
    for (h, t) in partials {
        head.merge(h);
        tail.merge(t);
    }
    let mut combined = RankAccumulator::new();
    combined.merge(head.clone());
    combined.merge(tail.clone());
    LinkPredictionReport {
        head: head.summarise(),
        tail: tail.summarise(),
        combined: combined.summarise(),
    }
}

fn rank_chunk(
    model: &dyn KgeModel,
    triples: &[Triple],
    filter: &FilterIndex,
    protocol: &EvalProtocol,
) -> (RankAccumulator, RankAccumulator) {
    let mut head_acc = RankAccumulator::new();
    let mut tail_acc = RankAccumulator::new();
    // One scratch (score + contender buffers) per worker, reused across
    // every query in the chunk.
    let mut scratch = RankScratch::default();
    for triple in triples {
        head_acc.push(rank_one_with(
            model,
            triple,
            CorruptionSide::Head,
            filter,
            protocol,
            &mut scratch,
        ));
        tail_acc.push(rank_one_with(
            model,
            triple,
            CorruptionSide::Tail,
            filter,
            protocol,
            &mut scratch,
        ));
    }
    (head_acc, tail_acc)
}

/// Rank of the true entity for one query direction.
///
/// Allocating convenience wrapper around [`rank_one_with`].
pub fn rank_one(
    model: &dyn KgeModel,
    triple: &Triple,
    side: CorruptionSide,
    filter: &FilterIndex,
    protocol: &EvalProtocol,
) -> f64 {
    let mut scratch = RankScratch::default();
    rank_one_with(model, triple, side, filter, protocol, &mut scratch)
}

/// Rank of the true entity for one query direction, scoring all candidates
/// through the batched `score_all_into` fast path into caller-provided
/// scratch buffers (cleared and refilled; reuse them across calls to avoid
/// per-query allocations).
///
/// With [`EvalProtocol::early_termination`] (the default), the rank is
/// resolved from the *contender set* — candidates scoring at or above the
/// true entity, collected in one pass by
/// [`nscaching_math::rank_contenders_into`]. Candidates below the true score
/// can never change a competition rank, so the filtered protocol's
/// false-negative hash probe runs only on the contenders (for a trained model
/// a handful of entities) instead of all `|E|` candidates; the scan over the
/// rest of the entity set terminates at a single float compare. The result is
/// exactly the full-scan rank — property-tested in
/// `tests/topk_equivalence.rs`.
pub fn rank_one_with(
    model: &dyn KgeModel,
    triple: &Triple,
    side: CorruptionSide,
    filter: &FilterIndex,
    protocol: &EvalProtocol,
    scratch: &mut RankScratch,
) -> f64 {
    let true_entity = triple.entity_at(side);
    model.score_all_into(triple, side, &mut scratch.scores);
    let true_score = scratch.scores[true_entity as usize];

    if protocol.early_termination {
        let scan = rank_contenders_into(
            &scratch.scores,
            true_score,
            true_entity as usize,
            &mut scratch.contenders,
        );
        let (mut greater, mut ties) = (scan.greater, scan.ties);
        if protocol.filtered {
            for &entity in &scratch.contenders {
                if filter.is_false_negative(triple, side, entity as u32) {
                    if scratch.scores[entity] > true_score {
                        greater -= 1;
                    } else {
                        ties -= 1;
                    }
                }
            }
        }
        return 1.0 + greater as f64 + ties as f64 / 2.0;
    }

    // Reference full scan: one filter probe per candidate.
    let mut greater = 0usize;
    let mut ties = 0usize;
    for (entity, &score) in scratch.scores.iter().enumerate() {
        let entity = entity as u32;
        if entity == true_entity {
            continue;
        }
        if protocol.filtered && filter.is_false_negative(triple, side, entity) {
            continue;
        }
        if score > true_score {
            greater += 1;
        } else if score == true_score {
            ties += 1;
        }
    }
    1.0 + greater as f64 + ties as f64 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_kg::{Dataset, Vocab};
    use nscaching_models::{build_model, EmbeddingTable, GradientSink, ModelKind, TableId};

    /// A deterministic toy model whose score is `-(|h - candidate| )` style:
    /// it ranks entities by their numeric distance to a target id, which makes
    /// expected ranks easy to compute by hand.
    struct ToyModel {
        num_entities: usize,
        tables: Vec<EmbeddingTable>,
    }

    impl ToyModel {
        fn new(num_entities: usize) -> Self {
            Self {
                num_entities,
                tables: vec![EmbeddingTable::zeros("entity", num_entities, 1)],
            }
        }
    }

    impl KgeModel for ToyModel {
        fn kind(&self) -> ModelKind {
            ModelKind::TransE
        }
        fn num_entities(&self) -> usize {
            self.num_entities
        }
        fn num_relations(&self) -> usize {
            1
        }
        fn dim(&self) -> usize {
            1
        }
        fn score(&self, t: &Triple) -> f64 {
            // prefers tail == head + 1 and head == tail - 1
            let target_tail = t.head as f64 + 1.0;
            let target_head = t.tail as f64 - 1.0;
            -((t.tail as f64 - target_tail).abs() + (t.head as f64 - target_head).abs())
        }
        fn accumulate_score_gradient(&self, _t: &Triple, _c: f64, _g: &mut dyn GradientSink) {}
        fn tables(&self) -> Vec<&EmbeddingTable> {
            self.tables.iter().collect()
        }
        fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable> {
            self.tables.iter_mut().collect()
        }
        fn parameter_rows(&self, _t: &Triple) -> Vec<(TableId, usize)> {
            vec![]
        }
        fn apply_constraints(&mut self, _touched: &[(TableId, usize)]) {}
    }

    fn filter_of(triples: &[Triple]) -> FilterIndex {
        FilterIndex::from_triples(triples.iter().copied())
    }

    #[test]
    fn perfect_model_gets_rank_one() {
        let model = ToyModel::new(10);
        // (3, 0, 4) is exactly what the toy model prefers
        let test = vec![Triple::new(3, 0, 4)];
        let filter = filter_of(&test);
        let report = evaluate_link_prediction(&model, &test, &filter, &EvalProtocol::filtered());
        assert_eq!(report.combined.count, 2);
        assert!((report.tail.mrr - 1.0).abs() < 1e-12);
        assert!((report.head.mrr - 1.0).abs() < 1e-12);
        assert!((report.combined.hits_at_10 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn filtered_setting_removes_known_competitors() {
        let model = ToyModel::new(10);
        // Tail query for (3, 0, 6): the toy model scores tail candidate x as
        // −2·|x − 4|, so the true tail 6 (score −4) is beaten by tails 3, 4, 5
        // and ties with tail 2 → raw rank 1 + 3 + 0.5 = 4.5. Filtering the
        // known triples (3,0,4) and (3,0,5) removes two competitors → 2.5.
        let test = vec![Triple::new(3, 0, 6)];
        let train = vec![Triple::new(3, 0, 4), Triple::new(3, 0, 5)];
        let mut all = test.clone();
        all.extend(&train);
        let filter = filter_of(&all);

        let raw = evaluate_link_prediction(&model, &test, &filter, &EvalProtocol::raw());
        let filtered = evaluate_link_prediction(&model, &test, &filter, &EvalProtocol::filtered());
        assert!(filtered.tail.mean_rank < raw.tail.mean_rank);
        assert!((filtered.tail.mean_rank - 2.5).abs() < 1e-12);
        assert!((raw.tail.mean_rank - 4.5).abs() < 1e-12);
    }

    #[test]
    fn max_triples_limits_the_workload() {
        let model = ToyModel::new(10);
        let test: Vec<Triple> = (0..8).map(|i| Triple::new(i, 0, (i + 1) % 10)).collect();
        let filter = filter_of(&test);
        let report = evaluate_link_prediction(
            &model,
            &test,
            &filter,
            &EvalProtocol::filtered().with_max_triples(3),
        );
        assert_eq!(report.combined.count, 6);
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        let model = ToyModel::new(30);
        let test: Vec<Triple> = (0..20).map(|i| Triple::new(i, 0, (i + 3) % 30)).collect();
        let filter = filter_of(&test);
        let single = evaluate_link_prediction(
            &model,
            &test,
            &filter,
            &EvalProtocol::filtered().with_threads(1),
        );
        let multi = evaluate_link_prediction(
            &model,
            &test,
            &filter,
            &EvalProtocol::filtered().with_threads(4),
        );
        assert_eq!(single.combined.count, multi.combined.count);
        assert!((single.combined.mrr - multi.combined.mrr).abs() < 1e-12);
        assert!((single.combined.mean_rank - multi.combined.mean_rank).abs() < 1e-12);
    }

    #[test]
    fn early_termination_matches_the_full_scan_on_the_toy_model() {
        let model = ToyModel::new(12);
        let test: Vec<Triple> = (0..8).map(|i| Triple::new(i, 0, (i + 2) % 12)).collect();
        let train: Vec<Triple> = (0..12u32)
            .map(|i| Triple::new(i, 0, (i + 1) % 12))
            .collect();
        let mut all = test.clone();
        all.extend(&train);
        let filter = filter_of(&all);
        for filtered in [false, true] {
            let base = if filtered {
                EvalProtocol::filtered()
            } else {
                EvalProtocol::raw()
            };
            let fast = evaluate_link_prediction(&model, &test, &filter, &base);
            let full = evaluate_link_prediction(
                &model,
                &test,
                &filter,
                &base.with_early_termination(false),
            );
            assert_eq!(
                fast.combined.mean_rank, full.combined.mean_rank,
                "filtered={filtered}: ranks must be identical"
            );
            assert_eq!(fast.combined.mrr, full.combined.mrr);
        }
    }

    #[test]
    fn empty_test_set_reports_zero_counts() {
        let model = ToyModel::new(5);
        let filter = FilterIndex::default();
        let report = evaluate_link_prediction(&model, &[], &filter, &EvalProtocol::filtered());
        assert_eq!(report.combined.count, 0);
    }

    #[test]
    fn works_with_a_real_trained_model_shape() {
        // Not a learning test — just exercises the real KgeModel implementations
        // through the ranking path on a tiny dataset.
        let entities = Vocab::synthetic("e", 12);
        let relations = Vocab::synthetic("r", 2);
        let train: Vec<Triple> = (0..10u32)
            .map(|i| Triple::new(i, i % 2, (i + 1) % 12))
            .collect();
        let ds = Dataset::new(
            "tiny",
            entities,
            relations,
            train,
            vec![],
            vec![Triple::new(0, 0, 5)],
        )
        .unwrap();
        let model = build_model(
            &nscaching_models::ModelConfig::new(ModelKind::ComplEx).with_dim(4),
            ds.num_entities(),
            ds.num_relations(),
        );
        let report = evaluate_link_prediction(
            model.as_ref(),
            &ds.test,
            &ds.filter_index(),
            &EvalProtocol::filtered(),
        );
        assert_eq!(report.combined.count, 2);
        assert!(report.combined.mean_rank >= 1.0);
        assert!(report.combined.mean_rank <= 12.0);
    }
}
