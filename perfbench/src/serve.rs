//! The serving workloads: two closed-loop connections against a `NetServer`
//! holding a TransE snapshot with FB15K237's full vocabulary.

use crate::report::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::stats::{median, per_second, percentile, sorted, success_fraction};
use crate::trace::Tracer;
use crate::RunArgs;
use nscaching_suite::datagen::{generate, BenchmarkFamily};
use nscaching_suite::kg::{CorruptionSide, Dataset, Triple};
use nscaching_suite::math::{split_seed, top_k_indices_into};
use nscaching_suite::models::{build_model, ModelConfig, ModelKind};
use nscaching_suite::net::{
    Answer, ClientConfig, ClientError, ErrorCode, NetClient, NetServer, NetServerConfig,
    NetStatsSnapshot, Request,
};
use nscaching_suite::optim::OptimizerConfig;
use nscaching_suite::sampling::{build_sampler, SamplerConfig};
use nscaching_suite::serve::{
    load_model, save_model, CacheConfig, KnowledgeServer, QueryScratch, TopKQuery,
};
use nscaching_suite::train::{TrainConfig, TrainRuntime, Trainer};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// FB15K237's vocabulary.
const ENTITIES: usize = 14_541;
const RELATIONS: usize = 237;
const DIM: usize = 64;
/// Pinned so `available_parallelism` does not pick them.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const SETUP_ROUNDS: usize = 5;
/// Measured sub-runs per run (see the measured section of `run`).
const SUBRUNS: usize = 10;
const K: u32 = 10;
/// Hot keys: fewer than the protected segment (4/5) of the default
/// 256-answer SLRU cache, so after warm-up every hot lookup can hit.
const HOT_KEYS: usize = 192;
/// Churn keys that recur, so that publishes leave stale cached answers for
/// the version check to catch; a quarter of churn's top-k requests use them.
const CHURN_REPEAT_KEYS: usize = 64;
/// On the publishing connection, every answer this soon after a publish is
/// checked, besides the evenly spread sample.
const AFTER_PUBLISH_CHECKS: usize = 32;
/// Answers per connection kept for the reference check, spread evenly over
/// the stream.
const MAX_CHECKS: usize = 400;
/// Test triples of the snapshot dataset ranked for `mrr_final`.
const MRR_TRIPLES: usize = 500;
/// The served model does not depend on `--seed`, so `mrr_final` (a property
/// of the snapshot) is the same in every run; the traffic does depend on it.
const SNAPSHOT_SEED: u64 = 0x5eed;
/// In-process replay sizes of the traced run.
const HIT_REPLAYS: usize = 20_000;
const MISS_REPLAYS: usize = 300;

/// One serving workload.
pub struct ServeWorkload {
    hot: bool,
    /// Requests per connection per requested second, calibrated so a run
    /// measures about `--seconds` on one CPU of a 2-vCPU host.
    requests_per_second: f64,
}

/// Zipf-skewed top-k and score traffic over a working set the cache holds.
pub fn hot() -> ServeWorkload {
    ServeWorkload {
        hot: true,
        requests_per_second: 21_000.0,
    }
}

/// Top-k and rank traffic over a key space far larger than the cache, with a
/// model publish about once a second.
pub fn churn() -> ServeWorkload {
    ServeWorkload {
        hot: false,
        requests_per_second: 700.0,
    }
}

/// The two published snapshots: a briefly trained TransE model and the same
/// model one epoch later.
struct Snapshots {
    paths: [PathBuf; 2],
    dataset: Dataset,
}

/// Train the snapshot model on an FB15K237-shaped graph with the full
/// vocabulary and write both snapshot files.
fn make_snapshots(dir: &Path) -> Snapshots {
    let seed = SNAPSHOT_SEED;
    let mut generator = BenchmarkFamily::Fb15k237.config(1.0, split_seed(seed, 1));
    generator.num_train = 40_000;
    generator.num_valid = 50;
    generator.num_test = MRR_TRIPLES;
    let dataset = generate(&generator).expect("the preset generates");
    assert_eq!(
        (dataset.num_entities(), dataset.num_relations()),
        (ENTITIES, RELATIONS)
    );
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(DIM)
            .with_seed(split_seed(seed, 2)),
        ENTITIES,
        RELATIONS,
    );
    let sampler = build_sampler(&SamplerConfig::Bernoulli, &dataset, split_seed(seed, 3));
    let config = TrainConfig::new(3)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_seed(split_seed(seed, 4))
        .with_shards(1)
        .with_runtime(TrainRuntime::Auto);
    let mut trainer = Trainer::new(model, sampler, &dataset, config);
    let paths = [0, 1].map(|v| dir.join(format!("serve-{seed}-{v}.snapshot")));
    trainer.train_epoch();
    trainer.train_epoch();
    save_model(&paths[0], trainer.model()).expect("write snapshot");
    trainer.train_epoch();
    save_model(&paths[1], trainer.model()).expect("write snapshot");
    Snapshots { paths, dataset }
}

/// Tiny deterministic generator for the query streams.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn random_topk(rng: &mut SplitMix) -> TopKQuery {
    let (entity, relation) = (rng.below(ENTITIES) as u32, rng.below(RELATIONS) as u32);
    match side_of(rng) {
        CorruptionSide::Tail => TopKQuery::tails(entity, relation, K),
        CorruptionSide::Head => TopKQuery::heads(entity, relation, K),
    }
}

fn side_of(rng: &mut SplitMix) -> CorruptionSide {
    if rng.next().is_multiple_of(2) {
        CorruptionSide::Tail
    } else {
        CorruptionSide::Head
    }
}

impl ServeWorkload {
    /// The recurring top-k keys: the hot working set, or churn's few
    /// repeated keys.
    fn repeat_keys(&self, seed: u64) -> Vec<TopKQuery> {
        let mut rng = SplitMix(split_seed(seed, 20));
        let n = if self.hot {
            HOT_KEYS
        } else {
            CHURN_REPEAT_KEYS
        };
        (0..n).map(|_| random_topk(&mut rng)).collect()
    }

    /// One connection's request stream.
    fn stream(&self, seed: u64, len: usize, keys: &[TopKQuery], test: &[Triple]) -> Vec<Request> {
        let mut rng = SplitMix(seed);
        // Zipf(1) over the hot keys, by inverse CDF.
        let mut cdf: Vec<f64> = (1..=keys.len()).map(|r| 1.0 / r as f64).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        (0..len)
            .map(|_| {
                let roll = rng.unit();
                if self.hot {
                    if roll < 0.85 {
                        let u = rng.unit();
                        let i = cdf.partition_point(|&c| c < u).min(keys.len() - 1);
                        Request::TopK(keys[i])
                    } else {
                        Request::Score {
                            head: rng.below(ENTITIES) as u32,
                            relation: rng.below(RELATIONS) as u32,
                            tail: rng.below(ENTITIES) as u32,
                        }
                    }
                } else if roll < 0.175 {
                    Request::TopK(keys[rng.below(keys.len())])
                } else if roll < 0.7 {
                    Request::TopK(random_topk(&mut rng))
                } else {
                    let t = test[rng.below(test.len())];
                    Request::Rank {
                        head: t.head,
                        relation: t.relation,
                        tail: t.tail,
                        side: side_of(&mut rng),
                    }
                }
            })
            .collect()
    }

    /// Generate the inputs, set up, drive both connections, check and
    /// report.
    pub fn run(&self, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
        let mut outcome = Outcome::default();
        std::fs::create_dir_all(&args.work_dir).expect("create the work directory");
        let snapshots = make_snapshots(&args.work_dir);
        let keys = self.repeat_keys(args.seed);
        let per_conn = (self.requests_per_second * args.seconds).round().max(100.0) as usize;
        let streams: Vec<Vec<Request>> = (0..CONNECTIONS)
            .map(|c| {
                let seed = split_seed(args.seed, 30 + c as u64);
                self.stream(seed, per_conn, &keys, &snapshots.dataset.test)
            })
            .collect();
        let warm: Vec<Request> = if self.hot {
            keys.iter()
                .chain(&keys)
                .map(|&q| Request::TopK(q))
                .collect()
        } else {
            self.stream(
                split_seed(args.seed, 40),
                32,
                &keys,
                &snapshots.dataset.test,
            )
        };
        // About one publish per measured second, on connection 0.
        let publish_every = if self.hot {
            usize::MAX
        } else {
            (per_conn as f64 / args.seconds.max(1.0)).round().max(1.0) as usize
        };
        reset_peak_rss();

        // Set-up, repeated: snapshot load, bind, cache warm-up.
        let net_config = NetServerConfig {
            workers: WORKERS,
            ..NetServerConfig::default()
        };
        let client_config = ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        };
        let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
        let mut live: Option<(KnowledgeServer, NetServer)> = None;
        for round in 0..SETUP_ROUNDS as u64 {
            if let Some((_, server)) = live.take() {
                server.shutdown();
            }
            let started = Instant::now();
            let setup = tracer.begin("setup", round);
            let engine = tracer.time("serve.load", round, || {
                KnowledgeServer::load_with_cache(&snapshots.paths[0], CacheConfig::default())
                    .expect("load snapshot")
            });
            let server = tracer.time("net.bind", round, || {
                NetServer::bind("127.0.0.1:0", engine.clone(), net_config).expect("bind")
            });
            let warmed = tracer.time("serve.warm", round, || {
                let mut client = NetClient::new(server.addr(), client_config);
                warm.iter().all(|request| client.call(request).is_ok())
            });
            tracer.end(setup);
            setup_s.push(started.elapsed().as_secs_f64());
            outcome.check(warmed, || "a warm-up request failed".into());
            live = Some((engine, server));
        }
        let (engine, server) = live.expect("at least one set-up round");

        // The measured section, in sub-runs. Each sub-run binds a fresh front
        // door on the same warm engine and opens fresh connections: on a
        // 2-vCPU host the placement of the client, connection and worker
        // threads sets a per-process speed that differs by up to a quarter
        // between placements, and several placements per run average it out.
        let cache_before = engine.cache_stats();
        let versions = Versions::default();
        let addr = Mutex::new(server.addr());
        // The engine's metrics stay on the registry of the first front door
        // it was bound to (attach-once), whichever server runs a sub-run.
        let engine_registry = Arc::clone(server.registry());
        let barrier = Barrier::new(CONNECTIONS + 1);
        let mut server = Some(server);
        let mut subrun_s = Vec::with_capacity(SUBRUNS);
        let (mut server_p50, mut server_p90) = (Vec::new(), Vec::new());
        let mut net = NetStatsSnapshot::default();
        let mut ledger_balanced = true;
        let results: Vec<ConnectionResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(c, stream)| {
                    let connection = Connection {
                        addr: &addr,
                        barrier: &barrier,
                        config: client_config,
                        publisher: (c == 0).then_some(Publisher {
                            engine: &engine,
                            paths: &snapshots.paths,
                            every: publish_every,
                        }),
                        versions: &versions,
                        tracer: tracer.fork(),
                    };
                    scope.spawn(move || connection.drive(stream))
                })
                .collect();
            for _ in 0..SUBRUNS {
                let server = server.take().unwrap_or_else(|| {
                    NetServer::bind("127.0.0.1:0", engine.clone(), net_config).expect("bind")
                });
                *addr.lock().expect("address lock") = server.addr();
                barrier.wait(); // the address is published
                barrier.wait(); // both connections are open
                let started = Instant::now();
                barrier.wait(); // both connections sent their share
                subrun_s.push(started.elapsed().as_secs_f64());
                let topk = server
                    .registry()
                    .histogram_with("nsc_net_request_latency_us", &[("op", "top_k")])
                    .snapshot();
                server_p50.push(topk.p50 as f64);
                server_p90.push(topk.p90 as f64);
                let stats = server.shutdown();
                ledger_balanced &= stats.ledger_balanced();
                net.written += stats.written;
                net.shed += stats.shed;
                net.deadline_exceeded += stats.deadline_exceeded;
                net.degraded_l1 += stats.degraded_l1;
                net.degraded_l2 += stats.degraded_l2;
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        // The request budget at the median sub-run's pace: a stall confined
        // to one or two sub-runs shows in the tail latencies, not here.
        let run_s = median(&subrun_s) * SUBRUNS as f64;
        let stale = engine_registry
            .counter_value("nsc_serve_stale_invalidations_total", &[])
            .unwrap_or(0);
        let cache = engine.cache_stats();
        let hits = cache.hits - cache_before.hits;
        let lookups = hits + cache.misses - cache_before.misses;
        let hit_rate = success_fraction(hits, lookups);
        let peak_rss = peak_rss_mb();

        // Failure accounting.
        let mut latencies_us = Vec::new();
        let mut topk_us = Vec::new();
        let mut errors: HashMap<String, u64> = HashMap::new();
        let mut reload_ms = Vec::new();
        let mut samples = Vec::new();
        let mut succeeded = 0;
        for result in results {
            outcome.attempted += result.attempted;
            succeeded += result.succeeded;
            latencies_us.extend(result.latencies_us);
            topk_us.extend(result.topk_us);
            for (kind, n) in result.errors {
                *errors.entry(kind).or_default() += n;
            }
            reload_ms.extend(result.reload_ms);
            samples.extend(result.samples);
            tracer.absorb(result.tracer);
        }
        outcome.failed = outcome.attempted - succeeded;
        println!(
            "requests: attempted {}, succeeded {}, failed {} {:?}; publishes {}",
            outcome.attempted,
            succeeded,
            outcome.failed,
            errors,
            reload_ms.len()
        );

        // Output checks.
        outcome.check(ledger_balanced, || {
            "a server's response ledger is unbalanced".into()
        });
        if self.hot {
            outcome.check(hit_rate >= 0.95, || {
                format!("hot hit rate {hit_rate:.3} < 0.95")
            });
        }
        let reference = Reference::new(&snapshots.paths);
        let checked = samples.len();
        let mut mismatches = 0;
        for sample in &samples {
            if !reference.matches(sample) {
                mismatches += 1;
            }
        }
        outcome.check(mismatches == 0, || {
            format!("{mismatches} of {checked} sampled answers differ from the uncached engine")
        });
        outcome.check(checked > 0, || {
            "no answers were sampled for checking".into()
        });
        println!("checked {checked} sampled answers against the uncached engine");
        let mrr_final = reference.mrr(&snapshots.dataset.test);

        let latencies = sorted(latencies_us);
        let topk_sorted = sorted(topk_us);
        outcome.metric("setup_s", median(&setup_s));
        outcome.metric("run_s", run_s);
        outcome.metric("ops_per_s", per_second(succeeded, run_s));
        outcome.metric("p50_ms", percentile(&latencies, 0.5).value / 1e3);
        outcome.metric("p90_ms", percentile(&latencies, 0.9).value / 1e3);
        outcome.metric("ok_frac", success_fraction(succeeded, outcome.attempted));
        outcome.metric("mrr_final", mrr_final);
        outcome.metric("peak_rss_mb", peak_rss);

        if tracer.enabled() {
            let p99 = percentile(&latencies, 0.99);
            let p999 = percentile(&latencies, 0.999);
            println!(
                "client p99 {:.3} ms ({} beyond), p99.9 {:.3} ms ({} beyond), {} samples",
                p99.value / 1e3,
                p99.beyond,
                p999.value / 1e3,
                p999.beyond,
                latencies.len()
            );
            outcome.metric("net.client_p99_ms", p99.value / 1e3);
            outcome.metric("net.client_p999_ms", p999.value / 1e3);
            outcome.metric("net.client_samples", latencies.len() as f64);
            outcome.metric(
                "serve.load_ms",
                median(&tracer.durations_s("serve.load")) * 1e3,
            );
            outcome.metric("net.shed", net.shed as f64);
            outcome.metric("net.deadline_exceeded", net.deadline_exceeded as f64);
            outcome.metric("net.degraded_frac", net.degraded_fraction());
            outcome.metric("serve.hit_rate", hit_rate);
            outcome.metric("serve.stale_invalidations", stale as f64);
            outcome.metric("serve.evictions", cache.evictions as f64);
            if self.hot {
                let client_p50 = percentile(&topk_sorted, 0.5).value;
                outcome.metric("net.server_p50_us", median(&server_p50));
                outcome.metric("net.server_p90_us", median(&server_p90));
                outcome.metric("net.transport_us", client_p50 - median(&server_p50));
                self.replay_hits(&mut outcome, tracer, &engine, &streams[0]);
            } else {
                outcome.metric("serve.reload_ms", median(&reload_ms));
                self.replay_misses(&mut outcome, tracer, &engine, &snapshots, &streams[0]);
            }
        }
        outcome
    }

    /// `serve.hit_us`: in-process cached top-k over the hot stream.
    fn replay_hits(
        &self,
        outcome: &mut Outcome,
        tracer: &mut Tracer,
        engine: &KnowledgeServer,
        stream: &[Request],
    ) {
        let queries: Vec<TopKQuery> = topk_queries(stream).take(HIT_REPLAYS).collect();
        let mut scratch = QueryScratch::default();
        for q in &queries {
            let _ = engine.top_k(q, &mut scratch);
        }
        let us = time_per_call(tracer, "serve.top_k_hit_replay", queries.len(), || {
            for q in &queries {
                std::hint::black_box(engine.top_k(q, &mut scratch).expect("valid query"));
            }
        });
        outcome.metric("serve.hit_us", us);
    }

    /// `serve.miss_us`, `models.score_all_us`, `math.topk_us`,
    /// `serve.rank_us`: in-process replays of the churn stream.
    fn replay_misses(
        &self,
        outcome: &mut Outcome,
        tracer: &mut Tracer,
        engine: &KnowledgeServer,
        snapshots: &Snapshots,
        stream: &[Request],
    ) {
        let queries: Vec<TopKQuery> = topk_queries(stream).take(MISS_REPLAYS).collect();
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        let us = time_per_call(tracer, "serve.top_k_into_replay", queries.len(), || {
            for q in &queries {
                engine
                    .top_k_into(q, &mut scratch, &mut out)
                    .expect("valid query");
            }
        });
        outcome.metric("serve.miss_us", us);

        let model = load_model(&snapshots.paths[0])
            .and_then(|snapshot| snapshot.into_model())
            .expect("load snapshot");
        let (mut scores, mut order) = (Vec::new(), Vec::new());
        let (mut score_ns, mut select_ns) = (0u128, 0u128);
        let replay = tracer.begin("models.score_all_replay", 0);
        for q in &queries {
            let anchor = anchor_of(q);
            let t0 = Instant::now();
            model.score_all_into(&anchor, q.direction, &mut scores);
            let t1 = Instant::now();
            top_k_indices_into(&scores, q.k as usize, &mut order);
            score_ns += (t1 - t0).as_nanos();
            select_ns += t1.elapsed().as_nanos();
            std::hint::black_box(&order);
        }
        tracer.end(replay);
        let n = queries.len().max(1) as f64;
        outcome.metric("models.score_all_us", score_ns as f64 / n / 1e3);
        outcome.metric("math.topk_us", select_ns as f64 / n / 1e3);

        let ranks: Vec<(Triple, CorruptionSide)> = stream
            .iter()
            .filter_map(|r| match *r {
                Request::Rank {
                    head,
                    relation,
                    tail,
                    side,
                } => Some((Triple::new(head, relation, tail), side)),
                _ => None,
            })
            .take(MISS_REPLAYS)
            .collect();
        let us = time_per_call(tracer, "serve.rank_replay", ranks.len(), || {
            for (triple, side) in &ranks {
                std::hint::black_box(engine.rank(triple, *side, &mut scratch).expect("valid"));
            }
        });
        outcome.metric("serve.rank_us", us);
    }
}

/// Run `f`, which makes `calls` calls, inside a span; microseconds per call.
fn time_per_call(tracer: &mut Tracer, name: &'static str, calls: usize, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    tracer.time(name, 0, f);
    started.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64
}

fn topk_queries(stream: &[Request]) -> impl Iterator<Item = TopKQuery> + '_ {
    stream.iter().filter_map(|r| match r {
        Request::TopK(q) => Some(*q),
        _ => None,
    })
}

/// The triple whose `q.direction` side a top-k query scans.
fn anchor_of(q: &TopKQuery) -> Triple {
    match q.direction {
        CorruptionSide::Tail => Triple::new(q.entity, q.relation, 0),
        CorruptionSide::Head => Triple::new(0, q.relation, q.entity),
    }
}

/// Publish counters: a publish bumps `started`, reloads, then sets `done`.
/// Version `v` serves snapshot `v % 2`.
#[derive(Default)]
struct Versions {
    started: AtomicU64,
    done: AtomicU64,
}

struct Publisher<'a> {
    engine: &'a KnowledgeServer,
    paths: &'a [PathBuf; 2],
    every: usize,
}

/// One closed-loop connection: a thread that lives for the whole measured
/// section and reconnects to each sub-run's server.
struct Connection<'a> {
    addr: &'a Mutex<SocketAddr>,
    barrier: &'a Barrier,
    config: ClientConfig,
    publisher: Option<Publisher<'a>>,
    versions: &'a Versions,
    tracer: Tracer,
}

/// An answer kept for the reference check, with the model versions that
/// may have been in force while it was computed.
struct Sample {
    request: Request,
    answer: Answer,
    versions: (u64, u64),
}

struct ConnectionResult {
    attempted: u64,
    succeeded: u64,
    errors: HashMap<String, u64>,
    latencies_us: Vec<f64>,
    topk_us: Vec<f64>,
    reload_ms: Vec<f64>,
    samples: Vec<Sample>,
    tracer: Tracer,
}

impl Connection<'_> {
    /// Send every request of `stream` in a closed loop, a tenth per sub-run
    /// on a fresh connection, publishing on the way when this connection is
    /// the publisher.
    fn drive(mut self, stream: &[Request]) -> ConnectionResult {
        let mut result = ConnectionResult {
            attempted: 0,
            succeeded: 0,
            errors: HashMap::new(),
            latencies_us: Vec::with_capacity(stream.len()),
            topk_us: Vec::new(),
            reload_ms: Vec::new(),
            samples: Vec::new(),
            tracer: self.tracer.fork(),
        };
        let check_every = (stream.len() / MAX_CHECKS).max(1);
        let mut since_publish = usize::MAX;
        for sub in 0..SUBRUNS {
            self.barrier.wait();
            let addr = *self.addr.lock().expect("address lock");
            let mut client = NetClient::new(addr, self.config);
            if client.call(&Request::Ping).is_err() {
                *result.errors.entry("connect".into()).or_default() += 1;
            }
            self.barrier.wait();
            let range = sub * stream.len() / SUBRUNS..(sub + 1) * stream.len() / SUBRUNS;
            for (i, request) in range.clone().zip(&stream[range]) {
                if self.publish_if_due(i, &mut result) {
                    since_publish = 0;
                }
                let low = self.versions.done.load(Ordering::SeqCst);
                let span = self.tracer.begin("net.request", i as u64);
                let started = Instant::now();
                let reply = client.call(request);
                let us = started.elapsed().as_secs_f64() * 1e6;
                self.tracer.end(span);
                let high = self.versions.started.load(Ordering::SeqCst);
                result.attempted += 1;
                result.latencies_us.push(us);
                if matches!(request, Request::TopK(_)) {
                    result.topk_us.push(us);
                }
                match reply {
                    Ok(reply) => {
                        result.succeeded += 1;
                        if i % check_every == 0 || since_publish < AFTER_PUBLISH_CHECKS {
                            result.samples.push(Sample {
                                request: request.clone(),
                                answer: reply.answer,
                                versions: (low, high),
                            });
                        }
                    }
                    Err(error) => *result.errors.entry(error_kind(&error)).or_default() += 1,
                }
                since_publish = since_publish.saturating_add(1);
            }
            drop(client);
            self.barrier.wait();
        }
        result.tracer = self.tracer;
        result
    }

    /// Publish the other snapshot before request `i` when one is due;
    /// whether it did.
    fn publish_if_due(&mut self, i: usize, result: &mut ConnectionResult) -> bool {
        let Some(publisher) = &self.publisher else {
            return false;
        };
        if i == 0 || !i.is_multiple_of(publisher.every) {
            return false;
        }
        let version = self.versions.started.fetch_add(1, Ordering::SeqCst) + 1;
        let path = &publisher.paths[(version % 2) as usize];
        let started = Instant::now();
        self.tracer.time("serve.reload", version, || {
            publisher.engine.reload(path).expect("reload snapshot")
        });
        result.reload_ms.push(started.elapsed().as_secs_f64() * 1e3);
        self.versions.done.store(version, Ordering::SeqCst);
        true
    }
}

fn error_kind(error: &ClientError) -> String {
    match error {
        ClientError::Io(_) => "io".into(),
        ClientError::Protocol(_) => "protocol".into(),
        ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        } => "shed".into(),
        ClientError::Server {
            code: ErrorCode::DeadlineExceeded,
            ..
        } => "deadline".into(),
        ClientError::Server { code, .. } => format!("{code}"),
    }
}

/// Uncached engines over both snapshots: the answers every served answer
/// must equal bit for bit.
struct Reference {
    engines: [KnowledgeServer; 2],
}

impl Reference {
    fn new(paths: &[PathBuf; 2]) -> Self {
        let load = |p: &PathBuf| KnowledgeServer::load(p, 0).expect("load snapshot");
        Self {
            engines: [load(&paths[0]), load(&paths[1])],
        }
    }

    /// Whether the answer equals, bit for bit, the uncached answer of some
    /// model version that may have been in force.
    fn matches(&self, sample: &Sample) -> bool {
        let served = bits(&sample.answer);
        (sample.versions.0..=sample.versions.1).any(|v| {
            self.answer(&sample.request, v)
                .is_some_and(|a| bits(&a) == served)
        })
    }

    fn answer(&self, request: &Request, version: u64) -> Option<Answer> {
        let engine = &self.engines[(version % 2) as usize];
        let mut scratch = QueryScratch::default();
        Some(match *request {
            Request::TopK(q) => {
                let mut out = Vec::new();
                engine.top_k_into(&q, &mut scratch, &mut out).ok()?;
                Answer::TopK(out)
            }
            Request::Score {
                head,
                relation,
                tail,
            } => Answer::Score(engine.score(&Triple::new(head, relation, tail)).ok()?),
            Request::Rank {
                head,
                relation,
                tail,
                side,
            } => Answer::Rank(
                engine
                    .rank(&Triple::new(head, relation, tail), side, &mut scratch)
                    .ok()?,
            ),
            _ => return None,
        })
    }

    /// Mean reciprocal rank, both sides, of the test triples under the
    /// first snapshot, through the engine's rank path.
    fn mrr(&self, test: &[Triple]) -> f64 {
        let mut scratch = QueryScratch::default();
        let mut sum = 0.0;
        let mut n = 0;
        for triple in test {
            for side in [CorruptionSide::Head, CorruptionSide::Tail] {
                let rank = self.engines[0]
                    .rank(triple, side, &mut scratch)
                    .expect("test triples are in range");
                sum += 1.0 / rank;
                n += 1;
            }
        }
        sum / n.max(1) as f64
    }
}

/// An answer as the bit patterns the reference comparison uses.
fn bits(answer: &Answer) -> Vec<u64> {
    match answer {
        Answer::TopK(ranked) => ranked
            .iter()
            .flat_map(|r| [u64::from(r.entity), r.score.to_bits()])
            .collect(),
        Answer::Score(s) | Answer::Rank(s) => vec![s.to_bits()],
        _ => Vec::new(),
    }
}
