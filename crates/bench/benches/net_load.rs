//! Criterion bench: closed-loop load generation against the TCP front door
//! (`nscaching_net`), end to end through real sockets on loopback.
//!
//! Run with `cargo bench -p nscaching-bench --bench net_load`.
//!
//! Measures and records into the `net_load` section of `BENCH_net.json` at
//! the workspace root:
//!
//! * **moderate phase** — a comfortably provisioned server under 4
//!   closed-loop clients issuing a mixed request stream (ping / top-k /
//!   score / rank). Records p50/p99 round-trip latency and aggregate QPS.
//!   Gated: p99 ≤ `NSC_NET_P99_MAX` milliseconds and shed rate ≤
//!   `NSC_NET_SHED_OK` — a healthy server must answer fast and shed
//!   (essentially) nothing;
//! * **saturation sweep** — the same server under 1/2/4/8 closed-loop
//!   clients, recording QPS at each concurrency (recorded, not gated — the
//!   knee depends on host parallelism);
//! * **overload phase** — a deliberately tiny server (1 worker, 2-slot
//!   queue) hammered with expensive uncacheable queries and no client
//!   retries. Records the shed rate and the degradation-ladder occupancy,
//!   demonstrating that saturation surfaces as typed `Overloaded`
//!   rejections and degraded service, not latency collapse;
//! * **inline round trips** — one client times a Ping, a warm top-k and a
//!   `Score` in 15 interleaved rounds of 2,000 calls each. The connection
//!   thread answers all three without a worker hand-off, so a cache hit or a
//!   score should cost what a Ping costs. Gated: the median warm-top-k/Ping
//!   and Score/Ping ratios must each be ≤ 1.3 (a hand-off to a worker and
//!   back read 1.6–1.75 on a 2-vCPU host). Both sides of each ratio come
//!   from one run on one host, so the bound is the same everywhere, with no
//!   env override.
//!
//! The response ledger (`decoded + protocol_errors == written +
//! write_failures`) is hard-asserted after every phase at any gate level.

use criterion::{criterion_group, criterion_main, Criterion};
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_net::client::{ClientConfig, ClientError, NetClient};
use nscaching_net::server::{NetServer, NetServerConfig, NetStatsSnapshot};
use nscaching_net::wire::{ErrorCode, Request};
use nscaching_serve::{KnowledgeServer, TopKQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const DIM: usize = 32;
const ENTITIES: usize = 2_000;
const RELATIONS: usize = 16;
/// Calls per client in the moderate phase.
const MODERATE_CALLS: usize = 300;
/// Closed-loop clients in the moderate phase.
const MODERATE_CLIENTS: usize = 4;
/// Calls per client at each step of the saturation sweep.
const SWEEP_CALLS: usize = 150;
/// Interleaved rounds of the inline round-trip probe.
const INLINE_ROUNDS: usize = 15;
/// Calls per request kind per round of the inline probe.
const INLINE_CALLS: usize = 2_000;
/// Most a warm top-k or a `Score` round trip may cost, as a multiple of a
/// Ping round trip.
const MAX_INLINE_RATIO: f64 = 1.3;

fn engine() -> KnowledgeServer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(DIM)
            .with_seed(7),
        ENTITIES,
        RELATIONS,
    );
    KnowledgeServer::new(model, 256)
}

fn provisioned_config() -> NetServerConfig {
    NetServerConfig {
        workers: 2,
        queue_depth: 64,
        ..NetServerConfig::default()
    }
}

/// The moderate-phase request mix: mostly top-k (the serving workload the
/// paper's cache targets), with score/rank/ping traffic mixed in. All ids in
/// range; k small enough that the cache sees realistic reuse.
fn request_for(rng: &mut StdRng) -> Request {
    let entity = rng.gen_range(0u32..ENTITIES as u32);
    let relation = rng.gen_range(0u32..RELATIONS as u32);
    match rng.gen_range(0u32..10) {
        0 => Request::Ping,
        1..=6 => Request::TopK(TopKQuery::tails(entity, relation, rng.gen_range(1u32..12))),
        7..=8 => Request::Score {
            head: entity,
            relation,
            tail: (entity + 1) % ENTITIES as u32,
        },
        _ => Request::Rank {
            head: entity,
            relation,
            tail: (entity + 3) % ENTITIES as u32,
            side: nscaching_kg::CorruptionSide::Tail,
        },
    }
}

/// One closed-loop client: issue `calls` requests back to back, recording
/// per-call round-trip latency. Returns (latencies_us, served, shed, other).
fn client_loop(
    addr: SocketAddr,
    calls: usize,
    seed: u64,
    max_attempts: u32,
) -> (Vec<u64>, u64, u64, u64) {
    let mut client = NetClient::new(
        addr,
        ClientConfig {
            max_attempts,
            read_timeout: Duration::from_secs(10),
            seed,
            ..ClientConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10AD);
    let mut latencies = Vec::with_capacity(calls);
    let (mut served, mut shed, mut other) = (0u64, 0u64, 0u64);
    for _ in 0..calls {
        let request = request_for(&mut rng);
        let start = Instant::now();
        match client.call(&request) {
            Ok(reply) => {
                black_box(&reply.answer);
                served += 1;
            }
            Err(ClientError::Server {
                code: ErrorCode::Overloaded | ErrorCode::DeadlineExceeded,
                ..
            }) => shed += 1,
            Err(_) => other += 1,
        }
        latencies.push(start.elapsed().as_micros() as u64);
    }
    (latencies, served, shed, other)
}

/// Drive `clients` closed-loop clients for `calls` each against `addr`.
/// Returns (all_latencies_us_sorted, served, shed, other, wall_seconds).
fn drive(
    addr: SocketAddr,
    clients: usize,
    calls: usize,
    seed_base: u64,
    max_attempts: u32,
) -> (Vec<u64>, u64, u64, u64, f64) {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || client_loop(addr, calls, seed_base + c as u64, max_attempts))
        })
        .collect();
    let (mut latencies, mut served, mut shed, mut other) = (Vec::new(), 0u64, 0u64, 0u64);
    for handle in handles {
        let (l, s, d, o) = handle.join().expect("load client must not panic");
        latencies.extend(l);
        served += s;
        shed += d;
        other += o;
    }
    let wall = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    (latencies, served, shed, other, wall)
}

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One client's round trips for the requests the connection thread answers:
/// a Ping, a warm top-k and a `Score`, timed in interleaved rounds so host
/// drift hits all three alike. Returns the median µs per call of each, and
/// the medians of the per-round warm-top-k/Ping and Score/Ping ratios.
fn inline_round_trips(addr: SocketAddr) -> ([f64; 3], [f64; 2]) {
    let mut client = NetClient::new(addr, ClientConfig::default());
    let requests = [
        Request::Ping,
        Request::TopK(TopKQuery::tails(3, 1, 10)),
        Request::Score {
            head: 1,
            relation: 2,
            tail: 3,
        },
    ];
    for request in &requests {
        client.call(request).unwrap(); // opens the connection, warms the key
    }
    let mut per_call_us: [Vec<f64>; 3] = Default::default();
    let mut ratios: [Vec<f64>; 2] = Default::default();
    for _ in 0..INLINE_ROUNDS {
        let mut round = [0.0; 3];
        for (us, request) in round.iter_mut().zip(&requests) {
            let start = Instant::now();
            for _ in 0..INLINE_CALLS {
                black_box(client.call(request).unwrap());
            }
            *us = start.elapsed().as_secs_f64() * 1e6 / INLINE_CALLS as f64;
        }
        for (samples, us) in per_call_us.iter_mut().zip(round) {
            samples.push(us);
        }
        ratios[0].push(round[1] / round[0]);
        ratios[1].push(round[2] / round[0]);
    }
    (per_call_us.map(median), ratios.map(median))
}

fn assert_ledger(stats: &NetStatsSnapshot, phase: &str) {
    assert_eq!(
        stats.decoded + stats.protocol_errors,
        stats.written + stats.write_failures,
        "{phase}: response ledger out of balance: {stats:?}"
    );
}

/// Criterion micro-bench: single-client round-trip time for a ping and a
/// cached top-k over a live socket — the protocol + syscall floor under the
/// closed-loop numbers.
fn bench_round_trip(c: &mut Criterion) {
    let server = NetServer::bind("127.0.0.1:0", engine(), provisioned_config()).unwrap();
    let addr = server.addr();
    let mut client = NetClient::new(addr, ClientConfig::default());
    let mut group = c.benchmark_group("net_rtt");
    group.sample_size(20);
    group.bench_function("ping", |b| {
        b.iter(|| black_box(client.call(&Request::Ping).unwrap()))
    });
    let hot = Request::TopK(TopKQuery::tails(3, 1, 10));
    client.call(&hot).unwrap(); // warm the cache entry
    group.bench_function("warm_topk", |b| {
        b.iter(|| black_box(client.call(&hot).unwrap()))
    });
    group.finish();
    server.shutdown();
}

/// Acceptance gates: moderate-phase p99 ≤ `NSC_NET_P99_MAX` ms and shed rate
/// ≤ `NSC_NET_SHED_OK`; warm-top-k/Ping and Score/Ping round-trip ratios
/// ≤ `MAX_INLINE_RATIO`; ledger balance at every phase. Records
/// `BENCH_net.json`.
fn assert_net_load(_c: &mut Criterion) {
    let p99_max_ms: f64 = std::env::var("NSC_NET_P99_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0);
    let shed_ok: f64 = std::env::var("NSC_NET_SHED_OK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);

    // --- Moderate phase: comfortably provisioned, mixed stream.
    let (p50_ms, p99_ms, moderate_qps, moderate_shed_rate) = {
        let server = NetServer::bind("127.0.0.1:0", engine(), provisioned_config()).unwrap();
        let addr = server.addr();
        // Warm-up pass so connection setup and cold caches stay out of the
        // measured distribution.
        drive(addr, MODERATE_CLIENTS, 40, 0xAAAA, 4);
        let (latencies, served, shed, other, wall) =
            drive(addr, MODERATE_CLIENTS, MODERATE_CALLS, 0x0D0D, 4);
        let stats = server.shutdown();
        assert_ledger(&stats, "moderate");
        let total = served + shed + other;
        assert_eq!(total, (MODERATE_CLIENTS * MODERATE_CALLS) as u64);
        assert_eq!(other, 0, "moderate phase must see only typed outcomes");
        (
            percentile_us(&latencies, 0.50) / 1_000.0,
            percentile_us(&latencies, 0.99) / 1_000.0,
            total as f64 / wall,
            shed as f64 / total as f64,
        )
    };

    // --- Saturation sweep: QPS at 1/2/4/8 closed-loop clients.
    let sweep: Vec<(usize, f64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&clients| {
            let server = NetServer::bind("127.0.0.1:0", engine(), provisioned_config()).unwrap();
            let addr = server.addr();
            drive(addr, clients, 20, 0xBBBB, 4); // warm-up
            let (_, served, shed, other, wall) = drive(addr, clients, SWEEP_CALLS, 0x5EE9, 4);
            let stats = server.shutdown();
            assert_ledger(&stats, "sweep");
            (clients, (served + shed + other) as f64 / wall)
        })
        .collect();
    let peak_qps = sweep.iter().map(|(_, q)| *q).fold(0.0f64, f64::max);

    // --- Overload phase: tiny server, expensive uncacheable queries, no
    //     retries. Saturation must show up as typed shedding + degradation.
    let (overload_shed_rate, overload_stats) = {
        let config = NetServerConfig {
            workers: 1,
            queue_depth: 2,
            ..NetServerConfig::default()
        };
        let model = build_model(
            &ModelConfig::new(ModelKind::TransE)
                .with_dim(64)
                .with_seed(1),
            20_000,
            4,
        );
        let server =
            NetServer::bind("127.0.0.1:0", KnowledgeServer::new(model, 8), config).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..8u64)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = NetClient::new(
                        addr,
                        ClientConfig {
                            max_attempts: 1,
                            read_timeout: Duration::from_secs(10),
                            ..ClientConfig::default()
                        },
                    );
                    let mut rng = StdRng::seed_from_u64(c);
                    let (mut served, mut shed) = (0u64, 0u64);
                    for _ in 0..40 {
                        // Random k defeats the cache: every admitted request
                        // pays a full 20k-entity scan.
                        let query = TopKQuery::tails(
                            rng.gen_range(0u32..20_000),
                            rng.gen_range(0u32..4),
                            rng.gen_range(1u32..200),
                        );
                        match client.call(&Request::TopK(query)) {
                            Ok(_) => served += 1,
                            Err(_) => shed += 1,
                        }
                    }
                    (served, shed)
                })
            })
            .collect();
        let (mut served, mut shed) = (0u64, 0u64);
        for handle in handles {
            let (s, d) = handle.join().expect("overload client must not panic");
            served += s;
            shed += d;
        }
        let stats = server.shutdown();
        assert_ledger(&stats, "overload");
        (shed as f64 / (served + shed) as f64, stats)
    };

    // --- Inline round trips: hits and scores cost what a Ping costs.
    let ([ping_us, topk_us, score_us], [topk_ratio, score_ratio]) = {
        let server = NetServer::bind("127.0.0.1:0", engine(), provisioned_config()).unwrap();
        let probe = inline_round_trips(server.addr());
        let stats = server.shutdown();
        assert_ledger(&stats, "inline");
        assert_eq!(stats.ok, stats.decoded, "inline phase: {stats:?}");
        probe
    };

    println!(
        "net_load TransE d={DIM} |E|={ENTITIES}: moderate({MODERATE_CLIENTS} clients) \
         p50 {p50_ms:.2}ms p99 {p99_ms:.2}ms {moderate_qps:.0} q/s shed {:.2}% \
         (max p99 {p99_max_ms}ms, max shed {shed_ok}); sweep {:?} peak {peak_qps:.0} q/s; \
         overload shed {:.1}% (server shed {} deadline {} degraded_l1 {} l2 {}); \
         inline round trips ping {ping_us:.1}us warm top-k {topk_us:.1}us score {score_us:.1}us \
         = {topk_ratio:.2}x / {score_ratio:.2}x a ping (max {MAX_INLINE_RATIO}x)",
        moderate_shed_rate * 100.0,
        sweep
            .iter()
            .map(|(c, q)| format!("{c}:{q:.0}"))
            .collect::<Vec<_>>(),
        overload_shed_rate * 100.0,
        overload_stats.shed,
        overload_stats.deadline_exceeded,
        overload_stats.degraded_l1,
        overload_stats.degraded_l2,
    );

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(c, q)| format!("{{ \"clients\": {c}, \"qps\": {q:.0} }}"))
        .collect();
    let section = format!(
        "{{\n  \"workload\": {{\n    \"model\": \"TransE\",\n    \"dim\": {DIM},\n    \"num_entities\": {ENTITIES},\n    \"num_relations\": {RELATIONS},\n    \"transport\": \"tcp loopback, length-prefixed frames\"\n  }},\n  \"moderate\": {{\n    \"clients\": {MODERATE_CLIENTS},\n    \"calls\": {},\n    \"p50_ms\": {p50_ms:.3},\n    \"p99_ms\": {p99_ms:.3},\n    \"qps\": {moderate_qps:.0},\n    \"shed_rate\": {moderate_shed_rate:.4},\n    \"max_p99_ms\": {p99_max_ms},\n    \"max_shed_rate\": {shed_ok}\n  }},\n  \"saturation_sweep\": [\n    {}\n  ],\n  \"peak_qps\": {peak_qps:.0},\n  \"overload\": {{\n    \"workers\": 1,\n    \"queue_depth\": 2,\n    \"shed_rate\": {overload_shed_rate:.4},\n    \"server_shed\": {},\n    \"server_deadline_exceeded\": {},\n    \"degraded_l1\": {},\n    \"degraded_l2\": {}\n  }},\n  \"inline_round_trip\": {{\n    \"rounds\": {INLINE_ROUNDS},\n    \"calls_per_round\": {INLINE_CALLS},\n    \"ping_us\": {ping_us:.1},\n    \"warm_topk_us\": {topk_us:.1},\n    \"score_us\": {score_us:.1},\n    \"warm_topk_over_ping\": {topk_ratio:.3},\n    \"score_over_ping\": {score_ratio:.3},\n    \"max_ratio\": {MAX_INLINE_RATIO}\n  }},\n  \"note\": \"closed-loop loopback load; the p99/shed gates (NSC_NET_P99_MAX, NSC_NET_SHED_OK) bound the healthy-server envelope, the overload phase documents typed shedding + the degradation ladder under saturation, and the inline ratio gate (no override: both sides come from one run) pins cache hits and scores to the cost of a ping\"\n}}",
        MODERATE_CLIENTS * MODERATE_CALLS,
        sweep_json.join(",\n    "),
        overload_stats.shed,
        overload_stats.deadline_exceeded,
        overload_stats.degraded_l1,
        overload_stats.degraded_l2,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_net.json");
    if let Err(e) = nscaching_bench::update_bench_section(&path, "net", "net_load", &section) {
        eprintln!("could not record BENCH_net.json at {path:?}: {e}");
    }

    assert!(
        p99_ms <= p99_max_ms,
        "moderate-phase p99 {p99_ms:.2}ms exceeds {p99_max_ms}ms \
         (override with NSC_NET_P99_MAX)"
    );
    assert!(
        moderate_shed_rate <= shed_ok,
        "moderate-phase shed rate {moderate_shed_rate:.4} exceeds {shed_ok} \
         (override with NSC_NET_SHED_OK)"
    );
    // The overload phase exists to prove admission control engages; a tiny
    // server that never sheds under 8 hammering clients is a broken ladder.
    assert!(
        overload_shed_rate > 0.0,
        "overload phase produced no shedding: {overload_stats:?}"
    );
    // A worker hand-off adds two thread wake-ups to a round trip; a hit or a
    // score answered on the connection thread adds none.
    for (what, ratio) in [("warm top-k", topk_ratio), ("score", score_ratio)] {
        assert!(
            ratio <= MAX_INLINE_RATIO,
            "a {what} round trip costs {ratio:.2}x a ping (max {MAX_INLINE_RATIO}x): \
             requests that need no scan must be answered on the connection thread"
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = assert_net_load, bench_round_trip
}
criterion_main!(benches);
