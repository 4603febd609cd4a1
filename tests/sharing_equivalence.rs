//! Differential equivalence harness for physical plan sharing.
//!
//! The sharing layer (`saber::engine`'s shared-plan registry) collapses
//! fingerprint-identical queries onto one physical plan instance and
//! demultiplexes results into every subscriber's sink. Sharing must be
//! *invisible* in the output: these tests run a logical query set on one
//! engine, where it shares, and every query of the set alone on an engine
//! of its own, where nothing can share. Every logical query's output must
//! be **byte-identical** across the two, matched by (cluster, member)
//! position, under random query clusters, mid-stream attach, mid-stream
//! anchor removal and concurrent producers.
//!
//! Ingest contract: on the sharing engine data is ingested once per
//! *physical* plan (deduplicated through [`Saber::sharing_info`]); each
//! query run alone is fed the same rows directly.
//!
//! The random clusters reuse the PR-2 roundtrip generator idiom (seeded
//! xorshift64*, streams `s0`–`s2`) restricted to shapes the compiler
//! executes, and each cluster carries fingerprint-identical textual
//! variants (attribute renaming, stream aliasing, whitespace).

#![allow(
    clippy::disallowed_methods,
    reason = "tests fork bare threads to race the code under test"
)]

use proptest::prelude::*;
use saber::prelude::*;
use saber::types::RowBuffer;
use saber::workloads::synthetic;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const STREAMS: usize = 3;
/// Rows per window for the deterministic mid-stream tests (tumbling), also
/// the engines' task granularity so windows close without an engine flush.
const WINDOW_ROWS: usize = 256;
const TUPLE: usize = synthetic::TUPLE_SIZE;

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for s in 0..STREAMS {
        catalog = catalog.with_stream(format!("s{s}"), synthetic::schema());
    }
    catalog
}

fn engine(worker_threads: usize) -> Saber {
    let config = saber::engine::EngineConfig {
        worker_threads,
        query_task_size: WINDOW_ROWS * TUPLE,
        execution_mode: ExecutionMode::CpuOnly,
        ..saber::engine::EngineConfig::default()
    };
    Saber::with_config(config).unwrap()
}

/// Runs `sql` alone on a fresh single-worker engine — one query cannot
/// share — over `data` in `chunk_rows` ingests, and returns its output.
fn run_alone(catalog: &Catalog, sql: &str, data: &[&RowBuffer], chunk_rows: usize) -> Vec<u8> {
    let mut engine = engine(1);
    engine.start().unwrap();
    let handle = engine.add_query_sql(sql, catalog).unwrap();
    assert_eq!(engine.num_physical_plans(), 1);
    for rows in data {
        for chunk in rows.bytes().chunks(chunk_rows * TUPLE) {
            handle.ingest(StreamId(0), chunk).unwrap();
        }
    }
    engine.stop().unwrap();
    handle.take_rows().into_bytes()
}

/// [`run_alone`] for every member of every cluster, each fed its cluster's
/// stream: the reference outputs, by (cluster, member) position.
fn run_each_alone(
    catalog: &Catalog,
    clusters: &[Cluster],
    data: &[RowBuffer],
    chunk_rows: usize,
) -> Vec<Vec<Vec<u8>>> {
    clusters
        .iter()
        .map(|c| {
            c.members
                .iter()
                .map(|sql| run_alone(catalog, sql, &[&data[c.stream]], chunk_rows))
                .collect()
        })
        .collect()
}

/// Deterministic generator, same xorshift64* core as the PR-2 roundtrip
/// suite (`crates/sql/tests/roundtrip.rs`).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One structural query shape over stream `s{stream}` plus the SQL texts of
/// its cluster members — textual variants that must all fingerprint
/// identically.
struct Cluster {
    stream: usize,
    members: Vec<String>,
}

/// A random value column (`a1`..`a6`; `a1` is a float, the rest ints).
fn value_column(g: &mut Gen) -> String {
    format!("a{}", 1 + g.below(6))
}

/// A small scalar expression over the value columns. Division only by
/// non-zero literals so both engines evaluate the identical total function.
fn scalar(g: &mut Gen) -> String {
    let column = value_column(g);
    match g.below(5) {
        0 => column,
        1 => format!("{column} + {}", 1 + g.below(100)),
        2 => format!("{column} * {}", 1 + g.below(8)),
        3 => format!("{column} / {}", 1 + g.below(16)),
        _ => format!("{column} - {}", g.below(50)),
    }
}

/// A boolean predicate with data-dependent selectivity.
fn predicate(g: &mut Gen) -> String {
    let simple = |g: &mut Gen| {
        let column = value_column(g);
        let op = ["<", "<=", ">", ">=", "=", "!="][g.below(6) as usize];
        format!("{column} {op} {}", g.below(1000))
    };
    let first = simple(g);
    if g.chance(40) {
        let second = simple(g);
        let joiner = if g.chance(50) { "AND" } else { "OR" };
        format!("{first} {joiner} {second}")
    } else {
        first
    }
}

fn window(g: &mut Gen) -> String {
    let size = [64u64, 128, 256, 512][g.below(4) as usize];
    if g.chance(50) {
        format!("[ROWS {size}]")
    } else {
        format!("[ROWS {size} SLIDE {}]", size / 2)
    }
}

/// Renders one cluster: a canonical SQL text plus 1–2 variants that differ
/// only in attribute renaming, stream aliasing and whitespace — the
/// equivalences the canonical fingerprint is required to see through.
fn cluster(g: &mut Gen) -> Cluster {
    let stream = g.below(STREAMS as u64) as usize;
    let from = format!("s{stream}");
    let window = window(g);
    let mut filter = None;
    let mut grouped = false;
    // (canonical select list, attribute-renamed select list)
    let (select, aliased) = match g.below(3) {
        // Projection with arithmetic.
        0 => {
            let exprs: Vec<String> = (0..1 + g.below(3)).map(|_| scalar(g)).collect();
            let canonical = format!("timestamp, {}", exprs.join(", "));
            let aliased = format!(
                "timestamp AS ts, {}",
                exprs
                    .iter()
                    .enumerate()
                    .map(|(i, e)| format!("{e} AS v{i}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            (canonical, aliased)
        }
        // Filtered pass-through.
        1 => {
            filter = Some(predicate(g));
            ("*".to_string(), "*".to_string())
        }
        // Windowed aggregation, optionally grouped.
        _ => {
            let agg_column = value_column(g);
            let agg = ["SUM", "MIN", "MAX", "AVG"][g.below(4) as usize];
            grouped = g.chance(50);
            if grouped {
                (
                    format!("timestamp, a2, COUNT(*), {agg}({agg_column})"),
                    format!("timestamp, a2, COUNT(*) AS n, {agg}({agg_column}) AS v"),
                )
            } else {
                (
                    format!("timestamp, COUNT(*), {agg}({agg_column})"),
                    format!("timestamp, COUNT(*) AS n, {agg}({agg_column}) AS v"),
                )
            }
        }
    };
    let tail = |text: &str| {
        let mut sql = text.to_string();
        if let Some(f) = &filter {
            sql.push_str(&format!(" WHERE {f}"));
        }
        if grouped {
            sql.push_str(" GROUP BY a2");
        }
        sql
    };
    let mut members = vec![tail(&format!("SELECT {select} FROM {from} {window}"))];
    // Variant A: renamed output attributes (excluded from the fingerprint).
    members.push(tail(&format!("SELECT {aliased} FROM {from} {window}")));
    // Variant B: stream alias plus gratuitous whitespace.
    if g.chance(60) {
        members.push(tail(&format!(
            "SELECT  {select}  FROM {from} AS src {window}"
        )));
    }
    Cluster { stream, members }
}

/// Registers every member of every cluster on `engine`, in cluster order.
/// Returns one handle per (cluster, member).
fn register(engine: &Saber, catalog: &Catalog, clusters: &[Cluster]) -> Vec<Vec<QueryHandle>> {
    clusters
        .iter()
        .map(|c| {
            c.members
                .iter()
                .map(|sql| {
                    engine
                        .add_query_sql(sql, catalog)
                        .unwrap_or_else(|e| panic!("`{sql}` failed to register: {e}"))
                })
                .collect()
        })
        .collect()
}

/// Ingests `data[cluster.stream]` once per *physical* plan: handles are
/// deduplicated by their physical plan id (their own id when unshared), so
/// each physical instance sees each batch exactly once no matter how many
/// logical queries ride on it.
fn ingest_per_physical(
    engine: &Saber,
    handles: &[Vec<QueryHandle>],
    clusters: &[Cluster],
    data: &[RowBuffer],
    chunk_rows: usize,
) {
    let mut fed: HashSet<usize> = HashSet::new();
    for (cluster, members) in clusters.iter().zip(handles) {
        for handle in members {
            let physical = engine
                .sharing_info(handle.id())
                .map_or(handle.id().0, |(phys, _)| phys.0);
            if !fed.insert(physical) {
                continue;
            }
            for chunk in data[cluster.stream].bytes().chunks(chunk_rows * TUPLE) {
                handle.ingest(StreamId(0), chunk).unwrap();
            }
        }
    }
}

/// Polls until `handle` has emitted exactly `expected` tuples (all windows
/// closed and demultiplexed), so a subsequent attach observes a quiesced
/// plan.
fn wait_emitted(handle: &QueryHandle, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.tuples_emitted() < expected {
        assert!(
            Instant::now() < deadline,
            "quiesce timed out: {} of {expected} tuples emitted",
            handle.tuples_emitted()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        handle.tuples_emitted(),
        expected,
        "overshoot past {expected}"
    );
}

/// The core differential: every logical query on the sharing engine
/// produced the bytes of the same query run alone, and members of one
/// cluster agree with each other.
fn assert_identical(shared: &[Vec<QueryHandle>], alone: &[Vec<Vec<u8>>], seed: u64) {
    let mut produced = 0usize;
    for (c, (s_members, a_members)) in shared.iter().zip(alone).enumerate() {
        assert_eq!(s_members.len(), a_members.len());
        let mut first: Option<Vec<u8>> = None;
        for (m, (s, a_bytes)) in s_members.iter().zip(a_members).enumerate() {
            let s_bytes = s.take_rows().into_bytes();
            assert_eq!(
                &s_bytes, a_bytes,
                "seed {seed} cluster {c} member {m}: shared bytes differ from the query alone"
            );
            produced += s_bytes.len();
            match &first {
                None => first = Some(s_bytes),
                Some(f) => assert_eq!(
                    f, &s_bytes,
                    "seed {seed} cluster {c}: members disagree within the shared engine"
                ),
            }
        }
    }
    assert!(produced > 0, "seed {seed}: no cluster produced any output");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 32 cases × 8 clusters ≥ 256 random clusters, each with 2–3
    /// fingerprint-identical members: shared output is byte-identical to
    /// the output of every logical query run alone.
    #[test]
    fn random_query_clusters_share_byte_identically(seed in 0u64..1_000_000) {
        const CLUSTERS: usize = 8;
        let catalog = catalog();
        let mut g = Gen::new(seed);
        let clusters: Vec<Cluster> = (0..CLUSTERS).map(|_| cluster(&mut g)).collect();

        // Cross-check the fingerprints before touching an engine: every
        // member of a cluster must normalize to its canonical fingerprint.
        let mut distinct = HashSet::new();
        for c in &clusters {
            let fingerprints: Vec<_> = c
                .members
                .iter()
                .map(|sql| {
                    saber::sql::compile(sql, &catalog)
                        .unwrap_or_else(|e| panic!("`{sql}` failed to compile: {e}"))
                        .fingerprint()
                        .expect("sourced SQL queries always fingerprint")
                })
                .collect();
            for f in &fingerprints[1..] {
                prop_assert_eq!(&fingerprints[0], f, "a variant broke the fingerprint");
            }
            distinct.insert(fingerprints.into_iter().next().unwrap());
        }

        let mut shared = engine(2);
        shared.start().unwrap();
        let s_handles = register(&shared, &catalog, &clusters);

        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        prop_assert_eq!(shared.num_queries(), total);
        // One physical plan per distinct fingerprint, not per query.
        prop_assert_eq!(shared.num_physical_plans(), distinct.len());

        let data: Vec<RowBuffer> = (0..STREAMS)
            .map(|s| synthetic::generate(&synthetic::schema(), 4096, 1000 + s as u64))
            .collect();
        ingest_per_physical(&shared, &s_handles, &clusters, &data, 512);
        shared.stop().unwrap();
        assert_identical(&s_handles, &run_each_alone(&catalog, &clusters, &data, 512), seed);
    }
}

/// Mid-stream attach: a second fingerprint-identical query joins after the
/// plan quiesced on a window boundary. The joiner must see exactly the
/// post-attach suffix, byte-identical to the query alone fed that suffix.
#[test]
fn mid_stream_attach_sees_byte_identical_suffix() {
    let catalog = catalog();
    let sql = "SELECT timestamp, a1, a4 FROM s0 [ROWS 256]";
    let mut shared = engine(2);
    shared.start().unwrap();
    let s0 = shared.add_query_sql(sql, &catalog).unwrap();

    // Phase A: four exact windows, then quiesce on the boundary.
    const PHASE_ROWS: usize = 4 * WINDOW_ROWS;
    let phase_a = synthetic::generate(&synthetic::schema(), PHASE_ROWS, 21);
    s0.ingest(StreamId(0), phase_a.bytes()).unwrap();
    wait_emitted(&s0, PHASE_ROWS as u64);

    // Attach: the O(1) follower path.
    let s1 = shared.add_query_sql(sql, &catalog).unwrap();
    assert_eq!(shared.sharing_info(s1.id()), Some((s0.id(), 2)));
    assert_eq!(shared.num_physical_plans(), 1);

    // Phase B: ingest once per physical plan (both members ride s0's plan).
    let clusters = vec![Cluster {
        stream: 0,
        members: vec![sql.to_string(), sql.to_string()],
    }];
    let phase_b = synthetic::generate(&synthetic::schema(), PHASE_ROWS, 22);
    let s_handles = vec![vec![s0.clone(), s1.clone()]];
    let one = std::slice::from_ref(&phase_b);
    ingest_per_physical(&shared, &s_handles, &clusters, one, WINDOW_ROWS);
    shared.stop().unwrap();

    // The elder sees A+B; the joiner sees exactly B.
    assert_eq!(s0.tuples_emitted(), 2 * PHASE_ROWS as u64);
    assert_eq!(s1.tuples_emitted(), PHASE_ROWS as u64);
    assert_eq!(
        s0.take_rows().into_bytes(),
        run_alone(&catalog, sql, &[&phase_a, &phase_b], WINDOW_ROWS)
    );
    assert_eq!(
        s1.take_rows().into_bytes(),
        run_alone(&catalog, sql, &[&phase_b], WINDOW_ROWS)
    );
}

/// Mid-stream removal of the *anchor* while a follower stays attached: the
/// survivor's stream continues byte-identically to the query alone, and the
/// removed query's output is exactly the pre-removal prefix (removal is
/// loss-free, so it doubles as the quiesce point).
#[test]
fn mid_stream_anchor_removal_keeps_survivor_byte_identical() {
    let catalog = catalog();
    let sql = "SELECT timestamp, a3 FROM s1 [ROWS 256] WHERE a5 < 700";
    let mut shared = engine(2);
    shared.start().unwrap();
    // Anchor first, follower second.
    let s0 = shared.add_query_sql(sql, &catalog).unwrap();
    let s1 = shared.add_query_sql(sql, &catalog).unwrap();

    const PHASE_ROWS: usize = 4 * WINDOW_ROWS;
    let clusters = vec![Cluster {
        stream: 0, // index into the data slice below, not the catalog
        members: vec![sql.to_string(), sql.to_string()],
    }];
    let phase_a = synthetic::generate(&synthetic::schema(), PHASE_ROWS, 31);
    let one = std::slice::from_ref(&phase_a);
    let s_handles = vec![vec![s0.clone(), s1.clone()]];
    ingest_per_physical(&shared, &s_handles, &clusters, one, WINDOW_ROWS);

    // Remove the anchor. Loss-free removal drains all of phase A into s0
    // first, so its output freezes at the (data-dependent, WHERE-filtered)
    // prefix.
    s0.remove().unwrap();
    let prefix = s0.tuples_emitted();
    assert!(prefix > 0, "phase A selected no rows");
    assert_eq!(shared.num_queries(), 1);
    assert_eq!(shared.num_physical_plans(), 1);

    // Phase B flows through the survivor only.
    let phase_b = synthetic::generate(&synthetic::schema(), PHASE_ROWS, 32);
    for chunk in phase_b.bytes().chunks(WINDOW_ROWS * TUPLE) {
        s1.ingest(StreamId(0), chunk).unwrap();
    }
    shared.stop().unwrap();

    assert_eq!(
        s0.take_rows().into_bytes(),
        run_alone(&catalog, sql, &[&phase_a], WINDOW_ROWS)
    );
    assert_eq!(
        s1.take_rows().into_bytes(),
        run_alone(&catalog, sql, &[&phase_a, &phase_b], WINDOW_ROWS)
    );
    assert!(
        s1.tuples_emitted() >= prefix,
        "survivor lost the phase A prefix"
    );
}

/// Concurrent producers, one per stream, with three clusters pinned to the
/// three streams: per-query byte streams stay deterministic (ingest order
/// within a stream is fixed) and identical to each query run alone.
#[test]
fn concurrent_producers_stay_byte_identical_across_modes() {
    let clusters: Vec<Cluster> = (0..STREAMS)
        .map(|s| Cluster {
            stream: s,
            members: vec![
                format!("SELECT timestamp, a1 + {s} FROM s{s} [ROWS 128]"),
                format!("SELECT timestamp AS t, a1 + {s} AS v FROM s{s} [ROWS 128]"),
            ],
        })
        .collect();
    let catalog = catalog();
    let mut shared = engine(2);
    shared.start().unwrap();
    let s_handles = register(&shared, &catalog, &clusters);

    let data: Vec<RowBuffer> = (0..STREAMS)
        .map(|s| synthetic::generate(&synthetic::schema(), 16 * 1024, 77 + s as u64))
        .collect();
    // One producer thread per stream; each feeds its cluster's physical
    // plan, concurrently with the other streams' threads.
    std::thread::scope(|scope| {
        for (i, cluster) in clusters.iter().enumerate() {
            let (s_members, shared, data) = (&s_handles[i], &shared, &data);
            scope.spawn(move || {
                let local = Cluster {
                    stream: 0, // indexes the one-element data slice below
                    members: cluster.members.clone(),
                };
                let one = std::slice::from_ref(&data[cluster.stream]);
                let local = std::slice::from_ref(&local);
                ingest_per_physical(shared, std::slice::from_ref(s_members), local, one, 512);
            });
        }
    });
    shared.stop().unwrap();
    assert_identical(
        &s_handles,
        &run_each_alone(&catalog, &clusters, &data, 512),
        0,
    );
}
