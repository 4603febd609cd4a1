//! Compute cluster monitoring workload (paper §6.1, Appendix A.1).
//!
//! The paper replays a trace of task events from an 11,000-machine Google
//! compute cluster \[53\]. That trace is proprietary, so this module generates
//! a synthetic TaskEvents stream with the published schema and the
//! characteristics the queries depend on: a skewed job distribution,
//! categorical event types and priorities, per-task CPU/RAM/disk requests,
//! and an injectable *failure surge* period that drives the selectivity
//! swings of the Fig. 16 adaptation experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saber_query::{AggregateFunction, Expr, Query, QueryBuilder};
use saber_types::schema::SchemaRef;
use saber_types::{DataType, RowBuffer, Schema};

/// Attribute indices of the TaskEvents schema.
pub mod columns {
    /// Event timestamp (microseconds in the trace, seconds here).
    pub const TIMESTAMP: usize = 0;
    /// Job the task belongs to.
    pub const JOB_ID: usize = 1;
    /// Task index within its job.
    pub const TASK_ID: usize = 2;
    /// Machine the event refers to.
    pub const MACHINE_ID: usize = 3;
    /// Lifecycle event code (submit/schedule/evict/…).
    pub const EVENT_TYPE: usize = 4;
    /// Opaque user id.
    pub const USER_ID: usize = 5;
    /// Scheduling class of the job.
    pub const CATEGORY: usize = 6;
    /// Task priority.
    pub const PRIORITY: usize = 7;
    /// Requested CPU cores.
    pub const CPU: usize = 8;
    /// Requested memory.
    pub const RAM: usize = 9;
    /// Requested local disk.
    pub const DISK: usize = 10;
    /// Whether the task has placement constraints.
    pub const CONSTRAINTS: usize = 11;
}

/// Event types used by the generator (a subset of the trace's event types).
pub mod event_types {
    /// A task was submitted.
    pub const SUBMIT: i32 = 0;
    /// A task was scheduled (the CM2 predicate `eventType == 1`).
    pub const SCHEDULE: i32 = 1;
    /// A task failed (the Fig. 16 surge events).
    pub const FAIL: i32 = 2;
    /// A task finished successfully.
    pub const FINISH: i32 = 3;
}

/// The TaskEvents schema (12 attributes as listed in Appendix A.1).
pub fn schema() -> SchemaRef {
    Schema::from_pairs(&[
        ("timestamp", DataType::Timestamp),
        ("jobId", DataType::Long),
        ("taskId", DataType::Long),
        ("machineId", DataType::Long),
        ("eventType", DataType::Int),
        ("userId", DataType::Int),
        ("category", DataType::Int),
        ("priority", DataType::Int),
        ("cpu", DataType::Float),
        ("ram", DataType::Float),
        ("disk", DataType::Float),
        ("constraints", DataType::Int),
    ])
    .unwrap()
    .into_ref()
}

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of distinct jobs (Zipf-ish skew over this domain).
    pub jobs: u64,
    /// Number of machines.
    pub machines: u64,
    /// Number of job categories (the CM1 GROUP-BY key domain).
    pub categories: i32,
    /// Events per second of application time.
    pub events_per_second: u64,
    /// Baseline probability of a failure event.
    pub failure_rate: f64,
    /// Failure probability during surge periods.
    pub surge_failure_rate: f64,
    /// Surge period: every `surge_every` seconds a surge of
    /// `surge_duration` seconds begins (0 disables surges).
    pub surge_every: u64,
    /// Surge duration in seconds.
    pub surge_duration: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            jobs: 10_000,
            machines: 11_000,
            categories: 16,
            events_per_second: 100_000,
            failure_rate: 0.01,
            surge_failure_rate: 0.5,
            surge_every: 10,
            surge_duration: 3,
        }
    }
}

/// Generates `rows` TaskEvents starting at `start_ms` (milliseconds of
/// application time).
pub fn generate(config: &TraceConfig, rows: usize, seed: u64, start_ms: i64) -> RowBuffer {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = RowBuffer::with_capacity(schema.clone(), rows);
    let ms_per_event = 1000.0 / config.events_per_second.max(1) as f64;
    for i in 0..rows {
        let ts = start_ms + (i as f64 * ms_per_event) as i64;
        let second = (ts / 1000) as u64;
        let in_surge =
            config.surge_every > 0 && (second % config.surge_every) < config.surge_duration;
        let failure_rate = if in_surge {
            config.surge_failure_rate
        } else {
            config.failure_rate
        };
        // Skewed job popularity: square the uniform draw.
        let u: f64 = rng.gen();
        let job = ((u * u) * config.jobs as f64) as i64;
        let event_type = if rng.gen::<f64>() < failure_rate {
            event_types::FAIL
        } else {
            match rng.gen_range(0..3) {
                0 => event_types::SUBMIT,
                1 => event_types::SCHEDULE,
                _ => event_types::FINISH,
            }
        };
        let mut row = buf.push_uninit();
        row.set_i64(columns::TIMESTAMP, ts);
        row.set_i64(columns::JOB_ID, job);
        row.set_i64(columns::TASK_ID, rng.gen_range(0..1_000_000));
        row.set_i64(
            columns::MACHINE_ID,
            rng.gen_range(0..config.machines as i64),
        );
        row.set_i32(columns::EVENT_TYPE, event_type);
        row.set_i32(columns::USER_ID, rng.gen_range(0..1000));
        row.set_i32(columns::CATEGORY, rng.gen_range(0..config.categories));
        row.set_i32(columns::PRIORITY, rng.gen_range(0..12));
        row.set_f32(columns::CPU, rng.gen_range(0.0..1.0));
        row.set_f32(columns::RAM, rng.gen_range(0.0..1.0));
        row.set_f32(columns::DISK, rng.gen_range(0.0..0.2));
        row.set_i32(columns::CONSTRAINTS, 0);
    }
    buf
}

/// CM1: `select timestamp, category, sum(cpu) from TaskEvents [range 60
/// slide 1] group by category` (window in seconds of application time; the
/// engine uses milliseconds).
pub fn cm1() -> Query {
    QueryBuilder::new("CM1", schema())
        .time_window(60_000, 1_000)
        .project(vec![
            (Expr::column(columns::TIMESTAMP), "timestamp"),
            (Expr::column(columns::CATEGORY), "category"),
            (Expr::column(columns::CPU), "cpu"),
        ])
        .aggregate_spec(
            saber_query::aggregate::AggregateSpec::new(AggregateFunction::Sum, 2).named("totalCpu"),
        )
        .group_by(vec![1])
        .build()
        .expect("valid CM1")
}

/// CM2: `select timestamp, jobId, avg(cpu) from TaskEvents [range 60 slide 1]
/// where eventType == 1 group by jobId`.
pub fn cm2() -> Query {
    QueryBuilder::new("CM2", schema())
        .time_window(60_000, 1_000)
        .select(Expr::column(columns::EVENT_TYPE).eq(Expr::literal(event_types::SCHEDULE as f64)))
        .aggregate_spec(
            saber_query::aggregate::AggregateSpec::new(AggregateFunction::Avg, columns::CPU)
                .named("avgCpu"),
        )
        .group_by(vec![columns::JOB_ID])
        .build()
        .expect("valid CM2")
}

/// The Fig. 16 adaptation query: SELECT-500 over the cluster trace, filtering
/// task failure events with a predicate of the form `p1 ∧ (p2 ∨ … ∨ p500)`.
pub fn select500_failures() -> Query {
    let p1 = Expr::column(columns::EVENT_TYPE).eq(Expr::literal(event_types::FAIL as f64));
    let rest: Vec<Expr> = (0..499)
        .map(|k| {
            Expr::column(columns::PRIORITY)
                .mul(Expr::literal(1.0 + (k % 13) as f64))
                .ge(Expr::literal((k % 17) as f64))
        })
        .collect();
    QueryBuilder::new("SELECT500", schema())
        .count_window(1024, 1024)
        .select(p1.and(saber_query::expr::disjunction(rest)))
        .build()
        .expect("valid SELECT500")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_the_published_layout() {
        let s = schema();
        assert_eq!(s.len(), 12);
        assert_eq!(s.index_of("cpu").unwrap(), columns::CPU);
        assert_eq!(s.data_type(columns::EVENT_TYPE), DataType::Int);
    }

    #[test]
    fn generator_is_deterministic_and_time_ordered() {
        let cfg = TraceConfig::default();
        let a = generate(&cfg, 1000, 3, 0);
        let b = generate(&cfg, 1000, 3, 0);
        assert_eq!(a.bytes(), b.bytes());
        let mut last = i64::MIN;
        for t in a.iter() {
            assert!(t.timestamp() >= last);
            last = t.timestamp();
        }
    }

    #[test]
    fn surges_increase_the_failure_rate() {
        let cfg = TraceConfig {
            events_per_second: 1000,
            surge_every: 10,
            surge_duration: 5,
            ..Default::default()
        };
        // 20 seconds of data at 1000 events/s.
        let data = generate(&cfg, 20_000, 11, 0);
        let mut surge_failures = 0u64;
        let mut calm_failures = 0u64;
        let mut surge_total = 0u64;
        let mut calm_total = 0u64;
        for t in data.iter() {
            let second = (t.timestamp() / 1000) as u64;
            let failing = t.get_i32(columns::EVENT_TYPE) == event_types::FAIL;
            if second % 10 < 5 {
                surge_total += 1;
                surge_failures += failing as u64;
            } else {
                calm_total += 1;
                calm_failures += failing as u64;
            }
        }
        let surge_rate = surge_failures as f64 / surge_total as f64;
        let calm_rate = calm_failures as f64 / calm_total as f64;
        assert!(
            surge_rate > 10.0 * calm_rate,
            "surge {surge_rate} calm {calm_rate}"
        );
    }

    #[test]
    fn cm_queries_compile() {
        assert!(cm1().has_aggregation());
        assert_eq!(cm1().output_schema.len(), 3);
        assert!(cm2().has_aggregation());
        assert!(!select500_failures().has_aggregation());
    }
}
