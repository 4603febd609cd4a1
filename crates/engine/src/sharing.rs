//! Physical plan sharing across fingerprint-identical queries.
//!
//! The ROADMAP north-star is thousands of near-identical dashboard queries
//! over the same streams. Without sharing, every `add_query` pays for its
//! own input rings, task-queue shard and scheduler row, so engine cost
//! grows O(#queries) even when the queries are copies of one another. The
//! sharing layer collapses that: queries whose canonical
//! [`PlanFingerprint`]s match (same resolved sources, window specs and
//! operator tree modulo attribute renaming — see `saber_query::fingerprint`)
//! execute as **one physical plan instance**, with results demultiplexed
//! into every subscriber's [`QuerySink`](crate::sink::QuerySink).
//!
//! Every query is a member of a physical plan, and no member is special.
//! A query without a fingerprint (programmatic queries whose inputs name
//! no source stream) is the one member of a private plan that never enters
//! the fingerprint map, so registration, removal and recovery take one path
//! for both kinds.
//!
//! # The plan owns its machinery
//!
//! A [`SharedPlan`] owns everything that executes: the dispatcher with its
//! input rings, the result stage, the task-level counters and stage
//! histograms ([`PlanStats`]) and — through the plan id — the task-queue
//! shard, the scheduler/HLS row and the throughput-matrix row. Its id is
//! the id of the query whose registration built it; nothing else about
//! that query is special. Every member, that first query included, has its
//! own id, registry slot, sink, ingest gate, a place in the plan's member
//! list and a stats block that counts its own rows in and out and reads
//! the plan's task figures through a shared reference — so every member,
//! live or removed, reports the plan's tasks and latencies. The result
//! stage appends each released batch to every member's sink, in release
//! order, under its reorder lock.
//! Attaching a later fingerprint-identical query is O(1) in engine state:
//! no compilation, no ring allocation, no queue shard, no scheduler row.
//!
//! # Lifecycle
//!
//! Removing a member drains the plan, takes the member off the list and
//! closes its sink; from then on it receives and counts nothing. The plan
//! keeps running under its id as long as any member is left, whichever
//! member that is. Only the **last** detach tears the physical plan down,
//! reusing the engine's flush-then-drain discipline so every acknowledged
//! row is processed first (the permit-counter guarantee holds per
//! *logical* query throughout).
//!
//! Ingest through any member feeds the one physical plan; every member
//! observes the complete result stream regardless of which handle carried
//! the data. Sharing never changes output bytes — `tests/sharing_equivalence.rs`
//! proves every member byte-identical to the same query run alone.
//!
//! # Durability
//!
//! A plan remembers the WAL position of its first `AddQuery` record, and
//! every member's recovery cut (`replay_from`) is that position: a later
//! member replays from its plan's first registration, so recovery can
//! rebuild the plan's state and attach the member exactly at its own
//! record.

use crate::dispatcher::Dispatcher;
use crate::metrics::PlanStats;
use crate::result::{Member, ResultStage};
use saber_query::PlanFingerprint;
use saber_types::sync::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One physical plan: the fingerprint it serves, its machinery and its
/// members.
pub(crate) struct SharedPlan {
    /// The canonical fingerprint every member's query normalizes to;
    /// `None` for a private plan, which never enters the fingerprint map.
    pub(crate) fingerprint: Option<PlanFingerprint>,
    /// The plan's id for the task queue, scheduler and throughput matrix:
    /// the id of the query whose registration built it.
    pub(crate) id: usize,
    /// The plan's dispatching stage and input rings.
    pub(crate) dispatcher: Dispatcher,
    /// The plan's result stage, which holds the member list.
    pub(crate) results: ResultStage,
    /// The plan's task-level counters and stage histograms; every member's
    /// stats block reads them.
    pub(crate) stats: Arc<PlanStats>,
    /// WAL seq of the plan's first `AddQuery` record (`u64::MAX` until one
    /// is logged): every member's recovery cut.
    first_add: AtomicU64,
}

impl SharedPlan {
    pub(crate) fn new(
        fingerprint: Option<PlanFingerprint>,
        id: usize,
        dispatcher: Dispatcher,
        results: ResultStage,
        stats: Arc<PlanStats>,
    ) -> Self {
        Self {
            fingerprint,
            id,
            dispatcher,
            results,
            stats,
            first_add: AtomicU64::new(u64::MAX),
        }
    }

    /// Adds a member: every batch released from now on reaches its sink.
    pub(crate) fn attach(&self, member: Member) {
        self.results.members.lock().push(member);
    }

    /// Takes member `id` off the list, so no further batch reaches it.
    /// Returns true when it was the last member.
    pub(crate) fn detach(&self, id: usize) -> bool {
        let mut members = self.results.members.lock();
        members.retain(|m| m.id != id);
        members.is_empty()
    }

    /// Number of attached members.
    pub(crate) fn num_members(&self) -> usize {
        self.results.members.lock().len()
    }

    /// True while anyone may cut the plan's pending rows into a task: while
    /// any member's gate is open. A closed gate means that member's removal
    /// is flushing and draining the plan itself, and the removal of the
    /// last member owns the final cut — one racing its shard retirement
    /// would be dropped.
    pub(crate) fn accepts_cuts(&self) -> bool {
        self.results.members.lock().iter().any(|m| m.gate.is_open())
    }

    /// Notes a member's `AddQuery` record at WAL position `seq` and returns
    /// the member's `replay_from`: the plan's first such record. Called
    /// under the durability meta lock, which orders catalog records.
    pub(crate) fn replay_from(&self, seq: u64) -> u64 {
        self.first_add.fetch_min(seq, Ordering::SeqCst).min(seq)
    }
}

/// Fingerprint → shared physical plan. One per engine; registration
/// consults it under the map lock so a concurrent attach never races a
/// dying plan: detach removes the entry (under the same lock) *before*
/// tearing the physical plan down, so an attach either joins a plan with
/// live members or builds a fresh one.
#[derive(Default)]
pub(crate) struct SharedWindowRegistry {
    map: Mutex<HashMap<PlanFingerprint, Arc<SharedPlan>>>,
}

impl SharedWindowRegistry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The map lock. Attach and detach linearize through this: member-list
    /// mutation and entry insertion/removal happen under it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, HashMap<PlanFingerprint, Arc<SharedPlan>>> {
        self.map.lock()
    }

    /// Number of fingerprints currently mapped to a shared plan.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QueryStats;
    use crate::registry::{Gate, GATE_OPEN};
    use crate::sink::QuerySink;
    use saber_cpu::CompiledPlan;
    use saber_obs::FlightRecorder;
    use saber_query::{Expr, Query, QueryBuilder};
    use saber_types::{DataType, Schema};

    fn query(tag: &str) -> Query {
        let schema = Schema::from_pairs(&[("ts", DataType::Timestamp), ("v", DataType::Int)])
            .unwrap()
            .into_ref();
        QueryBuilder::new("q", schema)
            .count_window(64, 64)
            .source(tag)
            .project(vec![(Expr::column(1), "v")])
            .build()
            .unwrap()
    }

    fn fingerprint(tag: &str) -> PlanFingerprint {
        query(tag)
            .fingerprint()
            .expect("sourced query fingerprints")
    }

    fn plan(tag: &str, id: usize) -> Arc<SharedPlan> {
        let query = query(tag);
        let compiled = Arc::new(CompiledPlan::compile(&query).unwrap());
        let stats = Arc::new(PlanStats::default());
        let results = ResultStage::new(&compiled, stats.clone(), Arc::new(FlightRecorder::new(8)));
        let dispatcher =
            Dispatcher::new(compiled, 1024, 1 << 16, Arc::new(AtomicU64::new(0)), true);
        Arc::new(SharedPlan::new(
            query.fingerprint(),
            id,
            dispatcher,
            results,
            stats,
        ))
    }

    fn member(plan: &SharedPlan, id: usize) -> Arc<Gate> {
        let gate = Arc::new(Gate::new(GATE_OPEN));
        plan.attach(Member {
            id,
            sink: QuerySink::new(plan.results.schema().clone(), false),
            stats: Arc::new(QueryStats::new(plan.stats.clone())),
            gate: gate.clone(),
        });
        gate
    }

    #[test]
    fn member_list_refcounts_and_entry_removal_is_atomic() {
        let registry = SharedWindowRegistry::new();
        let fp = fingerprint("S");
        let plan = plan("S", 3);
        registry.lock().insert(fp.clone(), plan.clone());
        member(&plan, 3);
        assert_eq!(plan.num_members(), 1);
        member(&plan, 7);
        assert_eq!(plan.num_members(), 2);

        // Detach the plan's first member: the plan survives.
        {
            let map = registry.lock();
            assert!(!plan.detach(3));
            drop(map);
        }
        assert_eq!(registry.len(), 1);

        // Detach the last member: the entry goes with it.
        {
            let mut map = registry.lock();
            if plan.detach(7) {
                map.remove(&fp);
            }
        }
        assert_eq!(registry.len(), 0);
        // A later registration of the same fingerprint starts fresh.
        assert!(registry.lock().get(&fingerprint("S")).is_none());
    }

    #[test]
    fn a_plan_accepts_cuts_while_any_member_gate_is_open() {
        let plan = plan("S", 0);
        assert!(!plan.accepts_cuts(), "no members");
        let first = member(&plan, 0);
        let second = member(&plan, 1);
        assert!(first.close());
        assert!(plan.accepts_cuts());
        assert!(second.close());
        assert!(!plan.accepts_cuts());
    }

    #[test]
    fn distinct_fingerprints_get_distinct_plans() {
        let registry = SharedWindowRegistry::new();
        let a = fingerprint("A");
        let b = fingerprint("B");
        assert_ne!(a, b);
        registry.lock().insert(a, plan("A", 0));
        registry.lock().insert(b, plan("B", 1));
        assert_eq!(registry.len(), 2);
    }
}
