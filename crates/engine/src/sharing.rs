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
//! Every query is a member of a physical plan. A query without a
//! fingerprint (programmatic queries whose inputs name no source stream) is
//! the one member of a private plan that never enters the fingerprint map,
//! so registration, removal and recovery take one path for both kinds.
//!
//! # Anchors and followers
//!
//! The first query registered for a fingerprint is the **anchor**: its id is
//! the physical plan's id, and it alone owns the compiled plan, the input
//! rings, the task-queue shard, the placement seeding and the scheduler/HLS
//! row. Later fingerprint-identical queries attach as **followers**: each
//! gets its own id, registry slot, sink, stats block and ingest gate, but no
//! compiled plan — just a subscription on the anchor's sink that forwards
//! every result batch (ordered, because the result stage appends under its
//! reassembly lock). Attaching is O(1) in engine state: no compilation, no
//! ring allocation, no scheduler row.
//!
//! # Lifecycle
//!
//! Membership is refcounted by the member list inside [`SharedPlan`].
//! Removing a follower detaches its subscription and clears its slot — the
//! physical plan is untouched. Removing the anchor while followers remain
//! makes it *logically* invisible (gate closed, sink closed, buffered rows
//! kept drainable) but leaves the physical machinery running under its id:
//! workers resolve task completions through the anchor's slot, and the
//! followers' subscriptions keep streaming. Only the **last** detach tears
//! the physical plan down, reusing the engine's flush-then-drain discipline
//! so every acknowledged row is processed first (the PR-3 permit-counter
//! guarantee holds per *logical* query throughout).
//!
//! Ingest through any member feeds the one physical plan; every member
//! observes the complete result stream regardless of which handle carried
//! the data. Sharing never changes output bytes — `tests/sharing_equivalence.rs`
//! proves every member byte-identical to the same query run alone.
//!
//! # Durability
//!
//! A plan remembers the WAL position of its first `AddQuery` record, and
//! every member's recovery cut (`replay_from`) is that position: a follower
//! replays from its plan's registration, so recovery can rebuild the plan's
//! state and attach the follower exactly at its own record.

use crate::registry::QueryState;
use saber_query::PlanFingerprint;
use saber_types::sync::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One physical plan: the fingerprint it serves, the anchor query id that
/// owns the physical machinery, and the logical member ids attached to it
/// (the refcount).
pub(crate) struct SharedPlan {
    /// The canonical fingerprint every member's query normalizes to;
    /// `None` for a private plan, which never enters the fingerprint map.
    pub(crate) fingerprint: Option<PlanFingerprint>,
    /// Id of the anchor query: the physical plan's id for the task queue,
    /// scheduler, placement and throughput matrix.
    pub(crate) phys_id: usize,
    /// Logical query ids currently attached (anchor included). Guarded by a
    /// mutex so attach/detach and the empty-check that triggers physical
    /// teardown are atomic.
    pub(crate) members: Mutex<Vec<usize>>,
    /// WAL seq of the plan's first `AddQuery` record (`u64::MAX` until one
    /// is logged): every member's recovery cut.
    first_add: AtomicU64,
}

impl SharedPlan {
    pub(crate) fn new(fingerprint: Option<PlanFingerprint>, phys_id: usize) -> Self {
        Self {
            fingerprint,
            phys_id,
            members: Mutex::new(vec![phys_id]),
            first_add: AtomicU64::new(u64::MAX),
        }
    }

    /// Number of attached logical queries.
    pub(crate) fn num_members(&self) -> usize {
        self.members.lock().len()
    }

    /// Notes a member's `AddQuery` record at WAL position `seq` and returns
    /// the member's `replay_from`: the plan's first such record. Called
    /// under the durability meta lock, which orders catalog records.
    pub(crate) fn replay_from(&self, seq: u64) -> u64 {
        self.first_add.fetch_min(seq, Ordering::SeqCst).min(seq)
    }
}

/// A query's membership in the physical plan that executes it. Held by
/// [`QueryState`](crate::registry::QueryState); a private query is the
/// anchor of its own one-member plan.
pub(crate) struct SharedMembership {
    /// The plan this query belongs to.
    pub(crate) plan: Arc<SharedPlan>,
    /// For followers: the anchor's state (the physical plan's dispatcher,
    /// result stage and sink live there). `None` when this query *is* the
    /// anchor.
    pub(crate) anchor: Option<Arc<QueryState>>,
    /// For followers: the subscription id on the anchor's sink that forwards
    /// result batches into this query's own sink.
    pub(crate) subscription: Option<u64>,
}

impl SharedMembership {
    /// True when this query is the anchor (owns the physical machinery).
    pub(crate) fn is_anchor(&self) -> bool {
        self.anchor.is_none()
    }
}

/// Fingerprint → shared physical plan. One per engine; `add_query` consults
/// it under the map lock so a concurrent attach never races a dying plan:
/// detach removes the entry (under the same lock) *before* tearing the
/// physical plan down, so an attach either joins a plan with live members
/// or creates a fresh anchor.
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
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, Schema};

    fn fingerprint(tag: &str) -> PlanFingerprint {
        let schema = Schema::from_pairs(&[("ts", DataType::Timestamp), ("v", DataType::Int)])
            .unwrap()
            .into_ref();
        QueryBuilder::new("q", schema)
            .count_window(64, 64)
            .source(tag)
            .project(vec![(Expr::column(1), "v")])
            .build()
            .unwrap()
            .fingerprint()
            .expect("sourced query fingerprints")
    }

    #[test]
    fn member_list_refcounts_and_entry_removal_is_atomic() {
        let registry = SharedWindowRegistry::new();
        let fp = fingerprint("S");
        let plan = Arc::new(SharedPlan::new(Some(fp.clone()), 3));
        registry.lock().insert(fp.clone(), plan.clone());
        assert_eq!(plan.num_members(), 1);
        plan.members.lock().push(7);
        assert_eq!(plan.num_members(), 2);

        // Detach follower 7: plan survives.
        {
            let map = registry.lock();
            let mut members = plan.members.lock();
            members.retain(|&id| id != 7);
            assert!(!members.is_empty());
            drop(members);
            drop(map);
        }
        assert_eq!(registry.len(), 1);

        // Detach the last member: the entry goes with it.
        {
            let mut map = registry.lock();
            let mut members = plan.members.lock();
            members.retain(|&id| id != 3);
            if members.is_empty() {
                map.remove(&fp);
            }
        }
        assert_eq!(registry.len(), 0);
        // A later registration of the same fingerprint starts fresh.
        assert!(registry.lock().get(&fingerprint("S")).is_none());
    }

    #[test]
    fn distinct_fingerprints_get_distinct_plans() {
        let registry = SharedWindowRegistry::new();
        let a = fingerprint("A");
        let b = fingerprint("B");
        assert_ne!(a, b);
        registry
            .lock()
            .insert(a.clone(), Arc::new(SharedPlan::new(Some(a), 0)));
        registry
            .lock()
            .insert(b.clone(), Arc::new(SharedPlan::new(Some(b), 1)));
        assert_eq!(registry.len(), 2);
    }
}
