//! The dynamic query registry: the shared, concurrently mutable set of
//! registered queries.
//!
//! Before this existed the engine froze its query vector at `start()`;
//! workers indexed a snapshot and nothing could be added or removed while
//! the engine ran. The registry replaces that snapshot with a slot table
//! under a read/write lock: registration appends a slot (query ids are slot
//! indices and are **never reused**), removal clears the slot, and workers
//! resolve a task's query state by id at completion time. Lookups on the
//! hot paths (ingest, task completion) are a read-lock plus an `Arc` clone.
//!
//! Per-query removal reuses the engine's shutdown discipline (the PR-3
//! permit-counter pattern) at query granularity via the crate-internal
//! `QueryGate`: close the
//! gate so new ingests are rejected, wait out the ingests already past the
//! gate check, flush, then drain the query's task backlog — so every row
//! whose ingest returned `Ok` is fully processed before the query
//! disappears.

use crate::dispatcher::Dispatcher;
use crate::metrics::QueryStats;
use crate::result::ResultStage;
use crate::sharing::SharedMembership;
use crate::sink::QuerySink;
use saber_types::sync::RwLock;
use saber_types::{Result, SaberError};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the engine and its workers need about one registered query.
pub(crate) struct QueryState {
    /// The query's id (its slot index; never reused).
    pub(crate) id: usize,
    /// The query's dispatching stage.
    pub(crate) dispatcher: Arc<Dispatcher>,
    /// The query's result stage.
    pub(crate) runtime: Arc<ResultStage>,
    /// The query's statistics block.
    pub(crate) stats: Arc<QueryStats>,
    /// The query's output sink.
    pub(crate) sink: QuerySink,
    /// Ingest admission gate (closed when removal begins).
    pub(crate) gate: QueryGate,
    /// Membership in a shared physical plan (`None`: this query runs its
    /// own private plan). See [`crate::sharing`].
    pub(crate) shared: Option<SharedMembership>,
    /// False once the query has been logically removed but its slot must
    /// stay occupied because it anchors a shared physical plan with live
    /// followers. Invisible queries are excluded from the public query
    /// listing and accept no ingest.
    pub(crate) visible: AtomicBool,
}

impl QueryState {
    /// True when this query is a follower on a shared plan (its physical
    /// machinery — dispatcher, rings, queue shard, scheduler row — belongs
    /// to the anchor).
    pub(crate) fn is_follower(&self) -> bool {
        self.shared.as_ref().is_some_and(|s| !s.is_anchor())
    }

    /// The id the physical plan runs under: the anchor's id for shared
    /// queries, the query's own id otherwise.
    pub(crate) fn phys_id(&self) -> usize {
        self.shared.as_ref().map_or(self.id, |s| s.plan.phys_id)
    }

    /// True while the query is publicly listed (not an invisible anchor
    /// kept alive only to carry its shared plan).
    pub(crate) fn is_visible(&self) -> bool {
        self.visible.load(Ordering::SeqCst)
    }

    /// True while anyone may cut this query's pending rows into a task.
    /// A closed gate means a removal is flushing and draining the query
    /// itself, and a cut racing its shard retirement would be dropped. The
    /// exception is an *invisible* shared anchor: its removal is long done,
    /// its followers are the live consumers, and nobody else can cut the
    /// rows they ingest.
    pub(crate) fn accepts_cuts(&self) -> bool {
        self.gate.is_accepting()
            || (!self.is_visible()
                && self
                    .shared
                    .as_ref()
                    .is_some_and(|m| m.plan.num_members() > 0))
    }
}

/// Per-query ingest gate: the same inc-then-check permit counter that makes
/// engine shutdown loss-free ([`crate::engine::Saber::stop`]), scoped to one
/// query so it can be *removed* loss-free while the engine keeps running.
#[derive(Debug)]
pub(crate) struct QueryGate {
    /// False once removal has begun: new ingests are rejected.
    accepting: AtomicBool,
    /// Ingest calls currently past the gate check.
    in_flight: AtomicU64,
}

impl QueryGate {
    pub(crate) fn new() -> Self {
        Self {
            accepting: AtomicBool::new(true),
            in_flight: AtomicU64::new(0),
        }
    }

    /// Registers an ingest as in-flight iff the query still accepts data.
    ///
    /// The increment happens *before* the accepting check (both `SeqCst`),
    /// pairing with removal's store-then-wait order: if the check here
    /// observes `accepting`, the removal's drain wait must observe the
    /// increment, so the rows this permit covers are flushed before the
    /// query is deregistered.
    pub(crate) fn begin_ingest(&self, query: usize) -> Result<QueryPermit<'_>> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.accepting.load(Ordering::SeqCst) {
            Ok(QueryPermit { gate: self })
        } else {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            Err(SaberError::State(format!(
                "query {query} has been removed; this handle is no longer valid"
            )))
        }
    }

    /// Claims the right to remove the query. Returns false if another
    /// removal already claimed it (removal is single-shot).
    pub(crate) fn begin_remove(&self) -> bool {
        self.accepting
            .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// True while the query still accepts ingests.
    pub(crate) fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::SeqCst)
    }

    /// Blocks until every in-flight ingest has completed or `deadline`
    /// passes (returning false). In-flight ingests only block on the credit
    /// gate, which the still-running workers keep draining, so this returns
    /// quickly in a healthy engine.
    pub(crate) fn wait_ingests_drained(&self, deadline: Instant) -> bool {
        while self.in_flight.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        true
    }
}

/// RAII guard for one in-flight ingest of one query.
pub(crate) struct QueryPermit<'a> {
    gate: &'a QueryGate,
}

impl Drop for QueryPermit<'_> {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The engine's slot table of registered queries. Public so worker contexts
/// can carry it; all operations are crate-internal.
///
/// Ids come from a separate atomic counter so the expensive parts of
/// registration (plan compilation, input-ring allocation) run *outside*
/// the slot-table lock — a `QUERY` arriving on a busy server must not
/// stall ingest or task completion, which read-lock this table on their
/// hot paths. A reserved-but-not-yet-inserted id's slot reads as `None`
/// (indistinguishable from a removed query), which is safe: no task,
/// ingest or handle can reference an id before its registration returns.
#[derive(Default)]
pub struct QueryRegistry {
    slots: RwLock<Vec<Option<Arc<QueryState>>>>,
    next_id: AtomicUsize,
}

impl std::fmt::Debug for QueryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.slots.read();
        write!(
            f,
            "QueryRegistry({} live / {} slots)",
            slots.iter().filter(|s| s.is_some()).count(),
            slots.len()
        )
    }
}

impl QueryRegistry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Reserves the next query id. Ids are never reused, even if the
    /// registration is subsequently abandoned (e.g. it lost a race with
    /// engine stop).
    pub(crate) fn reserve_id(&self) -> usize {
        self.next_id.fetch_add(1, Ordering::SeqCst)
    }

    /// Raises the id allocator to at least `next` (recovery restores
    /// queries under their original ids and must burn the ids of removed or
    /// abandoned registrations so they are never handed out again).
    pub(crate) fn reserve_through(&self, next: usize) {
        self.next_id.fetch_max(next, Ordering::SeqCst);
    }

    /// Inserts a fully built state into its reserved slot. The only step of
    /// registration that takes the write lock.
    pub(crate) fn insert(&self, state: Arc<QueryState>) {
        let id = state.id;
        let mut slots = self.slots.write();
        if slots.len() <= id {
            slots.resize_with(id + 1, || None);
        }
        debug_assert!(slots[id].is_none(), "query id inserted twice");
        slots[id] = Some(state);
    }

    /// The state of one live query (None for unknown or removed ids).
    pub(crate) fn get(&self, id: usize) -> Option<Arc<QueryState>> {
        self.slots.read().get(id).and_then(|s| s.clone())
    }

    /// Clears a slot (the final step of removal). Returns the state if the
    /// slot was live.
    pub(crate) fn clear(&self, id: usize) -> Option<Arc<QueryState>> {
        self.slots.write().get_mut(id).and_then(|s| s.take())
    }

    /// All live query states, in id order.
    pub(crate) fn active(&self) -> Vec<Arc<QueryState>> {
        self.slots.read().iter().flatten().cloned().collect()
    }

    /// The live states that own physical machinery — private queries and
    /// shared-plan anchors, one per dispatcher — in id order. Followers
    /// share their anchor's dispatcher, so whoever walks dispatchers walks
    /// this: O(#physical plans), not O(#logical queries).
    pub(crate) fn physical_plans(&self) -> Vec<Arc<QueryState>> {
        self.slots
            .read()
            .iter()
            .flatten()
            .filter(|s| !s.is_follower())
            .cloned()
            .collect()
    }

    /// Total ids ever reserved (live + removed + abandoned registrations).
    pub(crate) fn num_slots(&self) -> usize {
        self.next_id.load(Ordering::SeqCst)
    }
}
