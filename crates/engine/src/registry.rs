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
//! Engine stop and per-query removal share one admission discipline, the
//! crate-internal `Gate`: close the gate so new ingests are rejected,
//! wait out the ingests already past the gate check, flush, then drain the
//! task backlog — so every row whose ingest returned `Ok` is fully
//! processed before the engine stops or the query disappears.

use crate::dispatcher::Dispatcher;
use crate::metrics::QueryStats;
use crate::result::ResultStage;
use crate::sharing::SharedMembership;
use crate::sink::QuerySink;
use saber_types::sync::RwLock;
use saber_types::{Result, SaberError};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
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
    pub(crate) gate: Gate,
    /// Membership in the physical plan that executes this query — a
    /// one-member plan for a private query. See [`crate::sharing`].
    pub(crate) shared: SharedMembership,
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
        !self.shared.is_anchor()
    }

    /// The id the physical plan runs under: its anchor's id.
    pub(crate) fn phys_id(&self) -> usize {
        self.shared.plan.phys_id
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
        self.gate.is_open() || (!self.is_visible() && self.shared.plan.num_members() > 0)
    }
}

/// Gate state: not yet open (an engine before `start()`).
pub(crate) const GATE_CREATED: u8 = 0;
/// Gate state: admitting (a running engine, a live query).
pub(crate) const GATE_OPEN: u8 = 1;
/// Gate state: closed for good (a stopped engine, a query being removed).
pub(crate) const GATE_CLOSED: u8 = 2;

/// The admission gate of the engine and of every query: an inc-then-check
/// permit counter that makes [`crate::engine::Saber::stop`] and query
/// removal loss-free. The gate moves strictly forward
/// (`CREATED → OPEN → CLOSED`); closing it rejects every *new* permit, and
/// [`Gate::wait_drained`] then waits out the ones already granted, so no
/// accepted row can land after the closer's final flush.
#[derive(Debug)]
pub(crate) struct Gate {
    state: AtomicU8,
    /// Calls currently holding a permit.
    in_flight: AtomicU64,
}

impl Gate {
    pub(crate) fn new(state: u8) -> Self {
        Self {
            state: AtomicU8::new(state),
            in_flight: AtomicU64::new(0),
        }
    }

    /// The current state (`GATE_CREATED`, `GATE_OPEN` or `GATE_CLOSED`).
    pub(crate) fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// True while the gate admits permits.
    pub(crate) fn is_open(&self) -> bool {
        self.state() == GATE_OPEN
    }

    /// Opens a created gate (engine start).
    pub(crate) fn open(&self) {
        self.state.store(GATE_OPEN, Ordering::SeqCst);
    }

    /// Closes an open gate. Returns false if it was not open — never
    /// opened, or another closer won (closing is single-shot).
    pub(crate) fn close(&self) -> bool {
        self.state
            .compare_exchange(GATE_OPEN, GATE_CLOSED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Grants a permit iff the gate is open; otherwise returns
    /// `refused(state)`.
    ///
    /// The increment happens *before* the state check (both `SeqCst`),
    /// pairing with the closer's close-then-wait order: if the check here
    /// observes `OPEN`, the closer's [`Gate::wait_drained`] must observe
    /// the increment, so the work this permit covers is done before the
    /// closer's final flush.
    pub(crate) fn enter(&self, refused: impl FnOnce(u8) -> SaberError) -> Result<Permit<'_>> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        match self.state() {
            GATE_OPEN => Ok(Permit { gate: self }),
            state => {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                Err(refused(state))
            }
        }
    }

    /// Number of permits currently held.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Blocks until every permit has been dropped or `deadline` passes
    /// (returning false). Permit holders only block on the credit gate,
    /// which the still-running workers keep draining, so in a healthy
    /// engine this returns quickly; the deadline exists so a leaked credit
    /// (e.g. a panicked worker) degrades into an unclean stop or removal
    /// instead of a hang.
    pub(crate) fn wait_drained(&self, deadline: Instant) -> bool {
        while self.in_flight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        true
    }
}

/// RAII guard for one admitted call (see [`Gate::enter`]).
pub(crate) struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
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
