//! The dynamic query registry: the shared, concurrently mutable set of
//! registered queries.
//!
//! Before this existed the engine froze its query vector at `start()`;
//! workers indexed a snapshot and nothing could be added or removed while
//! the engine ran. The registry replaces that snapshot with a slot table
//! under a read/write lock: registration fills a slot (query ids are slot
//! indices and are **never reused**), removal clears it. A slot also holds
//! the physical plan its query's registration built, until the plan's last
//! member leaves, and workers resolve a task's plan by id at completion
//! time. Lookups on the hot paths (ingest, task completion) are a
//! read-lock plus an `Arc` clone.
//!
//! Engine stop and per-query removal share one admission discipline, the
//! crate-internal `Gate`: close the gate so new ingests are rejected,
//! wait out the ingests already past the gate check, flush, then drain the
//! task backlog — so every row whose ingest returned `Ok` is fully
//! processed before the engine stops or the query disappears.

use crate::metrics::QueryStats;
use crate::sharing::SharedPlan;
use crate::sink::QuerySink;
use saber_types::sync::RwLock;
use saber_types::{Result, SaberError};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the engine needs about one registered query.
pub(crate) struct QueryState {
    /// The query's id (its slot index; never reused).
    pub(crate) id: usize,
    /// The query's statistics block.
    pub(crate) stats: Arc<QueryStats>,
    /// The query's output sink.
    pub(crate) sink: QuerySink,
    /// Ingest admission gate (closed when removal begins).
    pub(crate) gate: Arc<Gate>,
    /// The physical plan this query is a member of — a one-member plan for
    /// a private query. See [`crate::sharing`].
    pub(crate) plan: Arc<SharedPlan>,
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

/// One id's entry in the slot table: the query registered under it and,
/// when that query's registration built a physical plan, the plan (which
/// outlives the query until its last member leaves).
#[derive(Default)]
struct Slot {
    query: Option<Arc<QueryState>>,
    plan: Option<Arc<SharedPlan>>,
}

/// The engine's slot table of registered queries and live physical plans.
/// Public so worker contexts can carry it; all operations are
/// crate-internal.
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
    slots: RwLock<Vec<Slot>>,
    next_id: AtomicUsize,
}

impl std::fmt::Debug for QueryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.slots.read();
        write!(
            f,
            "QueryRegistry({} live / {} slots)",
            slots.iter().filter(|s| s.query.is_some()).count(),
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

    /// The slot of `id`, growing the table to reach it.
    fn slot(slots: &mut Vec<Slot>, id: usize) -> &mut Slot {
        if slots.len() <= id {
            slots.resize_with(id + 1, Slot::default);
        }
        &mut slots[id]
    }

    /// Inserts a fully built query state into its reserved slot.
    pub(crate) fn insert(&self, state: Arc<QueryState>) {
        let mut slots = self.slots.write();
        let slot = Self::slot(&mut slots, state.id);
        debug_assert!(slot.query.is_none(), "query id inserted twice");
        slot.query = Some(state);
    }

    /// Publishes a new physical plan under its id.
    pub(crate) fn insert_plan(&self, plan: Arc<SharedPlan>) {
        let mut slots = self.slots.write();
        let slot = Self::slot(&mut slots, plan.id);
        debug_assert!(slot.plan.is_none(), "plan id inserted twice");
        slot.plan = Some(plan);
    }

    /// The state of one live query (None for unknown or removed ids).
    pub(crate) fn get(&self, id: usize) -> Option<Arc<QueryState>> {
        self.slots.read().get(id).and_then(|s| s.query.clone())
    }

    /// The live physical plan with id `id`: workers resolve task
    /// completions through it.
    pub(crate) fn plan(&self, id: usize) -> Option<Arc<SharedPlan>> {
        self.slots.read().get(id).and_then(|s| s.plan.clone())
    }

    /// Clears a query's slot (the final step of removal).
    pub(crate) fn clear(&self, id: usize) {
        if let Some(slot) = self.slots.write().get_mut(id) {
            slot.query = None;
        }
    }

    /// Clears a plan's slot once its last member has left.
    pub(crate) fn clear_plan(&self, id: usize) {
        if let Some(slot) = self.slots.write().get_mut(id) {
            slot.plan = None;
        }
    }

    /// All live query states, in id order.
    pub(crate) fn active(&self) -> Vec<Arc<QueryState>> {
        self.slots
            .read()
            .iter()
            .filter_map(|s| s.query.clone())
            .collect()
    }

    /// All live physical plans, in id order: whoever walks dispatchers
    /// walks this — O(#physical plans), not O(#logical queries).
    pub(crate) fn plans(&self) -> Vec<Arc<SharedPlan>> {
        self.slots
            .read()
            .iter()
            .filter_map(|s| s.plan.clone())
            .collect()
    }

    /// Total ids ever reserved (live + removed + abandoned registrations).
    pub(crate) fn num_slots(&self) -> usize {
        self.next_id.load(Ordering::SeqCst)
    }
}
