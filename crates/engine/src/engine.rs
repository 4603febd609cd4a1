//! The engine façade: query registration, ingestion, lifecycle.
//!
//! The query set is **dynamic**: [`Saber::add_query`] takes `&self` and
//! works on a *running* engine, returning a typed [`QueryHandle`] that owns
//! the query's [`QuerySink`] and supports loss-free [`QueryHandle::remove`].
//! Workers resolve queries through the shared
//! [`QueryRegistry`] — see the registry module docs — so queries appear and
//! disappear under full concurrency with ingest and execution.
//!
//! Ingestion is multi-producer end to end: [`Saber::ingest`] (and the cheap
//! cloneable [`IngestHandle`]s returned by [`Saber::ingest_handle`]) append
//! to the per-stream reservation rings without taking any per-query lock —
//! the buffer copy is lock-free, task cutting serializes only on the small
//! cutter mutex, and admission into the task queue blocks on the
//! [`FlowControl`] credit gate (a condvar, not a poll loop) exactly until
//! workers free queue slots.

use crate::config::{EngineConfig, ExecutionMode, SaberBuilder};
use crate::dispatcher::{ring_capacity, Dispatcher};
use crate::durability::{checkpoint_engine, Durability, QueryMeta};
use crate::flow::FlowControl;
use crate::ids::{QueryId, StreamId};
use crate::metrics::{EngineStats, PlanStats, QueryStats};
use crate::queue::TaskQueue;
use crate::registry::{Gate, QueryRegistry, QueryState, GATE_CLOSED, GATE_CREATED, GATE_OPEN};
use crate::result::{Member, ResultStage};
use crate::scheduler::{Processor, Scheduler};
use crate::sharing::{SharedPlan, SharedWindowRegistry};
use crate::sink::{QuerySink, WindowWait};
use crate::task::QueryTask;
use crate::throughput::{PlacementDecision, ThroughputMatrix, SMOOTHING};
use crate::worker::{run_cpu_worker, run_gpu_worker, WorkerContext};
use saber_cpu::plan::CompiledPlan;
use saber_gpu::GpuDevice;
use saber_obs::FlightRecorder;
use saber_query::{PlanFingerprint, Query};
use saber_sql::SharedCatalog;
use saber_store::{has_existing_state, Store, WalRecord};
use saber_types::sync::Mutex;
use saber_types::{Result, RowBuffer, SaberError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`Saber::stop`] waits for in-flight tasks to drain before giving
/// up and reporting an unclean stop.
const STOP_DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// How long [`QueryHandle::remove`] waits for the query's in-flight ingests
/// and task backlog to drain before deregistering it uncleanly. Recovery
/// gives a plan the same budget to drain before a replayed member attaches.
const REMOVE_DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything shared between the [`Saber`] façade, its worker threads and
/// the handles ([`QueryHandle`], [`IngestHandle`]) it gives out.
struct EngineCore {
    config: EngineConfig,
    queue: Arc<TaskQueue>,
    matrix: Arc<ThroughputMatrix>,
    scheduler: Arc<Scheduler>,
    task_ids: Arc<AtomicU64>,
    flow: Arc<FlowControl>,
    registry: Arc<QueryRegistry>,
    /// Fingerprint → shared physical plan (see [`crate::sharing`]).
    sharing: SharedWindowRegistry,
    stats: EngineStats,
    device: Arc<GpuDevice>,
    /// The engine's admission gate: open between `start()` and `stop()`.
    lifecycle: Arc<Gate>,
    /// Serializes the two wind-down paths — engine stop and per-query
    /// removal — so a removal can never retire a queue shard out from under
    /// stop's final flush (and vice versa).
    wind_down: Mutex<()>,
    /// The durability layer (WAL + snapshots), when configured.
    durability: Option<Arc<Durability>>,
    /// Always-on ring of recent task traces (see `docs/observability.md`).
    recorder: Arc<FlightRecorder>,
}

/// The SABER hybrid stream processing engine.
pub struct Saber {
    core: Arc<EngineCore>,
    workers: Vec<JoinHandle<()>>,
}

impl Saber {
    /// Starts building an engine with the default configuration.
    ///
    /// ```
    /// use saber_engine::{ExecutionMode, Saber};
    ///
    /// let engine = Saber::builder()
    ///     .worker_threads(2)
    ///     .query_task_size(64 * 1024)
    ///     .execution_mode(ExecutionMode::CpuOnly)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(engine.config().worker_threads, 2);
    /// assert_eq!(engine.num_queries(), 0);
    /// ```
    pub fn builder() -> SaberBuilder {
        SaberBuilder::new()
    }

    /// Creates an engine from an explicit configuration.
    ///
    /// When `config.durability` is set, the store directory must not hold
    /// state from a previous run — rebuilding from existing state is
    /// [`Saber::recover`]'s job, and silently appending to an old log would
    /// corrupt its history.
    pub fn with_config(config: EngineConfig) -> Result<Self> {
        config.validate()?;
        let durability = match &config.durability {
            Some(durability_config) => {
                if has_existing_state(&durability_config.dir)? {
                    return Err(SaberError::State(format!(
                        "durability directory {} already holds saber-store state; use \
                         Saber::recover to rebuild from it",
                        durability_config.dir.display()
                    )));
                }
                let store = Store::open(durability_config)?;
                Some(Arc::new(Durability::new(store, SharedCatalog::new(), true)))
            }
            None => None,
        };
        Self::with_durability(config, durability)
    }

    /// Creates an engine around an already constructed durability layer
    /// (recovery builds the store first so it can read the snapshot before
    /// the engine exists).
    pub(crate) fn with_durability(
        config: EngineConfig,
        durability: Option<Arc<Durability>>,
    ) -> Result<Self> {
        config.validate()?;
        let matrix = Arc::new(ThroughputMatrix::new(
            SMOOTHING,
            config.effective_cpu_workers(),
        ));
        let mut scheduler = Scheduler::new(config.scheduling.clone(), matrix.clone());
        match config.execution_mode {
            ExecutionMode::CpuOnly => scheduler = scheduler.with_single_processor(Processor::Cpu),
            ExecutionMode::GpuOnly => scheduler = scheduler.with_single_processor(Processor::Gpu),
            ExecutionMode::Hybrid => {}
        }
        let scheduler = Arc::new(scheduler);
        let device = Arc::new(GpuDevice::new(config.device.clone()));
        Ok(Self {
            core: Arc::new(EngineCore {
                queue: Arc::new(TaskQueue::new()),
                matrix,
                scheduler,
                task_ids: Arc::new(AtomicU64::new(0)),
                flow: Arc::new(FlowControl::new(config.max_queued_tasks)),
                registry: Arc::new(QueryRegistry::new()),
                sharing: SharedWindowRegistry::new(),
                stats: EngineStats::default(),
                device,
                lifecycle: Arc::new(Gate::new(GATE_CREATED)),
                wind_down: Mutex::new(()),
                durability,
                recorder: Arc::new(FlightRecorder::new(256)),
                config,
            }),
            workers: Vec::new(),
        })
    }

    /// The engine's durability layer, if configured.
    pub(crate) fn durability(&self) -> Option<&Arc<Durability>> {
        self.core.durability.as_ref()
    }

    /// Raises the query-id allocator past ids burnt in a previous run
    /// (recovery only).
    pub(crate) fn reserve_query_ids_through(&self, next: usize) {
        self.core.registry.reserve_through(next);
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.core.config
    }

    /// The accelerator device (statistics, bus counters).
    pub fn device(&self) -> &Arc<GpuDevice> {
        &self.core.device
    }

    /// The observed throughput matrix.
    pub fn matrix(&self) -> &Arc<ThroughputMatrix> {
        &self.core.matrix
    }

    /// The current placement decision for one live query: preferred
    /// processor, observed rates and realized GPU share. `None` for unknown
    /// or removed queries. A query attached to a shared physical plan
    /// reports that plan's decision (placement is learned once per physical
    /// plan, under the plan's id).
    pub fn placement(&self, query: QueryId) -> Option<PlacementDecision> {
        let plan = self.core.registry.get(query.index())?.plan.clone();
        let phys = plan.id;
        let matrix = &self.core.matrix;
        Some(PlacementDecision {
            query: QueryId(phys),
            preferred: self.core.scheduler.preferred(phys),
            cpu_rate: matrix.value(phys, Processor::Cpu),
            gpu_rate: matrix.value(phys, Processor::Gpu),
            cpu_samples: matrix.samples(phys, Processor::Cpu),
            gpu_samples: matrix.samples(phys, Processor::Gpu),
            gpu_task_share: plan.stats.gpu_share(),
        })
    }

    /// Placement decisions for every live query, in registration order.
    pub fn placements(&self) -> Vec<PlacementDecision> {
        self.query_ids()
            .into_iter()
            .filter_map(|id| self.placement(id))
            .collect()
    }

    /// Engine-wide statistics (stats blocks are retained for removed
    /// queries).
    pub fn stats(&self) -> &EngineStats {
        &self.core.stats
    }

    /// The engine's flight recorder: an always-on, fixed-size ring of
    /// recent per-task pipeline traces.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.core.recorder
    }

    /// Number of *live* queries (registered and not removed). Counts
    /// logical queries: every member of a shared physical plan counts.
    pub fn num_queries(&self) -> usize {
        self.core.registry.active().len()
    }

    /// Number of live *physical* plan instances: a group of
    /// fingerprint-identical queries sharing one plan counts once, every
    /// private query counts once. With sharing enabled, registering the
    /// same SQL shape N times yields N logical queries but one physical
    /// plan (one set of input rings, one task-queue shard, one scheduler
    /// row).
    pub fn num_physical_plans(&self) -> usize {
        self.core.registry.plans().len()
    }

    /// Sharing info for a live query: the id of the physical plan
    /// executing it and the number of logical queries currently attached
    /// to that plan. `None` for unknown/removed ids and for queries
    /// running a private plan (one without a fingerprint).
    pub fn sharing_info(&self, query: QueryId) -> Option<(QueryId, usize)> {
        let plan = self.core.registry.get(query.index())?.plan.clone();
        plan.fingerprint
            .is_some()
            .then(|| (QueryId(plan.id), plan.num_members()))
    }

    /// Number of queries ever registered, including removed ones. Query ids
    /// are assigned from this sequence and never reused.
    pub fn registered_queries(&self) -> usize {
        self.core.registry.num_slots()
    }

    /// Ids of all live queries, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.core
            .registry
            .active()
            .into_iter()
            .map(|s| QueryId(s.id))
            .collect()
    }

    /// Re-acquires a handle to a live query (None if unknown or removed).
    pub fn query(&self, query: QueryId) -> Option<QueryHandle> {
        let state = self.core.registry.get(query.index())?;
        Some(QueryHandle {
            id: query,
            core: self.core.clone(),
            state,
        })
    }

    /// Per-query statistics: the query's own row counters and its plan's
    /// task figures (see [`crate::metrics`]). Unlike the other accessors
    /// this also resolves *removed* queries, so historical counters stay
    /// readable.
    pub fn query_stats(&self, query: QueryId) -> Option<Arc<QueryStats>> {
        self.core.stats.get(query.index())
    }

    /// Number of tasks currently queued for one query (0 for unknown or
    /// removed queries). A member of a shared plan reports the backlog of
    /// its physical shard.
    pub fn queue_depth(&self, query: QueryId) -> usize {
        self.core
            .registry
            .get(query.index())
            .map(|s| self.core.queue.depth(s.plan.id))
            .unwrap_or(0)
    }

    /// Registers a query — on a *running* engine too — returning its handle.
    /// Output rows are retained in the handle's sink.
    pub fn add_query(&self, query: Query) -> Result<QueryHandle> {
        self.add_query_with_options(query, true)
    }

    /// Registers a query; when `retain_output` is false the sink only counts
    /// emitted tuples (benchmarks over unbounded output).
    pub fn add_query_with_options(&self, query: Query, retain_output: bool) -> Result<QueryHandle> {
        self.register(query, retain_output, None, None)
    }

    /// Like [`Saber::add_query`], but records `sql` as the query's source
    /// text so a *durable* engine can log the registration and re-register
    /// the query on [`Saber::recover`]. On an in-memory engine this is
    /// identical to [`Saber::add_query`]. ([`Saber::add_query_sql`] calls
    /// this for you; use it directly when you compile SQL yourself, e.g.
    /// for better error rendering.)
    pub fn add_query_with_sql(&self, query: Query, sql: &str) -> Result<QueryHandle> {
        self.register(query, true, Some(sql), None)
    }

    /// The one registration path, for live registration and recovery
    /// alike. `replayed` is `Some((id, seq))` when recovery re-applies the
    /// `AddQuery` record at WAL position `seq` under its original id
    /// (logging is off); a live registration reserves a fresh id and logs
    /// the record instead.
    ///
    /// Every query is a member of a physical plan. A fingerprint that maps
    /// to a live plan joins it without compiling anything (the O(1)
    /// marginal cost of a duplicate query). Otherwise the plan is compiled
    /// before any shared lock is taken — registering on a loaded engine
    /// never stalls concurrent ingest or task completion — and the map is
    /// checked again under its lock, because a concurrent registration of
    /// the same shape may have won meanwhile; if none did, a new plan is
    /// built under this query's id. A query without a fingerprint builds a
    /// private plan that never enters the map. Either way the query then
    /// joins through [`Saber::attach`]. The map lock spans lookup, build
    /// and attach, so a plan cannot die under an attach: [`detach`]
    /// removes a plan's entry under the same lock.
    fn register(
        &self,
        query: Query,
        retain_output: bool,
        sql: Option<&str>,
        replayed: Option<(usize, u64)>,
    ) -> Result<QueryHandle> {
        let core = &self.core;
        if core.lifecycle.state() == GATE_CLOSED {
            return Err(stopped_engine_error());
        }
        let fingerprint = query.fingerprint();
        let live_plan = |map: &HashMap<PlanFingerprint, Arc<SharedPlan>>| {
            fingerprint.as_ref().and_then(|fp| map.get(fp).cloned())
        };
        // A live plan to join, or the query compiled for a new one.
        let mut map = core.sharing.lock();
        let found = match live_plan(&map) {
            Some(plan) => Ok(plan),
            None => {
                drop(map);
                let compiled = CompiledPlan::compile(&query)?;
                map = core.sharing.lock();
                live_plan(&map).ok_or(compiled)
            }
        };
        // Ids are never reused: one reserved here stays burnt if the
        // registration is abandoned.
        let id = match replayed {
            Some((id, _)) => {
                core.registry.reserve_through(id + 1);
                id
            }
            None => core.registry.reserve_id(),
        };
        let (plan, built) = match found {
            Ok(plan) => {
                // A replayed member starts exactly at its `AddQuery` record:
                // everything the plan was fed before it is processed first.
                if replayed.is_some()
                    && !drain_plan(core, &plan, Instant::now() + REMOVE_DRAIN_TIMEOUT)?
                {
                    return Err(SaberError::State(format!(
                        "recovery: plan {} did not drain before query {id} attached",
                        plan.id
                    )));
                }
                (plan, false)
            }
            Err(compiled) => (Arc::new(self.build_plan(id, fingerprint, compiled)), true),
        };
        let stats = core.stats.register_query_at(id, &plan.stats);
        // Log the registration *before* the query becomes reachable through
        // the registry: a concurrent ingest into the fresh id can otherwise
        // log its `Ingest` record ahead of the `AddQuery` record, and replay
        // (which applies records in sequence order) would drop that
        // acknowledged batch.
        let recorded = self.record_add_query(id, sql, &plan, replayed.map(|(_, seq)| seq))?;
        if built {
            core.queue.register_query_at(id);
            core.registry.insert_plan(plan.clone());
            if let Some(fp) = &plan.fingerprint {
                map.insert(fp.clone(), plan.clone());
            }
        }
        let state = self.attach(id, &plan, stats, retain_output);
        // A stop that raced this registration has already closed the other
        // sinks and will not see this query; fail the registration cleanly
        // instead of leaving a zombie.
        if core.lifecycle.state() == GATE_CLOSED {
            detach(core, &mut map, &state);
            drop(map);
            // Retract the recorded registration so recovery does not
            // resurrect a query the caller never received.
            if recorded {
                self.retract_add_query(id);
            }
            return Err(stopped_engine_error());
        }
        drop(map);
        Ok(QueryHandle {
            id: QueryId(id),
            core: core.clone(),
            state,
        })
    }

    /// Records the durability metadata of a registration of SQL text — on a
    /// live engine together with its `AddQuery` record, under one lock so a
    /// concurrent checkpoint sees both or neither; during recovery with
    /// the replayed record's `seq`. The metadata's `replay_from` is the
    /// plan's first `AddQuery` position (see [`crate::sharing`]). Returns
    /// whether anything was recorded, to be retracted if installation
    /// fails.
    fn record_add_query(
        &self,
        id: usize,
        sql: Option<&str>,
        plan: &SharedPlan,
        replayed_seq: Option<u64>,
    ) -> Result<bool> {
        let (Some(durability), Some(sql)) = (self.core.durability.as_ref(), sql) else {
            return Ok(false);
        };
        let mut meta = durability.meta.lock();
        let seq = match replayed_seq {
            Some(seq) => seq,
            None if durability.logging() => durability.store.append(&WalRecord::AddQuery {
                id: id as u64,
                sql: sql.to_string(),
            })?,
            None => return Ok(false),
        };
        meta.insert(
            id,
            QueryMeta {
                sql: sql.to_string(),
                replay_from: plan.replay_from(seq),
            },
        );
        Ok(true)
    }

    /// Retracts a recorded registration whose installation failed, so
    /// recovery does not resurrect a query the caller never received.
    fn retract_add_query(&self, id: usize) {
        let durability = self
            .core
            .durability
            .as_ref()
            .expect("recorded implies durable");
        let mut meta = durability.meta.lock();
        if meta.remove(&id).is_some() && durability.logging() {
            let _ = durability
                .store
                .append(&WalRecord::RemoveQuery { id: id as u64 });
        }
    }

    /// Builds the machinery of a new physical plan under the already
    /// reserved `id`: dispatcher and input rings, the plan's own stats
    /// block, and a result stage with no members yet. The caller publishes
    /// it (queue shard, registry, fingerprint map).
    fn build_plan(
        &self,
        id: usize,
        fingerprint: Option<PlanFingerprint>,
        mut compiled: CompiledPlan,
    ) -> SharedPlan {
        let core = &self.core;
        compiled.set_query_id(id);
        let ring = ring_capacity(&compiled, core.config.query_task_size);
        let compiled = Arc::new(compiled);
        let stats = Arc::new(PlanStats::default());
        let results = ResultStage::new(&compiled, stats.clone(), core.recorder.clone());
        let dispatcher = Dispatcher::new(
            compiled,
            core.config.query_task_size,
            ring,
            core.task_ids.clone(),
            true,
        )
        .arming_early_cuts(core.queue.clone());
        SharedPlan::new(fingerprint, id, dispatcher, results, stats)
    }

    /// Attaches query `id` to `plan` — the one attach path of every query,
    /// the one whose registration built the plan included: a sink, an
    /// ingest gate, a registry slot and a place in the plan's member list,
    /// from which the result stage appends every batch it releases from now
    /// on to the new sink, in order. The caller holds the sharing-map lock,
    /// so the plan cannot be torn down concurrently.
    fn attach(
        &self,
        id: usize,
        plan: &Arc<SharedPlan>,
        stats: Arc<QueryStats>,
        retain_output: bool,
    ) -> Arc<QueryState> {
        let state = Arc::new(QueryState {
            id,
            stats,
            sink: QuerySink::new(plan.results.schema().clone(), retain_output),
            gate: Arc::new(Gate::new(GATE_OPEN)),
            plan: plan.clone(),
        });
        self.core.registry.insert(state.clone());
        plan.attach(Member {
            id,
            sink: state.sink.clone(),
            stats: state.stats.clone(),
            gate: state.gate.clone(),
        });
        state
    }

    /// Re-registers a query at its replayed `AddQuery` record (WAL position
    /// `seq`) under its original id, compiling its SQL against the durable
    /// catalog. Recovery only — logging is off.
    pub(crate) fn replay_add_query(&self, id: usize, sql: &str, seq: u64) -> Result<()> {
        let durability = self
            .core
            .durability
            .as_ref()
            .expect("replay requires a durable engine");
        let query = durability.catalog.compile(sql).map_err(|e| {
            SaberError::Store(format!(
                "recovery: query {id} failed to recompile (line {} col {}: {}); its stream \
                 definitions may have been replaced after it was registered",
                e.line(),
                e.column(),
                e.message()
            ))
        })?;
        self.register(query, true, Some(sql), Some((id, seq)))
            .map(|_| ())
    }

    /// Registers a query written in the SABER SQL dialect (see
    /// `docs/sql.md`), resolving stream names against `catalog`. Returns the
    /// query's [`QueryHandle`], exactly like [`Saber::add_query`] — and like
    /// it, works while the engine is running.
    ///
    /// Parse, name-resolution and type errors surface as
    /// [`SaberError::Query`] with the offending line and column; use
    /// [`saber_sql::compile`] directly to get the full caret diagnostic.
    ///
    /// ```
    /// use saber_engine::{Saber, StreamId};
    /// use saber_sql::Catalog;
    /// use saber_types::{DataType, RowBuffer, Schema, Value};
    ///
    /// let schema = Schema::from_pairs(&[
    ///     ("timestamp", DataType::Timestamp),
    ///     ("value", DataType::Float),
    ///     ("key", DataType::Int),
    /// ])
    /// .unwrap()
    /// .into_ref();
    /// let catalog = Catalog::new().with_stream("Sensors", schema.clone());
    ///
    /// let mut engine = Saber::builder().worker_threads(1).build().unwrap();
    /// engine.start().unwrap();
    ///
    /// // Queries can be registered after start (the engine is running).
    /// let query = engine
    ///     .add_query_sql(
    ///         "SELECT timestamp, key, COUNT(*) FROM Sensors [ROWS 4] GROUP BY key",
    ///         &catalog,
    ///     )
    ///     .unwrap();
    ///
    /// let mut rows = RowBuffer::new(schema);
    /// for i in 0..8 {
    ///     rows.push_values(&[Value::Timestamp(i), Value::Float(1.0), Value::Int(0)])
    ///         .unwrap();
    /// }
    /// query.ingest(StreamId(0), rows.bytes()).unwrap();
    /// engine.stop().unwrap();
    /// // Two tumbling 4-row windows, one group each.
    /// assert_eq!(query.tuples_emitted(), 2);
    /// ```
    pub fn add_query_sql(&self, sql: &str, catalog: &saber_sql::Catalog) -> Result<QueryHandle> {
        let query = saber_sql::compile(sql, catalog)?;
        self.add_query_with_sql(query, sql)
    }

    /// Like [`Saber::add_query_sql`], but with the sink's `retain_output`
    /// switch exposed (see [`Saber::add_query_with_options`]).
    pub fn add_query_sql_with_options(
        &self,
        sql: &str,
        catalog: &saber_sql::Catalog,
        retain_output: bool,
    ) -> Result<QueryHandle> {
        let query = saber_sql::compile(sql, catalog)?;
        self.register(query, retain_output, Some(sql), None)
    }

    /// Removes a live query, draining it loss-free first (see
    /// [`QueryHandle::remove`] — this is the same operation addressed by
    /// id).
    pub fn remove_query(&self, query: QueryId) -> Result<()> {
        remove_query_inner(&self.core, query.index())
    }

    /// Starts the worker threads. Queries may be registered before *or
    /// after* this point; an engine can start with zero queries and have
    /// them added while it runs (the long-lived server deployment).
    ///
    /// The lifecycle is strictly forward: a stopped engine cannot be
    /// restarted (its task queue and credit gate have been shut down); build
    /// a fresh engine instead.
    pub fn start(&mut self) -> Result<()> {
        match self.core.lifecycle.state() {
            GATE_OPEN => {
                return Err(SaberError::State("engine already running".into()));
            }
            GATE_CLOSED => {
                return Err(SaberError::State(
                    "engine is stopped and cannot be restarted".into(),
                ));
            }
            _ => {}
        }
        let cpu_workers = self.core.config.effective_cpu_workers();
        for i in 0..cpu_workers {
            let ctx = self.worker_context();
            self.workers.push(
                std::thread::Builder::new()
                    .name(format!("saber-cpu-{i}"))
                    .spawn(move || run_cpu_worker(ctx))
                    .map_err(|e| SaberError::State(format!("failed to spawn worker: {e}")))?,
            );
        }
        if self.core.config.gpu_enabled() {
            let ctx = self.worker_context();
            let device = self.core.device.clone();
            self.workers.push(
                std::thread::Builder::new()
                    .name("saber-gpgpu".to_string())
                    .spawn(move || run_gpu_worker(ctx, device))
                    .map_err(|e| SaberError::State(format!("failed to spawn GPU worker: {e}")))?,
            );
        }
        self.core.lifecycle.open();
        Ok(())
    }

    fn worker_context(&self) -> WorkerContext {
        WorkerContext {
            queue: self.core.queue.clone(),
            scheduler: self.core.scheduler.clone(),
            matrix: self.core.matrix.clone(),
            registry: self.core.registry.clone(),
            flow: self.core.flow.clone(),
            lifecycle: self.core.lifecycle.clone(),
        }
    }

    /// Ingests whole rows into input `stream` of query `query`. The buffer
    /// copy is lock-free; backpressure blocks on the credit gate until
    /// workers free queue slots. After [`Saber::stop`] begins (or the query
    /// is removed), ingests are rejected with a [`SaberError::State`]
    /// instead of silently dropping rows.
    pub fn ingest(&self, query: QueryId, stream: StreamId, bytes: &[u8]) -> Result<()> {
        let core = &self.core;
        let state = core
            .registry
            .get(query.index())
            .ok_or_else(|| unknown_query_error(core, query.index()))?;
        admitted(core, &state, || {
            ingest_into(core, &state, stream.index(), bytes)
        })
    }

    /// Returns a cheap cloneable producer handle bound to input `stream` of
    /// query `query`. Handles are `Send + Sync + Clone` and may ingest from
    /// many threads concurrently; they share the engine's backpressure gate
    /// and remain valid until the query is removed or the engine stops.
    pub fn ingest_handle(&self, query: QueryId, stream: StreamId) -> Result<IngestHandle> {
        let core = &self.core;
        let state = core
            .registry
            .get(query.index())
            .ok_or_else(|| unknown_query_error(core, query.index()))?;
        QueryHandle {
            id: query,
            core: core.clone(),
            state,
        }
        .ingest_handle(stream)
    }

    /// Flushes partially filled stream batches of every live query into
    /// (undersized) tasks. Idle workers do the same for rows that have
    /// waited [`EARLY_CUT_AGE`](crate::dispatcher::EARLY_CUT_AGE), so this
    /// is not needed for liveness — it makes the cut point deterministic.
    pub fn flush(&self) -> Result<()> {
        for plan in self.core.registry.plans() {
            if plan.accepts_cuts() {
                flush_plan(&self.core, &plan)?;
            }
        }
        Ok(())
    }

    /// Stop's final flush. Unlike the public [`Saber::flush`] this includes
    /// plans whose members are all mid-removal (gates closed, slots live):
    /// under the wind-down mutex their shards cannot be retired
    /// concurrently, and a removal that observes the `Stopped` phase skips
    /// its own flush — if stop skipped them too, rows accepted just before
    /// the removal began would be stranded in the ring and silently lost.
    fn flush_all(&self) -> Result<()> {
        for plan in self.core.registry.plans() {
            flush_plan(&self.core, &plan)?;
        }
        Ok(())
    }

    /// Waits until every dispatched task has been fully processed (bounded by
    /// `timeout`). Returns true if the engine drained in time. Blocks on the
    /// credit gate's condvar — no polling.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.core.flow.wait_idle(timeout)
    }

    /// Stops the engine deterministically and loss-free: flushes remaining
    /// data, waits for all tasks to complete and stops the worker threads.
    ///
    /// The ordering is the point (and a fixed race): the phase flips to
    /// `Stopped` *first*, so producers looping on an [`IngestHandle`] get a
    /// clean [`SaberError::State`] instead of pinning `drain` at its full
    /// timeout — and rows they ingest during shutdown are rejected rather
    /// than accepted and silently dropped after the final flush. Ingests
    /// already past the phase check are waited for before flushing, so every
    /// row whose ingest returned `Ok` is processed. Once the workers have
    /// stopped, every live query's sink is closed, so consumers blocked in
    /// [`QuerySink::wait_for_window`] wake with [`WindowWait::Closed`] after
    /// draining the final windows.
    ///
    /// Returns an error if the wind-down (waiting out in-flight ingests and
    /// draining in-flight tasks — one shared 60 s budget) timed out; the
    /// workers are still shut down, but on that unclean path some accepted
    /// rows may not have reached the sinks. A concurrent
    /// [`QueryHandle::remove`] holding the wind-down mutex can additionally
    /// delay stop by up to its own drain timeout, so the worst-case bound is
    /// `STOP_DRAIN_TIMEOUT + REMOVE_DRAIN_TIMEOUT`.
    pub fn stop(&mut self) -> Result<()> {
        if !self.core.lifecycle.close() {
            // Never started, or already stopped: nothing to wind down.
            return Ok(());
        }
        // One budget covers stop's own wind-down (ingest wait + task
        // drain); waiting out a concurrent removal's wind-down mutex is the
        // only thing that can extend it (see the doc comment).
        let deadline = Instant::now() + STOP_DRAIN_TIMEOUT;
        let ingests_drained = self.core.lifecycle.wait_drained(deadline);
        if !ingests_drained {
            // Something is wedged (e.g. a leaked credit): unblock the
            // stranded producers instead of hanging; the stop is unclean.
            self.core.flow.signal_shutdown();
        }
        // Serialize with concurrent query removals: a removal retiring its
        // queue shard between our flush and our push would strand the task.
        let wind_down = self.core.wind_down.lock();
        let flush_result = if ingests_drained {
            self.flush_all()
        } else {
            Ok(())
        };
        let drained =
            ingests_drained && self.drain(deadline.saturating_duration_since(Instant::now()));
        self.core.queue.signal_shutdown();
        // Unblock any producer stranded on the credit gate: once workers are
        // told to exit, remaining credits would never be released.
        self.core.flow.signal_shutdown();
        drop(wind_down);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone: results are final. Signal end-of-stream to every
        // consumer blocked on (or subscribed to) a sink.
        for state in self.core.registry.active() {
            state.sink.close();
        }
        // Wind down durability *before* any early error return (the phase
        // is already `Stopped`, so no retry reaches this point): take one
        // final catalog snapshot (best effort — the WAL alone is sufficient
        // for recovery) and force the log to stable storage, so a clean
        // shutdown is fully durable regardless of the fsync policy.
        let sync_result = match &self.core.durability {
            Some(durability) => {
                let _ = checkpoint_engine(durability, self.core.registry.num_slots());
                durability.store.sync()
            }
            None => Ok(()),
        };
        flush_result?;
        sync_result?;
        if !drained {
            return Err(SaberError::State(format!(
                "stop() timed out after {STOP_DRAIN_TIMEOUT:?} with {} in-flight ingest(s) \
                 and {} in-flight task(s); workers were shut down anyway (unclean stop)",
                self.core.lifecycle.in_flight(),
                self.core.flow.outstanding()
            )));
        }
        Ok(())
    }

    /// The output sink of a live query (None for unknown or removed ids).
    pub fn sink(&self, query: QueryId) -> Option<QuerySink> {
        self.core
            .registry
            .get(query.index())
            .map(|s| s.sink.clone())
    }

    /// Number of tasks currently queued (diagnostics).
    pub fn queued_tasks(&self) -> usize {
        self.core.queue.len()
    }

    /// Highest number of simultaneously queued tasks observed (queue-depth
    /// metric).
    pub fn max_queued_tasks_observed(&self) -> usize {
        self.core.queue.max_depth()
    }

    /// Number of tasks dispatched but not yet fully processed.
    pub fn in_flight_tasks(&self) -> u64 {
        self.core.flow.outstanding()
    }

    /// `(blocking submissions, total blocked time)` across all producers
    /// (backpressure-wait metric).
    pub fn backpressure_stats(&self) -> (u64, Duration) {
        self.core.flow.wait_stats()
    }
}

impl Drop for Saber {
    fn drop(&mut self) {
        if self.core.lifecycle.is_open() {
            let _ = self.stop();
        }
    }
}

/// Builds the "unknown query" error with the live ids listed, so a caller
/// holding a stale id can see at a glance what is actually registered.
fn unknown_query_error(core: &EngineCore, id: usize) -> SaberError {
    let active: Vec<usize> = core.registry.active().iter().map(|s| s.id).collect();
    if active.is_empty() {
        SaberError::Query(format!("unknown query {id} (no queries registered)"))
    } else {
        let ids: Vec<String> = active.iter().map(|i| i.to_string()).collect();
        SaberError::Query(format!(
            "unknown query {id} (live queries: {})",
            ids.join(", ")
        ))
    }
}

/// The error of a registration refused by a stopped engine.
fn stopped_engine_error() -> SaberError {
    SaberError::State("cannot add queries to a stopped engine".into())
}

/// Removes one query loss-free: close its ingest gate, wait out in-flight
/// ingests, flush its plan's pending rows, drain its task backlog, then
/// [`detach`] it from its physical plan. Every row the query acknowledged
/// reaches its sink before the sink closes, whichever member of its plan
/// it is.
fn remove_query_inner(core: &Arc<EngineCore>, id: usize) -> Result<()> {
    let state = core
        .registry
        .get(id)
        .ok_or_else(|| unknown_query_error(core, id))?;
    if !state.gate.close() {
        return Err(SaberError::State(format!(
            "query {id} is already being removed"
        )));
    }
    let deadline = Instant::now() + REMOVE_DRAIN_TIMEOUT;
    // Phase 1 (permit-counter pattern): every ingest that was accepted
    // before the gate closed finishes appending before we flush.
    let mut clean = state.gate.wait_drained(deadline);
    // Serialize the drain + retire with engine stop (see EngineCore).
    let wind_down = core.wind_down.lock();
    // Phase 2 runs whenever the queue still accepts tasks — which, under
    // the wind-down mutex, is stable and implies workers will drain them.
    // That includes a closed engine gate whose stop() call is still parked
    // on the mutex behind us (the gate closes before the critical section):
    // skipping the flush on the gate alone would strand pending rows,
    // because stop's own flush cannot run until after we retire the shard.
    // When the queue has already shut down, stop's flush_all (which covers
    // gate-closed queries precisely for this hand-off) has flushed and
    // drained everything, so there is nothing left to do here. An engine
    // that never started has nothing pending (ingest requires Running).
    if clean && !core.queue.is_shutdown() {
        clean = drain_plan(core, &state.plan, deadline)?;
    }
    // Phase 3: deregister. On the clean path the shard is empty; orphans
    // only exist after a timeout.
    let retired = detach(core, &mut core.sharing.lock(), &state);
    drop(wind_down);
    // Drop the durability metadata — unconditionally, so a removal applied
    // during recovery replay (logging off) cannot leave a ghost entry that
    // the next checkpoint would snapshot as live — and log the removal (the
    // id stays burnt across recovery). Every ingest record of this query
    // precedes the RemoveQuery record: the gate drained the in-flight
    // permits — whose WAL appends happen inside them — in phase 1.
    let mut checkpoint = None;
    if let Some(durability) = &core.durability {
        let mut meta = durability.meta.lock();
        if meta.remove(&id).is_some() && durability.logging() {
            durability
                .store
                .append(&WalRecord::RemoveQuery { id: id as u64 })?;
            checkpoint = retired.is_some().then_some(durability);
        }
    }
    // A retired plan takes its `replay_from` out of the prune horizon —
    // the only event that moves it — so checkpoint now and the plan's
    // history is freed before the removal returns.
    let checkpointed = match checkpoint {
        Some(durability) => checkpoint_engine(durability, core.registry.num_slots()).map(drop),
        None => Ok(()),
    };
    if !clean {
        let orphans = retired.unwrap_or(0);
        return Err(SaberError::State(format!(
            "removal of query {id} timed out after {REMOVE_DRAIN_TIMEOUT:?} \
             with {orphans} orphaned task(s); the query was deregistered anyway \
             (unclean removal)"
        )));
    }
    checkpointed
}

/// Flushes the pending rows of `plan` into a final (undersized) task, then
/// waits until every task cut for the plan so far has passed through the
/// result stage, or `deadline` passes (returning false). `tasks_cut` is
/// committed under the cutter lock, so the flush observes every concurrent
/// cut that could still submit a task. The target is snapshotted *after*
/// the flush: other members of a shared plan keep cutting tasks
/// concurrently, so re-reading `tasks_cut` in the loop might never
/// converge — and everything cut up to the flush is what the caller needs.
/// Removal drains a query's plan this way before detaching it; recovery
/// drains a plan before a replayed member attaches.
fn drain_plan(core: &EngineCore, plan: &SharedPlan, deadline: Instant) -> Result<bool> {
    flush_plan(core, plan)?;
    let target = plan.dispatcher.tasks_cut();
    while plan.results.completed_tasks() < target {
        if Instant::now() >= deadline {
            return Ok(false);
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    Ok(true)
}

/// Detaches `state` from its physical plan and closes its sink — the one
/// deregistration path of every query. Once off the member list the query
/// receives and counts nothing more. The last member to leave takes the
/// plan with it: fingerprint entry, queue shard, scheduler and matrix rows
/// and registry slot. The caller holds the sharing-map lock (`map`): a
/// concurrent attach either joins a plan with live members or builds a
/// fresh one, never a dying plan. Returns `None` while the plan keeps
/// other members; once it retires, the number of tasks orphaned by
/// retiring its queue shard (their flow credits are returned here so
/// admission control stays balanced); a clean drain leaves none.
fn detach(
    core: &EngineCore,
    map: &mut HashMap<PlanFingerprint, Arc<SharedPlan>>,
    state: &QueryState,
) -> Option<usize> {
    let plan = &state.plan;
    let last = plan.detach(state.id);
    core.registry.clear(state.id);
    state.sink.close();
    if !last {
        return None;
    }
    if let Some(fp) = &plan.fingerprint {
        map.remove(fp);
    }
    let orphans = core.queue.retire_query(plan.id);
    for _ in &orphans {
        core.flow.release();
    }
    core.scheduler.forget_query(plan.id);
    core.matrix.forget_query(plan.id);
    core.registry.clear_plan(plan.id);
    Some(orphans.len())
}

/// Handle to one registered query, returned by [`Saber::add_query`] and
/// friends. The handle owns the query's [`QuerySink`] (results are read
/// through it) and is the query's lifecycle anchor: [`QueryHandle::remove`]
/// drains and deregisters the query from a running engine, loss-free.
///
/// Handles are cheap `Arc` clones and may be used from any thread.
///
/// ```
/// use saber_engine::{Saber, StreamId};
/// use saber_query::{Expr, QueryBuilder};
/// use saber_types::{DataType, RowBuffer, Schema, Value};
///
/// let schema = Schema::from_pairs(&[("timestamp", DataType::Timestamp)])
///     .unwrap()
///     .into_ref();
/// let mut engine = Saber::builder().worker_threads(1).build().unwrap();
/// engine.start().unwrap(); // zero queries: they arrive dynamically
///
/// let q = QueryBuilder::new("proj", schema.clone())
///     .count_window(2, 2)
///     .project(vec![(Expr::column(0), "timestamp")])
///     .build()
///     .unwrap();
/// let query = engine.add_query(q).unwrap();
///
/// let mut rows = RowBuffer::new(schema);
/// for i in 0..4 {
///     rows.push_values(&[Value::Timestamp(i)]).unwrap();
/// }
/// query.ingest(StreamId(0), rows.bytes()).unwrap();
///
/// // Loss-free removal: every accepted row is processed first.
/// query.remove().unwrap();
/// assert_eq!(query.tuples_emitted(), 4);
/// assert!(query.is_removed());
/// engine.stop().unwrap();
/// ```
#[derive(Clone)]
pub struct QueryHandle {
    id: QueryId,
    core: Arc<EngineCore>,
    state: Arc<QueryState>,
}

impl QueryHandle {
    /// The query's id (stable for the engine's lifetime, never reused).
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The query's output sink. The sink outlives removal: buffered rows
    /// stay drainable and the counters stay readable after the query is
    /// gone.
    pub fn sink(&self) -> &QuerySink {
        &self.state.sink
    }

    /// The query's statistics block: its own row counters and its plan's
    /// task figures (see [`crate::metrics`]).
    pub fn stats(&self) -> Arc<QueryStats> {
        self.state.stats.clone()
    }

    /// Total tuples emitted by this query (sink delegation).
    pub fn tuples_emitted(&self) -> u64 {
        self.state.sink.tuples_emitted()
    }

    /// Total bytes emitted by this query (sink delegation).
    pub fn bytes_emitted(&self) -> u64 {
        self.state.sink.bytes_emitted()
    }

    /// Takes the buffered output rows (sink delegation).
    pub fn take_rows(&self) -> RowBuffer {
        self.state.sink.take_rows()
    }

    /// Blocks until new result windows are available, the sink is closed,
    /// or `timeout` elapses (sink delegation — see
    /// [`QuerySink::wait_for_window`]).
    pub fn wait_for_window(&self, timeout: Duration) -> WindowWait {
        self.state.sink.wait_for_window(timeout)
    }

    /// Ingests whole rows into input `stream` of this query (the engine
    /// must be running).
    pub fn ingest(&self, stream: StreamId, bytes: &[u8]) -> Result<()> {
        admitted(&self.core, &self.state, || {
            ingest_into(&self.core, &self.state, stream.index(), bytes)
        })
    }

    /// Row size in bytes of input `stream` (recovery uses this to count
    /// replayed rows without decoding batches).
    pub(crate) fn stream_row_size(&self, stream: StreamId) -> Result<usize> {
        Ok(self
            .state
            .plan
            .dispatcher
            .stream(stream.index())
            .ok_or_else(|| {
                SaberError::Query(format!(
                    "query {} has no input stream {}",
                    self.id.index(),
                    stream.index()
                ))
            })?
            .row_size())
    }

    /// A cloneable multi-producer handle for input `stream` of this query
    /// (see [`Saber::ingest_handle`]).
    pub fn ingest_handle(&self, stream: StreamId) -> Result<IngestHandle> {
        if self.state.plan.dispatcher.stream(stream.index()).is_none() {
            return Err(SaberError::Query(format!(
                "query {} has no input stream {}",
                self.id.index(),
                stream.index()
            )));
        }
        Ok(IngestHandle {
            query: self.clone(),
            stream,
        })
    }

    /// Cuts this query's partially filled stream batches into a final
    /// (undersized) task, like [`Saber::flush`] scoped to this query.
    pub fn flush(&self) -> Result<()> {
        admitted(&self.core, &self.state, || {
            let waited = flush_plan(&self.core, &self.state.plan)?;
            self.state.stats.record_backpressure(waited);
            Ok(())
        })
    }

    /// Number of tasks currently queued for this query (the backlog of its
    /// physical shard, for members of a shared plan).
    pub fn queued_tasks(&self) -> usize {
        self.core.queue.depth(self.state.plan.id)
    }

    /// True once the query has been removed (or removal has begun): further
    /// ingests are rejected.
    pub fn is_removed(&self) -> bool {
        !self.state.gate.is_open()
    }

    /// Removes the query from the engine, **loss-free**: new ingests are
    /// rejected immediately, ingests already in flight are waited for,
    /// pending rows are flushed into a final task, and the query's whole
    /// task backlog is drained through the result stage into the sink —
    /// only then is the query deregistered (its task-queue shard retired,
    /// its scheduler counters and throughput-matrix row dropped) and the
    /// sink closed. Every row whose ingest returned `Ok` is reflected in
    /// the sink after this returns.
    ///
    /// Concurrent removals of the same query are single-shot: the second
    /// caller gets a [`SaberError::State`]. Returns an error (with the
    /// query deregistered anyway) if draining timed out.
    pub fn remove(&self) -> Result<()> {
        remove_query_inner(&self.core, self.state.id)
    }
}

/// A cloneable, thread-safe producer handle bound to one input stream of one
/// query (see [`Saber::ingest_handle`]). Appends are lock-free; admission
/// blocks precisely while the task queue is saturated.
///
/// ```
/// use saber_engine::{QueryId, Saber, StreamId};
/// use saber_sql::Catalog;
/// use saber_types::{DataType, RowBuffer, Schema, Value};
///
/// let schema = Schema::from_pairs(&[
///     ("timestamp", DataType::Timestamp),
///     ("value", DataType::Float),
/// ])
/// .unwrap()
/// .into_ref();
/// let catalog = Catalog::new().with_stream("S", schema.clone());
/// let mut engine = Saber::builder().worker_threads(1).build().unwrap();
/// let query = engine
///     .add_query_sql("SELECT * FROM S [ROWS 2] WHERE value >= 0", &catalog)
///     .unwrap();
/// engine.start().unwrap();
///
/// // Handles are cheap to clone and may ingest from many threads at once.
/// let handle = engine.ingest_handle(QueryId(0), StreamId(0)).unwrap();
/// let producers: Vec<_> = (0..2)
///     .map(|p| {
///         let handle = handle.clone();
///         let schema = schema.clone();
///         std::thread::spawn(move || {
///             let mut rows = RowBuffer::new(schema);
///             for i in 0..4i64 {
///                 rows.push_values(&[Value::Timestamp(p * 4 + i), Value::Float(0.5)])
///                     .unwrap();
///             }
///             handle.ingest(rows.bytes()).unwrap();
///         })
///     })
///     .collect();
/// for t in producers {
///     t.join().unwrap();
/// }
/// engine.stop().unwrap();
/// assert_eq!(query.tuples_emitted(), 8);
/// ```
#[derive(Clone)]
pub struct IngestHandle {
    query: QueryHandle,
    stream: StreamId,
}

impl IngestHandle {
    /// The input stream this handle feeds.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The query this handle feeds.
    pub fn query_id(&self) -> QueryId {
        self.query.id
    }

    /// Ingests whole rows into the bound stream.
    ///
    /// Once the engine stops — or the query is removed — the handle is
    /// invalidated: every subsequent call returns a [`SaberError::State`].
    /// A row is either accepted *and* processed, or rejected with an error,
    /// never accepted and dropped.
    pub fn ingest(&self, bytes: &[u8]) -> Result<()> {
        self.query.ingest(self.stream, bytes)
    }

    /// Cuts this query's partially filled stream batches into a final
    /// (undersized) task — like [`Saber::flush`], but scoped to the handle's
    /// query and callable without a reference to the engine (e.g. by a
    /// producer ending a burst). Admission of the cut task blocks on the
    /// credit gate like any other. Invalidated by [`Saber::stop`] and query
    /// removal exactly like [`IngestHandle::ingest`].
    pub fn flush(&self) -> Result<()> {
        self.query.flush()
    }
}

/// The one admission path of every ingest and flush call: runs `op` while
/// holding the engine's permit and then the query's. [`Saber::stop`] and
/// [`QueryHandle::remove`] close their gate and wait the permits out, so
/// every call they admitted finishes before their final flush.
fn admitted<T>(core: &EngineCore, state: &QueryState, op: impl FnOnce() -> Result<T>) -> Result<T> {
    let _engine = core.lifecycle.enter(|gate| {
        SaberError::State(match gate {
            GATE_CREATED => "engine is not running (call start() first)".to_string(),
            _ => "engine is stopped; this ingest handle is no longer valid".to_string(),
        })
    })?;
    let _query = state.gate.enter(|_| {
        SaberError::State(format!(
            "query {} has been removed; this handle is no longer valid",
            state.id
        ))
    })?;
    op()
}

/// Cuts the pending rows of `plan` into a task and admits it, blocking on
/// the credit gate while the queue is saturated. Returns how long it
/// blocked.
fn flush_plan(core: &EngineCore, plan: &SharedPlan) -> Result<Duration> {
    Ok(match plan.dispatcher.flush()? {
        Some(task) => submit_task(core, plan, task),
        None => Duration::ZERO,
    })
}

/// The ingest path of every admitted ingest call:
/// lock-free append + cut, then credit-gated admission of the cut tasks —
/// and, on a durable engine, a group-committed WAL append before the ack.
fn ingest_into(core: &EngineCore, state: &QueryState, stream: usize, bytes: &[u8]) -> Result<()> {
    let dispatcher = &state.plan.dispatcher;
    let stats = &state.stats;
    let row_size = dispatcher
        .stream(stream)
        .ok_or_else(|| SaberError::Query(format!("query has no input stream {stream}")))?
        .row_size();
    // Tasks are admitted as they are cut, so even an ingest far larger than
    // the ring keeps at most `max_queued_tasks` unprocessed tasks alive.
    dispatcher.ingest_with(stream, bytes, &mut |task| {
        stats.record_backpressure(submit_task(core, &state.plan, task));
        Ok(())
    })?;
    // Log the acknowledged batch while the caller's ingest permits are
    // still held: removal and stop wait those permits out before logging
    // `RemoveQuery` / taking their final cut, so a query's ingest records
    // always precede its removal in the WAL. The append is a buffered copy
    // (group commit); an error here means the WAL is poisoned (fail-stop)
    // and the ack correctly turns into an error.
    if let Some(durability) = &core.durability {
        if durability.logging() {
            durability
                .store
                .append_ingest(state.id as u64, stream as u32, bytes)?;
        }
    }
    // relaxed-ok: monitoring counters, read only for stats display.
    stats
        .tuples_in
        .fetch_add((bytes.len() / row_size) as u64, Ordering::Relaxed);
    // relaxed-ok: monitoring counter, read only for stats display.
    stats
        .bytes_in
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// Admits one cut task of `plan` into the queue, blocking on the credit
/// gate while the queue is saturated. Returns how long it blocked.
fn submit_task(core: &EngineCore, plan: &SharedPlan, task: QueryTask) -> Duration {
    let waited = core.flow.acquire();
    admit_task(plan, &core.flow, &core.queue, task);
    waited
}

/// Pushes a cut task of `plan` whose credit the caller already holds.
pub(crate) fn admit_task(
    plan: &SharedPlan,
    flow: &FlowControl,
    queue: &TaskQueue,
    task: QueryTask,
) {
    // relaxed-ok: monitoring counter, read only for stats display.
    plan.stats.tasks_created.fetch_add(1, Ordering::Relaxed);
    if !queue.push(task) {
        // The query's shard was retired while this submission was in flight
        // — possible only when an ingest outlived an unclean (timed-out)
        // removal, which already reported the data loss. Return the credit
        // so admission control stays balanced.
        flow.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulingPolicyKind;
    use saber_gpu::device::DeviceConfig;
    use saber_query::{AggregateFunction, Expr, QueryBuilder};
    use saber_types::{DataType, RowBuffer, Schema, Value};

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
            ("key", DataType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    fn data(n: usize, start: i64) -> Vec<u8> {
        let mut buf = RowBuffer::new(schema());
        for i in 0..n {
            let abs = start + i as i64;
            buf.push_values(&[
                Value::Timestamp(abs),
                Value::Float((abs % 100) as f32 / 100.0),
                Value::Int((abs % 8) as i32),
            ])
            .unwrap();
        }
        buf.into_bytes()
    }

    fn small_engine(mode: ExecutionMode) -> Saber {
        let config = EngineConfig {
            worker_threads: 2,
            query_task_size: 16 * 1024,
            execution_mode: mode,
            scheduling: SchedulingPolicyKind::default(),
            device: DeviceConfig::unpaced(),
            max_queued_tasks: 64,
            durability: None,
        };
        Saber::with_config(config).unwrap()
    }

    fn projection() -> Query {
        QueryBuilder::new("proj", schema())
            .count_window(256, 256)
            .project(vec![(Expr::column(0), "timestamp")])
            .build()
            .unwrap()
    }

    #[test]
    fn selection_query_end_to_end_cpu_only() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        let q = QueryBuilder::new("sel", schema())
            .count_window(1024, 1024)
            .select(Expr::column(1).lt(Expr::literal(0.5)))
            .build()
            .unwrap();
        let query = engine.add_query(q).unwrap();
        engine.start().unwrap();
        let rows = 20_000;
        engine
            .ingest(query.id(), StreamId(0), &data(rows, 0))
            .unwrap();
        engine.stop().unwrap();
        // Exactly half the values are < 0.5 (values cycle 0..99).
        assert_eq!(query.tuples_emitted(), rows as u64 / 2);
        let stats = engine.query_stats(query.id()).unwrap();
        assert!(stats.tasks_cpu.load(Ordering::Relaxed) > 0);
        assert_eq!(stats.tasks_gpu.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn aggregation_query_end_to_end_hybrid() {
        let mut engine = small_engine(ExecutionMode::Hybrid);
        let q = QueryBuilder::new("agg", schema())
            .count_window(512, 512)
            .aggregate(AggregateFunction::Count, 1)
            .group_by(vec![2])
            .build()
            .unwrap();
        let query = engine.add_query(q).unwrap();
        engine.start().unwrap();
        let rows = 16 * 512;
        query.ingest(StreamId(0), &data(rows, 0)).unwrap();
        engine.stop().unwrap();
        // 16 complete windows × 8 groups.
        assert_eq!(query.tuples_emitted(), 16 * 8);
        let out = query.take_rows();
        for t in out.iter() {
            assert_eq!(t.get_i64(2), 64);
        }
    }

    #[test]
    fn results_preserve_task_order_despite_parallel_execution() {
        let mut engine = small_engine(ExecutionMode::Hybrid);
        let query = engine.add_query(projection()).unwrap();
        engine.start().unwrap();
        for chunk in 0..20 {
            engine
                .ingest(query.id(), StreamId(0), &data(2048, chunk * 2048))
                .unwrap();
        }
        engine.stop().unwrap();
        let out = query.take_rows();
        assert_eq!(out.len(), 20 * 2048);
        let mut last = -1i64;
        for t in out.iter() {
            assert!(t.timestamp() > last);
            last = t.timestamp();
        }
    }

    #[test]
    fn lifecycle_errors_are_reported() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let query = engine.add_query(q.clone()).unwrap();
        // Not started yet: ingest is rejected, the registration survives.
        assert!(engine.ingest(query.id(), StreamId(0), &data(1, 0)).is_err());
        engine.start().unwrap();
        assert!(engine.start().is_err());
        // Unknown ids are rejected with the live set listed.
        let err = engine
            .ingest(QueryId(5), StreamId(0), &data(1, 0))
            .unwrap_err();
        assert!(err.to_string().contains("unknown query 5"), "{err}");
        assert!(err.to_string().contains("live queries: 0"), "{err}");
        assert!(engine.ingest_handle(QueryId(5), StreamId(0)).is_err());
        assert!(engine.ingest_handle(QueryId(0), StreamId(3)).is_err());
        engine.stop().unwrap();
        assert!(engine.stop().is_ok());
        // A stopped engine rejects new queries and new data.
        assert!(engine.add_query(q).is_err());
        assert!(engine.ingest(query.id(), StreamId(0), &data(1, 0)).is_err());
        assert!(query.sink().is_closed());
    }

    #[test]
    fn engine_can_start_with_zero_queries_and_accept_them_later() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        engine.start().unwrap();
        assert_eq!(engine.num_queries(), 0);
        let query = engine.add_query(projection()).unwrap();
        assert_eq!(engine.num_queries(), 1);
        assert_eq!(query.id(), QueryId(0));
        query.ingest(StreamId(0), &data(1024, 0)).unwrap();
        engine.stop().unwrap();
        assert_eq!(query.tuples_emitted(), 1024);
    }

    #[test]
    fn queries_added_while_running_process_data_ingested_afterwards() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        let first = engine.add_query(projection()).unwrap();
        engine.start().unwrap();
        // Traffic is already flowing on the first query...
        let handle = engine.ingest_handle(first.id(), StreamId(0)).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producer = {
            let stop = stop.clone();
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    handle.ingest(&data(512, sent as i64)).unwrap();
                    sent += 512;
                }
                sent
            })
        };
        // ...when a second query arrives, mid-flight.
        let second = engine.add_query(projection()).unwrap();
        assert_eq!(second.id(), QueryId(1));
        second.ingest(StreamId(0), &data(2048, 0)).unwrap();
        stop.store(true, Ordering::Relaxed);
        let sent = producer.join().unwrap();
        engine.stop().unwrap();
        assert_eq!(first.tuples_emitted(), sent);
        assert_eq!(second.tuples_emitted(), 2048);
    }

    #[test]
    fn remove_query_drains_loss_free_under_concurrent_ingest() {
        const PRODUCERS: usize = 3;
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        let query = engine.add_query(projection()).unwrap();
        let survivor = engine.add_query(projection()).unwrap();
        engine.start().unwrap();
        let handle = engine.ingest_handle(query.id(), StreamId(0)).unwrap();
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let handle = handle.clone();
            producers.push(std::thread::spawn(move || {
                let mut accepted = 0u64;
                let base = (p as i64) * 1_000_000;
                loop {
                    match handle.ingest(&data(512, base + accepted as i64)) {
                        Ok(()) => accepted += 512,
                        // Removal closed the gate: every previously accepted
                        // row must still reach the sink.
                        Err(SaberError::State(_)) => return accepted,
                        Err(e) => panic!("unexpected ingest error: {e}"),
                    }
                }
            }));
        }
        // Let traffic flow, then remove the query under full concurrency.
        std::thread::sleep(Duration::from_millis(50));
        query.remove().unwrap();
        let accepted: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        // Loss-freeness: every accepted row is in the sink, none were
        // dropped mid-removal. (A projection emits one row per input row.)
        assert_eq!(query.tuples_emitted(), accepted);
        assert!(query.is_removed());
        assert!(query.sink().is_closed());
        assert_eq!(engine.num_queries(), 1);
        assert_eq!(engine.registered_queries(), 2);
        assert_eq!(engine.query_ids(), vec![survivor.id()]);
        // The removed id is not resurrected; stats stay readable.
        assert!(engine.sink(query.id()).is_none());
        assert!(engine.query_stats(query.id()).is_some());
        // The survivor keeps working after its neighbour is gone.
        survivor.ingest(StreamId(0), &data(1024, 0)).unwrap();
        engine.stop().unwrap();
        assert_eq!(survivor.tuples_emitted(), 1024);
    }

    #[test]
    fn removed_queries_reject_everything_and_removal_is_single_shot() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        let query = engine.add_query(projection()).unwrap();
        engine.start().unwrap();
        let handle = engine.ingest_handle(query.id(), StreamId(0)).unwrap();
        query.ingest(StreamId(0), &data(8, 0)).unwrap();
        query.remove().unwrap();
        // Sub-task-size rows were flushed by the removal: nothing was lost.
        assert_eq!(query.tuples_emitted(), 8);
        // The id is gone everywhere.
        let err = engine
            .ingest(query.id(), StreamId(0), &data(1, 0))
            .unwrap_err();
        assert!(err.to_string().contains("no queries registered"), "{err}");
        assert!(handle.ingest(&data(1, 0)).is_err());
        assert!(handle.flush().is_err());
        assert!(query.flush().is_err());
        assert!(engine.query(query.id()).is_none());
        // Second removal (by handle or id) reports the state cleanly.
        assert!(query.remove().is_err());
        assert!(engine.remove_query(query.id()).is_err());
        // New registrations get a fresh id; the old one is never reused.
        let next = engine.add_query(projection()).unwrap();
        assert_eq!(next.id(), QueryId(1));
        engine.stop().unwrap();
    }

    #[test]
    fn concurrent_remove_and_stop_never_strand_pending_rows() {
        // Sub-task-size rows pend in the ring until *someone* flushes them;
        // whichever of remove()/stop() runs its wind-down first must hand
        // the flush off to the other — racing them repeatedly would lose
        // rows if either side skipped it.
        for round in 0..20 {
            let mut engine = small_engine(ExecutionMode::CpuOnly);
            let query = engine.add_query(projection()).unwrap();
            engine.start().unwrap();
            query.ingest(StreamId(0), &data(64, round)).unwrap();
            let remover = {
                let query = query.clone();
                std::thread::spawn(move || query.remove())
            };
            let _ = engine.stop();
            let _ = remover.join().unwrap();
            assert_eq!(
                query.tuples_emitted(),
                64,
                "round {round}: accepted rows stranded by the remove/stop race"
            );
            assert!(query.sink().is_closed());
        }
    }

    #[test]
    fn wait_for_window_blocks_until_results_arrive() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        let query = engine.add_query(projection()).unwrap();
        engine.start().unwrap();
        assert_eq!(
            query.wait_for_window(Duration::from_millis(10)),
            WindowWait::TimedOut
        );
        let waiter = {
            let query = query.clone();
            std::thread::spawn(move || query.wait_for_window(Duration::from_secs(10)))
        };
        engine
            .ingest(query.id(), StreamId(0), &data(4096, 0))
            .unwrap();
        assert_eq!(waiter.join().unwrap(), WindowWait::Ready);
        engine.stop().unwrap();
        // After the final windows are drained, the closed sink reports it.
        let _ = query.take_rows();
        assert_eq!(query.wait_for_window(Duration::ZERO), WindowWait::Closed);
    }

    #[test]
    fn gpu_only_mode_runs_all_tasks_on_the_device() {
        let mut engine = small_engine(ExecutionMode::GpuOnly);
        let q = QueryBuilder::new("sel", schema())
            .count_window(256, 256)
            .select(Expr::column(2).eq(Expr::literal(1.0)))
            .build()
            .unwrap();
        let query = engine.add_query(q).unwrap();
        engine.start().unwrap();
        engine
            .ingest(query.id(), StreamId(0), &data(8192, 0))
            .unwrap();
        engine.stop().unwrap();
        assert_eq!(query.tuples_emitted(), 1024);
        let stats = engine.query_stats(query.id()).unwrap();
        assert_eq!(stats.tasks_cpu.load(Ordering::Relaxed), 0);
        assert!(stats.tasks_gpu.load(Ordering::Relaxed) > 0);
        assert!(engine.device().stats().tasks_executed() > 0);
    }

    #[test]
    fn ingest_handles_feed_the_engine_from_many_threads() {
        const PRODUCERS: usize = 4;
        const ROWS_PER_PRODUCER: usize = 8 * 1024;
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        let query = engine.add_query_with_options(projection(), false).unwrap();
        engine.start().unwrap();
        let handle = engine.ingest_handle(query.id(), StreamId(0)).unwrap();
        assert_eq!(handle.query_id(), QueryId(0));
        assert_eq!(handle.stream(), StreamId(0));
        let mut threads = Vec::new();
        for p in 0..PRODUCERS {
            let handle = handle.clone();
            threads.push(std::thread::spawn(move || {
                let base = (p * ROWS_PER_PRODUCER) as i64;
                for chunk in 0..(ROWS_PER_PRODUCER / 1024) {
                    handle
                        .ingest(&data(1024, base + chunk as i64 * 1024))
                        .unwrap();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        engine.stop().unwrap();
        // A projection emits exactly one tuple per ingested row: none were
        // lost or duplicated across the concurrent producers.
        assert_eq!(
            query.tuples_emitted(),
            (PRODUCERS * ROWS_PER_PRODUCER) as u64
        );
        let stats = engine.query_stats(query.id()).unwrap();
        assert_eq!(
            stats.tuples_in.load(Ordering::Relaxed),
            (PRODUCERS * ROWS_PER_PRODUCER) as u64
        );
        // Stopped handles refuse further data.
        assert!(handle.ingest(&data(1, 0)).is_err());
    }

    #[test]
    fn handle_flush_makes_partial_batches_visible() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        let q = QueryBuilder::new("proj", schema())
            .count_window(4, 4)
            .project(vec![(Expr::column(0), "timestamp")])
            .build()
            .unwrap();
        let query = engine.add_query(q).unwrap();
        engine.start().unwrap();
        let handle = query.ingest_handle(StreamId(0)).unwrap();
        // Far less than a task's worth of data: the flush cuts it now
        // (whether or not an idle worker already took some of it), so once
        // the engine has drained every row is out.
        handle.ingest(&data(8, 0)).unwrap();
        handle.flush().unwrap();
        assert!(engine.drain(Duration::from_secs(10)));
        assert_eq!(query.tuples_emitted(), 8);
        engine.stop().unwrap();
        // Stopped engines invalidate flush exactly like ingest.
        assert!(handle.flush().is_err());
    }

    #[test]
    fn placement_reports_the_pinned_processor_and_the_realized_share() {
        for (mode, pinned, other) in [
            (ExecutionMode::CpuOnly, Processor::Cpu, Processor::Gpu),
            (ExecutionMode::GpuOnly, Processor::Gpu, Processor::Cpu),
        ] {
            let mut engine = small_engine(mode);
            let query = engine.add_query(projection()).unwrap();
            assert!(engine.placement(QueryId(query.id().0 + 1)).is_none());
            engine.start().unwrap();
            query.ingest(StreamId(0), &data(4096, 0)).unwrap();
            query.flush().unwrap();
            assert!(engine.drain(Duration::from_secs(10)));
            let d = engine.placement(query.id()).unwrap();
            assert_eq!(d.query, query.id());
            assert_eq!(d.preferred, pinned, "{mode:?}");
            let share = if pinned == Processor::Gpu { 1.0 } else { 0.0 };
            assert_eq!(d.gpu_task_share, share, "{mode:?}");
            let samples = |p| match p {
                Processor::Cpu => d.cpu_samples,
                Processor::Gpu => d.gpu_samples,
            };
            assert!(samples(pinned) > 0, "{mode:?}");
            assert_eq!(samples(other), 0, "{mode:?}");
            engine.stop().unwrap();
        }
    }

    #[test]
    fn idle_worker_cuts_aged_rows_without_a_flush() {
        // Default φ (1 MB) and 8 rows: no producer will ever fill the task,
        // and nobody flushes. The idle worker must cut it on its own.
        let mut engine = Saber::with_config(EngineConfig {
            worker_threads: 1,
            execution_mode: ExecutionMode::CpuOnly,
            ..EngineConfig::default()
        })
        .unwrap();
        let q = QueryBuilder::new("proj", schema())
            .count_window(4, 4)
            .project(vec![(Expr::column(0), "timestamp")])
            .build()
            .unwrap();
        let query = engine.add_query(q).unwrap();
        engine.start().unwrap();
        query.ingest(StreamId(0), &data(8, 0)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while query.tuples_emitted() < 8 {
            let left = deadline.saturating_duration_since(Instant::now());
            assert_eq!(query.wait_for_window(left), WindowWait::Ready);
            let _ = query.take_rows();
        }
        assert_eq!(query.tuples_emitted(), 8);
        let stats = query.stats().snapshot();
        assert!(stats.tasks_cut_early >= 1);
        assert_eq!(stats.tasks_cut_early, stats.tasks_created);
        engine.stop().unwrap();
    }

    #[test]
    fn failed_tasks_are_counted_and_still_finish() {
        // A device smaller than one task refuses every `movein`.
        let mut engine = Saber::with_config(EngineConfig {
            execution_mode: ExecutionMode::GpuOnly,
            device: DeviceConfig {
                global_memory_bytes: 64,
                ..DeviceConfig::unpaced()
            },
            ..EngineConfig::default()
        })
        .unwrap();
        let query = engine.add_query(projection()).unwrap();
        engine.start().unwrap();
        for batch in 0..3 {
            query.ingest(StreamId(0), &data(8, batch * 8)).unwrap();
            query.flush().unwrap();
        }
        engine.stop().unwrap();
        let stats = query.stats().snapshot();
        assert!(stats.tasks_created >= 3);
        assert_eq!(stats.exec_errors, stats.tasks_created);
        assert_eq!(stats.tasks_gpu, stats.tasks_created);
        assert_eq!(query.tuples_emitted(), 0);
    }

    #[test]
    fn a_backlogged_plan_is_cut_at_the_task_size_only() {
        // Saturation: one worker that the test lets finish one task at a
        // time, and only while another task is queued behind it — so every
        // time the worker looks for work its shard is non-empty. Pending
        // sub-φ rows age well past τ meanwhile; none may be cut early.
        const TASK: usize = 16 * 1024;
        const ROWS_PER_TASK: usize = TASK / 16;
        let mut engine = Saber::with_config(EngineConfig {
            worker_threads: 1,
            query_task_size: TASK,
            execution_mode: ExecutionMode::CpuOnly,
            max_queued_tasks: 4,
            ..EngineConfig::default()
        })
        .unwrap();
        let query = engine.add_query_with_options(projection(), false).unwrap();
        // The "slow query": the worker blocks in the sink callback until
        // the test hands it a permit.
        let (entered_tx, entered) = std::sync::mpsc::channel::<()>();
        let (permit, permits) = std::sync::mpsc::channel::<()>();
        let permits = Mutex::new(permits);
        query.sink().subscribe(move |_| {
            let _ = entered_tx.send(());
            let _ = permits.lock().recv();
        });
        engine.start().unwrap();
        // Two full tasks, each cut at φ by its own ingest call with nothing
        // left pending. The worker takes the first and blocks.
        for _ in 0..2 {
            query.ingest(StreamId(0), &data(ROWS_PER_TASK, 0)).unwrap();
        }
        let producer = {
            let handle = query.ingest_handle(StreamId(0)).unwrap();
            std::thread::spawn(move || {
                let batch = data(ROWS_PER_TASK / 4, 0);
                let mut sent = 0;
                loop {
                    match handle.ingest(&batch) {
                        Ok(()) => sent += ROWS_PER_TASK / 4,
                        Err(_) => return sent,
                    }
                }
            })
        };
        let long = Duration::from_secs(30);
        let mut released = 0u64;
        while released < 12 {
            entered.recv_timeout(long).unwrap();
            // Release the worker only with a task queued behind the one it
            // holds, and only after the pending rows have aged.
            let deadline = Instant::now() + long;
            while query.queued_tasks() == 0 {
                assert!(
                    Instant::now() < deadline,
                    "producer never refilled the queue"
                );
                std::thread::yield_now();
            }
            std::thread::sleep(2 * crate::dispatcher::EARLY_CUT_AGE);
            permit.send(()).unwrap();
            released += 1;
        }
        entered.recv_timeout(long).unwrap();
        let stats = query.stats().snapshot();
        assert_eq!(stats.tasks_cut_early, 0);
        // Every released task was a full φ: batches are φ/4 and a cut takes
        // whatever is pending once that reaches φ.
        assert_eq!(
            query.tuples_emitted(),
            (released + 1) * ROWS_PER_TASK as u64
        );
        let (waits, _) = engine.backpressure_stats();
        assert!(waits > 0, "the producer should have hit the credit gate");
        // A closed permit channel turns the callback into a pass-through;
        // stop() then rejects the producer and drains what it was given.
        drop(permit);
        engine.stop().unwrap();
        let sent = producer.join().unwrap();
        assert_eq!(
            query.tuples_emitted(),
            (2 * ROWS_PER_TASK + sent) as u64,
            "every accepted row is processed"
        );
    }

    fn sql_catalog() -> saber_sql::Catalog {
        saber_sql::Catalog::new().with_stream("S", schema())
    }

    #[test]
    fn fingerprint_identical_sql_queries_share_one_physical_plan() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        engine.start().unwrap();
        let catalog = sql_catalog();
        let sql = "SELECT timestamp, key FROM S [ROWS 256]";
        let a = engine.add_query_sql(sql, &catalog).unwrap();
        // Attribute renaming and whitespace do not defeat sharing; the
        // fingerprint is canonical.
        let b = engine
            .add_query_sql(
                "SELECT  timestamp AS t, key AS k FROM S [ROWS 256]",
                &catalog,
            )
            .unwrap();
        // A different window shape is a different physical plan.
        let c = engine
            .add_query_sql("SELECT timestamp, key FROM S [ROWS 128]", &catalog)
            .unwrap();
        assert_eq!(engine.num_queries(), 3);
        assert_eq!(engine.num_physical_plans(), 2);
        assert_eq!(engine.sharing_info(a.id()), Some((a.id(), 2)));
        assert_eq!(engine.sharing_info(b.id()), Some((a.id(), 2)));
        assert_eq!(engine.sharing_info(c.id()), Some((c.id(), 1)));
        // Ingest through ONE member: every member sees the full stream.
        a.ingest(StreamId(0), &data(4096, 0)).unwrap();
        engine.stop().unwrap();
        assert_eq!(a.tuples_emitted(), 4096);
        assert_eq!(b.tuples_emitted(), 4096);
        assert_eq!(c.tuples_emitted(), 0);
        assert_eq!(a.take_rows().into_bytes(), b.take_rows().into_bytes());
    }

    #[test]
    fn programmatic_queries_without_sources_never_share() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        engine.start().unwrap();
        let a = engine.add_query(projection()).unwrap();
        let b = engine.add_query(projection()).unwrap();
        assert_eq!(engine.num_physical_plans(), 2);
        assert!(engine.sharing_info(a.id()).is_none());
        assert!(engine.sharing_info(b.id()).is_none());
        // Mirrored ingest stays per-query.
        a.ingest(StreamId(0), &data(512, 0)).unwrap();
        engine.stop().unwrap();
        assert_eq!(a.tuples_emitted(), 512);
        assert_eq!(b.tuples_emitted(), 0);
    }

    #[test]
    fn a_detached_member_leaves_the_other_streaming() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        engine.start().unwrap();
        let catalog = sql_catalog();
        let sql = "SELECT timestamp FROM S [ROWS 64]";
        let first = engine.add_query_sql(sql, &catalog).unwrap();
        let second = engine.add_query_sql(sql, &catalog).unwrap();
        first.ingest(StreamId(0), &data(256, 0)).unwrap();
        second.remove().unwrap();
        // Loss-freeness: everything acknowledged before the detach reached
        // the removed member's sink too.
        assert_eq!(second.tuples_emitted(), 256);
        assert!(second.sink().is_closed());
        assert_eq!(engine.num_physical_plans(), 1);
        assert_eq!(engine.sharing_info(first.id()), Some((first.id(), 1)));
        // The first member keeps running after the second is gone.
        first.ingest(StreamId(0), &data(256, 256)).unwrap();
        engine.stop().unwrap();
        assert_eq!(first.tuples_emitted(), 512);
        assert_eq!(second.tuples_emitted(), 256);
    }

    #[test]
    fn removing_the_first_member_keeps_the_plan_running_for_the_rest() {
        let mut engine = small_engine(ExecutionMode::CpuOnly);
        engine.start().unwrap();
        let catalog = sql_catalog();
        let sql = "SELECT timestamp FROM S [ROWS 64]";
        let first = engine.add_query_sql(sql, &catalog).unwrap();
        let survivor = engine.add_query_sql(sql, &catalog).unwrap();
        first.ingest(StreamId(0), &data(128, 0)).unwrap();
        first.remove().unwrap();
        // The first member is logically gone...
        assert!(first.sink().is_closed());
        assert!(first.is_removed());
        assert!(engine.query(first.id()).is_none());
        assert_eq!(engine.query_ids(), vec![survivor.id()]);
        assert_eq!(engine.num_queries(), 1);
        // ...but the physical plan lives on, and the survivor still streams.
        assert_eq!(engine.num_physical_plans(), 1);
        survivor.ingest(StreamId(0), &data(128, 128)).unwrap();
        survivor.flush().unwrap();
        assert!(engine.drain(Duration::from_secs(30)));
        // A removed member receives and counts nothing more.
        assert_eq!(first.tuples_emitted(), 128);
        assert_eq!(
            engine
                .query_stats(first.id())
                .unwrap()
                .tuples_out
                .load(Ordering::Relaxed),
            128
        );
        assert_eq!(survivor.tuples_emitted(), 256);
        for id in engine.query_ids() {
            let sink = engine.sink(id).unwrap();
            let stats = engine.query_stats(id).unwrap();
            assert_eq!(
                stats.tuples_out.load(Ordering::Relaxed),
                sink.tuples_emitted()
            );
        }
        // The plan's task figures are the survivor's to report, and every
        // member, removed or not, reads the same ones.
        let plan = survivor.stats().snapshot();
        assert!(plan.tasks_cpu > 0);
        assert!(plan.latency_samples > 0);
        let removed = engine.query_stats(first.id()).unwrap().snapshot();
        assert_eq!(removed.tasks_cpu, plan.tasks_cpu);
        assert_eq!(removed.latency_samples, plan.latency_samples);
        // The last detach retires the physical shard for good.
        survivor.remove().unwrap();
        assert_eq!(survivor.tuples_emitted(), 256);
        assert_eq!(engine.num_queries(), 0);
        assert_eq!(engine.num_physical_plans(), 0);
        // The first member's pre-removal windows stayed drainable.
        assert_eq!(first.take_rows().len(), 128);
        // A fresh registration of the same shape starts a new plan.
        let fresh = engine.add_query_sql(sql, &catalog).unwrap();
        assert_eq!(engine.sharing_info(fresh.id()), Some((fresh.id(), 1)));
        assert_eq!(engine.num_physical_plans(), 1);
        assert_eq!(fresh.stats().snapshot().tasks_created, 0);
        engine.stop().unwrap();
    }

    #[test]
    fn idle_worker_cuts_a_plan_whose_first_member_left() {
        // Default φ and one worker, as in the single-query early-cut test,
        // but the rows arrive through the plan's second member after the
        // first one was removed. Its open gate keeps the plan cuttable.
        let mut engine = Saber::with_config(EngineConfig {
            worker_threads: 1,
            execution_mode: ExecutionMode::CpuOnly,
            ..EngineConfig::default()
        })
        .unwrap();
        engine.start().unwrap();
        let catalog = sql_catalog();
        let sql = "SELECT timestamp FROM S [ROWS 4]";
        let first = engine.add_query_sql(sql, &catalog).unwrap();
        let survivor = engine.add_query_sql(sql, &catalog).unwrap();
        first.remove().unwrap();
        survivor.ingest(StreamId(0), &data(8, 0)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while survivor.tuples_emitted() < 8 {
            let left = deadline.saturating_duration_since(Instant::now());
            assert_eq!(survivor.wait_for_window(left), WindowWait::Ready);
            let _ = survivor.take_rows();
        }
        assert_eq!(survivor.tuples_emitted(), 8);
        let plan = survivor.stats().snapshot();
        assert!(plan.tasks_cut_early >= 1);
        engine.stop().unwrap();
    }

    #[test]
    fn backpressure_blocks_instead_of_polling_and_is_observable() {
        // One worker, held in the sink callback until the test releases it,
        // and a tiny credit gate: the producer must block.
        let config = EngineConfig {
            worker_threads: 1,
            query_task_size: 4 * 1024,
            execution_mode: ExecutionMode::CpuOnly,
            scheduling: SchedulingPolicyKind::default(),
            device: DeviceConfig::unpaced(),
            max_queued_tasks: 2,
            durability: None,
        };
        let mut engine = Saber::with_config(config).unwrap();
        let q = QueryBuilder::new("agg", schema())
            .count_window(1024, 64)
            .aggregate(AggregateFunction::Sum, 1)
            .build()
            .unwrap();
        let query = engine.add_query_with_options(q, false).unwrap();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let released = Mutex::new(released);
        query.sink().subscribe(move |_| {
            // Blocks until the test drops `release`, then passes through.
            let _ = released.lock().recv();
        });
        engine.start().unwrap();
        let producer = {
            let handle = query.ingest_handle(StreamId(0)).unwrap();
            std::thread::spawn(move || {
                for chunk in 0..64 {
                    handle.ingest(&data(4096, chunk * 4096)).unwrap();
                }
            })
        };
        // The worker holds its task and credit; the producer fills the
        // queue and then blocks, which `backpressure_stats` shows at once.
        let deadline = Instant::now() + Duration::from_secs(30);
        while engine.backpressure_stats().0 == 0 {
            assert!(Instant::now() < deadline, "the producer never blocked");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(release);
        producer.join().unwrap();
        engine.stop().unwrap();
        assert_eq!(engine.in_flight_tasks(), 0);
        assert!(engine.max_queued_tasks_observed() <= 2);
        let (waits, waited) = engine.backpressure_stats();
        assert!(waits > 0, "expected producers to block on the credit gate");
        assert!(waited > Duration::ZERO);
        let stats = engine.query_stats(query.id()).unwrap();
        assert!(stats.backpressure_wait() > Duration::ZERO);
    }
}
