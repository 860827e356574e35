//! The [`EventServer`] facade.
//!
//! Composition (the tutorial's architecture, one field per component):
//! a storage engine with journal and triggers, queue staging areas, a
//! pub/sub broker with predicate subscriptions, a continuous-query
//! runtime, per-stream alert rules (indexed matcher), grouped deviation
//! detectors, a VIRT-filtered notification center, access control with a
//! durable audit trail, and metrics.
//!
//! Dataflow per [`EventServer::pump`]:
//!
//! ```text
//! tables --(trigger|journal|query-poll)--> change events
//!    --> stream runtime --> continuous queries --> query subscribers
//!    --> alert rules    --> notifications (VIRT filter)
//!    --> detectors      --> deviations --> notifications
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use evdb_analytics::detector::UpdatePolicy;
use evdb_analytics::{DeviationDetector, ExpectationModel};
use evdb_cq::aggregate::AggMode;
use evdb_cq::delta::{change_schema, change_to_event};
use evdb_cq::runtime::Subscriber;
use evdb_cq::StreamRuntime;
use evdb_queue::{Delivery, QueueConfig, QueueManager};
use evdb_rules::{Broker, IndexedMatcher, MatchScratch, Matcher, Rule};
use evdb_storage::{
    ChangeEvent, Database, DbOptions, JournalMiner, QuerySnapshot, TriggerOps, TriggerTiming,
};
use evdb_expr::{CompiledExpr, Expr};
use evdb_obs::{Gauge, Registry};
use evdb_types::{
    Clock, Error, Event, EventId, IdGenerator, Record, Result, Schema, Stage, SystemClock,
    TimestampMs, Value,
};
use parking_lot::{Mutex, RwLock};

use crate::admission::{AdmissionControl, OverloadPolicy, Staged};
use crate::history::{History, HistoryConfig, HistorySlot};
use crate::metrics::{Metrics, StageBatch, StageObs};
use crate::notify::{Notification, NotificationCenter, NotificationHandler, VirtPolicy};
use crate::security::{AccessControl, Principal, Privilege};

/// How a table's changes are captured into a stream (§2.2.a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMechanism {
    /// Synchronous row trigger: lowest latency, taxes the write path,
    /// and (like real AFTER triggers) observes pre-commit changes.
    Trigger,
    /// Asynchronous journal mining: off the commit path, sees only
    /// committed transactions, batched by pump cadence.
    Journal,
    /// Periodic query-snapshot diffing with the given poll interval:
    /// cheapest for slow-moving data, lossy between polls.
    QueryPoll {
        /// Poll interval in milliseconds.
        interval_ms: i64,
    },
}

enum CaptureKind {
    Trigger,
    Journal(JournalMiner),
    Snapshot {
        snapshot: QuerySnapshot,
        interval_ms: i64,
        last_poll: Option<TimestampMs>,
    },
}

struct CaptureTask {
    stream: String,
    table: String,
    schema: Arc<Schema>,
    kind: CaptureKind,
}

struct AlertRules {
    matcher: IndexedMatcher,
    meta: HashMap<u64, AlertMeta>,
    next_id: u64,
}

struct AlertMeta {
    name: String,
    severity: f64,
    key_field: Option<usize>,
}

struct DetectorGroup {
    name: String,
    field: usize,
    key_field: Option<usize>,
    /// Optional WHEN predicate gating which events the detector observes,
    /// compiled to bytecode at registration time (D11).
    condition: Option<CompiledExpr>,
    factory: Box<dyn Fn() -> DeviationDetector + Send>,
    instances: HashMap<String, DeviationDetector>,
}

/// Events per evaluate-then-deliver step of the sequential pump. An
/// event's notifications wait for the rest of its chunk, so a small chunk
/// caps that wait at a few events' evaluation while the chunk still
/// shares one rule-match and one continuous-query pass. On the rules_10k
/// benchmark workload (2-core VM), against per-event delivery, a chunk
/// of 256 added about 18 % to lat_p99_ms; 4 adds about 7 % at unchanged
/// goodput.
const PUMP_CHUNK: usize = 4;

/// Reusable buffers for [`EventServer::evaluate_events`]: the batch-VM
/// scratch plus the per-batch staging vectors. Hold one per evaluating
/// thread (each shard worker owns one, the sequential pump one per
/// drain); buffers size themselves to the batch on first use and are
/// reused afterwards (D15).
#[derive(Default)]
pub struct EvalScratch {
    /// Expression-VM batch scratch (continuous-query head filters).
    expr: evdb_expr::BatchScratch,
    /// Indexed-matcher batch scratch (alert-rule verification).
    rules: MatchScratch,
    /// Per-event continuous-query results.
    cq: Vec<Result<Vec<Event>>>,
    /// Events whose evaluation already errored (skipped downstream).
    failed: Vec<bool>,
    /// Per-event alert-rule hits, re-scattered from the per-stream runs.
    hits: Vec<Option<Result<Vec<u64>>>>,
    /// Distinct sources with registered rules, in first-seen order.
    sources: Vec<Arc<str>>,
    /// Event indices of the stream currently being matched.
    idxs: Vec<u32>,
    /// Per-record outputs of one `match_batch` run.
    rule_out: Vec<Result<Vec<u64>>>,
    /// One event's staged notifications (committed only on success).
    event_notes: Vec<Notification>,
    /// The last error of the most recent `evaluate_events` call (what
    /// `evaluate_event` returns).
    error: Option<Error>,
}

/// Statistics returned by one [`EventServer::pump`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Change events captured this pump.
    pub captured: u64,
    /// Derived events produced by continuous queries.
    pub derived: u64,
    /// Notifications delivered (post-VIRT).
    pub notified: u64,
    /// Events whose evaluation errored, plus capture polls and history
    /// merges that failed. Each is counted and skipped; the rest of the
    /// cycle still runs.
    pub errors: u64,
}

/// Configuration for an [`EventServer`].
pub struct ServerConfig {
    /// VIRT notification policy.
    pub virt: VirtPolicy,
    /// Aggregation execution mode for CQL queries.
    pub agg_mode: AggMode,
    /// Allowed event-time out-of-orderness for windows (ms).
    pub lateness_ms: i64,
    /// Engine clock.
    pub clock: Arc<dyn Clock>,
    /// Unified metrics registry shared by every layer (storage, queues,
    /// rules, CQ, stages). Enabled by default; swap in
    /// `Registry::disabled()` to compile the pipeline's instrumentation
    /// down to no-ops (experiment E13 bounds the difference).
    pub registry: Arc<Registry>,
    /// Capacity bound for the staged ingest buffer shared by trigger
    /// captures and [`EventServer::ingest_async`]. The default is large
    /// enough that well-provisioned workloads never notice it, but it is
    /// a real bound: memory stops growing here under overload.
    pub ingest_capacity: usize,
    /// What happens to producers when the staged buffer is full
    /// (DESIGN.md D10). Default: [`OverloadPolicy::Block`].
    pub overload: OverloadPolicy,
    /// Capacity of the replay-dedup window keyed by (stream, event id):
    /// duplicate deliveries — a re-mined WAL prefix after recovery, an
    /// at-least-once capture adapter retrying — are dropped and counted
    /// instead of double-counting in windows (DESIGN.md D12). `0`
    /// disables dedup.
    pub dedup_capacity: usize,
}

/// Default [`ServerConfig::ingest_capacity`]: 2^20 staged events.
pub const DEFAULT_INGEST_CAPACITY: usize = 1 << 20;

/// Default [`ServerConfig::dedup_capacity`]: 2^16 recently-seen ids.
pub const DEFAULT_DEDUP_CAPACITY: usize = 1 << 16;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            virt: VirtPolicy::default(),
            agg_mode: AggMode::Incremental,
            lateness_ms: 0,
            clock: Arc::new(SystemClock),
            registry: Arc::new(Registry::new()),
            ingest_capacity: DEFAULT_INGEST_CAPACITY,
            overload: OverloadPolicy::default(),
            dedup_capacity: DEFAULT_DEDUP_CAPACITY,
        }
    }
}

/// The event-processing server.
///
/// # Example
///
/// ```
/// use evdb_core::server::ServerConfig;
/// use evdb_core::{CaptureMechanism, EventServer};
/// use evdb_types::{DataType, Record, Schema, Value};
///
/// let server = EventServer::in_memory(ServerConfig::default()).unwrap();
/// server.db().create_table(
///     "orders",
///     Schema::of(&[("oid", DataType::Int), ("amount", DataType::Float)]),
///     "oid",
/// ).unwrap();
///
/// let stream = server.capture_table("orders", CaptureMechanism::Trigger).unwrap();
/// server.add_alert_rule("large", &stream, "amount > 1000", 2.0, None).unwrap();
///
/// server.db().insert("orders",
///     Record::from_iter([Value::Int(1), Value::Float(5_000.0)])).unwrap();
/// let stats = server.pump().unwrap();
/// assert_eq!((stats.captured, stats.notified), (1, 1));
/// ```
pub struct EventServer {
    db: Arc<Database>,
    queues: Arc<QueueManager>,
    broker: Broker,
    runtime: Arc<StreamRuntime>,
    notifications: Arc<NotificationCenter>,
    access: AccessControl,
    metrics: Arc<Metrics>,
    registry: Arc<Registry>,
    stage_obs: StageObs,
    /// Committed LSNs not yet mined by journal capture (refreshed each
    /// pump while a journal capture is registered).
    journal_lag: Arc<Gauge>,
    agg_mode: AggMode,
    captures: Mutex<Vec<CaptureTask>>,
    /// The bounded staging buffer shared by trigger captures and
    /// [`EventServer::ingest_async`]; drained by the pump in arrival
    /// order (DESIGN.md D10).
    admission: Arc<AdmissionControl>,
    /// Per-stream shed priority for [`OverloadPolicy::ShedLowest`]
    /// (default 0). Shared with trigger closures, hence the `Arc`.
    ingest_priorities: Arc<RwLock<HashMap<String, i64>>>,
    /// Read-mostly: rule registration is rare, matching is per-batch and
    /// concurrent under the sharded pump ([`IndexedMatcher::match_batch`]
    /// takes `&self`).
    alert_rules: RwLock<HashMap<String, AlertRules>>,
    /// Each detector group has its own lock so sharded workers touching
    /// different groups (or different streams) never contend; the outer
    /// map is read-mostly like `alert_rules`.
    detectors: RwLock<HashMap<String, Vec<Mutex<DetectorGroup>>>>,
    /// Per-stream partition field for sharded routing (see `shard.rs`).
    partition_fields: RwLock<HashMap<String, usize>>,
    /// Historical event store (DESIGN.md D14); empty until
    /// [`EventServer::enable_history`]. `Arc` because the metric bridge
    /// reads it from gauge closures.
    history: Arc<HistorySlot>,
    ids: IdGenerator,
}

impl EventServer {
    /// Ephemeral server (in-memory journal).
    pub fn in_memory(config: ServerConfig) -> Result<EventServer> {
        let db = Database::in_memory(DbOptions {
            clock: Arc::clone(&config.clock),
            registry: Arc::clone(&config.registry),
            ..Default::default()
        })?;
        Self::from_db(db, config)
    }

    /// Durable server on a directory (runs recovery).
    pub fn open(dir: impl AsRef<Path>, config: ServerConfig) -> Result<EventServer> {
        let db = Database::open(
            dir,
            DbOptions {
                clock: Arc::clone(&config.clock),
                registry: Arc::clone(&config.registry),
                ..Default::default()
            },
        )?;
        Self::from_db(db, config)
    }

    fn from_db(db: Arc<Database>, config: ServerConfig) -> Result<EventServer> {
        let queues = Arc::new(QueueManager::attach(Arc::clone(&db))?);
        let access = AccessControl::attach(Arc::clone(&db))?;
        let registry = config.registry;
        let stage_obs = StageObs::bind(&registry);
        let journal_lag = registry.gauge("evdb_storage_journal_lag");
        let mut rt = StreamRuntime::new(config.lateness_ms);
        rt.bind_obs(&registry);
        if config.dedup_capacity > 0 {
            rt.enable_dedup(config.dedup_capacity);
        }
        let runtime = Arc::new(rt);
        let metrics = Arc::new(Metrics::default());
        let notifications = Arc::new(NotificationCenter::new(
            config.virt,
            Arc::clone(&config.clock),
        ));
        let admission = Arc::new(AdmissionControl::new(
            config.ingest_capacity,
            config.overload,
        ));
        let history = Arc::new(HistorySlot::default());
        if registry.is_enabled() {
            Self::bridge_gauges(
                &registry,
                &metrics,
                &notifications,
                &runtime,
                &admission,
                &history,
            );
        }
        Ok(EventServer {
            queues,
            broker: Broker::new(),
            runtime,
            notifications,
            access,
            metrics,
            registry,
            stage_obs,
            journal_lag,
            agg_mode: config.agg_mode,
            captures: Mutex::new(Vec::new()),
            admission,
            ingest_priorities: Arc::new(RwLock::new(HashMap::new())),
            alert_rules: RwLock::new(HashMap::new()),
            detectors: RwLock::new(HashMap::new()),
            partition_fields: RwLock::new(HashMap::new()),
            history,
            ids: IdGenerator::default(),
            db,
        })
    }

    /// Bridge pull-style gauges over the legacy atomic counters so the
    /// text exposition covers the whole engine without double-counting.
    fn bridge_gauges(
        registry: &Registry,
        metrics: &Arc<Metrics>,
        notifications: &Arc<NotificationCenter>,
        runtime: &Arc<StreamRuntime>,
        admission: &Arc<AdmissionControl>,
        history: &Arc<HistorySlot>,
    ) {
        use std::sync::atomic::Ordering;
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_core_events_captured", move || {
            m.events_captured.load(Ordering::Relaxed) as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_core_events_processed", move || {
            m.events_processed.load(Ordering::Relaxed) as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_core_derived_events", move || {
            m.derived_events.load(Ordering::Relaxed) as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_core_deviations", move || {
            m.deviations.load(Ordering::Relaxed) as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_shard_events_routed", move || {
            m.total_events_routed() as f64
        });
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_shard_busy_cycles", move || m.total_busy_cycles() as f64);
        let m = Arc::clone(metrics);
        registry.gauge_fn("evdb_shard_queue_depth", move || {
            m.shard_snapshots().iter().map(|s| s.queue_depth).sum::<u64>() as f64
        });
        let nc = Arc::clone(notifications);
        registry.gauge_fn("evdb_notify_delivered", move || {
            nc.delivered.load(Ordering::Relaxed) as f64
        });
        let nc = Arc::clone(notifications);
        registry.gauge_fn("evdb_notify_suppressed", move || {
            nc.suppressed.load(Ordering::Relaxed) as f64
        });
        let nc = Arc::clone(notifications);
        registry.gauge_fn("evdb_notify_retracted_total", move || {
            nc.retracted.load(Ordering::Relaxed) as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_window_memory", move || rt.window_memory() as f64);
        // Out-of-order delta accounting (D12): retractions emitted,
        // already-emitted panes reopened, late events admitted vs dropped,
        // and duplicate deliveries suppressed by the replay-dedup window.
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_retractions_total", move || {
            rt.cq_delta_stats().retractions as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_pane_reopens_total", move || {
            rt.cq_delta_stats().pane_reopens as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_late_admitted_total", move || {
            rt.cq_delta_stats().late_admitted as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_late_dropped_total", move || {
            rt.cq_delta_stats().late_events as f64
        });
        let rt = Arc::clone(runtime);
        registry.gauge_fn("evdb_cq_dup_dropped_total", move || rt.dup_dropped() as f64);
        // Admission control: depth plus the no-silent-caps counters
        // (every shed, rejection and dropped capture is visible here).
        let ac = Arc::clone(admission);
        registry.gauge_fn("evdb_ingest_depth", move || ac.depth() as f64);
        let ac = Arc::clone(admission);
        registry.gauge_fn("evdb_ingest_shed_total", move || ac.shed_total() as f64);
        let ac = Arc::clone(admission);
        registry.gauge_fn("evdb_ingest_rejected_total", move || {
            ac.rejected_total() as f64
        });
        let ac = Arc::clone(admission);
        registry.gauge_fn("evdb_ingest_dropped_capture_total", move || {
            ac.dropped_capture_total() as f64
        });
        // Expression compiler: process-wide compile/fold statistics (D9
        // no-silent-caps: every fold and precompiled LIKE is accounted).
        registry.gauge_fn("evdb_expr_compiled_total", || {
            evdb_expr::compiler_stats().compiled_total as f64
        });
        registry.gauge_fn("evdb_expr_folded_subtrees_total", || {
            evdb_expr::compiler_stats().folded_subtrees as f64
        });
        registry.gauge_fn("evdb_expr_folded_nodes_total", || {
            evdb_expr::compiler_stats().folded_nodes as f64
        });
        registry.gauge_fn("evdb_expr_like_precompiled_total", || {
            evdb_expr::compiler_stats().like_precompiled as f64
        });
        // Batched evaluation (D15): how many batch-VM dispatches ran and
        // how many records they covered, process-wide. The ratio is the
        // realized amortization of the batched hot path.
        registry.gauge_fn("evdb_expr_batches_total", || {
            evdb_expr::batch_stats().0 as f64
        });
        registry.gauge_fn("evdb_expr_batched_records_total", || {
            evdb_expr::batch_stats().1 as f64
        });
        // Historical event store (D14). Registered even while history is
        // disabled (they read zero) so the exposition's metric set does
        // not depend on whether enable_history ran.
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_segments", move || h.stats().0 as f64);
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_appended_total", move || {
            h.stats().1.appended as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_freezes_total", move || {
            h.stats().1.freezes as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_compactions_total", move || {
            h.stats().1.compactions as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_segments_pruned_total", move || {
            h.stats().1.segments_pruned as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_zones_pruned_total", move || {
            h.stats().1.zones_pruned as f64
        });
        let h = Arc::clone(history);
        registry.gauge_fn("evdb_store_replayed_total", move || {
            h.stats().1.replayed as f64
        });
    }

    // ---- component access -------------------------------------------------

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The queue manager.
    pub fn queues(&self) -> &Arc<QueueManager> {
        &self.queues
    }

    /// The pub/sub broker.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The stream runtime.
    pub fn runtime(&self) -> &StreamRuntime {
        &self.runtime
    }

    /// The notification center.
    pub fn notifications(&self) -> &Arc<NotificationCenter> {
        &self.notifications
    }

    /// Access control / audit.
    pub fn access(&self) -> &AccessControl {
        &self.access
    }

    /// Engine metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The unified metrics registry (render with
    /// [`Registry::render`], diff with [`Registry::snapshot`]).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The per-stage observability handles (shared with the sharded
    /// pump's router and worker threads, which flush their own
    /// [`StageBatch`]es through it).
    pub fn stage_obs(&self) -> &StageObs {
        &self.stage_obs
    }

    /// Current engine time.
    pub fn now(&self) -> TimestampMs {
        self.db.now()
    }

    // ---- capture ------------------------------------------------------------

    /// Capture a table's changes into stream `"<table>_changes"` using
    /// the given mechanism. Returns the stream name.
    pub fn capture_table(&self, table: &str, mechanism: CaptureMechanism) -> Result<String> {
        let t = self.db.table(table)?;
        let stream = format!("{table}_changes");
        let key_type = t.schema().fields()[t.def().pk].dtype;
        let schema = change_schema(t.schema(), key_type)?;
        self.runtime.create_stream(&stream, Arc::clone(&schema))?;

        let kind = match mechanism {
            CaptureMechanism::Trigger => {
                let admission = Arc::clone(&self.admission);
                let priorities = Arc::clone(&self.ingest_priorities);
                let stream_name = stream.clone();
                self.db.create_trigger(
                    &format!("__cap_{stream}"),
                    table,
                    TriggerTiming::After,
                    TriggerOps::ALL,
                    None,
                    Arc::new(move |ev| {
                        // Admission runs inside the writer's transaction:
                        // under `Reject` the returned `Overloaded` error
                        // aborts (rolls back) the producer's write, and
                        // under `Block` the writer parks — holding the
                        // write gate — until the pump drains (the drain
                        // never takes the gate, so this cannot deadlock).
                        let pri = priorities.read().get(&stream_name).copied().unwrap_or(0);
                        admission.admit(pri, Staged::Change(stream_name.clone(), ev.clone()))
                    }),
                )?;
                CaptureKind::Trigger
            }
            CaptureMechanism::Journal => CaptureKind::Journal(JournalMiner::from_now(&self.db)),
            CaptureMechanism::QueryPoll { interval_ms } => CaptureKind::Snapshot {
                snapshot: QuerySnapshot::new(table, evdb_expr::Expr::lit(true)),
                interval_ms: interval_ms.max(1),
                last_poll: None,
            },
        };
        self.captures.lock().push(CaptureTask {
            stream,
            table: table.to_string(),
            schema,
            kind,
        });
        Ok(self
            .captures
            .lock()
            .last()
            .expect("just pushed")
            .stream
            .clone())
    }

    /// Deregister a capture task (the stream itself stays: registered
    /// rules and queries keep their schema). For trigger captures the
    /// row trigger is dropped, so subsequent writes stop staging
    /// changes; changes already staged when the capture goes away are
    /// counted as dropped captures at the next drain (never silently
    /// discarded).
    pub fn remove_capture(&self, stream: &str) -> Result<()> {
        let task = {
            let mut captures = self.captures.lock();
            let pos = captures
                .iter()
                .position(|t| t.stream == stream)
                .ok_or_else(|| Error::NotFound(format!("capture for '{stream}'")))?;
            captures.remove(pos)
        };
        if matches!(task.kind, CaptureKind::Trigger) {
            self.db.drop_trigger(&format!("__cap_{stream}"))?;
        }
        Ok(())
    }

    /// Set a stream's shed priority (default 0): under
    /// [`OverloadPolicy::ShedLowest`], staged events from
    /// lower-priority streams are displaced first when the buffer is
    /// full. Applies to trigger captures and `ingest_async` alike.
    pub fn set_ingest_priority(&self, stream: &str, priority: i64) -> Result<()> {
        self.runtime.stream_schema(stream)?;
        self.ingest_priorities
            .write()
            .insert(stream.to_string(), priority);
        Ok(())
    }

    /// The admission-control gate on the staged ingest path: capacity,
    /// policy, live depth and the shed / rejected / dropped-capture
    /// accounting.
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
    }

    /// Declare a free-standing stream fed by [`EventServer::ingest`]
    /// (external feeds: market data, sensor telemetry).
    pub fn create_stream(&self, name: &str, schema: Arc<Schema>) -> Result<()> {
        self.runtime.create_stream(name, schema)
    }

    /// Push one external event into a stream, running the evaluation
    /// pipeline for it immediately (a one-event pump). An evaluation
    /// error is counted in [`PumpStats::errors`], as the pump counts it.
    pub fn ingest(
        &self,
        stream: &str,
        timestamp: TimestampMs,
        payload: Record,
    ) -> Result<PumpStats> {
        use std::sync::atomic::Ordering;
        let mut event = self.make_event(stream, timestamp, payload)?;
        self.metrics.events_captured.fetch_add(1, Ordering::Relaxed);
        if self.stage_obs.enabled {
            event.trace.stamp(Stage::Capture, event.timestamp);
            self.stage_obs
                .observe(Stage::Capture, self.now().since(event.timestamp).max(0) as f64);
        }
        Ok(self.evaluate_and_deliver(std::slice::from_mut(&mut event)))
    }

    /// Stage one external event for the next pump instead of evaluating
    /// it inline. This is the producer-side entry point for background
    /// pumping (sequential or sharded): producers validate and enqueue,
    /// the pump evaluates. Counted as captured when drained.
    /// Staging is subject to admission control: when the staged buffer
    /// is at capacity the configured [`OverloadPolicy`] applies (block,
    /// `Err(Overloaded)`, or shed-lowest).
    pub fn ingest_async(
        &self,
        stream: &str,
        timestamp: TimestampMs,
        payload: Record,
    ) -> Result<()> {
        let event = self.make_event(stream, timestamp, payload)?;
        let pri = self
            .ingest_priorities
            .read()
            .get(stream)
            .copied()
            .unwrap_or(0);
        self.admission.admit(pri, Staged::External(event))
    }

    fn make_event(&self, stream: &str, timestamp: TimestampMs, payload: Record) -> Result<Event> {
        let schema = self.runtime.stream_schema(stream)?;
        schema.validate(&payload)?;
        Ok(Event::new(
            EventId(self.ids.next_id()),
            stream,
            timestamp,
            payload,
            schema,
        ))
    }

    /// Partition a stream's events by a payload field for sharded
    /// pumping ([`crate::PumpMode::Sharded`]). By default a whole stream
    /// maps to one shard, which preserves every sequential semantic
    /// (CQ windows, cross-key detectors, in-stream order). Keying a hot
    /// stream by a field spreads it over the workers; use it only when
    /// the stream's rules and detectors are scoped by that same field
    /// and no continuous query reads the stream (see DESIGN.md §D7).
    pub fn set_partition_field(&self, stream: &str, field: &str) -> Result<()> {
        let schema = self.runtime.stream_schema(stream)?;
        let idx = schema
            .index_of(field)
            .ok_or_else(|| Error::Schema(format!("unknown partition field '{field}'")))?;
        self.partition_fields
            .write()
            .insert(stream.to_string(), idx);
        Ok(())
    }

    /// The routing key the sharded pump hashes for this event: the
    /// stream name, refined by the stream's partition field if one is
    /// configured.
    pub fn partition_key_of(&self, event: &Event) -> String {
        match self.partition_fields.read().get(event.source.as_ref()) {
            Some(&i) => format!(
                "{}/{}",
                event.source,
                event.payload.get(i).cloned().unwrap_or(Value::Null)
            ),
            None => event.source.to_string(),
        }
    }

    // ---- historical event store (D14) ------------------------------------------

    /// Enable the historical event store under `root`: from now on every
    /// event that reaches [`EventServer::evaluate_events`] is first
    /// appended to its stream's columnar segment store, queryable and
    /// replayable after the fact (an event whose append fails is counted
    /// as errored and not evaluated). Errors if history is already
    /// enabled. Re-opening an existing root runs segment recovery per
    /// stream.
    pub fn enable_history(
        &self,
        root: impl AsRef<Path>,
        config: HistoryConfig,
    ) -> Result<Arc<History>> {
        self.history.install(History::open(root, config)?)
    }

    /// The historical store, if [`enable_history`](Self::enable_history)
    /// has run.
    pub fn history(&self) -> Option<Arc<History>> {
        self.history.get()
    }

    /// REPLAY a stream's history in original arrival order, as
    /// reconstructed events (original ids, timestamps and retraction
    /// flags). `from_seq..=to_seq` are history sequence numbers as
    /// returned by the store; `(0, u64::MAX)` replays everything.
    pub fn replay(&self, stream: &str, from_seq: u64, to_seq: u64) -> Result<Vec<Event>> {
        let history = self
            .history
            .get()
            .ok_or_else(|| Error::Invalid("history is not enabled".into()))?;
        let schema = self.runtime.stream_schema(stream)?;
        let store = history.store_or_recover(stream, &schema)?;
        Ok(History::to_events(
            stream,
            &schema,
            store.replay(from_seq, to_seq)?,
        ))
    }

    /// REPLAY a stream's history back *through the continuous-query
    /// runtime*: each historical event is re-fed in arrival order via
    /// the dedup-bypassing replay path (original ids legitimately
    /// reappear here), re-driving windows and subscribers. Alert rules
    /// and detectors are not re-run — replay reconstructs derived state,
    /// it does not re-page anyone. Returns (events replayed, derived
    /// events produced).
    pub fn replay_into_runtime(
        &self,
        stream: &str,
        from_seq: u64,
        to_seq: u64,
    ) -> Result<(u64, u64)> {
        let events = self.replay(stream, from_seq, to_seq)?;
        let mut derived = 0u64;
        for event in &events {
            derived += self.runtime.push_event_replay(event)?.len() as u64;
        }
        Ok((events.len() as u64, derived))
    }

    /// Historical query: events of `stream` whose payload satisfies
    /// `predicate`, in arrival order, pruned by segment- and zone-level
    /// statistics (check `evdb_store_*_pruned_total` to see the savings).
    pub fn query_history(&self, stream: &str, predicate: &str) -> Result<Vec<Event>> {
        let history = self
            .history
            .get()
            .ok_or_else(|| Error::Invalid("history is not enabled".into()))?;
        let schema = self.runtime.stream_schema(stream)?;
        let store = history.store_or_recover(stream, &schema)?;
        let expr = evdb_expr::parse(predicate)?;
        Ok(History::to_events(stream, &schema, store.query(&expr)?))
    }

    /// Recover a capture whose journal cursor lost history to a
    /// checkpoint (`Error::TruncatedHistory` from a strict poll): the
    /// capture's baseline is reset from current table state —
    /// `QuerySnapshot::rebaseline` for query-poll captures, cursor
    /// `resync` for journal miners — and then the stream's history from
    /// `from_seq` is replayed through the CQ runtime to rebuild derived
    /// state. Returns the number of events replayed.
    pub fn rebaseline_by_replay(&self, stream: &str, from_seq: u64) -> Result<u64> {
        {
            let mut captures = self.captures.lock();
            for task in captures.iter_mut() {
                if task.stream != stream {
                    continue;
                }
                match &mut task.kind {
                    CaptureKind::Journal(miner) => {
                        miner.resync(&self.db);
                    }
                    CaptureKind::Snapshot { snapshot, .. } => {
                        snapshot.rebaseline(&self.db)?;
                    }
                    CaptureKind::Trigger => {}
                }
            }
        }
        let (replayed, _) = self.replay_into_runtime(stream, from_seq, u64::MAX)?;
        Ok(replayed)
    }

    // ---- continuous queries ----------------------------------------------------

    /// Register a CQL continuous query. The `FROM` stream must exist.
    /// The query's `EMIT` clause selects its consistency level (D12);
    /// the default is retraction-free watermark gating.
    pub fn register_cql(&self, name: &str, cql: &str) -> Result<()> {
        let q = evdb_cq::cql::parse_query(cql)?;
        let input = self.runtime.stream_schema(&q.from)?;
        let pipeline = evdb_cq::cql::compile(&q, &input, self.agg_mode)?;
        self.runtime
            .register_query_with(name, &q.from, pipeline, q.consistency)
    }

    /// Subscribe to a query's derived events.
    pub fn on_query(&self, name: &str, subscriber: Subscriber) -> Result<()> {
        self.runtime.subscribe(name, subscriber)
    }

    /// Subscribe to a query's derived rows with the delta sign made
    /// explicit: the callback receives `(row, is_retraction)`. Under
    /// `EMIT SPECULATIVE` a retraction withdraws a previously delivered
    /// row; under the default watermark level `is_retraction` is always
    /// false (asserted by the order-equivalence suite).
    pub fn on_query_updates(
        &self,
        name: &str,
        subscriber: impl Fn(&Record, bool) + Send + Sync + 'static,
    ) -> Result<()> {
        self.runtime.subscribe(
            name,
            Arc::new(move |event: &Event| subscriber(&event.payload, event.is_retraction())),
        )
    }

    // ---- alert rules -------------------------------------------------------------

    /// Add an alert rule: when an event on `stream` satisfies
    /// `predicate`, a notification of `severity` fires. The optional
    /// `key_field` scopes VIRT suppression (e.g. per symbol / per
    /// sensor). Returns a rule id for removal.
    pub fn add_alert_rule(
        &self,
        name: &str,
        stream: &str,
        predicate: &str,
        severity: f64,
        key_field: Option<&str>,
    ) -> Result<u64> {
        let schema = self.runtime.stream_schema(stream)?;
        let expr = evdb_expr::parse(predicate)?;
        let key_idx = match key_field {
            None => None,
            Some(f) => Some(
                schema
                    .index_of(f)
                    .ok_or_else(|| Error::Schema(format!("unknown key field '{f}'")))?,
            ),
        };
        let mut rules = self.alert_rules.write();
        let entry = rules
            .entry(stream.to_string())
            .or_insert_with(|| {
                let mut matcher = IndexedMatcher::new(Arc::clone(&schema));
                matcher.bind_obs(&self.registry);
                AlertRules {
                    matcher,
                    meta: HashMap::new(),
                    next_id: 1,
                }
            });
        let id = entry.next_id;
        entry.matcher.add_rule(Rule::new(id, name, expr))?;
        entry.meta.insert(
            id,
            AlertMeta {
                name: name.to_string(),
                severity,
                key_field: key_idx,
            },
        );
        entry.next_id += 1;
        Ok(id)
    }

    /// Remove an alert rule.
    pub fn remove_alert_rule(&self, stream: &str, id: u64) -> Result<()> {
        let mut rules = self.alert_rules.write();
        let entry = rules
            .get_mut(stream)
            .ok_or_else(|| Error::NotFound(format!("alert rules on '{stream}'")))?;
        entry.matcher.remove_rule(id)?;
        entry.meta.remove(&id);
        Ok(())
    }

    // ---- detectors ----------------------------------------------------------------

    /// Attach a grouped deviation detector to a stream: `field` is the
    /// observed value; when `key_field` is given, each distinct key gets
    /// its own model instance (per-meter, per-symbol expectations).
    pub fn add_detector<F>(
        &self,
        name: &str,
        stream: &str,
        field: &str,
        key_field: Option<&str>,
        policy: UpdatePolicy,
        model_factory: F,
    ) -> Result<()>
    where
        F: Fn() -> Box<dyn ExpectationModel> + Send + 'static,
    {
        self.add_detector_when(name, stream, field, key_field, None, policy, model_factory)
    }

    /// [`add_detector`](Self::add_detector) with an optional WHEN
    /// predicate over the stream's records: only events satisfying the
    /// condition feed the expectation model. The predicate is bound and
    /// compiled to bytecode once, here.
    #[allow(clippy::too_many_arguments)]
    pub fn add_detector_when<F>(
        &self,
        name: &str,
        stream: &str,
        field: &str,
        key_field: Option<&str>,
        condition: Option<&Expr>,
        policy: UpdatePolicy,
        model_factory: F,
    ) -> Result<()>
    where
        F: Fn() -> Box<dyn ExpectationModel> + Send + 'static,
    {
        let schema = self.runtime.stream_schema(stream)?;
        let condition = match condition {
            None => None,
            Some(e) => Some(CompiledExpr::compile(&e.bind_predicate(&schema)?)),
        };
        let field_idx = schema
            .index_of(field)
            .ok_or_else(|| Error::Schema(format!("unknown field '{field}'")))?;
        let key_idx = match key_field {
            None => None,
            Some(f) => Some(
                schema
                    .index_of(f)
                    .ok_or_else(|| Error::Schema(format!("unknown key field '{f}'")))?,
            ),
        };
        self.detectors
            .write()
            .entry(stream.to_string())
            .or_default()
            .push(Mutex::new(DetectorGroup {
                name: name.to_string(),
                field: field_idx,
                key_field: key_idx,
                condition,
                factory: Box::new(move || DeviationDetector::with_policy(model_factory(), policy)),
                instances: HashMap::new(),
            }));
        Ok(())
    }

    /// Register a notification handler.
    pub fn on_notification(&self, handler: NotificationHandler) {
        self.notifications.on_notification(handler);
    }

    /// Persist every delivered notification as a message on `queue`
    /// (created if needed) — notifications *are* messages in the paper's
    /// architecture, so alert consumers get the queue layer's
    /// recoverability, fan-out and auditability. Returns the queue's
    /// payload schema.
    pub fn persist_notifications(&self, queue: &str) -> Result<Arc<Schema>> {
        let schema = Schema::of(&[
            ("key", evdb_types::DataType::Str),
            ("severity", evdb_types::DataType::Float),
            ("title", evdb_types::DataType::Str),
            ("body", evdb_types::DataType::Str),
            ("ts", evdb_types::DataType::Timestamp),
        ]);
        if self.queues.queue_schema(queue).is_err() {
            self.queues
                .create_queue(queue, Arc::clone(&schema), QueueConfig::default())?;
        }
        let queues = Arc::clone(&self.queues);
        let qname = queue.to_string();
        self.notifications.on_notification(Arc::new(move |n| {
            // Enqueue failures must not unwind into the notifier; they
            // surface through queue metrics/depth instead.
            let _ = queues.enqueue(
                &qname,
                Record::from_iter([
                    Value::from(n.key.as_str()),
                    Value::Float(n.severity),
                    Value::from(n.title.as_str()),
                    Value::from(n.body.as_str()),
                    Value::Timestamp(n.timestamp),
                ]),
                "notification-center",
            );
        }));
        Ok(schema)
    }

    // ---- queue & topic conveniences (guarded variants audit) ----------------------

    /// Create a queue.
    pub fn create_queue(&self, name: &str, schema: Arc<Schema>, config: QueueConfig) -> Result<()> {
        self.queues.create_queue(name, schema, config)
    }

    /// Enqueue as a principal: checked against `queue:<name>` Write and
    /// audited.
    pub fn enqueue_as(&self, principal: &Principal, queue: &str, payload: Record) -> Result<u64> {
        self.access
            .check(principal, &format!("queue:{queue}"), Privilege::Write)?;
        self.queues.enqueue(queue, payload, &principal.name)
    }

    /// Dequeue as a principal: checked against `queue:<name>` Read.
    pub fn dequeue_as(
        &self,
        principal: &Principal,
        queue: &str,
        group: &str,
        max: usize,
    ) -> Result<Vec<Delivery>> {
        self.access
            .check(principal, &format!("queue:{queue}"), Privilege::Read)?;
        self.queues.dequeue(queue, group, max)
    }

    // ---- the pump ------------------------------------------------------------------

    /// Drain all pending captured changes through the evaluation
    /// pipeline. Deterministic: with a `SimClock`, repeated runs produce
    /// identical results.
    ///
    /// Failures never lose a drained event: each is counted in
    /// [`PumpStats::errors`] and the rest of the cycle runs (always `Ok`).
    pub fn pump(&self) -> Result<PumpStats> {
        let (mut events, failed_polls) = self.drain_counted();
        let mut stats = self.evaluate_and_deliver(&mut events);
        stats.errors += failed_polls;
        // Bounded history maintenance: at most one segment merge per
        // stream per pump, so compaction rides the pump cadence instead
        // of needing its own thread (determinism under SimClock). A
        // failed merge is retried next pump.
        if let Some(history) = self.history.get() {
            if history.maintain().is_err() {
                stats.errors += 1;
            }
        }
        Ok(stats)
    }

    /// Route, evaluate and deliver `events` on the calling thread, as
    /// [`PUMP_CHUNK`]-event [`evaluate_events`](Self::evaluate_events)
    /// calls each followed by its [`deliver_batch`](Self::deliver_batch).
    fn evaluate_and_deliver(&self, events: &mut [Event]) -> PumpStats {
        // One clock read serves every route and evaluate stamp of the
        // call: the stage histograms have 10ms bins, so per-event clock
        // reads would buy no resolution and cost a measurable share of
        // the pipeline (experiment E13 bounds the total tax).
        let now = self.now();
        let mut batch = StageBatch::default();
        let mut scratch = EvalScratch::default();
        let mut stats = PumpStats {
            captured: events.len() as u64,
            ..PumpStats::default()
        };
        for chunk in events.chunks_mut(PUMP_CHUNK) {
            for event in chunk.iter_mut() {
                self.observe_route(event, now, &mut batch);
            }
            let mut notes = Vec::new();
            let (derived, errors) =
                self.evaluate_events(chunk, now, &mut batch, &mut scratch, &mut notes);
            stats.derived += derived;
            stats.errors += errors;
            stats.notified += self.deliver_batch(notes);
        }
        self.stage_obs.flush(&mut batch);
        stats
    }

    /// Collect every pending captured change as a ready-to-evaluate
    /// event, in capture order, without evaluating anything. This is the
    /// ingest stage shared by the sequential pump (which evaluates the
    /// returned batch inline) and the sharded pump's router thread
    /// (which fans it out to workers). Capture-side metrics
    /// (`events_captured`, capture latency) are recorded here.
    ///
    /// A capture whose poll fails is skipped this cycle and everything
    /// else is returned (always `Ok`; the pumps count the failed polls).
    pub fn drain_captured(&self) -> Result<Vec<Event>> {
        Ok(self.drain_counted().0)
    }

    /// [`drain_captured`](Self::drain_captured) plus the number of
    /// capture polls that failed.
    pub(crate) fn drain_counted(&self) -> (Vec<Event>, u64) {
        use std::sync::atomic::Ordering;
        let now = self.now();
        let mut events = Vec::new();
        let mut failed_polls = 0u64;
        let mut batch = StageBatch::default();

        // The staged buffer (ingest_async producers + trigger captures),
        // processed strictly in arrival order: the admission queue is
        // the single cross-stream sequence, so two interleaved producers
        // are evaluated exactly as they arrived (regression-tested in
        // tests/admission.rs).
        let staged = self.admission.drain();
        if !staged.is_empty() {
            let schemas: HashMap<String, Arc<Schema>> = {
                let captures = self.captures.lock();
                captures
                    .iter()
                    .map(|t| (t.stream.clone(), Arc::clone(&t.schema)))
                    .collect()
            };
            let mut dropped: HashMap<String, u64> = HashMap::new();
            for item in staged {
                match item {
                    Staged::External(mut event) => {
                        self.metrics.events_captured.fetch_add(1, Ordering::Relaxed);
                        // Async-ingested events start their trace at event
                        // time; capture latency is staging-to-drain lag.
                        if event.trace.stamp_of(Stage::Capture).is_none() {
                            event.trace.stamp(Stage::Capture, event.timestamp);
                        }
                        if self.stage_obs.enabled {
                            batch.push(Stage::Capture, now.since(event.timestamp).max(0) as f64);
                        }
                        events.push(event);
                    }
                    Staged::Change(stream, change) => {
                        let Some(schema) = schemas.get(&stream) else {
                            // Capture deregistered between staging and
                            // drain: count and log, never lose silently.
                            *dropped.entry(stream).or_default() += 1;
                            continue;
                        };
                        events.push(self.change_into_event(&stream, schema, change, now, &mut batch));
                    }
                }
            }
            if !dropped.is_empty() {
                let total: u64 = dropped.values().sum();
                self.admission.note_dropped_capture(total);
                for (stream, n) in &dropped {
                    eprintln!(
                        "evdb: dropped {n} staged change(s) for '{stream}' \
                         (capture deregistered before drain)"
                    );
                }
            }
        }

        let mut batches: Vec<(String, Arc<Schema>, Vec<ChangeEvent>)> = Vec::new();
        // Journal miners and snapshots.
        {
            let mut captures = self.captures.lock();
            for task in captures.iter_mut() {
                match &mut task.kind {
                    CaptureKind::Trigger => {}
                    CaptureKind::Journal(miner) => {
                        self.journal_lag
                            .set(self.db.last_lsn().saturating_sub(miner.position()) as f64);
                        // The journal carries every table's ops; this
                        // capture only owns its own table's changes.
                        let Ok(mut evs) = miner.poll(&self.db) else {
                            failed_polls += 1;
                            continue;
                        };
                        evs.retain(|c| c.table.as_ref() == task.table);
                        if !evs.is_empty() {
                            batches.push((task.stream.clone(), Arc::clone(&task.schema), evs));
                        }
                    }
                    CaptureKind::Snapshot {
                        snapshot,
                        interval_ms,
                        last_poll,
                    } => {
                        let due = match last_poll {
                            None => true,
                            Some(t) => now.since(*t) >= *interval_ms,
                        };
                        if due {
                            *last_poll = Some(now);
                            let Ok(evs) = snapshot.poll(&self.db) else {
                                failed_polls += 1;
                                continue;
                            };
                            if !evs.is_empty() {
                                batches.push((task.stream.clone(), Arc::clone(&task.schema), evs));
                            }
                        }
                    }
                }
            }
        }

        for (stream, schema, changes) in batches {
            for change in changes {
                events.push(self.change_into_event(&stream, &schema, change, now, &mut batch));
            }
        }
        self.stage_obs.flush(&mut batch);
        (events, failed_polls)
    }

    /// Convert one captured [`ChangeEvent`] into the stream event the
    /// pipeline evaluates, recording capture-side metrics.
    fn change_into_event(
        &self,
        stream: &str,
        schema: &Arc<Schema>,
        change: ChangeEvent,
        now: TimestampMs,
        batch: &mut StageBatch,
    ) -> Event {
        use std::sync::atomic::Ordering;
        let event = change_to_event(&change, schema, &self.ids);
        // Rewrite the event source to the stream name so the
        // runtime routes it (delta:: prefix is for standalone use).
        let mut event = Event::new(
            event.id,
            stream,
            event.timestamp,
            event.payload,
            event.schema,
        );
        // Continue the change's trace (capture stamped when the
        // change was produced).
        event.trace = change.trace;
        self.metrics.events_captured.fetch_add(1, Ordering::Relaxed);
        let lat = now.since(change.timestamp) as f64;
        self.metrics.observe_latency(lat);
        if self.stage_obs.enabled {
            batch.push(Stage::Capture, lat.max(0.0));
        }
        event
    }

    /// Stamp the route stage on an event at `now` and queue the
    /// capture→route span. Called once per event by the sequential pump
    /// and by the sharded pump's router thread; callers read the clock
    /// once per batch and flush the batch once per cycle (stage
    /// histograms are ms-granular).
    pub fn observe_route(&self, event: &mut Event, now: TimestampMs, batch: &mut StageBatch) {
        if !self.stage_obs.enabled {
            return;
        }
        event.trace.stamp(Stage::Route, now);
        let span = event
            .trace
            .span_ms(Stage::Capture, Stage::Route)
            .unwrap_or(0) as f64;
        batch.push(Stage::Route, span);
    }

    /// Evaluate one event, collecting its notifications instead of
    /// delivering them: a one-event
    /// [`evaluate_events`](Self::evaluate_events) that returns the
    /// event's error rather than counting it. Returns (derived event
    /// count, pending notifications).
    pub fn evaluate_event(&self, event: &Event) -> Result<(u64, Vec<Notification>)> {
        let mut scratch = EvalScratch::default();
        let mut notes = Vec::new();
        let (derived, _) = self.evaluate_events(
            &mut [event.clone()],
            self.now(),
            &mut StageBatch::default(),
            &mut scratch,
            &mut notes,
        );
        match scratch.error {
            Some(e) => Err(e),
            None => Ok((derived, notes)),
        }
    }

    /// Evaluate a batch of events — continuous queries, alert rules,
    /// detectors — *collecting* their notifications into `notes`; the
    /// caller delivers them. The engine's one evaluation path (D15): the
    /// sequential pump and `ingest` run it inline, shard workers on
    /// their batches. Observable behavior matches evaluating the events
    /// one at a time in order: history append, dedup and detector state
    /// advance per event in arrival order, while continuous queries
    /// ([`StreamRuntime::push_events`]) and alert rules
    /// ([`Matcher::match_batch`]) amortize through the batch VM.
    /// Notifications land in event order (per event: rules, then
    /// detectors). An event whose history append, query, rule or
    /// detector errors is counted and skipped with all its
    /// notifications; the events around it still run. Returns (derived
    /// event count, errored events).
    pub fn evaluate_events(
        &self,
        events: &mut [Event],
        now: TimestampMs,
        batch: &mut StageBatch,
        scratch: &mut EvalScratch,
        notes: &mut Vec<Notification>,
    ) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        scratch.error = None;
        self.metrics
            .events_processed
            .fetch_add(events.len() as u64, Ordering::Relaxed);

        // History first, per event in arrival order (D14: the store sees
        // exactly the sequence the pipeline evaluates). An event whose
        // append fails is errored and skipped; the events between two
        // failures are evaluated together.
        let history = self.history.get();
        let (mut derived, mut errors) = (0u64, 0u64);
        let mut rest = events;
        loop {
            let run = match &history {
                None => rest.len(),
                Some(h) => rest
                    .iter()
                    .position(|ev| match h.append(ev) {
                        Ok(_) => false,
                        Err(e) => {
                            scratch.error = Some(e);
                            true
                        }
                    })
                    .unwrap_or(rest.len()),
            };
            let (recorded, tail) = std::mem::take(&mut rest).split_at_mut(run);
            let (d, e) = self.evaluate_run(recorded, now, batch, scratch, notes);
            derived += d;
            errors += e;
            let Some((_failed, tail)) = tail.split_first_mut() else {
                break;
            };
            errors += 1;
            rest = tail;
        }
        (derived, errors)
    }

    /// The body of [`evaluate_events`](Self::evaluate_events) for a run
    /// of events already recorded in history.
    fn evaluate_run(
        &self,
        events: &mut [Event],
        now: TimestampMs,
        batch: &mut StageBatch,
        scratch: &mut EvalScratch,
        notes: &mut Vec<Notification>,
    ) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        // Continuous queries, batched. `cq[i]` is what `push_event`
        // would have returned for `events[i]`.
        self.runtime
            .push_events(events, &mut scratch.expr, &mut scratch.cq);
        let (mut derived_total, mut errors) = (0u64, 0u64);
        scratch.failed.clear();
        scratch.failed.resize(events.len(), false);
        for (i, r) in scratch.cq.drain(..).enumerate() {
            match r {
                Ok(derived) => derived_total += derived.len() as u64,
                Err(e) => {
                    scratch.failed[i] = true;
                    scratch.error = Some(e);
                    errors += 1;
                }
            }
        }
        self.metrics
            .derived_events
            .fetch_add(derived_total, Ordering::Relaxed);

        // Alert rules, batched per stream: the candidate-verify work is
        // rule-major through the batch VM; hits land back per event.
        scratch.hits.clear();
        scratch.hits.resize_with(events.len(), || None);
        {
            let rules = self.alert_rules.read();
            if !rules.is_empty() {
                scratch.sources.clear();
                for (i, ev) in events.iter().enumerate() {
                    if !scratch.failed[i]
                        && rules.contains_key(ev.source.as_ref())
                        && !scratch.sources.contains(&ev.source)
                    {
                        scratch.sources.push(Arc::clone(&ev.source));
                    }
                }
                for src in std::mem::take(&mut scratch.sources) {
                    let entry = &rules[src.as_ref()];
                    scratch.idxs.clear();
                    scratch.idxs.extend(events.iter().enumerate().filter_map(|(i, e)| {
                        (!scratch.failed[i] && e.source == src).then_some(i as u32)
                    }));
                    let records: Vec<&Record> = scratch
                        .idxs
                        .iter()
                        .map(|&i| &events[i as usize].payload)
                        .collect();
                    entry
                        .matcher
                        .match_batch(&records, &mut scratch.rules, &mut scratch.rule_out);
                    for (k, hit) in scratch.rule_out.drain(..).enumerate() {
                        scratch.hits[scratch.idxs[k] as usize] = Some(hit);
                    }
                }
            }
        }

        // Per-event tail, in arrival order: materialize rule hits, then
        // run the (stateful) detectors, so every notification lands in
        // `notes` where evaluating one event at a time would put it. An
        // event's notes are staged and only committed if its whole
        // evaluation succeeds.
        let rules = self.alert_rules.read();
        for (i, event) in events.iter_mut().enumerate() {
            if scratch.failed[i] {
                continue;
            }
            scratch.event_notes.clear();
            match scratch.hits[i].take() {
                None => {}
                Some(Ok(ids)) => {
                    // `get`, not index: churn may have dropped the whole
                    // stream's rule set since the match phase's lock.
                    if let Some(entry) = rules.get(event.source.as_ref()) {
                        for id in ids {
                            scratch
                                .event_notes
                                .extend(Self::rule_notification(entry, id, event));
                        }
                    }
                }
                Some(Err(e)) => {
                    scratch.error = Some(e);
                    errors += 1;
                    continue;
                }
            }
            if let Err(e) = self.collect_detectors(event, &mut scratch.event_notes) {
                scratch.error = Some(e);
                errors += 1;
                continue;
            }
            notes.append(&mut scratch.event_notes);
            self.stamp_evaluated(event, now, batch);
        }
        (derived_total, errors)
    }

    /// Stamp the evaluate stage on a successfully evaluated event and
    /// queue its capture→evaluate span (no-op when stage observability
    /// is disabled).
    fn stamp_evaluated(&self, event: &mut Event, now: TimestampMs, batch: &mut StageBatch) {
        if !self.stage_obs.enabled {
            return;
        }
        event.trace.stamp(Stage::Evaluate, now);
        let span = event
            .trace
            .span_ms(Stage::Capture, Stage::Evaluate)
            .unwrap_or(0) as f64;
        batch.push(Stage::Evaluate, span);
    }

    /// Run a pending notification through the VIRT filter; true when it
    /// was delivered (not suppressed). Single-threaded per key by
    /// construction in both pump modes.
    pub fn deliver(&self, mut notification: Notification) -> bool {
        if self.stage_obs.enabled {
            notification.trace.stamp(Stage::Deliver, self.now());
            let span = notification
                .trace
                .span_ms(Stage::Capture, Stage::Deliver)
                .unwrap_or(0) as f64;
            self.stage_obs.observe(Stage::Deliver, span);
        }
        let delivered = self.notifications.notify(notification);
        self.sync_notify_metrics();
        delivered
    }

    /// Deliver a whole batch of pending notifications through the VIRT
    /// filter — the sequential pump calls this once per evaluated chunk
    /// and the sharded pump's merge stage once per drained cycle, so the
    /// filter's key-state lock is taken once per batch instead of once
    /// per notification (D15). Returns the number delivered. Filter
    /// decisions and handler invocations are in batch order, identical
    /// to calling [`deliver`](Self::deliver) per item.
    pub fn deliver_batch(&self, mut batch: Vec<Notification>) -> u64 {
        if batch.is_empty() {
            return 0;
        }
        if self.stage_obs.enabled {
            let now = self.now();
            let mut spans = StageBatch::default();
            for n in &mut batch {
                n.trace.stamp(Stage::Deliver, now);
                let span = n.trace.span_ms(Stage::Capture, Stage::Deliver).unwrap_or(0) as f64;
                spans.push(Stage::Deliver, span);
            }
            self.stage_obs.flush(&mut spans);
        }
        let delivered = self.notifications.notify_batch(batch);
        self.sync_notify_metrics();
        delivered
    }
    /// Materialize the notification for one alert-rule hit. Returns
    /// `None` when the rule is gone: evaluation matches and materializes
    /// under two separate read-lock acquisitions, so concurrent rule
    /// churn can remove a matched rule in between — dropping the hit is
    /// exactly the outcome had the remove landed one event earlier.
    fn rule_notification(entry: &AlertRules, id: u64, event: &Event) -> Option<Notification> {
        let meta = entry.meta.get(&id)?;
        let key = match meta.key_field {
            Some(i) => format!(
                "{}:{}",
                meta.name,
                event.payload.get(i).cloned().unwrap_or(Value::Null)
            ),
            None => meta.name.clone(),
        };
        Some(Notification {
            key,
            severity: meta.severity,
            title: format!("rule '{}' matched on {}", meta.name, event.source),
            body: event.payload.to_string(),
            timestamp: event.timestamp,
            trace: event.trace,
            is_retraction: event.is_retraction(),
        })
    }

    fn collect_detectors(&self, event: &Event, out: &mut Vec<Notification>) -> Result<()> {
        use std::sync::atomic::Ordering;
        let detectors = self.detectors.read();
        if let Some(groups) = detectors.get(event.source.as_ref()) {
            for cell in groups {
                let g = &mut *cell.lock();
                if let Some(cond) = &g.condition {
                    if !cond.matches(&event.payload)? {
                        continue;
                    }
                }
                let Some(value) = event.payload.get(g.field).and_then(Value::as_f64) else {
                    continue;
                };
                let key = match g.key_field {
                    Some(i) => format!(
                        "{}:{}",
                        g.name,
                        event.payload.get(i).cloned().unwrap_or(Value::Null)
                    ),
                    None => g.name.clone(),
                };
                let det = g
                    .instances
                    .entry(key.clone())
                    .or_insert_with(|| (g.factory)());
                if let Some(dev) = det.observe(event.timestamp, value) {
                    self.metrics.deviations.fetch_add(1, Ordering::Relaxed);
                    out.push(Notification {
                        key,
                        severity: dev.score,
                        title: format!("{}: {} outside expectation", g.name, dev.value),
                        body: format!(
                            "observed {} expected [{:.3}, {:.3}] (score {:.2})",
                            dev.value, dev.expected_low, dev.expected_high, dev.score
                        ),
                        timestamp: dev.timestamp,
                        trace: event.trace,
                        is_retraction: event.is_retraction(),
                    });
                }
            }
        }
        Ok(())
    }

    fn sync_notify_metrics(&self) {
        use std::sync::atomic::Ordering;
        self.metrics.notifications.store(
            self.notifications.delivered.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.metrics.suppressed.store(
            self.notifications.suppressed.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Flush trailing windows on a stream (end of input).
    pub fn flush_stream(&self, stream: &str, watermark: TimestampMs) -> Result<Vec<Event>> {
        self.runtime.flush(stream, watermark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_analytics::ThresholdModel;
    use evdb_types::{DataType, SimClock};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn server() -> (EventServer, Arc<SimClock>) {
        let clock = SimClock::new(TimestampMs(1_000));
        let s = EventServer::in_memory(ServerConfig {
            clock: clock.clone(),
            ..Default::default()
        })
        .unwrap();
        s.db()
            .create_table(
                "orders",
                Schema::of(&[("oid", DataType::Int), ("amt", DataType::Float)]),
                "oid",
            )
            .unwrap();
        (s, clock)
    }

    #[test]
    fn trigger_capture_to_alert_rule() {
        let (s, _clock) = server();
        let stream = s
            .capture_table("orders", CaptureMechanism::Trigger)
            .unwrap();
        assert_eq!(stream, "orders_changes");
        s.add_alert_rule(
            "big",
            &stream,
            "amt > 1000 AND change = 'insert'",
            2.0,
            None,
        )
        .unwrap();

        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(1), Value::Float(50.0)]),
            )
            .unwrap();
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(2), Value::Float(5_000.0)]),
            )
            .unwrap();
        let stats = s.pump().unwrap();
        assert_eq!(stats.captured, 2);
        assert_eq!(stats.notified, 1);
        let delivered = s.notifications().drain_delivered();
        assert_eq!(delivered.len(), 1);
        assert!(delivered[0].title.contains("big"));
    }

    #[test]
    fn journal_capture_sees_only_commits() {
        let (s, _clock) = server();
        let stream = s
            .capture_table("orders", CaptureMechanism::Journal)
            .unwrap();
        s.add_alert_rule("any", &stream, "TRUE", 1.0, Some("row_key"))
            .unwrap();
        {
            let mut tx = s.db().begin();
            tx.insert(
                "orders",
                Record::from_iter([Value::Int(1), Value::Float(1.0)]),
            )
            .unwrap();
            tx.rollback();
        }
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(2), Value::Float(2.0)]),
            )
            .unwrap();
        let stats = s.pump().unwrap();
        assert_eq!(stats.captured, 1); // rollback invisible
    }

    #[test]
    fn query_poll_capture_respects_interval() {
        let (s, clock) = server();
        s.capture_table("orders", CaptureMechanism::QueryPoll { interval_ms: 1_000 })
            .unwrap();
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(1), Value::Float(1.0)]),
            )
            .unwrap();
        assert_eq!(s.pump().unwrap().captured, 1); // first poll fires
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(2), Value::Float(2.0)]),
            )
            .unwrap();
        assert_eq!(s.pump().unwrap().captured, 0); // within interval
        clock.advance(1_000);
        assert_eq!(s.pump().unwrap().captured, 1);
    }

    #[test]
    fn cql_over_captured_stream() {
        let (s, _clock) = server();
        let stream = s
            .capture_table("orders", CaptureMechanism::Trigger)
            .unwrap();
        s.register_cql(
            "volume",
            &format!("SELECT count() AS n FROM {stream} [ROWS 2]"),
        )
        .unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        s.on_query(
            "volume",
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
        for i in 0..4 {
            s.db()
                .insert(
                    "orders",
                    Record::from_iter([Value::Int(i), Value::Float(1.0)]),
                )
                .unwrap();
        }
        let stats = s.pump().unwrap();
        assert_eq!(stats.derived, 2); // two ROWS-2 windows closed
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn speculative_query_delivers_signed_deltas() {
        // Allowed lateness keeps the finality horizon behind the eager
        // emissions so the 900ms straggler is revisable, not dropped.
        let s = EventServer::in_memory(ServerConfig {
            clock: SimClock::new(TimestampMs(1_000)),
            lateness_ms: 2_000,
            ..Default::default()
        })
        .unwrap();
        s.create_stream(
            "ticks",
            Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]),
        )
        .unwrap();
        s.register_cql(
            "spec",
            "SELECT count() AS n FROM ticks [RANGE 1 s] EMIT SPECULATIVE",
        )
        .unwrap();
        let seen: Arc<parking_lot::Mutex<Vec<(i64, bool)>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        s.on_query_updates("spec", move |row, retract| {
            if let Some(Value::Int(n)) = row.get(0) {
                sink.lock().push((*n, retract));
            }
        })
        .unwrap();
        let tick = |px: f64| Record::from_iter([Value::from("A"), Value::Float(px)]);
        s.ingest("ticks", TimestampMs(100), tick(1.0)).unwrap();
        // Event time crosses the pane end → eager emission of n=1…
        s.ingest("ticks", TimestampMs(1_200), tick(1.0)).unwrap();
        // …then a late event revises it: retract n=1, insert n=2.
        s.ingest("ticks", TimestampMs(900), tick(1.0)).unwrap();
        assert_eq!(
            *seen.lock(),
            vec![(1, false), (1, true), (2, false)]
        );
        // The revision is visible in the exposition (D9 no-silent-work).
        let text = s.registry().render();
        assert!(text.contains("evdb_cq_retractions_total 1"), "{text}");
        assert!(text.contains("evdb_cq_pane_reopens_total 1"), "{text}");
        assert!(text.contains("evdb_cq_late_admitted_total 1"), "{text}");
    }

    #[test]
    fn detectors_fire_per_key() {
        let (s, _clock) = server();
        s.create_stream(
            "meters",
            Schema::of(&[("meter", DataType::Str), ("kw", DataType::Float)]),
        )
        .unwrap();
        s.add_detector(
            "load",
            "meters",
            "kw",
            Some("meter"),
            UpdatePolicy::Always,
            || Box::new(ThresholdModel::new(0.0, 100.0)),
        )
        .unwrap();
        let mut notified = 0;
        for (m, kw) in [("m1", 50.0), ("m1", 150.0), ("m2", 99.0), ("m2", 500.0)] {
            let st = s
                .ingest(
                    "meters",
                    s.now(),
                    Record::from_iter([Value::from(m), Value::Float(kw)]),
                )
                .unwrap();
            notified += st.notified;
        }
        assert_eq!(notified, 2);
        assert_eq!(s.metrics().snapshot().deviations, 2);
    }

    #[test]
    fn detector_when_condition_gates_observation() {
        let (s, _clock) = server();
        s.create_stream(
            "meters",
            Schema::of(&[("meter", DataType::Str), ("kw", DataType::Float)]),
        )
        .unwrap();
        let cond = evdb_expr::parse("meter = 'm1'").unwrap();
        s.add_detector_when(
            "load",
            "meters",
            "kw",
            Some("meter"),
            Some(&cond),
            UpdatePolicy::Always,
            || Box::new(ThresholdModel::new(0.0, 100.0)),
        )
        .unwrap();
        let mut notified = 0;
        // m2's excursion is filtered out by the WHEN predicate; only
        // m1's out-of-band reading fires.
        for (m, kw) in [("m1", 150.0), ("m2", 500.0)] {
            let st = s
                .ingest(
                    "meters",
                    s.now(),
                    Record::from_iter([Value::from(m), Value::Float(kw)]),
                )
                .unwrap();
            notified += st.notified;
        }
        assert_eq!(notified, 1);
        assert_eq!(s.metrics().snapshot().deviations, 1);
    }

    #[test]
    fn guarded_queue_access_audits() {
        let (s, _clock) = server();
        s.create_queue(
            "alerts",
            Schema::of(&[("x", DataType::Int)]),
            QueueConfig::default(),
        )
        .unwrap();
        s.queues().subscribe("alerts", "ops").unwrap();
        let alice = Principal::named("alice");
        assert!(s
            .enqueue_as(&alice, "alerts", Record::from_iter([Value::Int(1)]))
            .is_err()); // no grant
        s.access().grant("alice", "queue:alerts", Privilege::Write);
        s.enqueue_as(&alice, "alerts", Record::from_iter([Value::Int(1)]))
            .unwrap();
        assert!(s.dequeue_as(&alice, "alerts", "ops", 1).is_err()); // read not granted
        s.access().grant("alice", "*", Privilege::Read);
        assert_eq!(s.dequeue_as(&alice, "alerts", "ops", 1).unwrap().len(), 1);
        assert_eq!(s.access().audit_len(), 4);
    }

    #[test]
    fn notifications_persist_to_a_queue() {
        let (s, _clock) = server();
        let stream = s
            .capture_table("orders", CaptureMechanism::Trigger)
            .unwrap();
        s.add_alert_rule("big", &stream, "amt > 100", 2.5, Some("oid"))
            .unwrap();
        s.persist_notifications("alerts").unwrap();
        s.queues().subscribe("alerts", "oncall").unwrap();

        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(1), Value::Float(500.0)]),
            )
            .unwrap();
        s.db()
            .insert(
                "orders",
                Record::from_iter([Value::Int(2), Value::Float(5.0)]),
            )
            .unwrap();
        s.pump().unwrap();

        let d = s.queues().dequeue("alerts", "oncall", 10).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].message.payload.get(1), Some(&Value::Float(2.5)));
        assert_eq!(d[0].message.source, "notification-center");
    }

    #[test]
    fn virt_policy_suppresses_duplicates_end_to_end() {
        let clock = SimClock::new(TimestampMs(0));
        let s = EventServer::in_memory(ServerConfig {
            clock: clock.clone(),
            virt: VirtPolicy {
                suppression_window_ms: 10_000,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        s.create_stream("t", Schema::of(&[("v", DataType::Float)]))
            .unwrap();
        s.add_alert_rule("hot", "t", "v > 10", 1.0, None).unwrap();
        let mut total = 0;
        for _ in 0..5 {
            total += s
                .ingest("t", clock.now(), Record::from_iter([Value::Float(50.0)]))
                .unwrap()
                .notified;
        }
        assert_eq!(total, 1); // four suppressed
        assert_eq!(s.metrics().snapshot().suppressed, 4);
    }
}
