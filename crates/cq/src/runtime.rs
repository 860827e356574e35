//! The stream runtime: named streams, registered continuous queries,
//! subscribers and watermark bookkeeping.
//!
//! Locking is fine-grained so that a sharded pump (see the core crate)
//! can drive different streams from different worker threads without
//! serialising on one global mutex: the stream and query *maps* are
//! behind `RwLock`s (read-mostly — registration is rare, pushes are
//! constant), while each stream's watermark state and each query's
//! pipeline live behind their own `Mutex`. Two workers pushing into
//! different streams never contend; two workers pushing into the same
//! stream serialise only on that stream's entry, which is exactly the
//! per-partition ordering the sharded pump guarantees anyway.
//!
//! Watermarks are derived from event time: `max event time seen −
//! allowed lateness`, advanced on every push, so downstream windows
//! close deterministically with no wall-clock dependence.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evdb_obs::{Counter, Registry};
use evdb_types::{Error, Event, EventId, IdGenerator, Record, Result, Schema, TimestampMs};
use parking_lot::{Mutex, RwLock};

use crate::delta::ConsistencyLevel;
use crate::op::{OpStats, Pipeline};

/// Callback invoked with each derived event of a query.
pub type Subscriber = Arc<dyn Fn(&Event) + Send + Sync>;

/// Bounded LRU of recently seen `(stream, event id)` pairs, used to drop
/// replayed duplicates on the pre-built-event ingest path (capture
/// adapters re-deliver WAL prefixes after recovery). Events minted by
/// [`StreamRuntime::push`] get fresh ids and never collide.
struct DedupWindow {
    cap: usize,
    tick: u64,
    /// key → recency tick.
    seen: HashMap<DedupKey, u64>,
    /// recency tick → key (eviction order, oldest first).
    order: BTreeMap<u64, DedupKey>,
}

/// `(stream, event id, is_retraction)` — a retraction delta legitimately
/// reuses its insert's id, so the flag keeps the pair distinct.
type DedupKey = (Arc<str>, u64, bool);

impl DedupWindow {
    fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            cap: cap.max(1),
            tick: 0,
            seen: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Record the key; returns true if it was already present (a
    /// duplicate). Either way the key becomes most-recently-seen.
    fn check_and_insert(&mut self, key: DedupKey) -> bool {
        self.tick += 1;
        let dup = match self.seen.insert(key.clone(), self.tick) {
            Some(old_tick) => {
                self.order.remove(&old_tick);
                true
            }
            None => false,
        };
        self.order.insert(self.tick, key);
        while self.seen.len() > self.cap {
            let (_, oldest) = self.order.pop_first().expect("order non-empty");
            self.seen.remove(&oldest);
        }
        dup
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.seen.len()
    }
}

/// Mutable per-stream watermark state (its own lock; see module docs).
struct StreamState {
    max_ts: TimestampMs,
    events_in: u64,
}

struct StreamEntry {
    schema: Arc<Schema>,
    state: Mutex<StreamState>,
}

/// Mutable per-query state (pipeline + fanout), behind its own lock.
struct QueryInner {
    pipeline: Pipeline,
    subscribers: Vec<Subscriber>,
    events_out: u64,
}

struct QueryEntry {
    source: String,
    consistency: ConsistencyLevel,
    /// Registration sequence number: queries observe each event in
    /// registration order, independent of map iteration order, so the
    /// concatenation of derived events across queries is deterministic
    /// (the batched path of D15 relies on this to match the per-event
    /// path byte for byte).
    reg: u64,
    inner: Mutex<QueryInner>,
}

/// Owns streams and continuous queries.
pub struct StreamRuntime {
    streams: RwLock<HashMap<String, Arc<StreamEntry>>>,
    queries: RwLock<HashMap<String, Arc<QueryEntry>>>,
    /// Watermark lag: how far behind max event time the watermark trails
    /// (allowed out-of-orderness), milliseconds.
    lateness_ms: i64,
    ids: IdGenerator,
    /// Derived events materialized (pane/window emissions), when bound.
    panes_obs: Option<Arc<Counter>>,
    /// Replay dedup window (None until [`StreamRuntime::enable_dedup`]).
    dedup: Mutex<Option<DedupWindow>>,
    /// Duplicates dropped by the dedup window (D9).
    dup_dropped: AtomicU64,
    /// Delta counters of dropped queries, so totals stay monotonic.
    retired_stats: Mutex<OpStats>,
    /// Monotonic registration counter; see [`QueryEntry::reg`].
    next_reg: AtomicU64,
}

impl StreamRuntime {
    /// Create a runtime with the given allowed out-of-orderness.
    pub fn new(lateness_ms: i64) -> StreamRuntime {
        StreamRuntime {
            streams: RwLock::new(HashMap::new()),
            queries: RwLock::new(HashMap::new()),
            lateness_ms,
            ids: IdGenerator::default(),
            panes_obs: None,
            dedup: Mutex::new(None),
            dup_dropped: AtomicU64::new(0),
            retired_stats: Mutex::new(OpStats::default()),
            next_reg: AtomicU64::new(0),
        }
    }

    /// Register the derived-event counter (`evdb_cq_panes_total`) with
    /// `registry`. The window-memory gauge is pull-based — hosts bridge
    /// [`StreamRuntime::window_memory`] via `Registry::gauge_fn`.
    pub fn bind_obs(&mut self, registry: &Registry) {
        if registry.is_enabled() {
            self.panes_obs = Some(registry.counter("evdb_cq_panes_total"));
        }
    }

    /// Buffered operator state across all registered queries, in retained
    /// items (pane groups, join rows, pattern runs) — a window-memory
    /// proxy for observability.
    pub fn window_memory(&self) -> usize {
        self.queries
            .read()
            .values()
            .map(|q| q.inner.lock().pipeline.state_size())
            .sum()
    }

    /// Declare a named stream.
    pub fn create_stream(&self, name: &str, schema: Arc<Schema>) -> Result<()> {
        let mut streams = self.streams.write();
        if streams.contains_key(name) {
            return Err(Error::AlreadyExists(format!("stream '{name}'")));
        }
        streams.insert(
            name.to_string(),
            Arc::new(StreamEntry {
                schema,
                state: Mutex::new(StreamState {
                    max_ts: TimestampMs(i64::MIN),
                    events_in: 0,
                }),
            }),
        );
        Ok(())
    }

    /// Schema of a stream.
    pub fn stream_schema(&self, name: &str) -> Result<Arc<Schema>> {
        self.streams
            .read()
            .get(name)
            .map(|s| Arc::clone(&s.schema))
            .ok_or_else(|| Error::NotFound(format!("stream '{name}'")))
    }

    /// Register a continuous query (an operator pipeline) over a stream
    /// at the default [`ConsistencyLevel::Watermark`].
    pub fn register_query(&self, name: &str, source: &str, pipeline: Pipeline) -> Result<()> {
        self.register_query_with(name, source, pipeline, ConsistencyLevel::default())
    }

    /// Register a continuous query with an explicit consistency level
    /// (DESIGN.md D12). The pipeline must already be compiled for that
    /// level (see `cql::compile`); the runtime records it so hosts can
    /// report which queries may emit retractions.
    pub fn register_query_with(
        &self,
        name: &str,
        source: &str,
        pipeline: Pipeline,
        consistency: ConsistencyLevel,
    ) -> Result<()> {
        if self.streams.read().get(source).is_none() {
            return Err(Error::NotFound(format!("stream '{source}'")));
        }
        let mut queries = self.queries.write();
        if queries.contains_key(name) {
            return Err(Error::AlreadyExists(format!("query '{name}'")));
        }
        queries.insert(
            name.to_string(),
            Arc::new(QueryEntry {
                source: source.to_string(),
                consistency,
                reg: self.next_reg.fetch_add(1, Ordering::Relaxed),
                inner: Mutex::new(QueryInner {
                    pipeline,
                    subscribers: Vec::new(),
                    events_out: 0,
                }),
            }),
        );
        Ok(())
    }

    /// Consistency level a query was registered with.
    pub fn query_consistency(&self, name: &str) -> Result<ConsistencyLevel> {
        self.queries
            .read()
            .get(name)
            .map(|q| q.consistency)
            .ok_or_else(|| Error::NotFound(format!("query '{name}'")))
    }

    /// Remove a continuous query. Its delta counters are folded into the
    /// retired totals so runtime-wide stats stay monotonic.
    pub fn drop_query(&self, name: &str) -> Result<()> {
        let entry = self
            .queries
            .write()
            .remove(name)
            .ok_or_else(|| Error::NotFound(format!("query '{name}'")))?;
        let stats = entry.inner.lock().pipeline.op_stats();
        self.retired_stats.lock().absorb(&stats);
        Ok(())
    }

    /// Enable replay dedup on the pre-built-event ingest path
    /// ([`StreamRuntime::push_event`]): duplicates of the most recent
    /// `capacity` `(stream, event id)` pairs are dropped and counted.
    pub fn enable_dedup(&self, capacity: usize) {
        *self.dedup.lock() = Some(DedupWindow::new(capacity));
    }

    /// Duplicates dropped by the dedup window.
    pub fn dup_dropped(&self) -> u64 {
        self.dup_dropped.load(Ordering::Relaxed)
    }

    /// Summed delta/lateness counters across live and dropped queries
    /// (late drops/admissions, pane reopens, retractions — D9).
    pub fn cq_delta_stats(&self) -> OpStats {
        let mut total = *self.retired_stats.lock();
        for q in self.queries.read().values() {
            total.absorb(&q.inner.lock().pipeline.op_stats());
        }
        total
    }

    /// Attach a subscriber to a query's output.
    pub fn subscribe(&self, query: &str, subscriber: Subscriber) -> Result<()> {
        let queries = self.queries.read();
        let q = queries
            .get(query)
            .ok_or_else(|| Error::NotFound(format!("query '{query}'")))?;
        q.inner.lock().subscribers.push(subscriber);
        Ok(())
    }

    /// Push a payload into a stream; returns every derived event (they
    /// are also delivered to subscribers).
    pub fn push(
        &self,
        stream: &str,
        timestamp: TimestampMs,
        payload: Record,
    ) -> Result<Vec<Event>> {
        let entry = self.stream_entry(stream)?;
        entry.schema.validate(&payload)?;
        let wm = {
            let mut state = entry.state.lock();
            state.max_ts = state.max_ts.max(timestamp);
            state.events_in += 1;
            state.max_ts.minus(self.lateness_ms)
        };
        let event = Event::new(
            EventId(self.ids.next_id()),
            stream,
            timestamp,
            payload,
            Arc::clone(&entry.schema),
        );
        self.route(&event, wm)
    }

    /// Push a pre-built event. With dedup
    /// enabled, a replayed `(stream, event id)` pair is dropped before it
    /// can double-count into windows (recovery replays WAL prefixes).
    /// The engine pushes through [`push_events`](Self::push_events);
    /// this one-event form is the reference the batch form is tested
    /// against.
    pub fn push_event(&self, event: &Event) -> Result<Vec<Event>> {
        let entry = self.stream_entry(event.source.as_ref())?;
        if let Some(window) = self.dedup.lock().as_mut() {
            if window.check_and_insert((Arc::clone(&event.source), event.id.0, event.retraction)) {
                self.dup_dropped.fetch_add(1, Ordering::Relaxed);
                return Ok(Vec::new());
            }
        }
        let wm = {
            let mut state = entry.state.lock();
            state.max_ts = state.max_ts.max(event.timestamp);
            state.events_in += 1;
            state.max_ts.minus(self.lateness_ms)
        };
        self.route(event, wm)
    }

    /// Push a pre-built event, bypassing the replay-dedup window.
    ///
    /// History replays (REPLAY over the segment store) legitimately
    /// re-deliver `(stream, event id)` pairs the runtime has seen before:
    /// an event that was retracted and later re-inserted in the *live*
    /// stream carries a fresh id each time (every ingest writes a new WAL
    /// record), but a replay from history re-presents the original ids
    /// verbatim. Routing replays through [`push_event`](Self::push_event)
    /// therefore wrongly dropped a retracted-then-reinserted event as a
    /// "duplicate". The dedup window is only sound for WAL-prefix
    /// re-delivery after crash recovery, so replay feeds use this path
    /// and never consult (or populate) the window.
    ///
    /// The watermark routed with each replayed event is the *historical*
    /// one — derived from the replayed event's own timestamp — not the
    /// live stream's high-water mark. A query registered after the fact
    /// then sees windows open and close exactly as a live subscriber
    /// did, while already-advanced pipelines treat the stale watermark
    /// as a no-op (watermark handling is monotone).
    pub fn push_event_replay(&self, event: &Event) -> Result<Vec<Event>> {
        let entry = self.stream_entry(event.source.as_ref())?;
        {
            let mut state = entry.state.lock();
            state.max_ts = state.max_ts.max(event.timestamp);
            state.events_in += 1;
        }
        let wm = event.timestamp.minus(self.lateness_ms);
        self.route(event, wm)
    }

    /// Batched form of [`push_event`](Self::push_event): `out[i]` is
    /// exactly what `push_event(&events[i])` would have returned, had
    /// the events been pushed one at a time in order (D15).
    ///
    /// Dedup checks and watermark bookkeeping run per event in arrival
    /// order (phase A). Routing is then *query-major*: each query's
    /// pipeline lock is taken once per batch, and — when the query's
    /// head operator is a pure filter
    /// ([`Pipeline::head_predicate`]) — the whole batch is pre-verified
    /// through the batch VM, so non-matching events skip the per-event
    /// push entirely (the pipeline still observes their watermarks;
    /// dropping an event never suppresses pane closes). An event whose
    /// evaluation errors at query *j* yields that error and is withheld
    /// from queries after *j*, exactly as `push_event`'s early return.
    pub fn push_events(
        &self,
        events: &[Event],
        scratch: &mut evdb_expr::BatchScratch,
        out: &mut Vec<Result<Vec<Event>>>,
    ) {
        out.clear();
        out.extend((0..events.len()).map(|_| Ok(Vec::new())));
        // Phase A: dedup + stream state, strictly in arrival order (the
        // watermark each event routes with depends on its predecessors).
        let mut wms: Vec<TimestampMs> = Vec::with_capacity(events.len());
        let mut routable = vec![true; events.len()];
        for (i, event) in events.iter().enumerate() {
            wms.push(TimestampMs(0));
            let entry = match self.stream_entry(event.source.as_ref()) {
                Ok(e) => e,
                Err(e) => {
                    out[i] = Err(e);
                    routable[i] = false;
                    continue;
                }
            };
            if let Some(window) = self.dedup.lock().as_mut() {
                if window.check_and_insert((
                    Arc::clone(&event.source),
                    event.id.0,
                    event.retraction,
                )) {
                    self.dup_dropped.fetch_add(1, Ordering::Relaxed);
                    routable[i] = false;
                    continue;
                }
            }
            wms[i] = {
                let mut state = entry.state.lock();
                state.max_ts = state.max_ts.max(event.timestamp);
                state.events_in += 1;
                state.max_ts.minus(self.lateness_ms)
            };
        }

        // Phase B: route, grouped by source then query. Pipelines of
        // different queries are disjoint state, so query-major order is
        // observationally equivalent to event-major for `out`.
        let mut sources: Vec<&str> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            if routable[i] && !sources.contains(&ev.source.as_ref()) {
                sources.push(ev.source.as_ref());
            }
        }
        let mut pane_total = 0u64;
        let mut verdicts: Vec<Result<bool>> = Vec::new();
        for src in sources {
            let idxs: Vec<u32> = events
                .iter()
                .enumerate()
                .filter(|(i, e)| routable[*i] && e.source.as_ref() == src)
                .map(|(i, _)| i as u32)
                .collect();
            for q in self.queries_for(src) {
                let mut inner = q.inner.lock();
                let has_pred = if let Some(pred) = inner.pipeline.head_predicate() {
                    pred.matches_batch(
                        &idxs,
                        |i| &events[*i as usize].payload,
                        scratch,
                        &mut verdicts,
                    );
                    true
                } else {
                    false
                };
                for (k, &i) in idxs.iter().enumerate() {
                    let i = i as usize;
                    if out[i].is_err() {
                        continue; // withheld from queries after the error
                    }
                    let event = &events[i];
                    let mut push_needed = true;
                    if has_pred {
                        match std::mem::replace(&mut verdicts[k], Ok(false)) {
                            // Head filter drops it: skip the push, keep
                            // the watermark.
                            Ok(false) => push_needed = false,
                            Ok(true) => {}
                            Err(e) => {
                                out[i] = Err(e);
                                continue;
                            }
                        }
                    }
                    let step = if push_needed && has_pred {
                        inner.pipeline.push_verified(event)
                    } else if push_needed {
                        inner.pipeline.push(event)
                    } else {
                        Ok(Vec::new())
                    }
                    .and_then(|mut derived| {
                        derived.extend(inner.pipeline.advance_watermark(wms[i])?);
                        Ok(derived)
                    });
                    match step {
                        Ok(mut derived) => {
                            inner.events_out += derived.len() as u64;
                            pane_total += derived.len() as u64;
                            for ev in &mut derived {
                                ev.trace = event.trace;
                                for s in &inner.subscribers {
                                    s(ev);
                                }
                            }
                            if let Ok(all) = &mut out[i] {
                                all.extend(derived);
                            }
                        }
                        Err(e) => out[i] = Err(e),
                    }
                }
            }
        }
        if let Some(c) = &self.panes_obs {
            c.add(pane_total);
        }
    }

    fn stream_entry(&self, name: &str) -> Result<Arc<StreamEntry>> {
        self.streams
            .read()
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| Error::NotFound(format!("stream '{name}'")))
    }

    /// Queries reading from `source`, cloned out so the map lock is not
    /// held while pipelines run. Sorted by registration order: every
    /// event flows through queries in the order they were registered,
    /// so derived-event concatenation is deterministic (and identical
    /// between the per-event and batched push paths).
    fn queries_for(&self, source: &str) -> Vec<Arc<QueryEntry>> {
        let mut qs: Vec<Arc<QueryEntry>> = self
            .queries
            .read()
            .values()
            .filter(|q| q.source == source)
            .map(Arc::clone)
            .collect();
        qs.sort_unstable_by_key(|q| q.reg);
        qs
    }

    fn route(&self, event: &Event, wm: TimestampMs) -> Result<Vec<Event>> {
        let mut all = Vec::new();
        for q in self.queries_for(event.source.as_ref()) {
            let mut inner = q.inner.lock();
            let mut derived = inner.pipeline.push(event)?;
            derived.extend(inner.pipeline.advance_watermark(wm)?);
            inner.events_out += derived.len() as u64;
            for ev in &mut derived {
                // Derived events belong to the trace of the event whose
                // arrival produced them (stateful operators mint fresh
                // events, losing the input's trace).
                ev.trace = event.trace;
                for s in &inner.subscribers {
                    s(ev);
                }
            }
            all.extend(derived);
        }
        if let Some(c) = &self.panes_obs {
            c.add(all.len() as u64);
        }
        Ok(all)
    }

    /// Force every query on `stream` to observe a watermark (e.g. at end
    /// of input, to flush trailing windows).
    pub fn flush(&self, stream: &str, wm: TimestampMs) -> Result<Vec<Event>> {
        let mut all = Vec::new();
        for q in self.queries_for(stream) {
            let mut inner = q.inner.lock();
            let derived = inner.pipeline.advance_watermark(wm)?;
            inner.events_out += derived.len() as u64;
            for ev in &derived {
                for s in &inner.subscribers {
                    s(ev);
                }
            }
            all.extend(derived);
        }
        Ok(all)
    }

    /// (events in, events out) counters for observability.
    pub fn stats(&self) -> (u64, u64) {
        let events_in = self
            .streams
            .read()
            .values()
            .map(|s| s.state.lock().events_in)
            .sum();
        let events_out = self
            .queries
            .read()
            .values()
            .map(|q| q.inner.lock().events_out)
            .sum();
        (events_in, events_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggMode;
    use crate::cql::compile_query;
    use evdb_types::{DataType, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn schema() -> Arc<Schema> {
        Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)])
    }

    #[test]
    fn end_to_end_windowed_query() {
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", schema()).unwrap();
        let p = compile_query(
            "SELECT sym, avg(px) AS apx FROM ticks [RANGE 1 s] GROUP BY sym",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("vwap", "ticks", p).unwrap();

        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        rt.subscribe(
            "vwap",
            Arc::new(move |_| {
                h2.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();

        rt.push(
            "ticks",
            TimestampMs(100),
            Record::from_iter([Value::from("A"), Value::Float(10.0)]),
        )
        .unwrap();
        rt.push(
            "ticks",
            TimestampMs(500),
            Record::from_iter([Value::from("A"), Value::Float(20.0)]),
        )
        .unwrap();
        // Crossing into the next window closes the first.
        let out = rt
            .push(
                "ticks",
                TimestampMs(1_200),
                Record::from_iter([Value::from("A"), Value::Float(1.0)]),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(1), Some(&Value::Float(15.0)));
        assert_eq!(hits.load(Ordering::SeqCst), 1);

        // Flush the trailing window.
        let out = rt.flush("ticks", TimestampMs(10_000)).unwrap();
        assert_eq!(out.len(), 1);
        let (ins, outs) = rt.stats();
        assert_eq!(ins, 3);
        assert_eq!(outs, 2);
    }

    #[test]
    fn push_events_equals_per_event_push() {
        // Two runtimes, same query set: one fed per event, one batched.
        // Outputs, subscriber deliveries, and stats must be identical.
        let mk = || {
            let rt = StreamRuntime::new(0);
            rt.create_stream("ticks", schema()).unwrap();
            let filtered = compile_query(
                "SELECT sym, avg(px) AS apx FROM ticks [RANGE 1 s] WHERE px > 50 GROUP BY sym",
                &schema(),
                AggMode::Incremental,
            )
            .unwrap();
            rt.register_query("hot", "ticks", filtered).unwrap();
            let plain = compile_query(
                "SELECT count() AS n FROM ticks [RANGE 1 s]",
                &schema(),
                AggMode::Incremental,
            )
            .unwrap();
            rt.register_query("all", "ticks", plain).unwrap();
            rt
        };
        let events: Vec<Event> = (0..40)
            .map(|i| {
                Event::new(
                    EventId(i),
                    "ticks",
                    TimestampMs((i as i64) * 97),
                    Record::from_iter([
                        Value::from(if i % 3 == 0 { "A" } else { "B" }),
                        Value::Float((i % 7) as f64 * 20.0),
                    ]),
                    schema(),
                )
            })
            .collect();

        let seq = mk();
        let mut want = Vec::new();
        for ev in &events {
            want.push(seq.push_event(ev).unwrap());
        }

        let bat = mk();
        let mut scratch = evdb_expr::BatchScratch::new();
        let mut got = Vec::new();
        // Uneven chunks so batch boundaries land mid-window.
        for chunk in events.chunks(7) {
            let mut out = Vec::new();
            bat.push_events(chunk, &mut scratch, &mut out);
            got.extend(out.into_iter().map(|r| r.unwrap()));
        }

        assert_eq!(want.len(), got.len());
        let key = |evs: &[Event]| -> Vec<(u64, i64, String, bool)> {
            evs.iter()
                .map(|e| {
                    (
                        e.id.0,
                        e.timestamp.0,
                        format!("{:?}", e.payload),
                        e.retraction,
                    )
                })
                .collect()
        };
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(key(w), key(g), "derived events diverge at event {i}");
        }
        assert_eq!(seq.stats(), bat.stats());
    }

    #[test]
    fn lateness_delays_watermark() {
        let rt = StreamRuntime::new(500);
        rt.create_stream("ticks", schema()).unwrap();
        let p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 1 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("q", "ticks", p).unwrap();
        rt.push(
            "ticks",
            TimestampMs(100),
            Record::from_iter([Value::from("A"), Value::Float(1.0)]),
        )
        .unwrap();
        // ts 1200: wm = 700 → window [0,1000) stays open.
        let out = rt
            .push(
                "ticks",
                TimestampMs(1_200),
                Record::from_iter([Value::from("A"), Value::Float(1.0)]),
            )
            .unwrap();
        assert!(out.is_empty());
        // A late event at 900 still lands in the open window.
        rt.push(
            "ticks",
            TimestampMs(900),
            Record::from_iter([Value::from("A"), Value::Float(1.0)]),
        )
        .unwrap();
        // ts 1600: wm = 1100 → closes with all three counted? No: events
        // at 100 and 900 are in [0,1000), the 1200 one is not.
        let out = rt
            .push(
                "ticks",
                TimestampMs(1_600),
                Record::from_iter([Value::from("A"), Value::Float(1.0)]),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(0), Some(&Value::Int(2)));
    }

    #[test]
    fn validation_errors() {
        let rt = StreamRuntime::new(0);
        rt.create_stream("s", schema()).unwrap();
        assert!(rt.create_stream("s", schema()).is_err());
        assert!(rt.push("ghost", TimestampMs(0), Record::empty()).is_err());
        assert!(rt.push("s", TimestampMs(0), Record::empty()).is_err()); // schema
        assert!(rt.drop_query("nope").is_err());
        assert!(rt.subscribe("nope", Arc::new(|_| {})).is_err());
        let p = compile_query("SELECT sym FROM s", &schema(), AggMode::Incremental).unwrap();
        assert!(rt.register_query("q", "ghost", p).is_err());
    }

    #[test]
    fn replayed_wal_prefix_is_deduplicated() {
        // Recovery regression: capture adapters re-deliver a WAL prefix
        // after a crash; without dedup the second delivery double-counts.
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", schema()).unwrap();
        rt.enable_dedup(1024);
        let p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 1 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("q", "ticks", p).unwrap();

        // Stable ids, as change_to_event mints from journal LSNs.
        let mk = |id: u64, ts: i64| {
            Event::new(
                EventId(id),
                "ticks",
                TimestampMs(ts),
                Record::from_iter([Value::from("A"), Value::Float(1.0)]),
                schema(),
            )
        };
        let prefix: Vec<Event> = (0..5).map(|i| mk(i, 100 + i as i64)).collect();
        for e in &prefix {
            rt.push_event(e).unwrap();
        }
        // Crash + recovery: the same prefix is delivered again.
        for e in &prefix {
            assert!(rt.push_event(e).unwrap().is_empty());
        }
        assert_eq!(rt.dup_dropped(), 5);
        let out = rt.flush("ticks", TimestampMs(10_000)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.get(0), Some(&Value::Int(5))); // not 10
    }

    #[test]
    fn history_replay_of_retracted_then_reinserted_event_is_not_dropped() {
        // Regression: a replay from the historical store re-presents
        // original event ids. An event that was retracted and then
        // re-observed used to be swallowed by the dedup window when the
        // replay feed went through push_event — its (stream, id, false)
        // key was already "seen". The replay path must bypass dedup.
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", schema()).unwrap();
        rt.enable_dedup(1024);
        let p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 10 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("q", "ticks", p).unwrap();

        let insert = Event::new(
            EventId(7),
            "ticks",
            TimestampMs(100),
            Record::from_iter([Value::from("A"), Value::Float(1.0)]),
            schema(),
        );
        // Live history: insert, then retract.
        rt.push_event(&insert).unwrap();
        rt.push_event(&insert.to_retraction()).unwrap();

        // REPLAY re-feeds the same id. On the dedup'd path it would be
        // dropped as a duplicate; the replay path must deliver it.
        assert!(rt.push_event(&insert).unwrap().is_empty()); // demonstrates the trap
        assert_eq!(rt.dup_dropped(), 1);
        rt.push_event_replay(&insert).unwrap();
        assert_eq!(rt.dup_dropped(), 1); // replay neither consulted nor fed the window

        let out = rt.flush("ticks", TimestampMs(100_000)).unwrap();
        assert_eq!(out.len(), 1);
        // events_in excludes the dedup-dropped push but includes the
        // replayed delivery: insert + retraction + replayed insert.
        let (ins, _) = rt.stats();
        assert_eq!(ins, 3);
    }

    #[test]
    fn dedup_window_is_bounded_lru() {
        let mut w = DedupWindow::new(3);
        let s: Arc<str> = Arc::from("s");
        for i in 0..3u64 {
            assert!(!w.check_and_insert((Arc::clone(&s), i, false)));
        }
        assert_eq!(w.len(), 3);
        // Touch id 0 so it is most-recent, then overflow: id 1 evicts.
        assert!(w.check_and_insert((Arc::clone(&s), 0, false)));
        assert!(!w.check_and_insert((Arc::clone(&s), 3, false)));
        assert_eq!(w.len(), 3);
        assert!(!w.check_and_insert((Arc::clone(&s), 1, false))); // evicted → new again
        assert!(w.check_and_insert((Arc::clone(&s), 0, false))); // still present
        // A retraction of a seen id is NOT a duplicate.
        assert!(!w.check_and_insert((Arc::clone(&s), 0, true)));
    }

    #[test]
    fn delta_stats_aggregate_across_queries_and_survive_drop() {
        let rt = StreamRuntime::new(0);
        rt.create_stream("ticks", schema()).unwrap();
        let p = compile_query(
            "SELECT count() AS n FROM ticks [RANGE 1 s]",
            &schema(),
            AggMode::Incremental,
        )
        .unwrap();
        rt.register_query("q", "ticks", p).unwrap();
        assert_eq!(rt.query_consistency("q").unwrap(), ConsistencyLevel::Watermark);
        let tick = || Record::from_iter([Value::from("A"), Value::Float(1.0)]);
        rt.push("ticks", TimestampMs(100), tick()).unwrap();
        rt.push("ticks", TimestampMs(2_500), tick()).unwrap();
        // Late event behind the closed window boundary → dropped+counted.
        rt.push("ticks", TimestampMs(100), tick()).unwrap();
        assert_eq!(rt.cq_delta_stats().late_events, 1);
        // Counters survive dropping the query (monotonic totals).
        rt.drop_query("q").unwrap();
        assert_eq!(rt.cq_delta_stats().late_events, 1);
        assert!(rt.query_consistency("q").is_err());
    }

    #[test]
    fn concurrent_pushes_to_distinct_streams() {
        let rt = Arc::new(StreamRuntime::new(0));
        for s in ["a", "b", "c", "d"] {
            rt.create_stream(s, schema()).unwrap();
        }
        let handles: Vec<_> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|s| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    for i in 0..500i64 {
                        rt.push(
                            s,
                            TimestampMs(i),
                            Record::from_iter([Value::from("A"), Value::Float(1.0)]),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (ins, _) = rt.stats();
        assert_eq!(ins, 2_000);
    }
}
