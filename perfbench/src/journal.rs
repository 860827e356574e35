//! `journal_queue`: journal capture and queued consumption.
//!
//! An engine on the in-memory journal (`EventServer::in_memory`: the
//! same WAL commit and journal-mining code as a durable engine, without
//! the fsync; see `perfbench/README.md` for why) with history and
//! compaction on. An `orders` table is captured by journal mining; its change stream carries a keyed alert rule, a `probe` rule
//! (`TRUE`, keyed on the write's sequence number), and a 1 s windowed
//! per-customer `sum`. Every notification is persisted to the `alerts`
//! queue. The load thread inserts (and updates) open-loop; a second
//! thread consumes `alerts` with `dequeue` + `ack` and runs a selective
//! `query_history` point query once a second (the first half a second
//! in, so that every pass runs one).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use evdb_core::history::HistoryConfig;
use evdb_core::pump::{spawn_pump, PumpHandle};
use evdb_core::server::ServerConfig;
use evdb_core::{CaptureMechanism, EventServer};
use evdb_cq::AggMode;
use evdb_expr::CompiledExpr;
use evdb_rules::{IndexedMatcher, Matcher, Rule};
use evdb_types::{DataType, Record, Schema, TimestampMs, Value};

use crate::load::{self, drive_phase, Ledger, Plan, Rates};
use crate::report::{Check, Layer, Report, Timed};
use crate::trace::{offer_spans, traced_pump, SpanLog};
use crate::util::{now_ns, quantile, sleep_until, sorted, thread_count, Rng};
use crate::{replay, Cfg};

/// Load shape (events/s). Journal polling re-reads the whole log under
/// the WAL mutex, so the pump's cost per poll grows with the writes since
/// set-up and a commit that arrives during a poll waits for it. The run
/// is split into twelve passes of about 83 fixed-rate and 250 saturation
/// writes, each on a fresh engine, so the pump stays mostly idle in the
/// fixed phase and most commits do not wait: with longer passes the
/// medians sat near the point where half the commits wait, and commit
/// and notification latencies did not repeat within a tenth between
/// runs. Saturation offers about the goodput.
pub const RATES: Rates = Rates {
    fixed: 100.0,
    fixed_share: 1.0,
    sat: 3_000.0,
    sat_share: 0.1,
    bursts: 3,
    passes: 12,
};
pub const CUSTOMERS: u64 = 200;
/// Share of writes that update an earlier order instead of inserting.
pub const UPDATE_SHARE: f64 = 0.2;
pub const ALERT_RULE: &str = "amount > 900";
pub const WINDOW_CQL: &str =
    "SELECT cust, sum(amount) AS total FROM orders_changes [RANGE 1 s] GROUP BY cust";
const STREAM: &str = "orders_changes";
/// `seq` in the change stream: `change, row_key, oid, cust, amount, seq`.
const SEQ: usize = 5;

fn table_schema() -> Arc<Schema> {
    Schema::of(&[
        ("oid", DataType::Int),
        ("cust", DataType::Str),
        ("amount", DataType::Float),
        ("seq", DataType::Int),
    ])
}

/// One generated write.
pub struct Write {
    pub update: bool,
    pub row: Record,
}

/// Writes: an insert of a new order for a uniform customer, or (with
/// [`UPDATE_SHARE`]) an update of a uniformly chosen earlier order's
/// amount. Amounts are whole numbers in [1, 1000], so per-customer sums
/// are exact in floating point.
pub fn inputs(seed: u64, n: usize) -> Vec<Write> {
    let mut rng = Rng::new(seed);
    let custs: Vec<Value> = (0..CUSTOMERS)
        .map(|c| Value::from(format!("C{c}").as_str()))
        .collect();
    let mut orders: Vec<(i64, usize)> = Vec::new();
    (0..n)
        .map(|i| {
            let amount = Value::Float(rng.range(1, 1_001) as f64);
            let update = !orders.is_empty() && rng.f64() < UPDATE_SHARE;
            let (oid, cust) = if update {
                orders[rng.range(0, orders.len() as u64) as usize]
            } else {
                let o = (orders.len() as i64, rng.range(0, CUSTOMERS) as usize);
                orders.push(o);
                o
            };
            Write {
                update,
                row: Record::from_iter([
                    Value::Int(oid),
                    custs[cust].clone(),
                    amount,
                    Value::Int(i as i64),
                ]),
            }
        })
        .collect()
}

struct Instance {
    server: Option<Arc<EventServer>>,
    pump: Option<PumpHandle>,
    dir: PathBuf,
    ledger: Arc<Ledger>,
    sums: Arc<Mutex<HashMap<String, f64>>>,
    /// WAL bytes right after set-up.
    base_wal: u64,
}

impl Instance {
    fn server(&self) -> &Arc<EventServer> {
        self.server.as_ref().expect("live instance")
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        self.pump.take();
        self.server.take();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(dir: PathBuf, n: usize, own_pump: bool) -> Instance {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let server = Arc::new(EventServer::in_memory(ServerConfig::default()).expect("engine"));
    server
        .enable_history(dir.join("history"), HistoryConfig::compacted())
        .expect("history");
    server
        .db()
        .create_table("orders", table_schema(), "oid")
        .expect("table");
    let stream = server
        .capture_table("orders", CaptureMechanism::Journal)
        .expect("capture");
    assert_eq!(stream, STREAM);
    server
        .add_alert_rule("big", STREAM, ALERT_RULE, 2.0, Some("cust"))
        .expect("alert rule");
    server
        .add_alert_rule("probe", STREAM, "TRUE", 1.0, Some("seq"))
        .expect("probe rule");
    server
        .register_cql("cust_sum", WINDOW_CQL)
        .expect("window query");
    let sums = Arc::new(Mutex::new(HashMap::new()));
    {
        let sums = Arc::clone(&sums);
        server
            .on_query_updates("cust_sum", move |row, retraction| {
                let cust = row.get(0).map(|v| v.to_string()).unwrap_or_default();
                let total = row.get(1).and_then(Value::as_f64).unwrap_or(f64::NAN);
                *sums
                    .lock()
                    .expect("no thread panics holding the sums")
                    .entry(cust)
                    .or_insert(0.0) += if retraction { -total } else { total };
            })
            .expect("subscribe");
    }
    server
        .persist_notifications("alerts")
        .expect("alerts queue");
    server
        .queues()
        .subscribe("alerts", "bench")
        .expect("consumer group");
    let ledger = Arc::new(Ledger::new(n));
    {
        // Registered after the queue persister, so completion means the
        // probe notification is enqueued and handed on.
        let ledger = Arc::clone(&ledger);
        server.on_notification(Arc::new(move |note| {
            if let Some(seq) = note.key.strip_prefix("probe:").and_then(|s| s.parse().ok()) {
                ledger.unit(seq, 1, now_ns());
            }
        }));
    }
    let pump = own_pump.then(|| spawn_pump(&server, Duration::from_millis(1)));
    let base_wal = server.db().wal_len_bytes();
    Instance {
        server: Some(server),
        pump,
        dir,
        ledger,
        sums,
        base_wal,
    }
}

/// What the consumer thread measured.
#[derive(Default)]
struct Consumed {
    messages: u64,
    busy_ns: u64,
    lag_peak: u64,
    errors: u64,
    query_ms: Vec<f64>,
    query_wrong: u64,
}

/// Thread 2: `dequeue` + `ack` on `alerts` until `stop` is set and the
/// queue is empty; a `seq = k` history point query once a second for a
/// recently completed write `k`.
fn consume(server: &EventServer, ledger: &Ledger, stop: &AtomicBool) -> Consumed {
    let mut c = Consumed::default();
    // The first query comes half a second in, so that every pass runs
    // at least one.
    let mut next_query = now_ns() + 500_000_000;
    let mut next_lag = 0u64;
    let mut idle_after_stop = 0;
    loop {
        let t0 = now_ns();
        let batch = server.queues().dequeue("alerts", "bench", 64);
        let mut got = 0u64;
        match batch {
            Ok(batch) => {
                for d in &batch {
                    if server.queues().ack(d).is_err() {
                        c.errors += 1;
                    }
                }
                got = batch.len() as u64;
            }
            Err(_) => c.errors += 1,
        }
        let t1 = now_ns();
        if got > 0 {
            c.messages += got;
            c.busy_ns += t1 - t0;
            idle_after_stop = 0;
        }
        if t1 >= next_lag {
            next_lag = t1 + 10_000_000;
            let depth = server.queues().depth("alerts").unwrap_or(0) as u64;
            c.lag_peak = c.lag_peak.max(depth);
        }
        if t1 >= next_query {
            next_query = t1 + 1_000_000_000;
            if let Some(k) = (0..ledger.len()).rev().find(|&i| ledger.completed(i)) {
                let q0 = now_ns();
                let r = server.query_history(STREAM, &format!("seq = {k}"));
                c.query_ms.push((now_ns() - q0) as f64 / 1e6);
                let ok = matches!(&r, Ok(evs) if evs.len() == 1
                    && evs[0].payload.get(SEQ) == Some(&Value::Int(k as i64)));
                c.query_wrong += (!ok) as u64;
            }
        }
        if got == 0 {
            if stop.load(Ordering::SeqCst) {
                idle_after_stop += 1;
                if idle_after_stop > 20 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    c
}

/// One pass: the load thread drives both phases while the consumer
/// runs; with `traced`, the benchmark also runs the pump loop.
fn pass(
    inst: &Instance,
    writes: &[Write],
    plan: &Plan,
    hard_stop: u64,
    traced: Option<&mut SpanLog>,
) -> (Consumed, Option<crate::trace::PumpTrace>, u64) {
    let server = inst.server();
    let ledger = &inst.ledger;
    let stop_consumer = AtomicBool::new(false);
    let stop_pump = AtomicBool::new(false);
    let threads_mid = AtomicU64::new(0);
    std::thread::scope(|s| {
        let consumer = s.spawn(|| consume(server, ledger, &stop_consumer));
        let pumper = traced.map(|log| {
            let stop = &stop_pump;
            s.spawn(move || traced_pump(server, stop, SEQ, |_| 0, log))
        });
        for phase in plan.phases() {
            drive_phase(ledger, &phase, hard_stop, sleep_until, |i| {
                let w = &writes[i];
                load::offer_call(ledger, i, || {
                    if w.update {
                        let key = w.row.get(0).expect("oid").clone();
                        server.db().update("orders", &key, w.row.clone()).is_ok()
                    } else {
                        server.db().insert("orders", w.row.clone()).is_ok()
                    }
                })
            });
            if phase.first == plan.fixed.first {
                threads_mid.store(thread_count(), Ordering::Relaxed);
            }
            let deadline = now_ns() + load::COMPLETION_TIMEOUT_NS;
            while !ledger.await_phase_for(&phase, 20_000_000) && now_ns() < deadline {}
        }
        stop_pump.store(true, Ordering::SeqCst);
        let pt = pumper.map(|h| h.join().expect("pump thread"));
        // Let the consumer drain what the last notifications enqueued.
        let deadline = now_ns() + load::COMPLETION_TIMEOUT_NS;
        while server.queues().depth("alerts").unwrap_or(0) > 0 && now_ns() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        stop_consumer.store(true, Ordering::SeqCst);
        let c = consumer.join().expect("consumer thread");
        (c, pt, threads_mid.load(Ordering::Relaxed))
    })
}

fn check(inst: &Instance, writes: &[Write], consumed: &Consumed, pass: &str) -> Vec<Check> {
    let server = inst.server();
    let ledger = &inst.ledger;
    let offered = ledger.offered_count();
    let mut checks = Vec::new();
    let once = ledger.exactly(1);
    checks.push(Check::new(
        &format!("{pass}: exactly one probe notification per write"),
        once == offered && ledger.extra_units.load(Ordering::Relaxed) == 0,
        format!("{once} of {offered} writes had exactly one"),
    ));
    let delivered = server.notifications().delivered.load(Ordering::Relaxed);
    let persisted = server
        .registry()
        .snapshot()
        .counters
        .get("evdb_queue_enqueued_total")
        .copied()
        .unwrap_or(0);
    checks.push(Check::new(
        &format!("{pass}: consumed == persisted == delivered"),
        consumed.messages == persisted && persisted == delivered && consumed.errors == 0,
        format!(
            "consumed {}, persisted {persisted}, delivered {delivered}, consumer errors {}",
            consumed.messages, consumed.errors
        ),
    ));
    // Close every window, then compare per-customer totals with the
    // generated writes.
    let flushed = server.flush_stream(STREAM, TimestampMs(i64::MAX / 4));
    let mut reference: HashMap<String, f64> = HashMap::new();
    for w in &writes[..offered] {
        let cust = w.row.get(1).expect("cust").to_string();
        *reference.entry(cust).or_insert(0.0) +=
            w.row.get(2).and_then(Value::as_f64).expect("amount");
    }
    let sums = inst
        .sums
        .lock()
        .expect("no thread panics holding the sums")
        .clone();
    let mismatched = reference
        .iter()
        .filter(|(c, v)| sums.get(*c) != Some(v))
        .count()
        + sums.keys().filter(|c| !reference.contains_key(*c)).count();
    checks.push(Check::new(
        &format!("{pass}: per-customer window sums equal the reference"),
        flushed.is_ok() && mismatched == 0,
        format!("{mismatched} of {} customers differ", reference.len()),
    ));
    checks.push(Check::new(
        &format!("{pass}: history point queries return exactly the queried write"),
        consumed.query_wrong == 0 && !consumed.query_ms.is_empty(),
        format!(
            "{} queries, {} wrong",
            consumed.query_ms.len(),
            consumed.query_wrong
        ),
    ));
    checks
}

/// The change-stream records the pipeline saw, rebuilt from the writes
/// (for the single-layer replays).
fn change_records(writes: &[Write]) -> Vec<Record> {
    writes
        .iter()
        .map(|w| {
            let mut v = vec![
                Value::from(if w.update { "update" } else { "insert" }),
                w.row.get(0).expect("oid").clone(),
            ];
            v.extend(w.row.values().iter().cloned());
            Record::new(v)
        })
        .collect()
}

fn change_schema() -> Arc<Schema> {
    evdb_cq::delta::change_schema(&table_schema(), DataType::Int).expect("change schema")
}

pub fn run(cfg: &Cfg) -> Report {
    let plan = Plan::new(cfg.seconds, RATES);
    let writes = inputs(cfg.seed, plan.total());
    let mut report = Report::new(cfg, &plan);
    report.info_num("customers", CUSTOMERS as f64);
    report.info_num("update_share", UPDATE_SHARE);
    let root = cfg.tmp_dir();

    let mut k = 0;
    report.timed_pass(|_| {
        let (inst, setups) = crate::report::timed_setups(|| {
            k += 1;
            setup(root.join(format!("setup{k}")), plan.total(), true)
        });
        let (consumed, _, _) = pass(
            &inst,
            &writes,
            &plan,
            now_ns() + cfg.hard_stop_ns(&plan),
            None,
        );
        let offered = inst.ledger.offered_count() as f64;
        let delivered = inst
            .server()
            .notifications()
            .delivered
            .load(Ordering::Relaxed);
        Timed {
            e2e: load::e2e(&inst.ledger, &plan, 0),
            setups,
            checks: check(&inst, &writes, &consumed, "timed"),
            facts: vec![("notes_per_write", delivered as f64 / offered.max(1.0))],
        }
    });

    if !cfg.trace {
        report.finish();
        let _ = std::fs::remove_dir_all(&root);
        return report;
    }

    let inst = setup(root.join("traced"), plan.total(), false);
    let mut log = SpanLog::with_capacity(plan.total() * 4);
    let (consumed, pt, threads_mid) = pass(
        &inst,
        &writes,
        &plan,
        now_ns() + cfg.hard_stop_ns(&plan),
        Some(&mut log),
    );
    let pt = pt.expect("traced pump ran");
    let traced = load::e2e(&inst.ledger, &plan, 0);
    report
        .checks
        .extend(check(&inst, &writes, &consumed, "traced"));
    let server = inst.server();
    let offered = inst.ledger.offered_count();
    let events = offered.max(1) as f64;
    let snap = server.registry().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let candidates = counter("evdb_rules_candidates_total");
    let delivered = server.notifications().delivered.load(Ordering::Relaxed) as f64;
    let suppressed = server.notifications().suppressed.load(Ordering::Relaxed) as f64;
    let mut l = Layer::default();
    l.pump(&pt, &log);
    l.set(
        "admission.depth_peak",
        server.admission().peak_depth() as f64,
    );
    l.set("notify.per_event", delivered / events);
    l.set(
        "notify.pass_ratio",
        delivered / (delivered + suppressed).max(1.0),
    );
    l.set("rules.candidates_per_event", candidates / events);
    l.set(
        "rules.useful_ratio",
        counter("evdb_rules_matches_total") / candidates.max(1.0),
    );
    l.set(
        "cq.derived_per_event",
        server.metrics().snapshot().derived_events as f64 / events,
    );
    l.set(
        "storage.wal_bytes_per_event",
        (server.db().wal_len_bytes().saturating_sub(inst.base_wal)) as f64 / events,
    );
    l.set(
        "history.segments",
        server.history().map_or(0, |h| h.stats().0) as f64,
    );
    if !consumed.query_ms.is_empty() {
        l.set(
            "history.query_ms_p50",
            quantile(&sorted(consumed.query_ms.clone()), 0.5),
        );
    }
    l.set(
        "queue.consume_us_per_msg",
        consumed.busy_ns as f64 / 1e3 / consumed.messages.max(1) as f64,
    );
    l.set("queue.lag_peak", consumed.lag_peak as f64);
    l.set("server.threads", threads_mid as f64);
    report.spans.push(("producer", offer_spans(&inst.ledger)));
    report.spans.push(("pump", log));
    drop(inst);
    let _ = std::fs::remove_dir_all(&root);

    let records = change_records(&writes[..offered]);
    let schema = change_schema();
    let mut matcher = IndexedMatcher::new(Arc::clone(&schema));
    let mut preds = Vec::new();
    for (id, pred) in [ALERT_RULE, "TRUE"].iter().enumerate() {
        let expr = evdb_expr::parse(pred).expect("rule parses");
        preds.push(CompiledExpr::compile(
            &expr.bind_predicate(&schema).expect("binds"),
        ));
        matcher
            .add_rule(Rule::new(id as u64, format!("rule{id}"), expr))
            .expect("rule");
    }
    l.set(
        "rules.match_ns_per_event",
        replay::match_batch(&matcher, &records).0,
    );
    l.set(
        "expr.eval_ns_per_row",
        replay::expr_ns_per_row(&preds, &records),
    );
    let events_vec = replay::events(STREAM, &schema, &records);
    l.set(
        "cq.push_ns_per_event",
        replay::cq_push(
            || {
                let rt = evdb_cq::StreamRuntime::new(0);
                rt.create_stream(STREAM, change_schema()).expect("stream");
                let pipeline =
                    evdb_cq::compile_query(WINDOW_CQL, &change_schema(), AggMode::Incremental)
                        .expect("window query");
                rt.register_query("cust_sum", STREAM, pipeline)
                    .expect("register");
                Arc::new(rt)
            },
            &events_vec,
        )
        .0,
    );
    let lines: Vec<String> = writes[..offered]
        .iter()
        .map(|w| {
            format!(
                "INSERT orders {}",
                evdb_server::protocol::render_row(&w.row)
            )
        })
        .collect();
    l.set(
        "server.parse_ns_per_frame",
        replay::parse_ns_per_frame(&lines),
    );
    l.set(
        "server.render_ns_per_row",
        replay::render_ns_per_row(&records),
    );
    report.traced = Some(traced);
    report.layers = l;
    report.finish();
    report
}
