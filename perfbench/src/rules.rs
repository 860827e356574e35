//! `rules_10k` and `rules_sharded`: the large-rule-set claim.
//!
//! One `ticks` stream fed by library `ingest_async`, carrying 10 000
//! indexed alert rules over 2 000 symbols plus a keyed deviation
//! detector and a `probe` rule (`TRUE`, keyed on the event's sequence
//! number) whose notification marks the event complete. The sequential
//! variant runs the engine's default pump; the sharded variant keys the
//! stream by `sym` and runs `PumpMode::Sharded { workers: 2 }`. Both
//! see the same inputs for a seed and must deliver the same totals.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use evdb_analytics::detector::UpdatePolicy;
use evdb_analytics::{ControlChartModel, DeviationDetector};
use evdb_core::metrics::StageBatch;
use evdb_core::notify::Notification;
use evdb_core::pump::{spawn_pump_with, PumpHandle, PumpMode};
use evdb_core::server::{EvalScratch, ServerConfig};
use evdb_core::EventServer;
use evdb_expr::CompiledExpr;
use evdb_rules::{IndexedMatcher, Matcher, Rule, ScanMatcher};
use evdb_types::{DataType, Event, Record, Schema, TimestampMs, Value};
use std::sync::Mutex;

use crate::load::{self, drive_phase, Ledger, Plan, Rates};
use crate::report::{Check, Layer, Report, Timed};
use crate::trace::{offer_spans, traced_pump, SpanLog};
use crate::util::{now_ns, sleep_until, thread_count, Rng};
use crate::{replay, Cfg};

pub const NSYMS: usize = 2_000;
pub const NRULES: usize = 10_000;
/// Share of rules with a non-indexable (residual) predicate; each is
/// verified against every event.
pub const RESIDUAL_SHARE: f64 = 0.01;
/// Load shape (events/s). Both variants use the same shape, so their
/// inputs, and therefore their delivered totals, are identical for a
/// seed. The fixed rate is about a quarter of the sequential pump's
/// measured goodput (at 45 % the window p99 did not repeat within a
/// tenth on a 2-core host); saturation offers about 4× the sequential
/// and 2× the sharded goodput.
pub const RATES: Rates = Rates {
    fixed: 5_000.0,
    fixed_share: 0.5,
    sat: 80_000.0,
    sat_share: 0.2,
    bursts: 5,
    passes: 1,
};
/// Every `ORACLE_STRIDE`-th event's rule hits are checked against the
/// scan matcher (the labelled oracle).
pub const ORACLE_STRIDE: usize = 100;
const SEQ: usize = 3;

pub fn schema() -> Arc<Schema> {
    Schema::of(&[
        ("sym", DataType::Str),
        ("px", DataType::Float),
        ("qty", DataType::Int),
        ("seq", DataType::Int),
    ])
}

pub struct Inputs {
    pub records: Vec<Record>,
    pub rules: Vec<String>,
    pub residual: Vec<usize>,
}

/// Ticks: a uniform symbol per event, a per-symbol price walk bounded
/// to [10, 200) by reflection, and a uniform quantity in [1, 1000).
/// Rules: 99 % index-served (`sym =` with a price bound or range, or a
/// two-symbol `IN` with a quantity floor), 1 % residual
/// (`qty + px > t`, t in [1100, 1200), which few events reach).
pub fn inputs(seed: u64, n: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let syms: Vec<Value> = (0..NSYMS)
        .map(|s| Value::from(format!("S{s}").as_str()))
        .collect();
    let mut px: Vec<f64> = (0..NSYMS).map(|_| 10.0 + rng.f64() * 190.0).collect();
    let records = (0..n)
        .map(|i| {
            let s = rng.range(0, NSYMS as u64) as usize;
            let mut p = px[s] + (rng.f64() - 0.5);
            if p < 10.0 {
                p = 20.0 - p;
            } else if p >= 200.0 {
                p = 399.0 - p;
            }
            px[s] = p;
            Record::from_iter([
                syms[s].clone(),
                Value::Float((p * 100.0).round() / 100.0),
                Value::Int(rng.range(1, 1_000) as i64),
                Value::Int(i as i64),
            ])
        })
        .collect();
    let mut rules = Vec::with_capacity(NRULES);
    let mut residual = Vec::new();
    for k in 0..NRULES {
        let a = rng.range(0, NSYMS as u64);
        if rng.f64() < RESIDUAL_SHARE {
            residual.push(k);
            rules.push(format!("qty + px > {}", 1_100 + rng.range(0, 100)));
            continue;
        }
        let lo = 10.0 + rng.f64() * 180.0;
        rules.push(match rng.range(0, 3) {
            0 => format!("sym = 'S{a}' AND px > {lo:.2}"),
            1 => format!(
                "sym = 'S{a}' AND px BETWEEN {lo:.2} AND {:.2}",
                lo + 0.5 + rng.f64() * 19.5
            ),
            _ => format!(
                "sym IN ('S{a}', 'S{}') AND qty >= {}",
                rng.range(0, NSYMS as u64),
                rng.range(0, 900)
            ),
        });
    }
    Inputs {
        records,
        rules,
        residual,
    }
}

fn detector_model() -> Box<dyn evdb_analytics::ExpectationModel> {
    Box::new(ControlChartModel::new(3.0, 20))
}

/// Where a notification came from, read back from its key.
enum Source {
    Probe(usize),
    Rule(usize, usize),
    Other,
}

/// Probes are keyed `probe:<seq>`; rule hits `r<k>:<sym>`, with the
/// event's payload (`[sym, px, qty, seq]`) as body.
fn source(n: &Notification) -> Source {
    let Some((name, key)) = n.key.split_once(':') else {
        return Source::Other;
    };
    if name == "probe" {
        return key.parse().map_or(Source::Other, Source::Probe);
    }
    let seq = n
        .body
        .strip_suffix(']')
        .and_then(|b| b.rsplit(", ").next())
        .and_then(|s| s.parse().ok());
    match (name.strip_prefix('r').and_then(|k| k.parse().ok()), seq) {
        (Some(k), Some(seq)) => Source::Rule(k, seq),
        _ => Source::Other,
    }
}

struct Instance {
    server: Arc<EventServer>,
    _pump: Option<PumpHandle>,
    ledger: Arc<Ledger>,
    /// (seq, rule index) hits of oracle-sampled events.
    sampled: Arc<Mutex<Vec<(usize, usize)>>>,
}

/// Build the engine: stream, rules, probe, detector, handler, and (for
/// the timed pass) the engine's own pump.
fn setup(inputs: &Inputs, n: usize, sharded: bool, own_pump: bool) -> Instance {
    let server = Arc::new(EventServer::in_memory(ServerConfig::default()).expect("engine"));
    server.create_stream("ticks", schema()).expect("stream");
    for (k, pred) in inputs.rules.iter().enumerate() {
        server
            .add_alert_rule(&format!("r{k}"), "ticks", pred, 1.0, Some("sym"))
            .expect("rule");
    }
    server
        .add_alert_rule("probe", "ticks", "TRUE", 1.0, Some("seq"))
        .expect("probe rule");
    server
        .add_detector(
            "pxdev",
            "ticks",
            "px",
            Some("sym"),
            UpdatePolicy::Always,
            detector_model,
        )
        .expect("detector");
    if sharded {
        server
            .set_partition_field("ticks", "sym")
            .expect("partition");
    }
    let ledger = Arc::new(Ledger::new(n));
    let sampled = Arc::new(Mutex::new(Vec::new()));
    {
        let (ledger, sampled) = (Arc::clone(&ledger), Arc::clone(&sampled));
        server.on_notification(Arc::new(move |n| match source(n) {
            Source::Probe(seq) => ledger.unit(seq, 1, now_ns()),
            Source::Rule(k, seq) if seq % ORACLE_STRIDE == 0 => sampled
                .lock()
                .expect("no thread panics holding the samples")
                .push((seq, k)),
            _ => {}
        }));
    }
    let pump = own_pump.then(|| {
        let mode = if sharded {
            PumpMode::Sharded { workers: 2 }
        } else {
            PumpMode::Sequential
        };
        spawn_pump_with(&server, Duration::from_millis(1), mode)
    });
    Instance {
        server,
        _pump: pump,
        ledger,
        sampled,
    }
}

/// The producer: offers every phase open-loop through `ingest_async`,
/// draining the in-memory delivered-notification log as it goes (a
/// deployment must do the same, or that log grows without bound).
/// `sample` runs every housekeeping tick (shard snapshots when traced).
fn produce(
    inst: &Instance,
    inputs: &Inputs,
    plan: &Plan,
    hard_stop: u64,
    mut sample: impl FnMut(),
) {
    let mut next_tick = 0u64;
    let mut tick = |server: &EventServer, sample: &mut dyn FnMut()| {
        let now = now_ns();
        if now >= next_tick {
            next_tick = now + 20_000_000;
            drop(server.notifications().drain_delivered());
            sample();
        }
    };
    for phase in plan.phases() {
        drive_phase(
            &inst.ledger,
            &phase,
            hard_stop,
            |target| {
                tick(&inst.server, &mut sample);
                sleep_until(target);
            },
            |i| {
                load::offer_call(&inst.ledger, i, || {
                    inst.server
                        .ingest_async("ticks", TimestampMs(i as i64), inputs.records[i].clone())
                        .is_ok()
                })
            },
        );
        let deadline = now_ns() + load::COMPLETION_TIMEOUT_NS;
        while !inst.ledger.await_phase_for(&phase, 20_000_000) && now_ns() < deadline {
            tick(&inst.server, &mut sample);
        }
        tick(&inst.server, &mut sample);
    }
}

/// Reference outcomes per generated event, computed outside the
/// engine once per run: rule hits from an `IndexedMatcher::match_batch`
/// replay (also timed for `rules.match_ns_per_event`), whether the
/// event's per-symbol detector, fed in order, reports a deviation, and
/// for every `ORACLE_STRIDE`-th event the scan matcher's hits.
struct Reference {
    hits: Vec<Vec<u64>>,
    deviated: Vec<bool>,
    oracle: Vec<Vec<u64>>,
    match_ns: f64,
}

impl Reference {
    /// (rule hits, deviations) over the first `n` events.
    fn totals(&self, n: usize) -> (u64, u64) {
        let hits = self.hits[..n].iter().map(|h| h.len() as u64).sum();
        (
            hits,
            self.deviated[..n].iter().filter(|d| **d).count() as u64,
        )
    }
}

fn reference(inputs: &Inputs) -> Reference {
    let mut matcher = IndexedMatcher::new(schema());
    for (k, pred) in inputs.rules.iter().enumerate() {
        let expr = evdb_expr::parse(pred).expect("rule parses");
        matcher
            .add_rule(Rule::new(k as u64, format!("r{k}"), expr))
            .expect("rule");
    }
    let (match_ns, hits) = replay::match_batch(&matcher, &inputs.records);
    let mut detectors: HashMap<String, DeviationDetector> = HashMap::new();
    let deviated = inputs
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let sym = r.get(0).expect("sym").to_string();
            let det = detectors.entry(sym).or_insert_with(|| {
                DeviationDetector::with_policy(detector_model(), UpdatePolicy::Always)
            });
            let px = r.get(1).and_then(Value::as_f64).expect("px");
            det.observe(TimestampMs(i as i64), px).is_some()
        })
        .collect();
    let mut scan = ScanMatcher::new(schema());
    for (k, pred) in inputs.rules.iter().enumerate() {
        let expr = evdb_expr::parse(pred).expect("rule parses");
        scan.add_rule(Rule::new(k as u64, format!("r{k}"), expr))
            .expect("rule");
    }
    let oracle = inputs
        .records
        .iter()
        .step_by(ORACLE_STRIDE)
        .map(|r| scan.match_record(r).expect("scan"))
        .collect();
    Reference {
        hits,
        deviated,
        oracle,
        match_ns,
    }
}

/// Output checks shared by both passes.
fn check(inst: &Instance, reference: &Reference, offered: usize, pass: &str) -> Vec<Check> {
    let ledger = &inst.ledger;
    let mut checks = Vec::new();
    let once = ledger.exactly(1);
    checks.push(Check::new(
        &format!("{pass}: exactly one probe notification per event"),
        once == offered && ledger.extra_units.load(Ordering::Relaxed) == 0,
        format!("{once} of {offered} events had exactly one"),
    ));
    let (hits, deviations) = reference.totals(offered);
    let expected = offered as u64 + hits + deviations;
    let delivered = inst
        .server
        .notifications()
        .delivered
        .load(Ordering::Relaxed);
    checks.push(Check::new(
        &format!("{pass}: delivered notifications equal the reference total"),
        delivered == expected,
        format!(
            "delivered {delivered}, reference {expected} = {offered} probes + {hits} rule hits + {deviations} deviations"
        ),
    ));
    // Every ORACLE_STRIDE-th event: the engine's delivered rule hits,
    // the indexed replay and the scan matcher must agree.
    let mut live: HashMap<usize, Vec<u64>> = HashMap::new();
    for (seq, k) in inst
        .sampled
        .lock()
        .expect("no thread panics holding the samples")
        .iter()
    {
        live.entry(*seq).or_default().push(*k as u64);
    }
    let mut bad = Vec::new();
    let mut sampled = 0;
    for i in (0..offered).step_by(ORACLE_STRIDE) {
        sampled += 1;
        let oracle = &reference.oracle[i / ORACLE_STRIDE];
        let mut got = live.remove(&i).unwrap_or_default();
        got.sort_unstable();
        if &got != oracle || &reference.hits[i] != oracle {
            bad.push(i);
        }
    }
    checks.push(Check::new(
        &format!("{pass}: sampled rule hits equal the scan-matcher oracle"),
        bad.is_empty(),
        format!(
            "{} of {sampled} sampled events differ {:?}",
            bad.len(),
            &bad[..bad.len().min(5)]
        ),
    ));
    checks
}

/// Run one workload variant (`sharded` selects `rules_sharded`).
pub fn run(cfg: &Cfg, sharded: bool) -> Report {
    let plan = Plan::new(cfg.seconds, RATES);
    let inputs = inputs(cfg.seed, plan.total());
    let mut report = Report::new(cfg, &plan);
    report.info_num("nsyms", NSYMS as f64);
    report.info_num("nrules", NRULES as f64);
    report.info_num("residual_share", RESIDUAL_SHARE);
    report.info_num("residual_rules", inputs.residual.len() as f64);
    report.info_num("pump_workers", if sharded { 2.0 } else { 1.0 });

    let reference = reference(&inputs);
    // Timed pass: median of several set-ups, then the load.
    report.timed_pass(|_| {
        let (inst, setups) =
            crate::report::timed_setups(|| setup(&inputs, plan.total(), sharded, true));
        produce(
            &inst,
            &inputs,
            &plan,
            now_ns() + cfg.hard_stop_ns(&plan),
            || {},
        );
        let offered = inst.ledger.offered_count();
        let delivered = inst
            .server
            .notifications()
            .delivered
            .load(Ordering::Relaxed);
        Timed {
            e2e: load::e2e(&inst.ledger, &plan, inst.server.admission().shed_total()),
            setups,
            checks: check(&inst, &reference, offered, "timed"),
            facts: vec![
                ("delivered_total", delivered as f64),
                ("notes_per_event", delivered as f64 / offered.max(1) as f64),
            ],
        }
    });

    if !cfg.trace {
        report.finish();
        return report;
    }

    // Traced pass: a fresh engine and the same inputs. Sequential: the
    // benchmark runs the pump loop itself. Sharded: the engine's pump
    // stays and the producer samples the shard counters.
    let inst = setup(&inputs, plan.total(), sharded, sharded);
    let stop = AtomicBool::new(false);
    let mut pump_log = SpanLog::with_capacity(plan.total() * 6);
    let mut shard_depth_peak = 0u64;
    let mut threads_mid = 0u64;
    let hard_stop = now_ns() + cfg.hard_stop_ns(&plan);
    let pump_trace = std::thread::scope(|s| {
        let pumper = (!sharded).then(|| {
            let (server, stop, ledger) = (&inst.server, &stop, &inst.ledger);
            let measured = plan.warmup()..plan.fixed.count;
            let log = &mut pump_log;
            s.spawn(move || {
                traced_pump(
                    server,
                    stop,
                    SEQ,
                    |seq| match seq as usize {
                        i if measured.contains(&i) => ledger.offer_ret[i].load(Ordering::Relaxed),
                        _ => 0,
                    },
                    log,
                )
            })
        });
        let mut samples = 0u64;
        produce(&inst, &inputs, &plan, hard_stop, || {
            samples += 1;
            if samples == 50 {
                threads_mid = thread_count();
            }
            for snap in inst.server.metrics().shard_snapshots() {
                shard_depth_peak = shard_depth_peak.max(snap.queue_depth);
            }
        });
        stop.store(true, Ordering::SeqCst);
        pumper.map(|h| h.join().expect("pump thread"))
    });
    let offered = inst.ledger.offered_count();
    let traced = load::e2e(&inst.ledger, &plan, inst.server.admission().shed_total());
    report
        .checks
        .extend(check(&inst, &reference, offered, "traced"));
    let events = offered as f64;
    let snap = inst.server.registry().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let candidates = counter("evdb_rules_candidates_total");
    let delivered = inst
        .server
        .notifications()
        .delivered
        .load(Ordering::Relaxed) as f64;
    let suppressed = inst
        .server
        .notifications()
        .suppressed
        .load(Ordering::Relaxed) as f64;
    let mut l = Layer::default();
    l.set(
        "admission.depth_peak",
        inst.server.admission().peak_depth() as f64,
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
    l.set("rules.match_ns_per_event", reference.match_ns);
    l.set(
        "cq.derived_per_event",
        inst.server.metrics().snapshot().derived_events as f64 / events,
    );
    l.set("server.threads", threads_mid as f64);
    report.spans.push(("producer", offer_spans(&inst.ledger)));
    if let Some(pt) = &pump_trace {
        l.pump(pt, &pump_log);
        report.spans.push(("pump", pump_log));
    } else {
        let shards = inst.server.metrics().shard_snapshots();
        let routed: Vec<f64> = shards.iter().map(|s| s.events_routed as f64).collect();
        let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
        l.set(
            "shard.skew",
            routed.iter().cloned().fold(0.0, f64::max) / mean.max(1.0),
        );
        l.set("shard.queue_depth_peak", shard_depth_peak as f64);
        l.set("eval.ns_per_event", eval_batch_replay(&inputs, offered));
    }
    drop(inst);
    l.set(
        "expr.eval_ns_per_row",
        replay::expr_ns_per_row(&residual_preds(&inputs), &inputs.records[..offered]),
    );
    let events_vec: Vec<Event> = replay::events("ticks", &schema(), &inputs.records[..offered]);
    l.set(
        "cq.push_ns_per_event",
        replay::cq_push(
            || {
                let rt = evdb_cq::StreamRuntime::new(0);
                rt.create_stream("ticks", schema()).expect("stream");
                Arc::new(rt)
            },
            &events_vec,
        )
        .0,
    );
    l.set(
        "server.parse_ns_per_frame",
        replay::parse_ns_per_frame(&ingest_lines(&inputs.records[..offered])),
    );
    l.set(
        "server.render_ns_per_row",
        replay::render_ns_per_row(&inputs.records[..offered]),
    );
    report.traced = Some(traced);
    report.layers = l;
    report.finish();
    report
}

fn residual_preds(inputs: &Inputs) -> Vec<CompiledExpr> {
    let schema = schema();
    inputs
        .residual
        .iter()
        .map(|&k| {
            let e = evdb_expr::parse(&inputs.rules[k]).expect("rule parses");
            CompiledExpr::compile(&e.bind_predicate(&schema).expect("binds"))
        })
        .collect()
}

/// The events as wire `INGEST` frames (for the parser replay).
fn ingest_lines(records: &[Record]) -> Vec<String> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| format!("INGEST ticks {i} {}", evdb_server::protocol::render_row(r)))
        .collect()
}

/// `EventServer::evaluate_events` — the sharded workers' batched path —
/// over the run's events on a fresh engine with the same rules and
/// detector, single-threaded: ns per event.
fn eval_batch_replay(inputs: &Inputs, offered: usize) -> f64 {
    let inst = setup(inputs, offered, true, false);
    let mut events = replay::events("ticks", &schema(), &inputs.records[..offered]);
    let mut scratch = EvalScratch::default();
    let mut stage = StageBatch::default();
    let mut notes = Vec::new();
    let mut busy = 0u64;
    for chunk in events.chunks_mut(replay::BATCH) {
        let t0 = now_ns();
        let (_, errs) = inst.server.evaluate_events(
            chunk,
            inst.server.now(),
            &mut stage,
            &mut scratch,
            &mut notes,
        );
        busy += now_ns() - t0;
        assert_eq!(errs, 0, "replayed events evaluate");
        notes.clear();
    }
    busy as f64 / offered.max(1) as f64
}
