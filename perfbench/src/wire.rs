//! `wire_fanout`: the TCP front door.
//!
//! One producer connection pipelines `INGEST` frames into a `feed`
//! stream; one subscriber connection is `SUBSCRIBE`d to eight stateless
//! filter/projection queries over it, each of which emits one row per
//! event. `NetServer` runs its default sequential 1 ms pump. An event
//! completes when the subscriber has received all eight of its updates.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use evdb_core::server::ServerConfig;
use evdb_core::EventServer;
use evdb_expr::CompiledExpr;
use evdb_server::frame::{encode_frame, FrameDecoder};
use evdb_server::protocol::render_row;
use evdb_server::{NetConfig, NetServer};
use evdb_types::{DataType, Record, Schema, Value};

use crate::load::{self, drive_phase, Ledger, Plan, Rates};
use crate::report::{Check, Layer, Report, Timed};
use crate::trace::{offer_spans, traced_pump, PumpTrace, SpanLog};
use crate::util::{fnv, now_ns, quantile, sleep_until, sorted, thread_count, Rng};
use crate::{replay, Cfg};

/// Load shape (events/s): the fixed rate is about a fifth of the
/// measured saturation goodput (at 45 % the p50 and window p99 did not
/// repeat within a tenth on a 2-core host); saturation offers about 2×
/// the goodput, in 15 bursts: on two cores one burst's goodput varies by
/// ±30 % from the next (seven busy threads share them), and the median
/// of five did not repeat within a bound between runs.
pub const RATES: Rates = Rates {
    fixed: 5_000.0,
    fixed_share: 0.5,
    sat: 55_000.0,
    sat_share: 0.2,
    bursts: 15,
    passes: 1,
};
pub const NSYMS: u64 = 64;
/// Pipelined `INGEST` frames allowed without an `OK staged` reply.
pub const WINDOW: usize = 1_024;
/// Per-session outbound frame buffer. The default (1024) sheds updates
/// once a pump cycle's fan-out outruns the subscriber's writer; this
/// holds a whole saturation backlog so that nothing is shed.
pub const SESSION_BUFFER: usize = 1 << 20;

const SCHEMA_SPEC: &str = "seq:INT,sym:STR,px:FLOAT,qty:INT";

/// The eight subscribed queries: `(select list, WHERE clause)`. Every
/// filter holds for every generated event, so each query emits exactly
/// one row per event.
pub const QUERIES: [(&str, &str); 8] = [
    ("seq, sym, px, qty", ""),
    ("seq, px", "px > 0"),
    ("seq, qty", "qty >= 1"),
    ("seq, sym", "px < 1000000"),
    ("seq, px * qty AS notional", ""),
    ("seq, qty + 1 AS q1", "qty < 100000"),
    ("seq, sym, qty", "seq >= 0"),
    ("seq, px - 1 AS p", "px < 1000000 AND qty > 0"),
];

fn schema() -> Arc<Schema> {
    Schema::of(&[
        ("seq", DataType::Int),
        ("sym", DataType::Str),
        ("px", DataType::Float),
        ("qty", DataType::Int),
    ])
}

fn cql(k: usize) -> String {
    let (select, filter) = QUERIES[k];
    if filter.is_empty() {
        format!("SELECT {select} FROM feed")
    } else {
        format!("SELECT {select} FROM feed WHERE {filter}")
    }
}

/// The row query `k` emits for an input record.
fn expected_row(k: usize, r: &Record) -> Record {
    let v = |i: usize| r.get(i).expect("field").clone();
    let px = r.get(2).and_then(Value::as_f64).expect("px");
    let qty = match r.get(3) {
        Some(Value::Int(q)) => *q,
        _ => unreachable!("qty is INT"),
    };
    let vals = match k {
        0 => vec![v(0), v(1), v(2), v(3)],
        1 => vec![v(0), v(2)],
        2 => vec![v(0), v(3)],
        3 => vec![v(0), v(1)],
        4 => vec![v(0), Value::Float(px * qty as f64)],
        5 => vec![v(0), Value::Int(qty + 1)],
        6 => vec![v(0), v(1), v(3)],
        _ => vec![v(0), Value::Float(px - 1.0)],
    };
    Record::new(vals)
}

pub struct Inputs {
    pub records: Vec<Record>,
    /// `INGEST` frames, encoded.
    pub frames: Vec<Vec<u8>>,
    /// XOR of the eight expected update fingerprints, per event.
    pub fingerprints: Vec<u64>,
}

pub fn inputs(seed: u64, n: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let syms: Vec<Value> = (0..NSYMS)
        .map(|s| Value::from(format!("S{s}").as_str()))
        .collect();
    let records: Vec<Record> = (0..n)
        .map(|i| {
            Record::from_iter([
                Value::Int(i as i64),
                syms[rng.range(0, NSYMS) as usize].clone(),
                Value::Float(rng.range(100, 100_000) as f64 / 100.0),
                Value::Int(rng.range(1, 1_000) as i64),
            ])
        })
        .collect();
    let frames = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut f = Vec::new();
            encode_frame(
                format!("INGEST feed {i} {}", render_row(r)).as_bytes(),
                &mut f,
            );
            f
        })
        .collect();
    let fingerprints = records
        .iter()
        .map(|r| {
            (0..QUERIES.len()).fold(0u64, |acc, k| {
                acc ^ fnv(k as u64, render_row(&expected_row(k, r)).as_bytes())
            })
        })
        .collect();
    Inputs {
        records,
        frames,
        fingerprints,
    }
}

/// A client connection speaking the framed line protocol.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(net: &NetServer) -> Conn {
        let stream = TcpStream::connect(net.tcp_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0; 64 * 1024],
        }
    }

    fn send(&mut self, line: &str) {
        let mut f = Vec::new();
        encode_frame(line.as_bytes(), &mut f);
        self.stream.write_all(&f).expect("send");
    }

    /// Next reply frame, blocking.
    fn reply(&mut self) -> String {
        self.stream.set_read_timeout(None).expect("timeout");
        loop {
            if let Some(f) = self.decoder.next_frame() {
                return String::from_utf8(f.expect("well-formed frame")).expect("utf8");
            }
            let n = self.stream.read(&mut self.buf).expect("read");
            assert!(n > 0, "server closed the connection");
            self.decoder.push(&self.buf[..n]);
        }
    }

    fn call(&mut self, line: &str, want: &str) {
        self.send(line);
        let r = self.reply();
        assert_eq!(r, want, "reply to {line}");
    }

    /// One read with a timeout; returns the frames it completed
    /// (empty on timeout).
    fn read_frames(&mut self, timeout: Duration) -> Vec<Vec<u8>> {
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(1))))
            .expect("timeout");
        let mut out = Vec::new();
        match self.stream.read(&mut self.buf) {
            Ok(0) => panic!("server closed the connection"),
            Ok(n) => {
                self.decoder.push(&self.buf[..n]);
                while let Some(f) = self.decoder.next_frame() {
                    out.push(f.expect("well-formed frame"));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read: {e}"),
        }
        out
    }
}

struct Instance {
    net: NetServer,
    producer: Conn,
    subscriber: Conn,
}

fn setup(traced: bool) -> Instance {
    let engine = Arc::new(EventServer::in_memory(ServerConfig::default()).expect("engine"));
    let net = NetServer::start(
        engine,
        NetConfig {
            session_buffer: SESSION_BUFFER,
            pump_interval: if traced {
                None
            } else {
                NetConfig::default().pump_interval
            },
            ..NetConfig::default()
        },
    )
    .expect("net server");
    let mut producer = Conn::connect(&net);
    let mut subscriber = Conn::connect(&net);
    producer.call(&format!("CREATE STREAM feed {SCHEMA_SPEC}"), "OK");
    for k in 0..QUERIES.len() {
        producer.call(&format!("REGISTER QUERY q{k} {}", cql(k)), "OK");
    }
    for k in 0..QUERIES.len() {
        subscriber.call(&format!("SUBSCRIBE q{k}"), &format!("OK subscribed q{k}"));
    }
    Instance {
        net,
        producer,
        subscriber,
    }
}

/// What the subscriber thread saw.
#[derive(Default)]
struct Received {
    reads: u64,
    frames: u64,
    /// Per event, XOR of the received rows' fingerprints.
    fingerprints: Vec<u64>,
    /// Per event, when its `q0` update arrived.
    q0_at: Vec<u64>,
    out_of_order: u64,
    malformed: u64,
}

/// Thread 2: read every update, check order per query, fingerprint
/// the rows, and complete an event on its eighth update.
fn subscribe(conn: &mut Conn, ledger: &Ledger, stop: &AtomicBool) -> Received {
    let n = ledger.len();
    let mut r = Received {
        fingerprints: vec![0; n],
        q0_at: vec![0; n],
        ..Received::default()
    };
    let mut next = [0usize; QUERIES.len()];
    while !stop.load(Ordering::SeqCst) {
        let frames = conn.read_frames(Duration::from_millis(20));
        if frames.is_empty() {
            continue;
        }
        let t = now_ns();
        r.reads += 1;
        r.frames += frames.len() as u64;
        for f in frames {
            let Some((k, seq, row)) = parse_update(&f) else {
                r.malformed += 1;
                continue;
            };
            if seq != next[k] {
                r.out_of_order += 1;
            }
            next[k] = seq + 1;
            if seq >= n {
                r.malformed += 1;
                continue;
            }
            r.fingerprints[seq] ^= fnv(k as u64, row);
            if k == 0 {
                r.q0_at[seq] = t;
            }
            ledger.unit(seq, QUERIES.len() as u32, t);
        }
    }
    r
}

/// `UPDATE q<k> + <seq>,...` → (k, seq, row bytes).
fn parse_update(f: &[u8]) -> Option<(usize, usize, &[u8])> {
    let rest = f.strip_prefix(b"UPDATE q")?;
    let sp = rest.iter().position(|&b| b == b' ')?;
    let k: usize = std::str::from_utf8(&rest[..sp]).ok()?.parse().ok()?;
    let row = rest[sp + 1..].strip_prefix(b"+ ")?;
    let comma = row.iter().position(|&b| b == b',')?;
    let seq: usize = std::str::from_utf8(&row[..comma]).ok()?.parse().ok()?;
    (k < QUERIES.len()).then_some((k, seq, row))
}

/// The producer side of the pipelined connection. Frames are queued
/// and written when the producer is about to wait (so at the fixed rate
/// each goes out at once) or when [`FLUSH_BYTES`] have piled up (so
/// behind schedule, during saturation, they go out in batches).
/// Replies arrive in send order.
struct Producer<'c> {
    conn: &'c mut Conn,
    pending: Vec<u8>,
    /// Index of the event whose reply comes next.
    next: usize,
    sent: usize,
}

const FLUSH_BYTES: usize = 32 * 1024;

impl Producer<'_> {
    fn outstanding(&self) -> usize {
        self.sent - self.next
    }

    fn flush(&mut self) -> bool {
        let ok = self.pending.is_empty() || self.conn.stream.write_all(&self.pending).is_ok();
        self.pending.clear();
        ok
    }

    fn offer(&mut self, frame: &[u8]) -> bool {
        self.pending.extend_from_slice(frame);
        self.sent += 1;
        self.pending.len() < FLUSH_BYTES || self.flush()
    }

    fn read_replies(&mut self, ledger: &Ledger, timeout: Duration) {
        let frames = self.conn.read_frames(timeout);
        let t = now_ns();
        for f in frames {
            if f != b"OK staged" {
                ledger.offer_errors.fetch_add(1, Ordering::Relaxed);
            }
            if self.next < ledger.len() {
                ledger.offer_ret[self.next].store(t, Ordering::Relaxed);
            }
            self.next += 1;
        }
    }

    /// Wait until `target`, reading replies meanwhile; with a full
    /// window, also until a reply frees a slot.
    fn wait(&mut self, ledger: &Ledger, target: u64) {
        loop {
            let now = now_ns();
            let full = self.outstanding() >= WINDOW;
            if now >= target && !full {
                return;
            }
            if !self.flush() {
                ledger.offer_errors.fetch_add(1, Ordering::Relaxed);
            }
            if self.outstanding() == 0 {
                sleep_until(target);
                continue;
            }
            let wait = if full { 100_000_000 } else { target - now };
            self.read_replies(ledger, Duration::from_nanos(wait));
        }
    }
}

/// One pass: the main thread produces (reading its replies between
/// sends), thread 2 subscribes; with `traced`, the benchmark also runs
/// the pump loop.
fn pass(
    inst: &mut Instance,
    inputs: &Inputs,
    plan: &Plan,
    ledger: &Ledger,
    hard_stop: u64,
    traced: Option<&mut SpanLog>,
) -> (Received, Option<PumpTrace>, u64) {
    let engine = Arc::clone(inst.net.engine());
    let stop_sub = AtomicBool::new(false);
    let stop_pump = AtomicBool::new(false);
    let threads_mid = AtomicU64::new(0);
    let warm = plan.warmup()..plan.fixed.count;
    let subscriber = &mut inst.subscriber;
    let producer = &mut inst.producer;
    std::thread::scope(|s| {
        let sub = s.spawn(|| subscribe(subscriber, ledger, &stop_sub));
        let pumper = traced.map(|log| {
            let (engine, stop, warm) = (&engine, &stop_pump, warm.clone());
            s.spawn(move || {
                traced_pump(
                    engine,
                    stop,
                    0,
                    |seq| {
                        if warm.contains(&(seq as usize)) {
                            ledger.offer_start[seq as usize].load(Ordering::Relaxed)
                        } else {
                            0
                        }
                    },
                    log,
                )
            })
        });
        let producer = std::cell::RefCell::new(Producer {
            conn: producer,
            pending: Vec::with_capacity(2 * FLUSH_BYTES),
            next: 0,
            sent: 0,
        });
        for phase in plan.phases() {
            drive_phase(
                ledger,
                &phase,
                hard_stop,
                |target| producer.borrow_mut().wait(ledger, target),
                |i| producer.borrow_mut().offer(&inputs.frames[i]),
            );
            if phase.first == plan.fixed.first {
                threads_mid.store(thread_count(), Ordering::Relaxed);
            }
            let mut p = producer.borrow_mut();
            if !p.flush() {
                ledger.offer_errors.fetch_add(1, Ordering::Relaxed);
            }
            let deadline = now_ns() + load::COMPLETION_TIMEOUT_NS;
            while p.outstanding() > 0 && now_ns() < deadline {
                p.read_replies(ledger, Duration::from_millis(20));
            }
            while !ledger.await_phase_for(&phase, 20_000_000) && now_ns() < deadline {}
        }
        stop_pump.store(true, Ordering::SeqCst);
        let pt = pumper.map(|h| h.join().expect("pump thread"));
        stop_sub.store(true, Ordering::SeqCst);
        let received = sub.join().expect("subscriber thread");
        (received, pt, threads_mid.load(Ordering::Relaxed))
    })
}

fn check(
    inst: &Instance,
    inputs: &Inputs,
    ledger: &Ledger,
    got: &Received,
    pass: &str,
) -> (Vec<Check>, u64) {
    let offered = ledger.offered_count();
    let dropped = inst.net.metrics().updates_dropped.get();
    let complete = ledger.exactly(QUERIES.len() as u32);
    let wrong = (0..offered)
        .filter(|&i| got.fingerprints[i] != inputs.fingerprints[i])
        .count();
    let checks = vec![
        Check::new(
            &format!("{pass}: every subscription received every event exactly once"),
            complete == offered && ledger.extra_units.load(Ordering::Relaxed) == 0,
            format!(
                "{complete} of {offered} events got all {} updates",
                QUERIES.len()
            ),
        ),
        Check::new(
            &format!("{pass}: updates arrive in send order per subscription"),
            got.out_of_order == 0 && got.malformed == 0,
            format!(
                "{} out of order, {} malformed",
                got.out_of_order, got.malformed
            ),
        ),
        Check::new(
            &format!("{pass}: updates carry the sent values"),
            wrong == 0,
            format!("{wrong} of {offered} events' rows differ"),
        ),
        Check::new(
            &format!("{pass}: the hub dropped no updates"),
            dropped == 0,
            format!("{dropped} dropped"),
        ),
    ];
    (checks, dropped)
}

pub fn run(cfg: &Cfg) -> Report {
    let plan = Plan::new(cfg.seconds, RATES);
    let inputs = inputs(cfg.seed, plan.total());
    let mut report = Report::new(cfg, &plan);
    report.info_num("queries", QUERIES.len() as f64);
    report.info_num("nsyms", NSYMS as f64);
    report.info_num("session_buffer", SESSION_BUFFER as f64);
    report.info_num("pipeline_window", WINDOW as f64);

    report.timed_pass(|_| {
        let (mut inst, setups) = crate::report::timed_setups(|| setup(false));
        let ledger = Ledger::new(plan.total());
        let hard_stop = now_ns() + cfg.hard_stop_ns(&plan);
        let (got, _, _) = pass(&mut inst, &inputs, &plan, &ledger, hard_stop, None);
        let (checks, dropped) = check(&inst, &inputs, &ledger, &got, "timed");
        Timed {
            e2e: load::e2e(&ledger, &plan, dropped),
            setups,
            checks,
            facts: Vec::new(),
        }
    });

    if !cfg.trace {
        report.finish();
        return report;
    }

    let mut inst = setup(true);
    let engine = Arc::clone(inst.net.engine());
    let ledger = Ledger::new(plan.total());
    let cb_at: Arc<Vec<AtomicU64>> =
        Arc::new((0..plan.total()).map(|_| AtomicU64::new(0)).collect());
    {
        let cb_at = Arc::clone(&cb_at);
        engine
            .on_query_updates("q0", move |row, _| {
                if let Some(Value::Int(seq)) = row.get(0) {
                    if let Some(a) = cb_at.get(*seq as usize) {
                        a.store(now_ns(), Ordering::Relaxed);
                    }
                }
            })
            .expect("q0 callback");
    }
    let mut log = SpanLog::with_capacity(plan.total() * 2);
    let (got, pt, threads_mid) = pass(
        &mut inst,
        &inputs,
        &plan,
        &ledger,
        now_ns() + cfg.hard_stop_ns(&plan),
        Some(&mut log),
    );
    let pt = pt.expect("traced pump ran");
    let (checks, dropped) = check(&inst, &inputs, &ledger, &got, "traced");
    report.checks.extend(checks);
    let offered = ledger.offered_count();
    let events = offered.max(1) as f64;
    let mut l = Layer::default();
    l.pump(&pt, &log);
    let fanout: Vec<f64> = (plan.warmup()..plan.fixed.count.min(offered))
        .filter_map(|i| {
            let (cb, rx) = (cb_at[i].load(Ordering::Relaxed), got.q0_at[i]);
            (cb != 0 && rx != 0).then(|| rx.saturating_sub(cb) as f64 / 1e6)
        })
        .collect();
    l.set("server.fanout_ms_p50", quantile(&sorted(fanout), 0.5));
    l.set(
        "server.frames_per_read",
        got.frames as f64 / got.reads.max(1) as f64,
    );
    l.set("server.threads", threads_mid as f64);
    l.set("server.updates_dropped", dropped as f64);
    l.set(
        "admission.depth_peak",
        engine.admission().peak_depth() as f64,
    );
    l.set(
        "cq.derived_per_event",
        engine.metrics().snapshot().derived_events as f64 / events,
    );
    report.traced = Some(load::e2e(&ledger, &plan, dropped));
    report.spans.push(("producer", offer_spans(&ledger)));
    report.spans.push(("pump", log));
    drop(inst);
    drop(engine);

    let records = &inputs.records[..offered];
    let schema = schema();
    let preds: Vec<CompiledExpr> = QUERIES
        .iter()
        .filter(|(_, f)| !f.is_empty())
        .map(|(_, f)| {
            let e = evdb_expr::parse(f).expect("filter parses");
            CompiledExpr::compile(&e.bind_predicate(&schema).expect("binds"))
        })
        .collect();
    l.set(
        "expr.eval_ns_per_row",
        replay::expr_ns_per_row(&preds, records),
    );
    let events_vec = replay::events("feed", &schema, records);
    l.set(
        "cq.push_ns_per_event",
        replay::cq_push(
            || {
                let rt = evdb_cq::StreamRuntime::new(0);
                rt.create_stream("feed", schema.clone()).expect("stream");
                for k in 0..QUERIES.len() {
                    let p = evdb_cq::compile_query(&cql(k), &schema, evdb_cq::AggMode::Incremental)
                        .expect("query compiles");
                    rt.register_query(&format!("q{k}"), "feed", p)
                        .expect("register");
                }
                Arc::new(rt)
            },
            &events_vec,
        )
        .0,
    );
    let lines: Vec<String> = inputs.frames[..offered]
        .iter()
        .map(|f| String::from_utf8_lossy(&f[..f.len() - 1]).into_owned())
        .collect();
    l.set(
        "server.parse_ns_per_frame",
        replay::parse_ns_per_frame(&lines),
    );
    let rows: Vec<Record> = records
        .iter()
        .flat_map(|r| (0..QUERIES.len()).map(move |k| expected_row(k, r)))
        .collect();
    l.set("server.render_ns_per_row", replay::render_ns_per_row(&rows));
    report.layers = l;
    report.finish();
    report
}
