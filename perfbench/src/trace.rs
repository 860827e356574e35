//! Benchmark-side tracing: spans recorded around calls into the
//! engine's public API, kept in memory and written out at the end.
//!
//! The traced pass of a sequential workload does not spawn the engine's
//! pump; [`traced_pump`] runs the same loop from public calls, in
//! `EventServer::pump`'s order, with a span around each call:
//! `drain_captured`, `evaluate_event` per event, `deliver` per
//! notification, `History::maintain`, `reap_timeouts`, and the idle
//! sleep taken when the admission buffer is empty (the engine pump's
//! own sleep condition).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use evdb_core::EventServer;
use evdb_types::{Event, Value};

use crate::load::Ledger;
use crate::util::{now_ns, quantile, sorted};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Offer,
    Cycle,
    Drain,
    Evaluate,
    Deliver,
    Maintain,
    Reap,
    Idle,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Offer => "offer",
            Kind::Cycle => "cycle",
            Kind::Drain => "drain",
            Kind::Evaluate => "evaluate",
            Kind::Deliver => "deliver",
            Kind::Maintain => "maintain",
            Kind::Reap => "reap",
            Kind::Idle => "idle",
        }
    }
}

/// One span: `parent` indexes the same log (`u32::MAX` = root); the
/// event-sequence range is inclusive (`u64::MAX` when no event).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    pub seq_lo: u64,
    pub seq_hi: u64,
}

pub const NO_SEQ: u64 = u64::MAX;
pub const ROOT: u32 = u32::MAX;

/// An append-only span log owned by one thread.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(n: usize) -> SpanLog {
        SpanLog {
            spans: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, kind: Kind, parent: u32, start: u64, end: u64, lo: u64, hi: u64) -> u32 {
        self.spans.push(Span {
            kind,
            parent,
            start,
            end,
            seq_lo: lo,
            seq_hi: hi,
        });
        (self.spans.len() - 1) as u32
    }

    /// Durations of every span of `kind`, in nanoseconds.
    pub fn durations(&self, kind: Kind) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    pub fn total_ns(&self, kind: Kind) -> f64 {
        self.durations(kind).iter().sum()
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    pub fn p(&self, kind: Kind, q: f64) -> f64 {
        quantile(&sorted(self.durations(kind)), q)
    }
}

/// The producer's offer spans, rebuilt from the ledger after a pass:
/// each runs from the offer call to its return (on the wire, to its
/// reply), and carries the event's sequence number.
pub fn offer_spans(ledger: &Ledger) -> SpanLog {
    let mut log = SpanLog::with_capacity(ledger.len());
    for i in (0..ledger.len()).filter(|&i| ledger.offered(i)) {
        let start = ledger.offer_start[i].load(Ordering::Relaxed);
        let end = ledger.offer_ret[i].load(Ordering::Relaxed).max(start);
        log.push(Kind::Offer, ROOT, start, end, i as u64, i as u64);
    }
    log
}

/// Write spans as CSV (`thread,id,name,parent,start_ns,end_ns,seq_lo,seq_hi`).
pub fn dump(path: &std::path::Path, logs: &[(&str, &SpanLog)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,id,name,parent,start_ns,end_ns,seq_lo,seq_hi")?;
    let seq = |v: u64| {
        if v == NO_SEQ {
            String::new()
        } else {
            v.to_string()
        }
    };
    for (thread, log) in logs {
        for (id, s) in log.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{thread},{id},{},{parent},{},{},{},{}",
                s.kind.name(),
                s.start,
                s.end,
                seq(s.seq_lo),
                seq(s.seq_hi)
            )?;
        }
    }
    out.flush()
}

/// What the traced pump loop saw, beyond its spans.
#[derive(Default, Debug)]
pub struct PumpTrace {
    pub wall_ns: u64,
    pub events: u64,
    pub nonempty_drains: u64,
    pub notes_offered: u64,
    pub notes_delivered: u64,
    pub eval_errors: u64,
    /// Drain start minus the event's offer return, in nanoseconds.
    pub admission_wait_ns: Vec<f64>,
}

impl PumpTrace {
    /// Share of the loop's wall time covered by its leaf spans.
    pub fn coverage(&self, log: &SpanLog) -> f64 {
        let leaves = [
            Kind::Drain,
            Kind::Evaluate,
            Kind::Deliver,
            Kind::Maintain,
            Kind::Reap,
            Kind::Idle,
        ];
        let covered: f64 = leaves.iter().map(|k| log.total_ns(*k)).sum();
        covered / self.wall_ns.max(1) as f64
    }
}

/// The sequential pump, driven from the benchmark with a span around
/// every call. Runs until `stop` is set and a final drain comes back
/// empty. `seq_field` is the payload column holding the event sequence
/// number; `offer_ret(seq)` is when that event's offer returned (0 if
/// not known), for the admission-wait metric.
pub fn traced_pump(
    server: &EventServer,
    stop: &AtomicBool,
    seq_field: usize,
    offer_ret: impl Fn(u64) -> u64,
    log: &mut SpanLog,
) -> PumpTrace {
    let seq_of = |e: &Event| match e.payload.get(seq_field) {
        Some(Value::Int(v)) => *v as u64,
        _ => NO_SEQ,
    };
    let mut t = PumpTrace::default();
    let start = now_ns();
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let c0 = now_ns();
        let cycle = log.push(Kind::Cycle, ROOT, c0, c0, NO_SEQ, NO_SEQ);
        let events = match server.drain_captured() {
            Ok(evs) => evs,
            Err(_) => {
                t.eval_errors += 1;
                Vec::new()
            }
        };
        let d1 = now_ns();
        let (lo, hi) = events
            .iter()
            .map(seq_of)
            .fold((NO_SEQ, 0), |(lo, hi), s| (lo.min(s), hi.max(s)));
        log.push(
            Kind::Drain,
            cycle,
            c0,
            d1,
            lo,
            if events.is_empty() { NO_SEQ } else { hi },
        );
        if !events.is_empty() {
            t.nonempty_drains += 1;
        }
        for e in &events {
            let s = seq_of(e);
            let r = offer_ret(s);
            if r != 0 {
                t.admission_wait_ns.push(c0.saturating_sub(r) as f64);
            }
        }
        for e in &events {
            let s = seq_of(e);
            t.events += 1;
            let e0 = now_ns();
            let result = server.evaluate_event(e);
            log.push(Kind::Evaluate, cycle, e0, now_ns(), s, s);
            let notes = result.map(|(_, notes)| notes).unwrap_or_else(|_| {
                t.eval_errors += 1;
                Vec::new()
            });
            for n in notes {
                t.notes_offered += 1;
                let n0 = now_ns();
                let delivered = server.deliver(n);
                log.push(Kind::Deliver, cycle, n0, now_ns(), s, s);
                t.notes_delivered += delivered as u64;
            }
        }
        if let Some(history) = server.history() {
            let m0 = now_ns();
            let _ = history.maintain();
            log.push(Kind::Maintain, cycle, m0, now_ns(), NO_SEQ, NO_SEQ);
        }
        let r0 = now_ns();
        for q in server.queues().queue_names() {
            let _ = server.queues().reap_timeouts(&q);
        }
        let mut last = now_ns();
        log.push(Kind::Reap, cycle, r0, last, NO_SEQ, NO_SEQ);
        if stopping && events.is_empty() {
            log.spans[cycle as usize].end = last;
            break;
        }
        if server.admission().depth() == 0 {
            std::thread::sleep(Duration::from_millis(1));
            let i1 = now_ns();
            log.push(Kind::Idle, cycle, last, i1, NO_SEQ, NO_SEQ);
            last = i1;
        }
        log.spans[cycle as usize].end = last;
    }
    t.wall_ns = now_ns() - start;
    t
}
