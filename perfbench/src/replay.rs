//! Single-layer replays: after the load, the run's own inputs go
//! through one layer's public function at a time, single-threaded, so
//! that layer's cost per item is measured without the rest of the
//! pipeline around it.

use std::sync::Arc;

use evdb_cq::StreamRuntime;
use evdb_expr::{BatchScratch, CompiledExpr};
use evdb_rules::{IndexedMatcher, MatchScratch, Matcher, RuleId};
use evdb_types::{Event, EventId, Record, Schema, TimestampMs};

use crate::util::now_ns;

/// Rows per replay batch (the engine's batch VM block size).
pub const BATCH: usize = 256;

/// `protocol::parse_request` over request frames: ns per frame.
pub fn parse_ns_per_frame(lines: &[String]) -> f64 {
    let t0 = now_ns();
    let mut ok = 0usize;
    for l in lines {
        ok += evdb_server::protocol::parse_request(l).is_ok() as usize;
    }
    let dt = now_ns() - t0;
    assert_eq!(ok, lines.len(), "every replayed frame parses");
    dt as f64 / lines.len().max(1) as f64
}

/// `protocol::render_row` over result rows: ns per row.
pub fn render_ns_per_row(rows: &[Record]) -> f64 {
    let t0 = now_ns();
    let mut bytes = 0usize;
    for r in rows {
        bytes += evdb_server::protocol::render_row(r).len();
    }
    let dt = now_ns() - t0;
    std::hint::black_box(bytes);
    dt as f64 / rows.len().max(1) as f64
}

/// `IndexedMatcher::match_batch` over the records: returns ns per
/// record and each record's matching rule ids.
pub fn match_batch(matcher: &IndexedMatcher, records: &[Record]) -> (f64, Vec<Vec<RuleId>>) {
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();
    let mut hits = Vec::with_capacity(records.len());
    let mut busy = 0u64;
    for chunk in records.chunks(BATCH) {
        let refs: Vec<&Record> = chunk.iter().collect();
        let t0 = now_ns();
        matcher.match_batch(&refs, &mut scratch, &mut out);
        busy += now_ns() - t0;
        hits.extend(
            out.drain(..)
                .map(|r| r.expect("rule verification never errors here")),
        );
    }
    (busy as f64 / records.len().max(1) as f64, hits)
}

/// `CompiledExpr::matches_batch` of every predicate over the records:
/// ns per record (all predicates).
pub fn expr_ns_per_row(preds: &[CompiledExpr], records: &[Record]) -> f64 {
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    let mut busy = 0u64;
    let mut hits = 0usize;
    for chunk in records.chunks(BATCH) {
        let t0 = now_ns();
        for p in preds {
            p.matches_batch(chunk, |r| r, &mut scratch, &mut out);
            hits += scratch.selection().len();
        }
        busy += now_ns() - t0;
    }
    std::hint::black_box(hits);
    busy as f64 / records.len().max(1) as f64
}

/// The records as stream events (ids and timestamps in input order).
pub fn events(stream: &str, schema: &Arc<Schema>, records: &[Record]) -> Vec<Event> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Event::new(
                EventId(i as u64 + 1),
                stream,
                TimestampMs(i as i64),
                r.clone(),
                Arc::clone(schema),
            )
        })
        .collect()
}

/// `StreamRuntime::push_events` over the events into a runtime built by
/// `make` (the workload's streams and queries): ns per event and the
/// derived events produced.
pub fn cq_push(make: impl FnOnce() -> Arc<StreamRuntime>, events: &[Event]) -> (f64, u64) {
    let rt = make();
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    let mut busy = 0u64;
    let mut derived = 0u64;
    for chunk in events.chunks(BATCH) {
        let t0 = now_ns();
        rt.push_events(chunk, &mut scratch, &mut out);
        busy += now_ns() - t0;
        for r in out.drain(..) {
            derived += r.expect("replayed events evaluate").len() as u64;
        }
    }
    (busy as f64 / events.len().max(1) as f64, derived)
}
