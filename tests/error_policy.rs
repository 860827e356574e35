//! One error policy in both pump modes: an admitted event that fails —
//! in a rule, in its history append — is counted once and skipped, and
//! every other event drained with it is still evaluated and delivered.
//! A capture whose poll fails is skipped for that cycle without losing
//! the batch already staged. `pump()`, the background sequential pump
//! and the sharded pump must produce the same ledger.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evdb::core::history::HistoryConfig;
use evdb::core::server::ServerConfig;
use evdb::core::{spawn_pump_with, CaptureMechanism, EventServer, PumpMode};
use evdb::faults::{FaultInjector, IoFault};
use evdb::storage::SegmentStoreOptions;
use evdb::types::{DataType, Record, Schema, SimClock, TimestampMs, Value};

/// What one run leaves behind: events processed, errors counted, and
/// the delivered notifications' keys in delivery order.
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    processed: u64,
    errors: u64,
    delivered: Vec<String>,
}

/// How a run drives the staged events through evaluation.
#[derive(Debug, Clone, Copy)]
enum Drive {
    Pump,
    Background(PumpMode),
}

const DRIVES: [Drive; 3] = [
    Drive::Pump,
    Drive::Background(PumpMode::Sequential),
    Drive::Background(PumpMode::Sharded { workers: 1 }),
];

fn server() -> Arc<EventServer> {
    let server = EventServer::in_memory(ServerConfig {
        clock: SimClock::new(TimestampMs(1_000)),
        ..Default::default()
    })
    .unwrap();
    server
        .create_stream(
            "s",
            Schema::of(&[("seq", DataType::Int), ("x", DataType::Int)]),
        )
        .unwrap();
    // One notification per event, keyed by `seq` so VIRT never merges two.
    server
        .add_alert_rule("seen", "s", "x >= 0", 1.0, Some("seq"))
        .unwrap();
    Arc::new(server)
}

fn row(seq: i64, x: i64) -> Record {
    Record::from_iter([Value::Int(seq), Value::Int(x)])
}

/// Run the staged events through `drive` and read the ledger. A
/// background pump is started after the events are staged, so its
/// first cycle drains them all together, and stopped once `want`
/// events are processed and `want_errors` errors counted (or after
/// ten seconds).
fn run(server: &Arc<EventServer>, drive: Drive, want: u64, want_errors: u64) -> Ledger {
    let errors = match drive {
        Drive::Pump => server.pump().unwrap().errors,
        Drive::Background(mode) => {
            let handle = spawn_pump_with(server, Duration::from_millis(1), mode);
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline
                && (server.metrics().snapshot().events_processed < want
                    || handle.errors() < want_errors)
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            let errors = handle.errors();
            // Stopping joins the merge stage, so every notification the
            // workers produced has been delivered when this returns.
            handle.stop();
            errors
        }
    };
    Ledger {
        processed: server.metrics().snapshot().events_processed,
        errors,
        delivered: server
            .notifications()
            .drain_delivered()
            .into_iter()
            .map(|n| n.key)
            .collect(),
    }
}

#[test]
fn errored_event_is_counted_and_the_rest_of_the_drain_runs() {
    let mut ledgers = Vec::new();
    for drive in DRIVES {
        let server = server();
        // Overflows for x = 2 only (checked integer arithmetic errors).
        server
            .add_alert_rule("wide", "s", "x * 9223372036854775807 > 1", 1.0, None)
            .unwrap();
        for seq in 0..5 {
            let x = if seq == 2 { 2 } else { 0 };
            server
                .ingest_async("s", TimestampMs(seq), row(seq, x))
                .unwrap();
        }
        let ledger = run(&server, drive, 5, 1);
        assert_eq!(
            ledger.processed, 5,
            "{drive:?}: every admitted event is evaluated"
        );
        assert_eq!(ledger.errors, 1, "{drive:?}: the overflow is counted once");
        assert_eq!(
            ledger.delivered,
            ["seen:0", "seen:1", "seen:3", "seen:4"],
            "{drive:?}: the good events' notifications, in order"
        );
        ledgers.push(ledger);
    }
    assert_eq!(ledgers[0], ledgers[1]);
    assert_eq!(ledgers[0], ledgers[2]);
}

/// A server whose query-poll capture fails on every poll (its table is
/// gone), with three events staged on another stream.
fn server_with_broken_capture() -> Arc<EventServer> {
    let server = server();
    server
        .db()
        .create_table("t", Schema::of(&[("id", DataType::Int)]), "id")
        .unwrap();
    server
        .capture_table("t", CaptureMechanism::QueryPoll { interval_ms: 1 })
        .unwrap();
    server.db().drop_table("t").unwrap();
    for seq in 0..3 {
        server
            .ingest_async("s", TimestampMs(seq), row(seq, 0))
            .unwrap();
    }
    server
}

#[test]
fn failing_capture_poll_keeps_the_staged_batch() {
    let staged = server_with_broken_capture().drain_captured().unwrap();
    assert_eq!(staged.len(), 3, "drain_captured returns what it drained");
    for drive in DRIVES {
        // The clock is pinned, so the capture polls (and fails) once.
        let ledger = run(&server_with_broken_capture(), drive, 3, 1);
        assert_eq!(ledger.processed, 3, "{drive:?}");
        assert_eq!(ledger.errors, 1, "{drive:?}: the failed poll is counted");
        assert_eq!(
            ledger.delivered,
            ["seen:0", "seen:1", "seen:2"],
            "{drive:?}"
        );
    }
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "evdb-error-policy-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn history_append_failure_skips_only_the_failed_events() {
    let mut ledgers = Vec::new();
    for (i, drive) in DRIVES.into_iter().enumerate() {
        let server = server();
        let faults = FaultInjector::new(7);
        let dir = tmp(&format!("hist{i}"));
        server
            .enable_history(
                &dir,
                HistoryConfig {
                    store: SegmentStoreOptions {
                        faults: Some(Arc::clone(&faults)),
                        ..Default::default()
                    },
                    compaction: None,
                },
            )
            .unwrap();
        // A first event opens the stream's store, so the armed countdown
        // below sees head appends only.
        server.ingest("s", TimestampMs(0), row(0, 0)).unwrap();
        server.notifications().drain_delivered();
        // Two clean appends, then a power cut at the third; the crashed
        // store refuses every append after it.
        faults.arm(2, IoFault::PowerCut);
        for seq in 1..=6 {
            server
                .ingest_async("s", TimestampMs(seq), row(seq, 0))
                .unwrap();
        }
        let ledger = run(&server, drive, 7, 4);
        assert_eq!(faults.crash_site().as_deref(), Some("seg.head.append"));
        assert_eq!(ledger.processed, 7, "{drive:?}");
        assert_eq!(
            ledger.errors, 4,
            "{drive:?}: each failed event counted once"
        );
        assert_eq!(ledger.delivered, ["seen:1", "seen:2"], "{drive:?}");
        let _ = std::fs::remove_dir_all(&dir);
        ledgers.push(ledger);
    }
    assert_eq!(ledgers[0], ledgers[1]);
    assert_eq!(ledgers[0], ledgers[2]);
}
