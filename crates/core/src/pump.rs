//! Background pumping: liveness without hand-rolled loops.
//!
//! [`EventServer::pump`] is deliberately pull-driven for determinism; a
//! deployed server wants the pump to run continuously. [`spawn_pump`]
//! starts a worker thread that pumps on an interval and also performs
//! queue maintenance (visibility-timeout reaping), and shuts down
//! cleanly when the handle is stopped or dropped.
//!
//! [`spawn_pump_with`] selects the execution mode: the classic
//! single-threaded loop ([`PumpMode::Sequential`]) or the sharded
//! parallel pipeline ([`PumpMode::Sharded`], see [`crate::shard`]),
//! which partitions captured events by stream/partition key across N
//! evaluation workers behind the same [`PumpHandle`] API.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::server::EventServer;
use crate::shard;

/// How a background pump executes the evaluation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PumpMode {
    /// One thread: drain, then evaluate and deliver the drained events
    /// in chunks. The original, strictly ordered mode.
    #[default]
    Sequential,
    /// Router + N evaluation workers + merge stage. Events are
    /// partitioned by stream (or the stream's partition field, see
    /// [`EventServer::set_partition_field`]); events sharing a key stay
    /// on one worker in arrival order.
    Sharded {
        /// Worker count; `0` means `std::thread::available_parallelism()`.
        workers: usize,
    },
}

impl PumpMode {
    /// Sharded with one worker per available core.
    pub fn sharded_auto() -> PumpMode {
        PumpMode::Sharded { workers: 0 }
    }
}

/// Handle to a running pump (one thread sequential, N+2 sharded).
/// Stops (and joins) on drop.
pub struct PumpHandle {
    stop: Arc<AtomicBool>,
    errors: Arc<AtomicU64>,
    cycles: Arc<AtomicU64>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl PumpHandle {
    /// Signal the pump to stop and wait for its threads to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Pump cycles completed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Errors counted so far (never fatal): one per errored event, failed
    /// capture poll or history merge, in both modes.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Join in spawn order: the router drains once more and closes
        // the worker channels, workers finish their queues and close
        // the merge channel, the merge stage delivers the tail.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for PumpHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a background thread that calls [`EventServer::pump`] (and reaps
/// queue visibility timeouts) every `interval`.
///
/// Each cycle's [`PumpStats::errors`](crate::server::PumpStats::errors)
/// are added to the handle; an errored event is skipped and the rest of
/// its drain still runs — a poisoned event must not stop the feed
/// (callers watch [`PumpHandle::errors`]).
pub fn spawn_pump(server: &Arc<EventServer>, interval: Duration) -> PumpHandle {
    spawn_pump_with(server, interval, PumpMode::Sequential)
}

/// Start a background pump in the given [`PumpMode`].
pub fn spawn_pump_with(
    server: &Arc<EventServer>,
    interval: Duration,
    mode: PumpMode,
) -> PumpHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));
    let cycles = Arc::new(AtomicU64::new(0));
    let threads = match mode {
        PumpMode::Sequential => vec![spawn_sequential(server, interval, &stop, &errors, &cycles)],
        PumpMode::Sharded { workers } => {
            let n = if workers == 0 {
                std::thread::available_parallelism().map_or(1, |p| p.get())
            } else {
                workers
            };
            shard::spawn_sharded(server, interval, n, &stop, &errors, &cycles)
        }
    };
    PumpHandle {
        stop,
        errors,
        cycles,
        threads,
    }
}

fn spawn_sequential(
    server: &Arc<EventServer>,
    interval: Duration,
    stop: &Arc<AtomicBool>,
    errors: &Arc<AtomicU64>,
    cycles: &Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    let (s, st, er, cy) = (
        Arc::clone(server),
        Arc::clone(stop),
        Arc::clone(errors),
        Arc::clone(cycles),
    );
    std::thread::Builder::new()
        .name("evdb-pump".into())
        .spawn(move || {
            while !st.load(Ordering::SeqCst) {
                er.fetch_add(s.pump().map_or(1, |stats| stats.errors), Ordering::Relaxed);
                for q in s.queues().queue_names() {
                    let _ = s.queues().reap_timeouts(&q);
                }
                cy.fetch_add(1, Ordering::Relaxed);
                // Under load skip the idle sleep: producers may already
                // be blocked (or shedding) on a full staged buffer, and
                // every sleep tick would stretch the overload window.
                if s.admission().depth() == 0 {
                    std::thread::sleep(interval);
                }
            }
        })
        .expect("spawn pump thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CaptureMechanism, ServerConfig};
    use evdb_types::{DataType, Record, Schema, Value};

    fn journal_server() -> Arc<EventServer> {
        let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
        server
            .db()
            .create_table(
                "t",
                Schema::of(&[("id", DataType::Int), ("v", DataType::Float)]),
                "id",
            )
            .unwrap();
        let stream = server
            .capture_table("t", CaptureMechanism::Journal)
            .unwrap();
        server
            .add_alert_rule("any", &stream, "TRUE", 1.0, None)
            .unwrap();
        server
    }

    #[test]
    fn background_pump_processes_changes() {
        let server = journal_server();
        let handle = spawn_pump(&server, Duration::from_millis(5));
        for i in 0..20 {
            server
                .db()
                .insert(
                    "t",
                    Record::from_iter([Value::Int(i), Value::Float(i as f64)]),
                )
                .unwrap();
        }
        // Wait (bounded) for the pump to pick everything up.
        for _ in 0..400 {
            if server.metrics().snapshot().events_captured >= 20 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let cycles = handle.cycles();
        handle.stop();
        assert!(cycles > 0);
        assert_eq!(server.metrics().snapshot().events_captured, 20);
        // VIRT suppression: "any" rule has one key, so only the first
        // notification necessarily lands; captured count is the check.
    }

    #[test]
    fn sharded_pump_processes_changes() {
        let server = journal_server();
        let handle = spawn_pump_with(
            &server,
            Duration::from_millis(5),
            PumpMode::Sharded { workers: 3 },
        );
        for i in 0..20 {
            server
                .db()
                .insert(
                    "t",
                    Record::from_iter([Value::Int(i), Value::Float(i as f64)]),
                )
                .unwrap();
        }
        for _ in 0..400 {
            if server.metrics().snapshot().events_processed >= 20 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        let snap = server.metrics().snapshot();
        assert_eq!(snap.events_captured, 20);
        assert_eq!(snap.events_processed, 20);
        // One stream → one shard owns every event; the other counters
        // must stay untouched and queues must be fully drained.
        let shards = server.metrics().shard_snapshots();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.events_routed).sum::<u64>(), 20);
        assert_eq!(
            shards.iter().filter(|s| s.events_routed > 0).count(),
            1,
            "a single stream must map to a single shard"
        );
        assert!(shards.iter().all(|s| s.queue_depth == 0));
    }

    #[test]
    fn handle_drop_stops_thread() {
        let server = Arc::new(EventServer::in_memory(ServerConfig::default()).unwrap());
        let handle = spawn_pump(&server, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(10));
        drop(handle); // must not hang

        let handle = spawn_pump_with(&server, Duration::from_millis(1), PumpMode::sharded_auto());
        std::thread::sleep(Duration::from_millis(10));
        drop(handle); // must not hang either
    }
}
