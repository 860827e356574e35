//! The sharded parallel pump: a router/worker/merge pipeline that
//! evaluates captured events on N threads while preserving the
//! sequential engine's per-key semantics.
//!
//! ```text
//!                        ┌────────────┐  bounded   ┌───────────┐
//!  captures ──drain──►   │   router   ├───────────►│ worker 0  ├──┐
//!  (trigger/journal/     │ hash(key)  ├───────────►│ worker 1  ├──┤
//!   poll/ingest_async)   │  → shard   ├───────────►│    …      ├──┼──► merge ──► VIRT
//!                        └────────────┘            └───────────┘  │    (NotificationCenter)
//!                                                                 ┘
//! ```
//!
//! * **Partitioning** — the router hashes each event's partition key
//!   ([`EventServer::partition_key_of`]: the stream name, optionally
//!   refined by a payload field) with [`shard_for`]. Same key ⇒ same
//!   shard ⇒ evaluated in arrival order, so stream-runtime windows,
//!   detector state and VIRT keys see exactly the sequence they would
//!   see sequentially.
//! * **Backpressure** — worker queues are bounded channels; when a
//!   worker falls behind, the router blocks on its queue rather than
//!   buffering without limit.
//! * **Delivery** — workers *collect* notifications
//!   ([`EventServer::evaluate_events`], the batched evaluation path)
//!   and the merge stage runs them through the stateful VIRT filter.
//!   Each worker feeds its own staging channel; the merge thread drains
//!   the shards in deterministic order (0..n) and delivers each drained
//!   batch through one filter-lock acquisition
//!   ([`EventServer::deliver_batch`]), so workers never contend on a
//!   shared merge queue. A key's notifications all ride one shard's
//!   channel in that worker's send order, so per-key delivery order
//!   still matches the sequential pump (D15).
//! * **Shutdown** — the router performs one final drain after the stop
//!   flag is raised, then drops the worker queues; workers finish their
//!   backlog and drop the merge queue; the merge delivers the tail.
//!   [`crate::PumpHandle`] joins the threads in that order, so no
//!   staged event or notification is lost on a clean stop.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel;
use evdb_types::Event;

use crate::metrics::{ShardMetrics, StageBatch};
use crate::notify::Notification;
use crate::server::{EvalScratch, EventServer};

/// In-flight batches a worker queue holds before the router blocks.
const WORKER_QUEUE_BATCHES: usize = 64;

/// In-flight notification batches each worker's private staging channel
/// holds before that worker blocks on the merge stage.
const MERGE_QUEUE_BATCHES: usize = 64;

/// How long the merge thread sleeps when every shard's staging channel
/// came up empty on a full drain pass.
const MERGE_IDLE: Duration = Duration::from_micros(50);

/// Map a partition key to a shard in `0..n`.
///
/// Uses [`DefaultHasher`] with its default (fixed) keys, so the mapping
/// is stable for the life of the process — the property the pipeline's
/// ordering guarantee rests on. Exposed so tests can assert routing
/// invariants.
pub fn shard_for(key: &str, n: usize) -> usize {
    assert!(n > 0, "shard_for: shard count must be positive");
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % n as u64) as usize
}

/// Spawn the sharded pipeline: 1 router + `workers` evaluators + 1
/// merge thread. Returns the joinable threads in shutdown-join order.
pub(crate) fn spawn_sharded(
    server: &Arc<EventServer>,
    interval: Duration,
    workers: usize,
    stop: &Arc<AtomicBool>,
    errors: &Arc<AtomicU64>,
    cycles: &Arc<AtomicU64>,
) -> Vec<JoinHandle<()>> {
    let n = workers.max(1);
    let shard_metrics = server.metrics().register_shards(n);

    let mut worker_txs: Vec<channel::Sender<Vec<Event>>> = Vec::with_capacity(n);
    let mut merge_rxs: Vec<channel::Receiver<Vec<Notification>>> = Vec::with_capacity(n);
    let mut evaluators: Vec<JoinHandle<()>> = Vec::with_capacity(n);
    for (i, metrics) in shard_metrics.iter().enumerate() {
        let (tx, rx) = channel::bounded::<Vec<Event>>(WORKER_QUEUE_BATCHES);
        worker_txs.push(tx);
        // Each worker stages into its own channel: no cross-worker
        // contention on the way to the merge, and the merge exits a
        // shard's drain when that worker (alone) has hung up.
        let (merge_tx, merge_rx) = channel::bounded::<Vec<Notification>>(MERGE_QUEUE_BATCHES);
        merge_rxs.push(merge_rx);
        let s = Arc::clone(server);
        let m = Arc::clone(metrics);
        let er = Arc::clone(errors);
        let t = std::thread::Builder::new()
            .name(format!("evdb-shard-{i}"))
            .spawn(move || worker_loop(&s, &rx, &merge_tx, &m, &er))
            .expect("spawn shard worker thread");
        evaluators.push(t);
    }

    let merge_thread = {
        let s = Arc::clone(server);
        std::thread::Builder::new()
            .name("evdb-merge".into())
            .spawn(move || merge_loop(&s, &merge_rxs))
            .expect("spawn merge thread")
    };

    let router_thread = {
        let s = Arc::clone(server);
        let st = Arc::clone(stop);
        let er = Arc::clone(errors);
        let cy = Arc::clone(cycles);
        let sm = shard_metrics;
        std::thread::Builder::new()
            .name("evdb-router".into())
            .spawn(move || router_loop(&s, interval, &worker_txs, &sm, &st, &er, &cy))
            .expect("spawn router thread")
    };

    // Join order for a clean shutdown: router first (closes worker
    // queues), then workers (close the merge queue), then merge.
    let mut threads = vec![router_thread];
    threads.extend(evaluators);
    threads.push(merge_thread);
    threads
}

fn router_loop(
    server: &Arc<EventServer>,
    interval: Duration,
    worker_txs: &[channel::Sender<Vec<Event>>],
    shard_metrics: &[Arc<ShardMetrics>],
    stop: &AtomicBool,
    errors: &AtomicU64,
    cycles: &AtomicU64,
) {
    let n = worker_txs.len();
    loop {
        // Read the flag *before* draining: the post-stop iteration then
        // ships everything staged up to the stop call.
        let stopping = stop.load(Ordering::SeqCst);
        let (events, failed_polls) = server.drain_counted();
        errors.fetch_add(failed_polls, Ordering::Relaxed);
        let mut batches: Vec<Vec<Event>> = (0..n).map(|_| Vec::new()).collect();
        let stamp_now = server.now();
        let mut stage_batch = StageBatch::default();
        for mut event in events {
            server.observe_route(&mut event, stamp_now, &mut stage_batch);
            let key = server.partition_key_of(&event);
            batches[shard_for(&key, n)].push(event);
        }
        server.stage_obs().flush(&mut stage_batch);
        let shed_at_router =
            server.admission().policy() == crate::admission::OverloadPolicy::ShedLowest;
        for (i, batch) in batches.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let len = batch.len() as u64;
            shard_metrics[i]
                .events_routed
                .fetch_add(len, Ordering::Relaxed);
            shard_metrics[i]
                .queue_depth
                .fetch_add(len, Ordering::Relaxed);
            if shed_at_router {
                // ShedLowest must not stall the router on one saturated
                // worker: a full queue sheds the batch into the same
                // accounting the admission gate uses, so offered ==
                // evaluated + shed + rejected still balances (DESIGN.md
                // D10).
                match worker_txs[i].try_send(batch) {
                    Ok(()) => {}
                    Err(channel::TrySendError::Full(batch)) => {
                        server.admission().note_shed(batch.len() as u64);
                        shard_metrics[i]
                            .queue_depth
                            .fetch_sub(len, Ordering::Relaxed);
                    }
                    Err(channel::TrySendError::Disconnected(_)) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        shard_metrics[i]
                            .queue_depth
                            .fetch_sub(len, Ordering::Relaxed);
                    }
                }
            } else if worker_txs[i].send(batch).is_err() {
                // Blocking send (Block/Reject): a full worker queue
                // backpressures the router instead of growing without
                // bound. Err means the worker died (only on panic); count
                // and go on.
                errors.fetch_add(1, Ordering::Relaxed);
                shard_metrics[i]
                    .queue_depth
                    .fetch_sub(len, Ordering::Relaxed);
            }
        }
        for q in server.queues().queue_names() {
            let _ = server.queues().reap_timeouts(&q);
        }
        cycles.fetch_add(1, Ordering::Relaxed);
        if stopping {
            break;
        }
        // Keep draining while producers are backed up on the staged
        // buffer; sleep only when the admission gate is empty.
        if server.admission().depth() == 0 {
            std::thread::sleep(interval);
        }
    }
    // Dropping the senders lets the workers drain their queues and exit.
}

fn worker_loop(
    server: &Arc<EventServer>,
    rx: &channel::Receiver<Vec<Event>>,
    merge: &channel::Sender<Vec<Notification>>,
    metrics: &ShardMetrics,
    errors: &AtomicU64,
) {
    let mut scratch = EvalScratch::default();
    // `recv` yields every batch still queued even after the router has
    // dropped the sender, so a stop never abandons routed events.
    while let Ok(mut batch) = rx.recv() {
        metrics.busy_cycles.fetch_add(1, Ordering::Relaxed);
        let mut pending = Vec::new();
        let stamp_now = server.now();
        let mut stage_batch = StageBatch::default();
        let (_derived, errs) =
            server.evaluate_events(&mut batch, stamp_now, &mut stage_batch, &mut scratch, &mut pending);
        errors.fetch_add(errs, Ordering::Relaxed);
        server.stage_obs().flush(&mut stage_batch);
        metrics
            .queue_depth
            .fetch_sub(batch.len() as u64, Ordering::Relaxed);
        if !pending.is_empty() && merge.send(pending).is_err() {
            // Merge stage gone: only possible mid-teardown after a
            // panic; stop consuming.
            break;
        }
    }
}

/// The merge stage: drain every shard's staging channel in a fixed
/// order (0..n), deliver the round's notifications as one batch, and
/// idle briefly when nothing arrived. Draining shard-by-shard in a
/// deterministic order keeps delivery fair across shards; per-key order
/// needs no cross-shard coordination because a key's notifications all
/// travel one shard's FIFO channel. Exits when every worker has hung up
/// and every channel is drained — crossbeam yields queued batches even
/// after a sender drops, so a clean stop delivers the tail.
fn merge_loop(server: &Arc<EventServer>, shards: &[channel::Receiver<Vec<Notification>>]) {
    let mut open = vec![true; shards.len()];
    let mut staged: Vec<Notification> = Vec::new();
    loop {
        let mut any_open = false;
        for (i, rx) in shards.iter().enumerate() {
            if !open[i] {
                continue;
            }
            loop {
                match rx.try_recv() {
                    Ok(notes) => staged.extend(notes),
                    Err(channel::TryRecvError::Empty) => {
                        any_open = true;
                        break;
                    }
                    Err(channel::TryRecvError::Disconnected) => {
                        open[i] = false;
                        break;
                    }
                }
            }
        }
        if !staged.is_empty() {
            server.deliver_batch(std::mem::take(&mut staged));
        } else if !any_open {
            break;
        } else {
            std::thread::sleep(MERGE_IDLE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_for_is_stable_and_in_range() {
        for n in 1..=16 {
            for key in ["ticks", "meters/7", "a", "", "stream/NULL"] {
                let s = shard_for(key, n);
                assert!(s < n);
                assert_eq!(s, shard_for(key, n), "same key must map identically");
            }
        }
    }

    #[test]
    fn shard_for_spreads_keys() {
        let n = 8;
        let mut hit = vec![false; n];
        for i in 0..256 {
            hit[shard_for(&format!("stream/{i}"), n)] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys should cover all 8 shards");
    }
}
