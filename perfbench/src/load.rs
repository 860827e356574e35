//! The open-loop load model shared by every workload: a fixed-rate
//! phase (latency) and a saturation phase (throughput), the per-event
//! ledger both phases fill, and the end-to-end metrics computed from it.
//!
//! Every event is timed from its *scheduled* send time, so a stall that
//! delays later sends is charged to those events too. An event that
//! never completes counts as above any latency limit and as failed.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::util::{median, now_ns, quantile, sorted};

/// Share of the fixed-rate phase's first events left out of the latency
/// percentiles (caches, allocator pools and lazily built state warm up
/// there). They are still offered, completed and checked.
pub const WARMUP_SHARE: f64 = 0.1;

/// Longest a phase may wait for its offered events to complete.
pub const COMPLETION_TIMEOUT_NS: u64 = 30_000_000_000;

/// Each pass's measured fixed-phase events are cut into consecutive
/// windows of at least this many events (so a window's p99 has at least
/// ten samples beyond it), at most [`MAX_LAT_WINDOWS`] of them; a pass
/// with fewer events is one window (on `journal_queue`, whose passes
/// measure about 75 events each, a window's p99 is its highest
/// latency). The tail percentiles reported are the lower quartile of the
/// windows' values: stalls the host causes (a hypervisor preempting the
/// VM for a few milliseconds, in bursts that hit some windows and not
/// others) do not decide the run's figure as long as a quarter of its
/// windows escape them, while a tail the program causes in most windows
/// still does.
pub const MIN_WINDOW_EVENTS: usize = 1_000;
pub const MAX_LAT_WINDOWS: usize = 20;

/// The fixed-phase generator-lateness bound: a run whose generator p99
/// falls further behind its schedule than this is marked invalid,
/// because the offered rate was then not the stated one.
pub const GEN_LATE_BOUND_MS: f64 = 50.0;

/// One phase of the schedule: `count` events from `first`, at `rate`.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub first: usize,
    pub count: usize,
    pub rate: f64,
}

impl Phase {
    pub fn range(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.count
    }

    pub fn period_ns(&self) -> f64 {
        1e9 / self.rate
    }

    /// Nominal length of the phase's offer window.
    pub fn secs(&self) -> f64 {
        self.count as f64 / self.rate
    }
}

/// A workload's load shape: the fixed rate (events/s) and the share of
/// `--seconds` over which it is offered, the saturation rate and its
/// share, the bursts the saturation phase is cut into, and the timed
/// passes (each on a fresh set-up) the run's offers are split over.
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    pub fixed: f64,
    pub fixed_share: f64,
    pub sat: f64,
    pub sat_share: f64,
    pub bursts: usize,
    pub passes: usize,
}

/// The two phases of one pass, derived from `--seconds`: over all
/// passes, `fixed_share` of the run at the fixed rate, then `sat_share`
/// of it offered at the saturation rate, in bursts that are each drained
/// before the next starts (a pass's `max_evs` is the median of its
/// bursts' goodputs).
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub fixed: Phase,
    pub sat: Phase,
    pub bursts: usize,
    pub passes: usize,
}

impl Plan {
    pub fn new(seconds: f64, rates: Rates) -> Plan {
        let passes = rates.passes.max(1);
        let per_pass = seconds / passes as f64;
        let nf = (per_pass * rates.fixed_share * rates.fixed)
            .round()
            .max(1.0) as usize;
        let ns = (per_pass * rates.sat_share * rates.sat).round().max(1.0) as usize;
        Plan {
            fixed: Phase {
                first: 0,
                count: nf,
                rate: rates.fixed,
            },
            sat: Phase {
                first: nf,
                count: ns,
                rate: rates.sat,
            },
            bursts: rates.bursts.clamp(1, ns),
            passes,
        }
    }

    pub fn total(&self) -> usize {
        self.fixed.count + self.sat.count
    }

    pub fn warmup(&self) -> usize {
        (self.fixed.count as f64 * WARMUP_SHARE) as usize
    }

    /// The saturation phase as bursts, each offered at the saturation
    /// rate and drained before the next starts.
    pub fn bursts(&self) -> Vec<Phase> {
        let n = self.sat.count / self.bursts;
        (0..self.bursts)
            .map(|b| Phase {
                first: self.sat.first + b * n,
                count: if b + 1 == self.bursts {
                    self.sat.count - b * n
                } else {
                    n
                },
                rate: self.sat.rate,
            })
            .collect()
    }

    /// Every phase in run order: the fixed phase, then the bursts.
    pub fn phases(&self) -> Vec<Phase> {
        std::iter::once(self.fixed).chain(self.bursts()).collect()
    }
}

/// Per-event record of one pass. Producer columns are written by the
/// load thread; completion columns by whichever thread observes the
/// completion (the pump, the shard merge stage, or the subscriber).
pub struct Ledger {
    pub sched: Vec<AtomicU64>,
    pub offer_start: Vec<AtomicU64>,
    pub offer_ret: Vec<AtomicU64>,
    pub comp: Vec<AtomicU64>,
    /// Completion units seen per event (probe notifications, or
    /// subscription updates on the wire). More than expected is a
    /// duplicate; fewer means never completed.
    pub units: Vec<AtomicU32>,
    /// Offers that returned an error (rejections, error replies).
    pub offer_errors: AtomicU64,
    /// Completion units for an event that was not offered, or beyond
    /// the expected count.
    pub extra_units: AtomicU64,
}

impl Ledger {
    pub fn new(n: usize) -> Ledger {
        let col = || (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Ledger {
            sched: col(),
            offer_start: col(),
            offer_ret: col(),
            comp: col(),
            units: (0..n).map(|_| AtomicU32::new(0)).collect(),
            offer_errors: AtomicU64::new(0),
            extra_units: AtomicU64::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.comp.len()
    }

    /// Count one completion unit for event `i` at time `t`; the event
    /// completes when its units reach `need`.
    pub fn unit(&self, i: usize, need: u32, t: u64) {
        let Some(u) = self.units.get(i) else {
            self.extra_units.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let seen = u.fetch_add(1, Ordering::Relaxed) + 1;
        if seen == need {
            self.comp[i].store(t.max(1), Ordering::Release);
        } else if seen > need {
            self.extra_units.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn offered(&self, i: usize) -> bool {
        self.offer_start[i].load(Ordering::Relaxed) != 0
    }

    pub fn completed(&self, i: usize) -> bool {
        self.comp[i].load(Ordering::Acquire) != 0
    }

    /// Events offered: offers go in index order and stop only at the
    /// hard stop, so they form a prefix.
    pub fn offered_count(&self) -> usize {
        (0..self.len()).take_while(|&i| self.offered(i)).count()
    }

    /// Offered events that saw exactly `need` completion units.
    pub fn exactly(&self, need: u32) -> usize {
        (0..self.offered_count())
            .filter(|&i| self.units[i].load(Ordering::Relaxed) == need)
            .count()
    }

    /// Wait up to `max_ns` for every offered event of `phase` to
    /// complete; returns whether all have. Callers loop on it so they
    /// can do housekeeping between slices.
    pub fn await_phase_for(&self, phase: &Phase, max_ns: u64) -> bool {
        let deadline = now_ns() + max_ns;
        let mut i = phase.first;
        while i < phase.first + phase.count {
            if !self.offered(i) || self.completed(i) {
                i += 1;
                continue;
            }
            if now_ns() > deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        true
    }
}

/// Open-loop generator for one phase: event `i` is due at
/// `t0 + (i - first) * period`. `wait(target)` blocks until the target
/// (sleeping, or reading replies meanwhile); `offer(i)` sends the event,
/// records when its offer returned (see [`offer_call`]; a wire offer
/// returns when its reply arrives, possibly after later sends) and
/// returns whether it was accepted. Offers stop at
/// `hard_stop_ns` so a badly regressed program cannot run the benchmark
/// past its time limit; events not offered by then are not attempted.
pub fn drive_phase(
    ledger: &Ledger,
    phase: &Phase,
    hard_stop_ns: u64,
    mut wait: impl FnMut(u64),
    mut offer: impl FnMut(usize) -> bool,
) {
    let t0 = now_ns() + 1_000_000;
    let period = phase.period_ns();
    for (k, i) in phase.range().enumerate() {
        let target = t0 + (k as f64 * period) as u64;
        ledger.sched[i].store(target, Ordering::Relaxed);
        wait(target);
        let start = now_ns();
        if start > hard_stop_ns {
            ledger.sched[i].store(0, Ordering::Relaxed);
            break;
        }
        ledger.offer_start[i].store(start, Ordering::Relaxed);
        if !offer(i) {
            ledger.offer_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Offer through a call that returns when the producer may go on (the
/// library API): its return time is the offer's `offer_ret`.
pub fn offer_call(ledger: &Ledger, i: usize, call: impl FnOnce() -> bool) -> bool {
    let ok = call();
    ledger.offer_ret[i].store(now_ns(), Ordering::Relaxed);
    ok
}

/// The end-to-end numbers of one pass, or of a run's passes pooled.
#[derive(Clone, Debug, Default)]
pub struct E2e {
    pub lat_p50_ms: f64,
    /// Lower quartile over the latency windows of each window's p99.
    pub lat_p99_ms: f64,
    /// p99 over the whole measured fixed phase.
    pub lat_p99_all_ms: f64,
    pub lat_p99_windows: Vec<f64>,
    pub lat_samples: usize,
    pub ack_p50_ms: f64,
    /// As `lat_p99_ms`, for the offer's p90 and p99 (recorded, not
    /// gated: on the library workloads the p99 is a few microseconds set
    /// by VM preemption).
    pub ack_p90_ms: f64,
    pub ack_p99_ms: f64,
    pub ack_p99_all_ms: f64,
    /// Median of the bursts' goodputs.
    pub max_evs: f64,
    pub burst_evs: Vec<f64>,
    pub sat_completed: usize,
    pub gen_late_p99_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The measured fixed-phase events' latencies, acks and generator
    /// lateness (ms), in offer order: what [`combine`] pools.
    pub samples: Samples,
}

#[derive(Clone, Debug, Default)]
pub struct Samples {
    pub lat: Vec<f64>,
    pub ack: Vec<f64>,
    pub late: Vec<f64>,
    /// Where each pass's samples end: no latency window spans two passes.
    pub pass_ends: Vec<usize>,
}

/// Compute the pass's end-to-end metrics from its ledger. `failed_extra`
/// adds failures only the workload can see (hub drops, shed events).
pub fn e2e(ledger: &Ledger, plan: &Plan, failed_extra: u64) -> E2e {
    let ms = |ns: u64| ns as f64 / 1e6;
    let get = |col: &[AtomicU64], i: usize| col[i].load(Ordering::Relaxed);
    let measured: Vec<usize> = (plan.fixed.first + plan.warmup()
        ..plan.fixed.first + plan.fixed.count)
        .filter(|&i| ledger.offered(i))
        .collect();
    let samples = Samples {
        lat: (measured.iter())
            .map(|&i| match get(&ledger.comp, i) {
                0 => f64::INFINITY,
                c => ms(c.saturating_sub(get(&ledger.sched, i))),
            })
            .collect(),
        ack: (measured.iter())
            .map(|&i| ms(get(&ledger.offer_ret, i).saturating_sub(get(&ledger.offer_start, i))))
            .collect(),
        late: (measured.iter())
            .map(|&i| ms(get(&ledger.offer_start, i).saturating_sub(get(&ledger.sched, i))))
            .collect(),
        pass_ends: vec![measured.len()],
    };

    let mut burst_evs = Vec::new();
    let mut sat_completed = 0usize;
    for burst in plan.bursts() {
        let mut first_offer = u64::MAX;
        let mut last_comp = 0u64;
        let mut done = 0usize;
        for i in burst.range().filter(|&i| ledger.offered(i)) {
            first_offer = first_offer.min(get(&ledger.offer_start, i));
            let c = get(&ledger.comp, i);
            if c != 0 {
                done += 1;
                last_comp = last_comp.max(c);
            }
        }
        sat_completed += done;
        burst_evs.push(if done > 0 && last_comp > first_offer {
            done as f64 / ((last_comp - first_offer) as f64 / 1e9)
        } else {
            0.0
        });
    }

    let mut attempted = 0u64;
    let mut never = 0u64;
    for i in 0..ledger.len() {
        if ledger.offered(i) {
            attempted += 1;
            if !ledger.completed(i) {
                never += 1;
            }
        }
    }
    let failed = never
        + ledger.offer_errors.load(Ordering::Relaxed)
        + ledger.extra_units.load(Ordering::Relaxed)
        + failed_extra;
    figures(samples, burst_evs, sat_completed, attempted, failed)
}

/// Pool a run's timed passes into the run's figures: the passes' measured
/// fixed-phase samples are concatenated (each pass keeping its own latency
/// windows), and every burst counts in the goodput median. A run of one
/// pass reports exactly that pass's figures.
pub fn combine(passes: &[E2e]) -> E2e {
    let mut samples = Samples::default();
    for p in passes {
        samples.lat.extend(&p.samples.lat);
        samples.ack.extend(&p.samples.ack);
        samples.late.extend(&p.samples.late);
        samples.pass_ends.push(samples.lat.len());
    }
    figures(
        samples,
        passes
            .iter()
            .flat_map(|p| p.burst_evs.iter().copied())
            .collect(),
        passes.iter().map(|p| p.sat_completed).sum(),
        passes.iter().map(|p| p.attempted).sum(),
        passes.iter().map(|p| p.failed).sum(),
    )
}

/// The percentiles of measured samples (per window, see
/// [`MIN_WINDOW_EVENTS`], and over all) and the bursts' goodput median.
fn figures(
    samples: Samples,
    burst_evs: Vec<f64>,
    sat_completed: usize,
    attempted: u64,
    failed: u64,
) -> E2e {
    let n = samples.lat.len();
    let mut windows: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0;
    for &end in &samples.pass_ends {
        let len = end - start;
        let k = (len / MIN_WINDOW_EVENTS).clamp(1, MAX_LAT_WINDOWS);
        windows.extend((0..k).map(|w| start + w * len / k..start + (w + 1) * len / k));
        start = end;
    }
    let per_window = |v: &[f64], q: f64| -> Vec<f64> {
        (windows.iter())
            .map(|w| quantile(&sorted(v[w.clone()].to_vec()), q))
            .collect()
    };
    let lower_quartile = |v: &[f64]| quantile(&sorted(v.to_vec()), 0.25);
    let lat = sorted(samples.lat.clone());
    let ack = sorted(samples.ack.clone());
    let lat_p99_windows = per_window(&samples.lat, 0.99);
    E2e {
        lat_p50_ms: quantile(&lat, 0.5),
        lat_p99_ms: lower_quartile(&lat_p99_windows),
        lat_p99_all_ms: quantile(&lat, 0.99),
        lat_p99_windows,
        lat_samples: n,
        ack_p50_ms: quantile(&ack, 0.5),
        ack_p90_ms: lower_quartile(&per_window(&samples.ack, 0.90)),
        ack_p99_ms: lower_quartile(&per_window(&samples.ack, 0.99)),
        ack_p99_all_ms: quantile(&ack, 0.99),
        max_evs: median(&burst_evs),
        burst_evs,
        sat_completed,
        gen_late_p99_ms: quantile(&sorted(samples.late.clone()), 0.99),
        attempted,
        failed,
        samples,
    }
}
