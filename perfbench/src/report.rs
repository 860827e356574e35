//! What a run reports: the metric catalogue, output checks, and the
//! result line plus the result file written beside it.

use std::path::Path;

use crate::load::{combine, E2e, Plan, GEN_LATE_BOUND_MS};
use crate::trace::{Kind, PumpTrace, SpanLog};
use crate::util::{
    cpu_steal, git_revision, median, now_ns, nproc, peak_rss_mib, quantile, sorted, Json,
};
use crate::Cfg;

/// Set-ups before each timed pass; `setup_s` is the median over the
/// run's set-ups.
pub const SETUPS: usize = 15;

/// A timed attempt (all of the plan's passes) during which the
/// hypervisor stole more than this share of the VM's CPU time is run
/// again, up to `TIMED_ATTEMPTS` in all, and the attempt with the least
/// stolen time supplies the end-to-end metrics. On a shared host, steal
/// comes in bursts of tens of seconds that lift every latency and lower
/// every rate of the runs they hit; the program cannot cause them.
pub const STEAL_RETRY_SHARE: f64 = 0.01;
pub const TIMED_ATTEMPTS: usize = 2;

/// No retry starts unless the run, retry and traced pass included, is
/// expected to end within this many seconds of the process start (runs
/// must end within 180 s).
pub const RUN_BUDGET_S: f64 = 110.0;

/// What one timed pass yields.
pub struct Timed {
    pub e2e: E2e,
    pub setups: Vec<f64>,
    pub checks: Vec<Check>,
    pub facts: Vec<(&'static str, f64)>,
}

/// End-to-end metrics (reported with `--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("max_evs", "ev/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (reported with `--trace 1`). A layer a workload
/// does not pass through reads 0 and is listed as not applicable in the
/// result file.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.fanout_ms_p50", "ms"),
    ("server.frames_per_read", "count"),
    ("server.parse_ns_per_frame", "ns"),
    ("server.render_ns_per_row", "ns"),
    ("server.threads", "count"),
    ("server.updates_dropped", "count"),
    ("admission.wait_ms_p50", "ms"),
    ("admission.depth_peak", "count"),
    ("pump.events_per_drain", "count"),
    ("pump.idle_frac", "ratio"),
    ("pump.span_coverage", "ratio"),
    ("capture.drain_ms_p99", "ms"),
    ("eval.ns_per_event", "ns"),
    ("notify.deliver_ns_per_note", "ns"),
    ("notify.per_event", "count"),
    ("notify.pass_ratio", "ratio"),
    ("shard.skew", "ratio"),
    ("shard.queue_depth_peak", "count"),
    ("rules.candidates_per_event", "count"),
    ("rules.useful_ratio", "ratio"),
    ("rules.match_ns_per_event", "ns"),
    ("expr.eval_ns_per_row", "ns"),
    ("cq.push_ns_per_event", "ns"),
    ("cq.derived_per_event", "count"),
    ("storage.wal_bytes_per_event", "B"),
    ("history.maintain_ms_p99", "ms"),
    ("history.query_ms_p50", "ms"),
    ("history.segments", "count"),
    ("queue.consume_us_per_msg", "us"),
    ("queue.lag_peak", "count"),
    ("bench.gen_late_ms_p99", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.trace_lat_p50_delta_frac", "ratio"),
];

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// One pass's end-to-end numbers, with sample counts, for the result
/// file.
fn pass_json(e: &E2e) -> Json {
    Json::obj(vec![
        ("lat_p50_ms", Json::Num(e.lat_p50_ms)),
        ("lat_p99_ms", Json::Num(e.lat_p99_ms)),
        ("lat_p99_windows_ms", nums(&e.lat_p99_windows)),
        ("lat_p99_all_ms", Json::Num(e.lat_p99_all_ms)),
        ("lat_samples", Json::Int(e.lat_samples as i64)),
        ("ack_p50_ms", Json::Num(e.ack_p50_ms)),
        ("ack_p90_ms", Json::Num(e.ack_p90_ms)),
        ("ack_p99_ms", Json::Num(e.ack_p99_ms)),
        ("ack_p99_all_ms", Json::Num(e.ack_p99_all_ms)),
        ("max_evs", Json::Num(e.max_evs)),
        ("burst_evs", nums(&e.burst_evs)),
        ("max_evs_samples", Json::Int(e.sat_completed as i64)),
        ("gen_late_p99_ms", Json::Num(e.gen_late_p99_ms)),
        ("attempted", Json::Int(e.attempted as i64)),
        ("failed", Json::Int(e.failed as i64)),
    ])
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|x| Json::Num(*x)).collect())
}

/// Per-layer values set by a workload's traced pass.
#[derive(Default)]
pub struct Layer {
    vals: Vec<(&'static str, f64)>,
}

impl Layer {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.vals.retain(|(n, _)| *n != name);
        self.vals.push((name, v));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.vals.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The metrics the traced pump loop yields.
    pub fn pump(&mut self, pt: &PumpTrace, log: &SpanLog) {
        let events = pt.events.max(1) as f64;
        self.set(
            "pump.events_per_drain",
            pt.events as f64 / pt.nonempty_drains.max(1) as f64,
        );
        self.set(
            "pump.idle_frac",
            log.total_ns(Kind::Idle) / pt.wall_ns.max(1) as f64,
        );
        self.set("pump.span_coverage", pt.coverage(log));
        self.set("capture.drain_ms_p99", log.p(Kind::Drain, 0.99) / 1e6);
        self.set("eval.ns_per_event", log.total_ns(Kind::Evaluate) / events);
        if log.count(Kind::Deliver) > 0 {
            self.set(
                "notify.deliver_ns_per_note",
                log.total_ns(Kind::Deliver) / log.count(Kind::Deliver) as f64,
            );
        }
        if !pt.admission_wait_ns.is_empty() {
            self.set(
                "admission.wait_ms_p50",
                quantile(&sorted(pt.admission_wait_ns.clone()), 0.5) / 1e6,
            );
        }
        if log.count(Kind::Maintain) > 0 {
            self.set("history.maintain_ms_p99", log.p(Kind::Maintain, 0.99) / 1e6);
        }
    }
}

/// Build the instance for one timed pass [`SETUPS`] times, timing each;
/// the last one is returned for the load (earlier ones are dropped
/// before the next).
pub fn timed_setups<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = now_ns();
        let inst = f();
        times.push((now_ns() - t0) as f64 / 1e9);
        last = Some(inst);
    }
    (last.expect("at least one set-up"), times)
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub plan: Plan,
    pub setup_samples: Vec<f64>,
    pub timed: Option<E2e>,
    /// Every timed attempt: the share of the VM's CPU time the host
    /// stole during it, and its passes' own numbers.
    pub attempts: Vec<(f64, Vec<E2e>)>,
    pub traced: Option<E2e>,
    pub layers: Layer,
    pub checks: Vec<Check>,
    pub info: Vec<(String, Json)>,
    pub spans: Vec<(&'static str, SpanLog)>,
    pub peak_rss_mb: f64,
}

impl Report {
    pub fn new(cfg: &Cfg, plan: &Plan) -> Report {
        Report {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            seconds: cfg.seconds,
            trace: cfg.trace,
            plan: *plan,
            setup_samples: Vec::new(),
            timed: None,
            attempts: Vec::new(),
            traced: None,
            layers: Layer::default(),
            checks: Vec::new(),
            info: Vec::new(),
            spans: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }

    pub fn info_num(&mut self, key: &str, v: f64) {
        self.info.push((key.to_string(), Json::Num(v)));
    }

    /// Run the plan's timed passes, each on a fresh set-up; `pass(k)`
    /// runs pass `k`, and the passes' samples are pooled (see
    /// [`combine`]). The whole attempt runs again if the host stole too
    /// much CPU time during it (see [`STEAL_RETRY_SHARE`]); the
    /// least-stolen attempt supplies the metrics, and every attempt's
    /// checks and failures count. The memory peak is read after the
    /// first attempt, so that it covers the same work in every run.
    pub fn timed_pass(&mut self, mut pass: impl FnMut(usize) -> Timed) {
        let n = self.plan.passes;
        let mut best: Option<(f64, Vec<Timed>)> = None;
        for attempt in 0..TIMED_ATTEMPTS {
            let before = cpu_steal();
            let t0 = now_ns();
            let mut passes = Vec::new();
            for k in 0..n {
                let mut t = pass(k);
                for mut c in std::mem::take(&mut t.checks) {
                    if n > 1 {
                        c.name = format!("pass {}: {}", k + 1, c.name);
                    }
                    if attempt > 0 {
                        c.name = format!("retry {attempt}: {}", c.name);
                    }
                    self.checks.push(c);
                }
                passes.push(t);
            }
            let secs = (now_ns() - t0) as f64 / 1e9;
            let share = match (before, cpu_steal()) {
                (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
                _ => 0.0,
            };
            if attempt == 0 {
                self.peak_rss_mb = peak_rss_mib();
            }
            let e2es = passes.iter().map(|t| t.e2e.clone()).collect();
            self.attempts.push((share, e2es));
            if best.as_ref().is_none_or(|(s, _)| share < *s) {
                best = Some((share, passes));
            }
            // A retry and the traced pass each take about as long again.
            let expected_end = now_ns() as f64 / 1e9 + secs * (1.0 + self.trace as u8 as f64);
            if share <= STEAL_RETRY_SHARE || expected_end > RUN_BUDGET_S {
                break;
            }
        }
        let (_, passes) = best.expect("at least one attempt");
        let mut facts: Vec<(&str, Vec<f64>)> = Vec::new();
        for t in &passes {
            self.setup_samples.extend(&t.setups);
            for &(k, v) in &t.facts {
                match facts.iter_mut().find(|(n, _)| *n == k) {
                    Some((_, vs)) => vs.push(v),
                    None => facts.push((k, vec![v])),
                }
            }
        }
        for (k, vs) in facts {
            self.info_num(k, median(&vs));
        }
        let e2es: Vec<E2e> = passes.into_iter().map(|t| t.e2e).collect();
        self.timed = Some(combine(&e2es));
    }

    /// Close the run: memory peak, the generator-lateness validity
    /// check, and the trace-overhead comparison.
    pub fn finish(&mut self) {
        if self.peak_rss_mb == 0.0 {
            self.peak_rss_mb = peak_rss_mib();
        }
        // Lateness decides whether a reported pass is valid; failures
        // count in every pass, reported or not.
        for (label, p) in [("timed", &self.timed), ("traced", &self.traced)] {
            if let Some(p) = p {
                let late = p.gen_late_p99_ms;
                self.checks.push(Check::new(
                    &format!("{label}: generator p99 lateness within {GEN_LATE_BOUND_MS} ms"),
                    late <= GEN_LATE_BOUND_MS,
                    format!("{late:.3} ms"),
                ));
            }
        }
        let passes = (self.attempts.iter().enumerate())
            .flat_map(|(a, (_, ps))| ps.iter().enumerate().map(move |(k, e)| (a, k, e)))
            .map(|(a, k, e)| (format!("timed attempt {} pass {}", a + 1, k + 1), e))
            .chain(self.traced.iter().map(|e| ("traced".to_string(), e)));
        for (label, p) in passes {
            self.checks.push(Check::new(
                &format!("{label}: no failed events"),
                p.failed == 0 && p.attempted > 0,
                format!("{} failed of {} attempted", p.failed, p.attempted),
            ));
        }
        if let (Some(t), Some(u)) = (&self.traced, &self.timed) {
            self.layers.set("bench.gen_late_ms_p99", u.gen_late_p99_ms);
            self.layers
                .set("bench.trace_overhead_frac", 1.0 - t.max_evs / u.max_evs);
            self.layers.set(
                "bench.trace_lat_p50_delta_frac",
                t.lat_p50_ms / u.lat_p50_ms - 1.0,
            );
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn all_passes(&self) -> impl Iterator<Item = &E2e> {
        (self.attempts.iter())
            .flat_map(|(_, ps)| ps.iter())
            .chain(self.traced.iter())
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let e = self.timed.as_ref().expect("timed pass");
        let vals = [
            median(&self.setup_samples),
            e.lat_p50_ms,
            e.lat_p99_ms,
            e.ack_p50_ms,
            e.max_evs,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(vals)
            .map(|((n, u), v)| (*n, v, *u))
            .collect()
    }

    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, self.layers.get(n).unwrap_or(0.0), *u))
            .collect()
    }

    /// The metrics of the result line: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        }
    }

    pub fn result_line(&self) -> String {
        let attempted: u64 = self.all_passes().map(|p| p.attempted).sum();
        let failed: u64 = self.all_passes().map(|p| p.failed).sum();
        let metrics = self
            .metrics()
            .into_iter()
            .map(|(n, v, u)| {
                (
                    n.to_string(),
                    Json::obj(vec![("value", Json::Num(v)), ("unit", Json::Str(u.into()))]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(attempted as i64)),
            ("failed", Json::Int(failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The full record: run parameters, both passes with sample
    /// counts, every metric, the checks, and workload facts.
    pub fn result_file(&self) -> Json {
        let phase = |p: &crate::load::Phase| {
            Json::obj(vec![
                ("events", Json::Int(p.count as i64)),
                ("rate_evs", Json::Num(p.rate)),
                ("offer_window_s", Json::Num(p.secs())),
            ])
        };
        let metric_list = |m: Vec<(&'static str, f64, &'static str)>| {
            Json::Obj(
                m.into_iter()
                    .map(|(n, v, u)| {
                        (
                            n.to_string(),
                            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::Str(u.into()))]),
                        )
                    })
                    .collect(),
            )
        };
        let mut fields = vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Int(self.seed as i64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("nproc", Json::Int(nproc() as i64)),
            ("git_revision", Json::Str(git_revision())),
            ("fixed_phase", phase(&self.plan.fixed)),
            ("saturation_phase", phase(&self.plan.sat)),
            ("warmup_events", Json::Int(self.plan.warmup() as i64)),
            ("gen_late_bound_ms", Json::Num(GEN_LATE_BOUND_MS)),
            ("setup_s_samples", nums(&self.setup_samples)),
            ("saturation_bursts", Json::Int(self.plan.bursts as i64)),
            ("timed_pass_count", Json::Int(self.plan.passes as i64)),
            ("end_to_end", metric_list(self.end_to_end())),
        ];
        if let Some(p) = &self.timed {
            fields.push(("timed_pass", pass_json(p)));
        }
        fields.push((
            "timed_attempts",
            Json::Arr(
                self.attempts
                    .iter()
                    .map(|(share, ps)| {
                        Json::obj(vec![
                            ("steal_share", Json::Num(*share)),
                            ("passes", Json::Arr(ps.iter().map(pass_json).collect())),
                        ])
                    })
                    .collect(),
            ),
        ));
        if let Some(p) = &self.traced {
            fields.push(("traced_pass", pass_json(p)));
            fields.push(("per_layer", metric_list(self.per_layer())));
            let na = PER_LAYER
                .iter()
                .filter(|(n, _)| self.layers.get(n).is_none())
                .map(|(n, _)| Json::Str(n.to_string()))
                .collect();
            fields.push(("not_applicable", Json::Arr(na)));
        }
        fields.push((
            "checks",
            Json::Arr(
                self.checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::Str(c.name.clone())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push(("workload_facts", Json::Obj(self.info.clone())));
        Json::obj(fields)
    }

    /// Write the result file (and the span dump of a traced run) under
    /// `dir`; returns the paths written.
    pub fn write(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload, self.seed, self.trace as u8
        );
        let mut written = Vec::new();
        let file = dir.join(format!("{stem}.json"));
        std::fs::write(&file, self.result_file().render() + "\n")?;
        written.push(file.display().to_string());
        if !self.spans.is_empty() {
            let file = dir.join(format!("{stem}-spans.csv"));
            let logs: Vec<(&str, &SpanLog)> = self.spans.iter().map(|(n, l)| (*n, l)).collect();
            crate::trace::dump(&file, &logs)?;
            written.push(file.display().to_string());
        }
        Ok(written)
    }

    /// Human-readable lines: every metric with unit and sample count,
    /// then every check.
    pub fn summary(&self) -> Vec<String> {
        let mut out = vec![format!(
            "perfbench {} seed={} seconds={} trace={} nproc={} rev={} fixed={}ev@{}ev/s sat={}ev@{}ev/s",
            self.workload,
            self.seed,
            self.seconds,
            self.trace as u8,
            nproc(),
            git_revision(),
            self.plan.fixed.count,
            self.plan.fixed.rate,
            self.plan.sat.count,
            self.plan.sat.rate
        )];
        if let Some(e) = &self.timed {
            out.push(format!(
                "  setup_s {:.4} s (median of {})",
                median(&self.setup_samples),
                self.setup_samples.len()
            ));
            out.push(format!(
                "  lat_p50_ms {:.4} ms, lat_p99_ms {:.4} ms ({} samples; window p99s {:.3?} ms)",
                e.lat_p50_ms, e.lat_p99_ms, e.lat_samples, e.lat_p99_windows
            ));
            out.push(format!(
                "  ack_p50_ms {:.4} ms, ack_p90_ms {:.4} ms, ack_p99 {:.4} ms ({} samples)",
                e.ack_p50_ms, e.ack_p90_ms, e.ack_p99_ms, e.lat_samples
            ));
            out.push(format!(
                "  max_evs {:.1} ev/s ({} completions; bursts {:.0?} ev/s), gen_late_p99 {:.3} ms",
                e.max_evs, e.sat_completed, e.burst_evs, e.gen_late_p99_ms
            ));
            out.push(format!("  peak_rss_mb {:.1} MiB", self.peak_rss_mb));
            let shares: Vec<f64> = self.attempts.iter().map(|(s, _)| *s).collect();
            out.push(format!(
                "  {} timed pass(es) per attempt; host CPU steal share per attempt {shares:.4?}",
                self.plan.passes
            ));
        }
        if self.trace {
            for (n, v, u) in self.per_layer() {
                out.push(format!("  {n} {v:.4} {u}"));
            }
        }
        for c in &self.checks {
            out.push(format!(
                "  [{}] {}: {}",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        out
    }
}
