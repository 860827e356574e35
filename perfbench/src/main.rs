//! EventDB benchmark: one workload, one seed, one run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human summary, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! The full record, and with `--trace 1` the span dump, is written
//! under `perfbench/out/`. See `perfbench/README.md`.

mod journal;
mod load;
mod replay;
mod report;
mod rules;
mod trace;
mod util;
mod wire;

use std::path::PathBuf;

pub const WORKLOADS: &[&str] = &["wire_fanout", "rules_10k", "rules_sharded", "journal_queue"];

pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Cfg {
    /// Offers stop this long after a pass of `plan` starts, so a badly
    /// regressed build still ends within the run's time limit (unsent
    /// events are not attempted; unfinished ones count as failed).
    pub fn hard_stop_ns(&self, plan: &load::Plan) -> u64 {
        (self.seconds * 3.0 / plan.passes as f64 * 1e9) as u64
    }

    /// Scratch space for on-disk state (history segments), inside the
    /// checkout.
    pub fn tmp_dir(&self) -> PathBuf {
        PathBuf::from("perfbench/tmp").join(format!("{}-{}", self.workload, std::process::id()))
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Cfg {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = val.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    if !(1.0..=60.0).contains(&seconds) {
        usage("--seconds must be within 1..=60");
    }
    Cfg {
        workload,
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let cfg = parse_args();
    util::now_ns();
    let report = match cfg.workload.as_str() {
        "wire_fanout" => wire::run(&cfg),
        "rules_10k" => rules::run(&cfg, false),
        "rules_sharded" => rules::run(&cfg, true),
        "journal_queue" => journal::run(&cfg),
        _ => unreachable!("validated in parse_args"),
    };
    for line in report.summary() {
        println!("{line}");
    }
    match report.write(std::path::Path::new("perfbench/out")) {
        Ok(files) => println!("  wrote {}", files.join(", ")),
        Err(e) => eprintln!("perfbench: could not write the result file: {e}"),
    }
    println!("{}", report.result_line());
}
