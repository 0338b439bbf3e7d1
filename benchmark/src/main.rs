//! The CausalIoT layer ledger: closed-loop workloads over the serving
//! hub and the fit pipeline, priced end to end in process CPU time and
//! layer by layer from spans around the benchmark's calls into each
//! layer. See `README.md` in this directory.
//!
//! ```text
//! ledger --workload <realtime|fleet_fit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod batched;
mod fleet_fit;
mod harness;
mod inputs;
mod layers;
mod procfs;
mod realtime;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use iot_telemetry::json::JsonValue;

use harness::{Ledger, Metrics, StateDir};
use trace::{Totals, Tracer};

const WORKLOADS: [&str; 2] = ["realtime", "fleet_fit"];
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 10;
/// Per-run state (WAL, snapshots, model stores), under the working
/// directory: the benchmark writes nowhere outside its checkout.
const STATE_BASE: &str = ".bench_state";
/// Where a traced run writes its spans.
const SPANS_DIR: &str = ".bench_out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = number()?,
                "--seconds" => args.seconds = number()?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(args)
    }

    /// How long the timed phase runs.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// A workload's result.
pub struct Outcome {
    ledger: Ledger,
    metrics: Metrics,
    clocks: harness::Span,
    events: u64,
    spans: Option<Tracer>,
}

impl Outcome {
    pub fn new(ledger: Ledger, metrics: Metrics, clocks: harness::Span, events: u64) -> Outcome {
        Outcome {
            ledger,
            metrics,
            clocks,
            events,
            spans: None,
        }
    }

    pub fn with_spans(mut self, tracer: Tracer) -> Outcome {
        self.spans = Some(tracer);
        self
    }
}

/// The end-to-end metrics of an untraced run. `whole` is the timed
/// phase's overall events per CPU second, the fallback when it was too
/// short to close a one-second window.
pub fn put_end_to_end(
    m: &mut Metrics,
    rates: &harness::RateWindows,
    whole: f64,
    recover_s: f64,
    setup_cpu_s: &[f64],
) {
    m.put("events_per_cpu_s", rates.median_or(whole), "events/CPU-s");
    m.put("recover_s", recover_s, "s");
    m.put("setup_s", stats::median(setup_cpu_s), "s");
}

/// Host and run context common to every traced workload: steal, the
/// wall-clock twins of the CPU figures, and tick latency.
pub fn put_context(m: &mut Metrics, c: &harness::Span, events: f64, ticks_us: &[f64]) {
    m.put("host.steal_frac", c.steal_frac(), "frac");
    m.put("wall.events_per_s", events / c.wall_s, "events/s");
    m.put("wall.tick_p50_us", stats::median(ticks_us), "us");
    let tail = stats::tail(ticks_us).expect("a timed phase runs at least one tick");
    m.put("wall.tick_p99_us", tail.value, "us");
    m.put("wall.tick_tail_pct", tail.percentile, "pct");
    m.put("wall.ticks", tail.samples as f64, "count");
}

/// Hub handoff layers from the spans around `Hub::submit*` and
/// `Hub::drain`. Drains forced by a full queue are child spans of the
/// submit, so submit is priced by its self time.
pub fn put_hub_spans(m: &mut Metrics, t: &BTreeMap<&str, Totals>, events: f64, queue_full: u64) {
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    m.put(
        "submit.ns_per_event",
        get("submit").self_ns as f64 / events,
        "ns",
    );
    m.put(
        "drain.ns_per_event",
        get("drain").total_ns as f64 / events,
        "ns",
    );
    m.put(
        "submit.queue_full_per_kevent",
        queue_full as f64 * 1e3 / events,
        "count",
    );
}

/// Fit-stage prices from the spans around the four `FitPipeline` stages,
/// plus the exact CI-test count per fit.
pub fn put_fit_spans(
    m: &mut Metrics,
    t: &BTreeMap<&str, Totals>,
    ci_tests: impl Iterator<Item = u64>,
) {
    for (span, metric) in [
        ("fit.preprocess", "fit.preprocess_ms"),
        ("fit.snapshot", "fit.snapshot_ms"),
        ("fit.mine", "fit.mine_ms"),
        ("fit.calibrate", "fit.calibrate_ms"),
    ] {
        let s = t.get(span).copied().unwrap_or_default();
        m.put(
            metric,
            s.total_ns as f64 / 1e6 / s.count.max(1) as f64,
            "ms",
        );
    }
    let tests: Vec<u64> = ci_tests.collect();
    m.put(
        "fit.ci_tests",
        tests.iter().sum::<u64>() as f64 / tests.len().max(1) as f64,
        "count",
    );
}

fn host_stamp(args: &Args, state: &Path, outcome: &Outcome) -> JsonValue {
    let mut host = JsonValue::object();
    host.push(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
    .push("cpu_model", procfs::cpu_model())
    .push("kernel", procfs::kernel_release())
    .push("state_fs", procfs::fs_type(state))
    .push("steal_s", outcome.clocks.steal_s)
    .push("telemetry", "disabled");
    let mut run = JsonValue::object();
    run.push("workload", args.workload.as_str())
        .push("seed", args.seed)
        .push("seconds", args.seconds)
        .push("trace", args.trace)
        .push("events", outcome.events)
        .push("wall_s", outcome.clocks.wall_s)
        .push("cpu_s", outcome.clocks.cpu_s)
        .push("host", host);
    run
}

fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<PathBuf> {
    fs::create_dir_all(SPANS_DIR)?;
    let path = Path::new(SPANS_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    fs::write(&path, tracer.render_jsonl())?;
    Ok(path)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    };
    let state = StateDir::create(Path::new(STATE_BASE)).unwrap_or_else(|e| {
        eprintln!("ledger: cannot create {STATE_BASE}: {e}");
        std::process::exit(2);
    });
    let mut outcome = match args.workload.as_str() {
        "realtime" => realtime::main(&args, &state),
        _ => fleet_fit::main(&args, &state),
    };
    if !args.trace {
        outcome
            .metrics
            .put("peak_rss_mb", procfs::peak_rss_mib(), "MiB");
    }
    let non_finite = outcome.metrics.non_finite();
    outcome.ledger.check(non_finite.is_empty(), || {
        format!("non-finite metrics: {non_finite:?}")
    });
    if let Some(tracer) = &outcome.spans {
        match write_spans(&args, tracer) {
            Ok(path) => eprintln!("ledger: spans written to {}", path.display()),
            Err(e) => eprintln!("ledger: could not write spans: {e}"),
        }
    }
    for failure in &outcome.ledger.failures {
        eprintln!("ledger: check failed: {failure}");
    }
    println!("{}", host_stamp(&args, state.root(), &outcome).render());
    drop(state);

    let mut result = JsonValue::object();
    result
        .push("correct", outcome.ledger.failed == 0)
        .push("attempted", outcome.ledger.attempted)
        .push("failed", outcome.ledger.failed)
        .push("metrics", outcome.metrics.to_json());
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "realtime",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("realtime", 9, 3, true)
        );
        let a = parse(&["--workload", "fleet_fit"]).expect("defaults");
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "backfill"]).is_err());
        assert!(parse(&["--workload", "realtime", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "realtime", "--seed"]).is_err());
    }
}
