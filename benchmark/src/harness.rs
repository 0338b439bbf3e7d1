//! Plumbing shared by the workloads: metric collection, CPU/wall
//! snapshots around timed phases, per-run state directories, and the
//! correctness ledger.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use iot_telemetry::json::JsonValue;

use crate::procfs;

/// Thread-name prefix of the hub's shard workers (`iot-serve-worker-N`,
/// truncated by the kernel to 15 bytes).
pub const WORKER_THREAD: &str = "iot-serve-worke";
/// Every thread a hub spawns (workers, supervisor, refitter).
pub const HUB_THREADS: &str = "iot-serve-";

/// Named metrics with units, in the order they were recorded.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name`, replacing an earlier value of the same name.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        for (name, value, unit) in &self.entries {
            let mut m = JsonValue::object();
            m.push("value", *value).push("unit", *unit);
            obj.push(name, m);
        }
        obj
    }
}

/// Operations attempted and failed, with a message per failed check.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records a correctness check; a failed one counts as a failed
    /// operation and fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Process, thread and host clocks at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snap {
    wall: Instant,
    process_cpu_s: f64,
    producer_cpu_s: f64,
    worker_cpu_s: f64,
    steal_s: f64,
}

impl Snap {
    /// Reads the clocks. `producer` is the benchmark's own thread;
    /// `worker` the hub worker, when there is one.
    pub fn take(producer: u32, worker: Option<u32>) -> Snap {
        Snap {
            wall: Instant::now(),
            process_cpu_s: procfs::process_cpu_s(),
            producer_cpu_s: procfs::task_cpu_s(producer).unwrap_or(0.0),
            worker_cpu_s: worker.and_then(procfs::task_cpu_s).unwrap_or(0.0),
            steal_s: procfs::steal_s(),
        }
    }

    pub fn until(&self, later: &Snap) -> Span {
        Span {
            wall_s: (later.wall - self.wall).as_secs_f64(),
            cpu_s: later.process_cpu_s - self.process_cpu_s,
            producer_cpu_s: later.producer_cpu_s - self.producer_cpu_s,
            worker_cpu_s: later.worker_cpu_s - self.worker_cpu_s,
            steal_s: later.steal_s - self.steal_s,
        }
    }
}

/// Clock deltas over a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub producer_cpu_s: f64,
    pub worker_cpu_s: f64,
    pub steal_s: f64,
}

impl Span {
    /// Steal time as a share of the host's CPU capacity over the phase.
    pub fn steal_frac(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        self.steal_s / (self.wall_s * cpus)
    }
}

/// Length of the windows a timed phase's CPU rate is sampled over.
const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Events per process CPU second over consecutive one-second windows of
/// a timed phase. Their median is steadier than the whole phase's mean
/// against a slow second on a shared host.
pub struct RateWindows {
    started: Instant,
    cpu_s: f64,
    events: u64,
    rates: Vec<f64>,
}

impl RateWindows {
    pub fn start() -> RateWindows {
        RateWindows {
            started: Instant::now(),
            cpu_s: procfs::process_cpu_s(),
            events: 0,
            rates: Vec::new(),
        }
    }

    /// Call between units of work with the events completed so far;
    /// closes the current window once it is a second long.
    pub fn mark(&mut self, events: u64) {
        if self.started.elapsed() < RATE_WINDOW {
            return;
        }
        let cpu_s = procfs::process_cpu_s();
        self.rates
            .push((events - self.events) as f64 / (cpu_s - self.cpu_s));
        self.started = Instant::now();
        self.cpu_s = cpu_s;
        self.events = events;
    }

    /// The median window rate, or `whole` when no window completed.
    pub fn median_or(&self, whole: f64) -> f64 {
        if self.rates.is_empty() {
            whole
        } else {
            crate::stats::median(&self.rates)
        }
    }
}

/// CPU seconds `f` takes, as seen by the whole process.
pub fn cpu_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = procfs::process_cpu_s();
    let out = f();
    (out, procfs::process_cpu_s() - before)
}

/// Wall nanoseconds `f` takes.
pub fn ns_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as f64)
}

/// The worker thread of the only running hub.
pub fn hub_worker() -> u32 {
    let tids = procfs::tasks_named(WORKER_THREAD);
    assert_eq!(
        tids.len(),
        1,
        "exactly one hub worker thread must be running"
    );
    tids[0]
}

/// Waits until every hub thread of a dropped hub has exited, so its
/// teardown neither races the next phase's file access nor bills CPU to
/// it. Panics after 30 s.
pub fn wait_for_hub_threads_to_exit() {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !procfs::tasks_named(HUB_THREADS).is_empty() {
        assert!(Instant::now() < deadline, "hub threads did not exit");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A per-run directory for WAL, snapshot and store state, removed when
/// dropped, including when the run panics.
pub struct StateDir {
    root: PathBuf,
}

impl StateDir {
    /// Creates `<base>/run-<pid>`, clearing any leftover of that name.
    pub fn create(base: &Path) -> std::io::Result<StateDir> {
        let root = base.join(format!("run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root)?;
        Ok(StateDir { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("state subdirectory must be creatable");
        dir
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // The base goes too once no other run is using it.
        if let Some(base) = self.root.parent() {
            let _ = fs::remove_dir(base);
        }
    }
}

/// Recursively copies a directory tree of regular files, fsyncing each
/// copy so that timing a phase that reads it right after does not also
/// time the kernel writing the copy back.
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)?;
            fs::File::open(&target)?.sync_all()?;
        }
    }
    Ok(())
}

/// Fsyncs every regular file under `dir`.
pub fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            sync_tree(&entry.path())?;
        } else {
            fs::File::open(entry.path())?.sync_all()?;
        }
    }
    Ok(())
}

/// Runs `setup` `times` times and returns the last result with the
/// process CPU seconds of each repetition.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut cpu = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times {
        // Drop the previous repetition's state, hub threads included,
        // before timing the next.
        drop(last.take());
        wait_for_hub_threads_to_exit();
        let before = procfs::process_cpu_s();
        last = Some(setup(i));
        cpu.push(procfs::process_cpu_s() - before);
    }
    (last.expect("at least one set-up"), cpu)
}

/// The residual cost a hub worker spends outside the layers priced in
/// isolation: locks, `catch_unwind`, the channel, idle spinning.
pub fn glue_ns(worker_ns_per_event: f64, isolated_layers_ns: &[f64]) -> f64 {
    worker_ns_per_event - isolated_layers_ns.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glue_is_worker_cpu_minus_isolated_layers() {
        assert_eq!(glue_ns(500.0, &[120.0, 80.0, 50.0]), 250.0);
        assert_eq!(glue_ns(90.0, &[]), 90.0);
        // Isolated replays can out-cost the worker (cold caches, no
        // batching); the residual then goes negative rather than hiding it.
        assert_eq!(glue_ns(100.0, &[150.0]), -50.0);
    }

    #[test]
    fn ledger_counts_failed_checks() {
        let mut ledger = Ledger::default();
        ledger.check(true, || unreachable!());
        ledger.check(false, || "home 3 diverged".to_string());
        assert_eq!(ledger.failed, 1);
        assert_eq!(ledger.failures, vec!["home 3 diverged".to_string()]);
    }

    #[test]
    fn state_dir_is_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("ledger-state-test-{}", std::process::id()));
        let root = {
            let dir = StateDir::create(&base).expect("create");
            let sub = dir.fresh("wal");
            fs::write(sub.join("x"), b"1").expect("write");
            copy_tree(&sub, &dir.root().join("copy")).expect("copy");
            assert!(dir.root().join("copy/x").exists());
            dir.root().to_path_buf()
        };
        assert!(!root.exists());
        assert!(!base.exists());
    }
}
