//! Reads the process's own CPU clocks, memory high-water mark and host
//! facts from `/proc`.
//!
//! Durations and rates use CPU time (utime + stime) rather than wall
//! time: on a shared VM the hypervisor can steal a large share of a
//! vCPU, which stretches wall time but is not charged to the process.
//! The whole process's CPU time is read from `CLOCK_PROCESS_CPUTIME_ID`,
//! which is the same utime + stime total as `/proc/self/stat` but in
//! nanoseconds rather than 10 ms ticks, so short phases (a cold restart,
//! a store reload) can be timed one by one.

use std::fs;
use std::path::Path;

/// Clock ticks per second of the utime/stime fields in `/proc/*/stat`.
/// Linux exports them in `USER_HZ`, which is 100 on every architecture
/// this benchmark targets.
const USER_HZ: f64 = 100.0;

/// The fields of a `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat`
/// line that the benchmark uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    pub comm: String,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

impl Stat {
    pub fn cpu_s(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 / USER_HZ
    }
}

/// Parses a stat line. The command name sits between the first `(` and
/// the *last* `)`, since a thread may name itself with spaces or
/// parentheses; utime and stime are fields 14 and 15 of the line, i.e.
/// the 12th and 13th after the command name.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    Some(Stat {
        comm,
        utime_ticks: rest.get(11)?.parse().ok()?,
        stime_ticks: rest.get(12)?.parse().ok()?,
    })
}

fn read_stat(path: &str) -> Option<Stat> {
    parse_stat(&fs::read_to_string(path).ok()?)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the process CPU clock below assumes 64-bit Linux's struct timespec");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds the whole process (every thread, live or exited) has
/// used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides;
    // the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds one thread of this process has used so far, or `None`
/// when the thread has exited.
pub fn task_cpu_s(tid: u32) -> Option<f64> {
    read_stat(&format!("/proc/self/task/{tid}/stat")).map(|s| s.cpu_s())
}

/// The kernel thread id of the calling thread.
pub fn current_tid() -> u32 {
    let link = fs::read_link("/proc/thread-self").expect("/proc/thread-self must resolve");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("/proc/thread-self ends in the thread id")
}

/// Thread ids of this process whose name starts with `prefix`, in
/// ascending order. Linux truncates thread names to 15 bytes, so pass
/// at most that much.
pub fn tasks_named(prefix: &str) -> Vec<u32> {
    let mut tids: Vec<u32> = fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
                .filter(|tid: &u32| {
                    fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                        .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
                })
                .collect()
        })
        .unwrap_or_default();
    tids.sort_unstable();
    tids
}

/// Parses the aggregate `cpu` line of `/proc/stat` and returns its steal
/// ticks (the 8th value).
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Host-wide steal time so far, in seconds summed over every CPU.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| parse_steal_ticks(&text))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// Parses a `Key:   1234 kB` line out of `/proc/self/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size so far (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    parse_status_kib(&status, "VmHWM").expect("VmHWM present") as f64 / 1024.0
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The type of the filesystem holding `path`: the `/proc/self/mounts`
/// entry with the longest mount point that contains it.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount_point = fields.next()?.replace("\\040", " ");
            let kind = fields.next()?;
            path.starts_with(&mount_point)
                .then(|| (mount_point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat_line(comm: &str, utime: u64, stime: u64) -> String {
        format!(
            "4242 ({comm}) S 1 4242 4242 0 -1 4194560 1200 0 0 0 {utime} {stime} 0 0 20 0 3 0 \
             123456 987654321 2048 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
        )
    }

    #[test]
    fn stat_reads_utime_and_stime() {
        let stat = parse_stat(&stat_line("ledger", 250, 37)).expect("parses");
        assert_eq!(stat.comm, "ledger");
        assert_eq!((stat.utime_ticks, stat.stime_ticks), (250, 37));
        assert!((stat.cpu_s() - 2.87).abs() < 1e-12);
    }

    #[test]
    fn stat_comm_may_hold_spaces_and_parentheses() {
        for comm in ["iot serve) 7 8 9", "a (b) c", ")", "((", ") S 1 2 3"] {
            let stat = parse_stat(&stat_line(comm, 11, 22)).expect("parses");
            assert_eq!(stat.comm, comm);
            assert_eq!((stat.utime_ticks, stat.stime_ticks), (11, 22));
        }
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat("12 (x) S 1 2"), None);
        assert_eq!(parse_stat("no parentheses at all"), None);
        assert_eq!(parse_stat(") backwards ("), None);
    }

    #[test]
    fn process_clock_agrees_with_proc_stat() {
        // Spin long enough that the process total dwarfs what the two
        // readings may legitimately differ by: /proc/self/stat truncates
        // to 10 ms ticks and may lag threads still running on other CPUs
        // (tests run in parallel).
        let spin = std::time::Instant::now();
        let before = process_cpu_s();
        while process_cpu_s() - before < 0.3 && spin.elapsed().as_secs() < 5 {
            std::hint::black_box(0u64);
        }
        let stat = read_stat("/proc/self/stat").expect("readable").cpu_s();
        let clock = process_cpu_s();
        assert!(clock >= 0.3, "clock {clock}");
        assert!((clock - stat).abs() < 0.05, "clock {clock} vs stat {stat}");
    }

    #[test]
    fn live_clocks_read() {
        assert!(process_cpu_s() > 0.0);
        assert!(task_cpu_s(current_tid()).is_some());
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let text = "cpu  10 0 20 30 4 0 5 77 0 0\ncpu0 1 0 2 3 0 0 0 7 0 0\n";
        assert_eq!(parse_steal_ticks(text), Some(77));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn status_kib_parses_vmhwm() {
        let status = "Name:\tledger\nVmPeak:\t  9000 kB\nVmHWM:\t    4096 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(4096));
        assert_eq!(parse_status_kib(status, "VmRSS"), None);
    }
}
