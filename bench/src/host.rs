//! Host observation: CPU time, peak memory, load and provenance, read from
//! `/proc` (Linux only — elsewhere the readings are 0 and say so).

use crate::json::Value;
use std::fs;

/// Kernel clock ticks per second of the `utime`/`stime` fields. Fixed at
/// 100 on every Linux architecture this runs on (`getconf CLK_TCK`).
const TICKS_PER_S: u64 = 100;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command come state (3) ... utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in KiB.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let rest = line.strip_prefix("model name")?;
        Some(rest.trim_start().strip_prefix(':')?.trim().to_string())
    })
}

/// CPU time this process (all threads, exited ones included) has used, ns.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0, |t| t * (1_000_000_000 / TICKS_PER_S))
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| parse_loadavg(&s))
        .unwrap_or(0.0)
}

/// A set measured while other work competes for the cores is `noisy`.
pub fn is_noisy(load: f64, nproc: usize) -> bool {
    load > 0.5 * nproc as f64
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a result set was measured.
pub fn provenance() -> Value {
    let load = loadavg();
    let nproc = nproc();
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string());
    if is_noisy(load, nproc) {
        eprintln!(
            "WARNING: load average {load:.2} exceeds half of {nproc} core(s); \
             this set is marked noisy"
        );
    }
    Value::object([
        ("nproc", Value::from(nproc)),
        ("cpu_model", Value::from(cpu)),
        ("loadavg_1m", Value::from(load)),
        ("noisy", Value::from(is_noisy(load, nproc))),
        ("rustc", Value::from(command_line("rustc", &["--version"]))),
        // "unknown" outside a git checkout (the driver's copies are not).
        (
            "git_sha",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        let stat = "4242 (oil bench) x)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_loadavg_and_cpuinfo_parse() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kib(status, "VmRSS"), None);
        assert_eq!(parse_status_kib(status, "Threads"), None);
        assert_eq!(parse_loadavg("1.58 0.93 0.72 1/84 16906\n"), Some(1.58));
        assert_eq!(parse_loadavg(""), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: Some CPU @ 2.0GHz\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Some CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn noisy_means_load_above_half_the_cores() {
        assert!(!is_noisy(1.0, 2));
        assert!(is_noisy(1.01, 2));
    }

    #[test]
    fn live_readings_are_plausible_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.0);
            assert!(nproc() >= 1);
        }
    }
}
