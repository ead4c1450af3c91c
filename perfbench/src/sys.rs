//! Process facts from `/proc` and the host block printed with every
//! result.

use std::process::Command;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{name}"),
        None => format!("/proc/self/{name}"),
    };
    std::fs::read_to_string(path).ok()
}

/// Peak resident set (`VmHWM`) in MiB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so the
/// next [`peak_rss_mb`] reads the peak since now.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds (user + system, all threads) used so far by `pid`, or by
/// this process.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Host-wide CPU tick counters, to tell how much CPU the hypervisor took
/// away (steal) while a run measured.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// The current counters from the `cpu` line of `/proc/stat`.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        Some(CpuTicks {
            steal: *fields.get(7)?,
            total: fields.iter().sum(),
        })
    }

    /// Share of all CPU time since `self` that was stolen.
    pub fn steal_share_since(self) -> f64 {
        CpuTicks::now().map_or(0.0, |now| {
            let total = now.total.saturating_sub(self.total).max(1);
            now.steal.saturating_sub(self.steal) as f64 / total as f64
        })
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The seed every workload uses unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claimed change.
pub const HELD_OUT_SEED: u64 = 8_675_309;

/// One line describing the machine, toolchain, build and seed.
pub fn host_block(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (debug info, codegen-units 1)"
    };
    format!(
        "host: nproc={nproc} cpu=\"{}\" rustc=\"{rustc}\" profile=\"{profile}\" commit={commit} \
         workload={workload} seed={seed} default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED}",
        cpu_model()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_a_peak_rss_and_cpu_time() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds(None).is_some_and(|s| s >= 0.0));
    }
}
