//! Host facts and process-level meters: what every result records
//! about the machine it ran on, process CPU time, and peak resident
//! memory.

use serde_json::{json, Value};
use std::path::Path;
use std::time::Duration;

/// `clock_gettime` clock id of the calling process's CPU time (Linux).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system) consumed so far by every thread of this
/// process, at nanosecond resolution.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout
    // (two 64-bit fields on the 64-bit Linux targets this builds for),
    // and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Reset the process's peak-RSS mark to its current resident size, so
/// the next [`peak_rss_bytes`] covers only what happens after this
/// call. Returns false where the kernel refuses the reset; the mark
/// then spans the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set size (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Host-wide CPU time from `/proc/stat`, in clock ticks: the time the
/// hypervisor ran something else on this machine's CPUs (steal) and
/// the total.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Read the aggregate `cpu` line; `None` where it is unavailable.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(CpuTicks {
            steal: *fields.get(7)?,
            total: fields.iter().sum(),
        })
    }

    /// Share of CPU time stolen since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the counter probe says this host can measure. Only a hardware
/// event earns `pmu`; a host where only the software `task-clock`
/// opens is `task-clock`, and one where nothing opens `timing-only`.
pub fn counter_label(events: &[&str]) -> &'static str {
    if events.iter().any(|&e| e != "task-clock") {
        "pmu"
    } else if events.is_empty() {
        "timing-only"
    } else {
        "task-clock"
    }
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; `None` when the tree is not a git checkout.
fn git_rev(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

/// The host metadata block attached to every result.
pub fn metadata(workers: usize, peak_rss_resettable: bool) -> Value {
    let topo = ccs_topo::Topology::discover();
    let probe = ccs_perf::probe();
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    json!({
        "nproc": nproc() as u64,
        "workers": workers as u64,
        "topology": topo.summary(),
        "topology_shape": format!(
            "{}x{}x{}",
            topo.node_count(),
            topo.cluster_count(),
            topo.core_count()
        ),
        "topology_source": topo.source().name(),
        "git_rev": git_rev(&repo).unwrap_or_else(|| "none (not a git checkout)".to_string()),
        "rustc": env!("PERFBENCH_RUSTC"),
        "counters": counter_label(&probe.events),
        "counter_events": probe.events.clone(),
        "counters_reason": probe.reason.clone().map_or(Value::Null, Value::String),
        "peak_rss_per_job": peak_rss_resettable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_labels_never_overstate() {
        assert_eq!(counter_label(&[]), "timing-only");
        assert_eq!(counter_label(&["task-clock"]), "task-clock");
        assert_eq!(counter_label(&["llc-misses", "task-clock"]), "pmu");
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_time() > t0, "{x}");
    }
}
