//! Percentiles, the result line, and run provenance.

use std::fmt::Write as _;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU time and sets CPU affinity through 64-bit Linux libc");

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The tail percentile: the highest of a few fixed percentiles that has
/// at least ten samples beyond it. The candidates are a decade apart, so
/// small run-to-run changes in the sample count do not switch the
/// percentile a workload reports.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let p = [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0);
    Tail {
        percentile: p,
        value: percentile(sorted, p),
        samples: n,
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The benchmark's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Host and build facts every result records. `parallelism` is
/// `available_parallelism` as the process found it, before
/// [`pin_to_one_cpu`]; `pinned` is the CPU the run was confined to.
pub fn provenance(parallelism: usize, pinned: &str) -> String {
    // A checkout without `.git` is the normal case for an exported tree;
    // git is not asked then, so it cannot pick up an enclosing repository.
    let revision = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unavailable (not a git checkout)".to_string()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // The address of the request parser's hot loop modulo 64 (see
    // `build.rs`); 0 when the link pinned it.
    let from_utf8 = core::str::from_utf8 as fn(&[u8]) -> Result<&str, core::str::Utf8Error>;
    format!(
        "available_parallelism={parallelism} nproc={} pinned_cpu={pinned} git={revision} rustc=\"{}\" profile={profile} from_utf8_offset={}",
        command_line("nproc", &["--all"]),
        command_line("rustc", &["--version"]),
        from_utf8 as usize % 64,
    )
}

/// CPU time this process has used so far, over all its threads living
/// and exited, in milliseconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The timed metrics are CPU time rather than wall time: on a shared
/// host the wall time of a verdict also counts the time the host ran
/// something else (steal, which this kernel leaves out of CPU time, and
/// waits for a CPU), and that varied run to run by more than the bounds.
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for this
    // target, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Confines the calling thread, and every thread and process it starts
/// afterwards, to the lowest-numbered CPU it may run on, and returns that
/// CPU. Call it before any other thread starts.
///
/// The engine sizes its worker pools by `available_parallelism`, which
/// then reads 1. With two or more detect workers, how the scheduler
/// interleaves them changes how much work their private caches repeat,
/// so the CPU time of the same verdict moved with the load of the host;
/// on one CPU it does not.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // A `cpu_set_t` of 1,024 CPUs.
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is writable for the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..mask.len() * 8)
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is readable for the size passed.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// Host CPU time so far as (all jiffies, steal jiffies), from the first
/// line of `/proc/stat`. Steal is time the hypervisor ran something
/// else while this machine's CPUs were runnable. It slows the wall
/// times in the notes and `setup_s`; the CPU times leave it out. Each run
/// reports it.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Peak resident set of process `pid` (`VmHWM`), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 135.0);
        let v: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 99.0);
        assert_eq!(tail(&v[..20]).percentile, 50.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 0.5, "s")]);
        let v = crate::check::parse_json(&line).unwrap();
        for k in ["correct", "attempted", "failed", "metrics"] {
            assert!(v.get(k).is_some(), "{k}");
        }
    }
}
