//! The O2 benchmark: end-to-end metrics per workload, and a separate
//! traced run for per-layer metrics.
//!
//! ```text
//! o2-ledger --workload <cold-paper|mega-origins|serve-edits> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is 0 only when every verdict matched its ground truth (and,
//! in a traced run, every composed report was byte-identical to
//! production). See `ledger/README.md`.

mod check;
mod compose;
mod inputs;
mod serve;
mod solo;
mod speed;
mod stats;
mod trace;

use stats::{metric, Metric};
use std::process::ExitCode;
use trace::Tracer;

/// Per-layer metrics of a traced run, in print order. Names ending in
/// `_ms` are self time per verdict; the rest are counters per verdict
/// or ratios.
const PER_LAYER: [(&str, &str); 41] = [
    ("ir.parse_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("ir.digest_ms", "ms"),
    ("pta.solve_ms", "ms"),
    ("pta.solve_steps", "count"),
    ("pta.propagated_objects", "count"),
    ("analysis.osa_ms", "ms"),
    ("analysis.shared_accesses", "count"),
    ("shb.build_ms", "ms"),
    ("shb.bytes", "B"),
    ("detect.check_ms", "ms"),
    ("detect.pre_prune_pairs", "count"),
    ("detect.candidate_pairs", "count"),
    ("detect.race_yield", "frac"),
    ("detect.threads_used", "count"),
    ("passes.suppression_ms", "ms"),
    ("passes.ownership_ms", "ms"),
    ("passes.guarded_by_ms", "ms"),
    ("passes.racerd_agreement_ms", "ms"),
    ("passes.deadlock_ms", "ms"),
    ("passes.oversync_ms", "ms"),
    ("passes.finalize_ms", "ms"),
    ("passes.render_ms", "ms"),
    ("db.checkout_ms", "ms"),
    ("db.commit_ms", "ms"),
    ("db.publish_ms", "ms"),
    ("db.pool_artifacts", "count"),
    ("db.replay_frac", "frac"),
    ("incremental.canon_ms", "ms"),
    ("incremental.osa_ms", "ms"),
    ("incremental.shb_ms", "ms"),
    ("incremental.detect_ms", "ms"),
    ("incremental.warm_over_cold", "ratio"),
    ("serve.request_parse_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.report_hit_frac", "frac"),
    ("loadgen.late_ms_tail", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
];

/// Fills every per-layer metric the spans and counters of `t` give,
/// per verdict over `n` verdicts; the rest stay 0 until the workload
/// sets them.
pub fn layer_metrics(t: &Tracer, n: f64) -> Vec<Metric> {
    let selfs = t.self_ms();
    let counts = &t.counts;
    let analyses = counts.get("verdict.analyses").copied().unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if let Some(span) = name.strip_suffix("_ms") {
                selfs.get(span).copied().unwrap_or(0.0) / n
            } else {
                match name {
                    "detect.race_yield" => {
                        counts.get("detect.races").copied().unwrap_or(0.0)
                            / counts
                                .get("detect.candidate_pairs")
                                .copied()
                                .unwrap_or(0.0)
                                .max(1.0)
                    }
                    "detect.threads_used" => {
                        counts.get(name).copied().unwrap_or(0.0) / analyses.max(1.0)
                    }
                    _ => counts.get(name).copied().unwrap_or(0.0) / n,
                }
            };
            metric(name, value, unit)
        })
        .collect()
}

/// What one workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn new(attempted: u64, failures: Vec<String>, mut notes: Vec<String>) -> Outcome {
        if let Some(f) = failures.first() {
            notes.push(format!("{} failures; first: {f}", failures.len()));
        }
        Outcome {
            correct: failures.is_empty(),
            attempted,
            failed: failures.len() as u64,
            notes,
            metrics: Vec::new(),
            trace: None,
        }
    }

    pub fn error(msg: String) -> Outcome {
        Outcome::new(1, vec![msg], Vec::new())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.value = value;
        }
    }

    /// `failed_frac` is printed with the metrics but kept out of the
    /// result line: it is 0 on a correct run, and the result line
    /// already carries `failed` and `attempted`.
    pub fn push_failed_frac(&mut self) {
        self.notes.push(format!(
            "failed_frac = {} ({} of {} attempts failed)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    // Before any thread starts, so the daemon child and every worker
    // inherit it (see `stats::pin_to_one_cpu`).
    let pinned = match stats::pin_to_one_cpu() {
        Ok(cpu) => cpu.to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--daemon") {
        return serve::daemon_main();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: o2-ledger --workload <cold-paper|mega-origins|serve-edits> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let steal0 = stats::cpu_steal();
    let mut out = match args.workload.as_str() {
        "cold-paper" => solo::run(inputs::cold_paper, args.seed, args.seconds, args.trace),
        "mega-origins" => solo::run(inputs::mega_origins, args.seed, args.seconds, args.trace),
        "serve-edits" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other:?} (cold-paper|mega-origins|serve-edits)");
            return ExitCode::from(2);
        }
    };
    out.push_failed_frac();
    if let (Some((all0, st0)), Some((all1, st1))) = (steal0, stats::cpu_steal()) {
        let share = (st1 - st0) as f64 / (all1 - all0).max(1) as f64;
        out.notes.push(format!(
            "host cpu steal during the run: {:.1}% of cpu time",
            100.0 * share
        ));
    }
    println!(
        "workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::provenance(parallelism, &pinned)
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for m in &out.metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(t) = &out.trace {
        let path = std::path::PathBuf::from(format!(
            "ledger/out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match t.write(&path) {
            Ok(()) => println!("  {} spans written to {}", t.spans.len(), path.display()),
            Err(e) => println!("  spans not written to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        stats::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
