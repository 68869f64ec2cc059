//! The PR 5 data-plane harness: end-to-end cold time, detect thread
//! scaling, and the warm/cold ratio of the database path after the
//! dense `LocId` refactor, written to `BENCH_pr5.json`.
//!
//! Three sections per run:
//!
//! - `cold_end_to_end` — best-of-N wall time of a full [`O2::analyze`]
//!   per preset, the number the PR 1/PR 3 baselines are compared
//!   against.
//! - `warm_vs_cold` — the PR 3 shape (cold analyze of an edited program
//!   vs a warm `analyze_with_db` from the base image), but the warm leg
//!   uses [`O2::analyze_with_db_prepared`] with the program digests
//!   computed once outside the loop — exactly what the CLI `--load-db`
//!   path does after verifying the image, instead of digesting the
//!   program a second time.
//! - `detect_scaling` — the PR 1 scaling curve (frozen pipeline prefix,
//!   detection re-run per worker count) on the largest preset, with the
//!   byte-identity check per row.
//!
//! `host_parallelism` is recorded at the top level: on a single-core
//! host the scaling rows measure claiming overhead, not speedup — read
//! it before trusting any ratio.
//!
//! Std-only, like every other harness here. The JSON schema is stable:
//!
//! ```json
//! { "host_parallelism": 1,
//!   "cold_end_to_end": [ { "preset", "cold_ms" } ],
//!   "warm_vs_cold": [ { "preset", "cold_ms", "warm_ms",
//!                       "warm_over_cold" } ],
//!   "detect_scaling": { "preset", "races", "pairs_checked",
//!                       "runs": [ ... ] } }
//! ```

use crate::pr1::{scaling_rows, ScalingRow};
use crate::{fmt_dur, run_with_db};
use o2::prelude::*;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Options for the PR 5 harness run.
#[derive(Clone, Debug)]
pub struct Pr5Options {
    /// Presets timed cold end-to-end and warm-vs-cold.
    pub presets: Vec<String>,
    /// Preset used for the detect-scaling section.
    pub scaling_preset: String,
    /// Worker counts exercised by the scaling section.
    pub threads: Vec<usize>,
    /// Repetitions per timed cell (best-of-N).
    pub iters: usize,
    /// Where to write the JSON report; `None` skips the write.
    pub out_path: Option<String>,
}

impl Default for Pr5Options {
    fn default() -> Self {
        Pr5Options {
            presets: vec!["zookeeper".to_string(), "telegram".to_string()],
            scaling_preset: "telegram".to_string(),
            threads: vec![1, 2, 4, 8],
            iters: 3,
            out_path: Some("BENCH_pr5.json".to_string()),
        }
    }
}

/// One preset's cold end-to-end and warm-vs-cold measurements.
#[derive(Clone, Debug)]
pub struct Pr5Row {
    /// Preset name.
    pub preset: String,
    /// Best-of-N wall time of a cold [`O2::analyze`] on the base program.
    pub cold_end_to_end: Duration,
    /// Best-of-N cold analyze of the edited program (the warm leg's
    /// denominator, same shape as the PR 3 harness).
    pub cold_edit: Duration,
    /// Best-of-N warm `analyze_with_db_prepared` of the edited program
    /// from the base image, digests precomputed.
    pub warm_edit: Duration,
}

impl Pr5Row {
    /// `warm / cold` on the edited program; ≤ 1.0 means the warm path
    /// no longer loses to a plain cold run.
    pub fn warm_over_cold(&self) -> f64 {
        self.warm_edit.as_secs_f64() / self.cold_edit.as_secs_f64().max(1e-9)
    }
}

/// The full harness result.
#[derive(Clone, Debug)]
pub struct Pr5Report {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Per-preset cold and warm rows.
    pub rows: Vec<Pr5Row>,
    /// Preset used for the scaling section.
    pub scaling_preset: String,
    /// Races found on the scaling preset (identical across rows).
    pub races: usize,
    /// Detect-scaling rows, one per requested worker count.
    pub scaling: Vec<ScalingRow>,
}

/// Runs one preset: cold end-to-end, then the PR 3-shaped edit
/// experiment with the digest-reusing warm path.
pub fn preset_row(name: &str, iters: usize) -> Option<Pr5Row> {
    let w = o2_workloads::preset_by_name(name)?.generate();
    let (edited, _) = o2_workloads::single_function_edit(&w.program);
    let engine = O2Builder::new().build();

    let mut cold_end_to_end = Duration::MAX;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let _ = engine.analyze(&w.program);
        cold_end_to_end = cold_end_to_end.min(t0.elapsed());
    }

    let mut cold_edit = Duration::MAX;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let _ = engine.analyze(&edited);
        cold_edit = cold_edit.min(t0.elapsed());
    }

    // Base image built once, outside the timed region (PR 3 shape). The
    // warm loop reuses digests computed once up front, the way the CLI
    // reuses the digests from `--load-db` image verification.
    let base_db = {
        let mut db = AnalysisDb::new(engine.config_sig());
        run_with_db(&engine, &w.program, &mut db, None);
        db.to_bytes()
    };
    let digests = o2_ir::digest_program(&edited);
    let mut warm_edit = Duration::MAX;
    for _ in 0..iters.max(1) {
        let mut db = AnalysisDb::from_bytes(&base_db).expect("base db roundtrips");
        let t0 = Instant::now();
        run_with_db(&engine, &edited, &mut db, Some(&digests));
        warm_edit = warm_edit.min(t0.elapsed());
    }

    Some(Pr5Row {
        preset: name.to_string(),
        cold_end_to_end,
        cold_edit,
        warm_edit,
    })
}

/// Runs the full harness and (optionally) writes `BENCH_pr5.json`.
pub fn run(opts: &Pr5Options) -> Pr5Report {
    let mut rows = Vec::new();
    for name in &opts.presets {
        if let Some(row) = preset_row(name, opts.iters) {
            rows.push(row);
        }
    }
    let (scaling, races) = scaling_rows(&opts.scaling_preset, &opts.threads, opts.iters);
    let report = Pr5Report {
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rows,
        scaling_preset: opts.scaling_preset.clone(),
        races,
        scaling,
    };
    if let Some(path) = &opts.out_path {
        std::fs::write(path, report.to_json()).expect("write BENCH_pr5.json");
    }
    report
}

impl Pr5Report {
    /// Serializes the report (hand-rolled JSON, like the other
    /// harnesses).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"host_parallelism\": {},", self.host_parallelism);
        out.push_str("  \"cold_end_to_end\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"preset\": \"{}\", \"cold_ms\": {:.3}}}{}",
                r.preset,
                r.cold_end_to_end.as_secs_f64() * 1e3,
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"warm_vs_cold\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"preset\": \"{}\", \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \
                 \"warm_over_cold\": {:.4}}}{}",
                r.preset,
                r.cold_edit.as_secs_f64() * 1e3,
                r.warm_edit.as_secs_f64() * 1e3,
                r.warm_over_cold(),
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"detect_scaling\": {\n");
        let _ = writeln!(out, "    \"preset\": \"{}\",", self.scaling_preset);
        let _ = writeln!(out, "    \"races\": {},", self.races);
        let pairs = self.scaling.first().map(|r| r.pairs_checked).unwrap_or(0);
        let _ = writeln!(out, "    \"pairs_checked\": {pairs},");
        out.push_str("    \"runs\": [\n");
        for (i, r) in self.scaling.iter().enumerate() {
            let _ = writeln!(
                out,
                "      {{\"threads\": {}, \"threads_used\": {}, \"time_ms\": {:.3}, \
                 \"pairs_per_sec\": {:.0}, \"speedup\": {:.3}, \
                 \"identical_to_serial\": {}}}{}",
                r.threads,
                r.threads_used,
                r.time.as_secs_f64() * 1e3,
                r.pairs_per_sec,
                r.speedup,
                r.identical_to_serial,
                if i + 1 < self.scaling.len() { "," } else { "" }
            );
        }
        out.push_str("    ]\n  },\n  \"notes\": [\n");
        if self.host_parallelism <= 1 {
            out.push_str(
                "    \"host has 1 hardware thread: extra detect workers add \
                 coordination cost with no parallel speedup, so speedup <= 1.0 here; \
                 identical_to_serial is the determinism property under test\",\n",
            );
        }
        out.push_str(
            "    \"timings are best-of-N on a shared host; compare warm_over_cold \
             ratios across reports rather than absolute milliseconds\"\n  ]\n}\n",
        );
        out
    }

    /// Renders the human-readable summary printed by the harness.
    pub fn render(&self) -> String {
        let mut out = String::from("## PR 5 data plane (cold / warm / scaling)\n\n");
        let _ = writeln!(out, "host_parallelism: {}\n", self.host_parallelism);
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>10} {:>10}",
            "preset", "cold_e2e", "cold_edit", "warm_edit", "warm/cold"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>10} {:>10} {:>10} {:>10} {:>10.3}",
                r.preset,
                fmt_dur(r.cold_end_to_end),
                fmt_dur(r.cold_edit),
                fmt_dur(r.warm_edit),
                r.warm_over_cold(),
            );
        }
        let _ = writeln!(
            out,
            "\ndetect scaling on {} ({} races):",
            self.scaling_preset, self.races
        );
        for r in &self.scaling {
            let _ = writeln!(
                out,
                "  threads {:>2} (used {:>2}): {:>9}  speedup {:.3}  identical={}",
                r.threads,
                r.threads_used,
                fmt_dur(r.time),
                r.speedup,
                r.identical_to_serial,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_on_a_small_preset() {
        let opts = Pr5Options {
            presets: vec!["xalan".to_string()],
            scaling_preset: "xalan".to_string(),
            threads: vec![1, 2],
            iters: 1,
            out_path: None,
        };
        let report = run(&opts);
        assert_eq!(report.rows.len(), 1);
        assert!(report.scaling.iter().all(|r| r.identical_to_serial));
        let json = report.to_json();
        assert!(json.contains("\"warm_over_cold\""), "{json}");
        assert!(json.contains("\"host_parallelism\""), "{json}");
    }
}
