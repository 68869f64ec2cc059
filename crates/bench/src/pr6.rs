//! The PR 6 mega-scale harness: pre-loop pruning rates across the whole
//! suite, cold/warm times and memory footprints on the `mega-*` presets,
//! and detect thread scaling at mega scale, written to `BENCH_pr6.json`.
//!
//! Four sections per run:
//!
//! - `prune_table` — one cold analysis per workload (every Table 5
//!   preset plus the mega presets), reporting the [`PruneStats`]
//!   taxonomy: raw candidate pairs before any pruning and the pairs
//!   eliminated by each pre-loop stage (read-only, single-origin,
//!   common-guard) versus the pairs that reach the pair loop.
//! - `mega_cold_warm` — best-of-N cold [`O2::analyze`] per mega preset,
//!   plus a warm `analyze_with_db_prepared` replay of the *same* program
//!   from its own image; `identical_warm` asserts the rendered race
//!   report is byte-identical across the two paths.
//! - `detect_scaling` — the PR 1 scaling shape on a mega preset (frozen
//!   pipeline prefix, detection re-run per worker count), with the
//!   byte-identity check per row.
//! - `memory` — per-structure heap estimates ([`MemoryFootprint`]) for
//!   each mega preset and the process-wide `VmHWM` peak RSS.
//!
//! `host_parallelism` is recorded at the top level and echoed in
//! `notes`: on a single-core host the scaling rows measure claiming
//! overhead, not speedup — read the notes before trusting any ratio.
//! Std-only and hand-rolled JSON, like every other harness here.

use crate::pr1::ScalingRow;
use crate::{fmt_dur, run_with_db};
use o2::prelude::*;
use o2_analysis::run_osa;
use o2_detect::detect;
use o2_pta::analyze;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Options for the PR 6 harness run.
#[derive(Clone, Debug)]
pub struct Pr6Options {
    /// Workloads classified in the prune table (presets and/or mega).
    pub prune_workloads: Vec<String>,
    /// Mega presets timed cold/warm and measured for memory.
    pub mega: Vec<String>,
    /// Workload used for the detect-scaling section.
    pub scaling_workload: String,
    /// Worker counts exercised by the scaling section.
    pub threads: Vec<usize>,
    /// Repetitions per timed cell (best-of-N).
    pub iters: usize,
    /// Where to write the JSON report; `None` skips the write.
    pub out_path: Option<String>,
}

impl Default for Pr6Options {
    fn default() -> Self {
        let mut prune_workloads: Vec<String> = o2_workloads::all_presets()
            .iter()
            .map(|p| p.name.to_string())
            .collect();
        let mega: Vec<String> = o2_workloads::mega_presets()
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        prune_workloads.extend(mega.iter().cloned());
        Pr6Options {
            prune_workloads,
            mega,
            scaling_workload: "mega-grid".to_string(),
            threads: vec![1, 2, 4],
            iters: 2,
            out_path: Some("BENCH_pr6.json".to_string()),
        }
    }
}

/// One workload's pre-loop pruning classification.
#[derive(Clone, Debug)]
pub struct PruneRow {
    /// Workload name.
    pub workload: String,
    /// Origins discovered by the pointer analysis.
    pub origins: usize,
    /// The detect-phase pruning taxonomy.
    pub prune: PruneStats,
    /// Races reported (after the full pair loop on the survivors).
    pub races: usize,
}

/// One mega preset's cold/warm timing row.
#[derive(Clone, Debug)]
pub struct MegaRow {
    /// Preset name.
    pub preset: String,
    /// Origins discovered.
    pub origins: usize,
    /// Races reported.
    pub races: usize,
    /// Best-of-N cold [`O2::analyze`] wall time.
    pub cold: Duration,
    /// Best-of-N warm `analyze_with_db_prepared` replay of the same
    /// program from its own image.
    pub warm: Duration,
    /// `true` if the warm replay rendered a byte-identical race report.
    pub identical_warm: bool,
    /// Per-structure heap estimates from the cold run.
    pub footprint: MemoryFootprint,
}

impl MegaRow {
    /// `warm / cold`; < 1.0 means replay beats recomputation.
    pub fn warm_over_cold(&self) -> f64 {
        self.warm.as_secs_f64() / self.cold.as_secs_f64().max(1e-9)
    }
}

/// The full harness result.
#[derive(Clone, Debug)]
pub struct Pr6Report {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Per-workload pruning taxonomy.
    pub prune_table: Vec<PruneRow>,
    /// Per-mega-preset cold/warm rows.
    pub mega: Vec<MegaRow>,
    /// Workload used for the scaling section.
    pub scaling_workload: String,
    /// Races found on the scaling workload (identical across rows).
    pub races: usize,
    /// Detect-scaling rows, one per requested worker count.
    pub scaling: Vec<ScalingRow>,
    /// `VmHWM` peak RSS in bytes at the end of the run (0 if
    /// unavailable).
    pub peak_rss_bytes: usize,
}

/// Classifies one workload: a single cold analysis, reporting its
/// [`PruneStats`].
pub fn prune_row(name: &str) -> Option<PruneRow> {
    let w = o2_workloads::workload_by_name(name)?;
    let report = O2Builder::new().build().analyze(&w.program);
    Some(PruneRow {
        workload: name.to_string(),
        origins: report.num_origins(),
        prune: report.races.prune,
        races: report.num_races(),
    })
}

/// Times one mega preset cold and warm and snapshots its footprint.
pub fn mega_row(name: &str, iters: usize) -> Option<MegaRow> {
    let w = o2_workloads::workload_by_name(name)?;
    let engine = O2Builder::new().build();

    let mut cold = Duration::MAX;
    let mut cold_report = None;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let r = engine.analyze(&w.program);
        cold = cold.min(t0.elapsed());
        cold_report = Some(r);
    }
    let cold_report = cold_report.expect("at least one cold iteration");

    // Image built once outside the timed region; the warm loop replays
    // the *unchanged* program, so every stage should come from the db.
    let image = {
        let mut db = AnalysisDb::new(engine.config_sig());
        run_with_db(&engine, &w.program, &mut db, None);
        db.to_bytes()
    };
    let digests = o2_ir::digest_program(&w.program);
    let mut warm = Duration::MAX;
    let mut warm_report = None;
    for _ in 0..iters.max(1) {
        let mut db = AnalysisDb::from_bytes(&image).expect("image roundtrips");
        let t0 = Instant::now();
        let r = run_with_db(&engine, &w.program, &mut db, Some(&digests)).report;
        warm = warm.min(t0.elapsed());
        warm_report = Some(r);
    }
    let warm_report = warm_report.expect("at least one warm iteration");

    Some(MegaRow {
        preset: name.to_string(),
        origins: cold_report.num_origins(),
        races: cold_report.num_races(),
        cold,
        warm,
        identical_warm: cold_report.races.to_json(&w.program)
            == warm_report.races.to_json(&w.program),
        footprint: cold_report.memory_footprint(),
    })
}

/// The PR 1 scaling shape generalized over [`workload_by_name`]: builds
/// the pipeline prefix once, then re-runs detection per worker count.
pub fn scaling_rows_any(name: &str, threads: &[usize], iters: usize) -> (Vec<ScalingRow>, usize) {
    let w = o2_workloads::workload_by_name(name).expect("scaling workload exists");
    let pta = analyze(
        &o2_ir::ProgramCtx::solo(&w.program),
        &PtaConfig::with_policy(Policy::origin1()),
    );
    let mut osa = run_osa(&o2_ir::ProgramCtx::solo(&w.program), &pta);
    let shb = o2_shb::build_shb(
        &o2_ir::ProgramCtx::solo(&w.program),
        &pta,
        &ShbConfig::default(),
        &mut osa.locs,
    );

    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut serial_json = String::new();
    let mut serial_time = Duration::MAX;
    let mut races = 0usize;
    for &t in threads {
        let cfg = DetectConfig::o2().with_threads(t.max(1));
        let mut best = Duration::MAX;
        let mut report = None;
        for _ in 0..iters.max(1) {
            let t0 = Instant::now();
            let r = detect(&o2_ir::ProgramCtx::solo(&w.program), &pta, &osa, &shb, &cfg);
            best = best.min(t0.elapsed());
            report = Some(r);
        }
        let report = report.expect("at least one iteration");
        let json = report.to_json(&w.program);
        if rows.is_empty() {
            serial_json = json.clone();
            serial_time = best;
            races = report.races.len();
        }
        let secs = best.as_secs_f64().max(1e-9);
        rows.push(ScalingRow {
            threads: t,
            threads_used: report.threads_used,
            time: best,
            pairs_checked: report.pairs_checked,
            pairs_per_sec: report.pairs_checked as f64 / secs,
            speedup: serial_time.as_secs_f64() / secs,
            identical_to_serial: json == serial_json,
        });
    }
    (rows, races)
}

/// Runs the full harness and (optionally) writes `BENCH_pr6.json`.
pub fn run(opts: &Pr6Options) -> Pr6Report {
    let mut prune_table = Vec::new();
    for name in &opts.prune_workloads {
        if let Some(row) = prune_row(name) {
            prune_table.push(row);
        }
    }
    let mut mega = Vec::new();
    for name in &opts.mega {
        if let Some(row) = mega_row(name, opts.iters) {
            mega.push(row);
        }
    }
    let (scaling, races) = scaling_rows_any(&opts.scaling_workload, &opts.threads, opts.iters);
    let report = Pr6Report {
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        prune_table,
        mega,
        scaling_workload: opts.scaling_workload.clone(),
        races,
        scaling,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
    };
    if let Some(path) = &opts.out_path {
        std::fs::write(path, report.to_json()).expect("write BENCH_pr6.json");
    }
    report
}

impl Pr6Report {
    /// Serializes the report (hand-rolled JSON, stable schema).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"host_parallelism\": {},", self.host_parallelism);
        out.push_str("  \"prune_table\": [\n");
        for (i, r) in self.prune_table.iter().enumerate() {
            let p = &r.prune;
            let _ = writeln!(
                out,
                "    {{\"workload\": \"{}\", \"origins\": {}, \"locations\": {}, \
                 \"pre_prune_pairs\": {}, \"read_only_pairs\": {}, \
                 \"single_origin_pairs\": {}, \"common_guard_pairs\": {}, \
                 \"candidate_pairs\": {}, \"prune_rate\": {:.4}, \"races\": {}}}{}",
                r.workload,
                r.origins,
                p.locations,
                p.pre_prune_pairs,
                p.read_only_pairs,
                p.single_origin_pairs,
                p.common_guard_pairs,
                p.candidate_pairs,
                p.prune_rate(),
                r.races,
                if i + 1 < self.prune_table.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  ],\n  \"mega_cold_warm\": [\n");
        for (i, r) in self.mega.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"preset\": \"{}\", \"origins\": {}, \"races\": {}, \
                 \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"warm_over_cold\": {:.4}, \
                 \"identical_warm\": {}}}{}",
                r.preset,
                r.origins,
                r.races,
                r.cold.as_secs_f64() * 1e3,
                r.warm.as_secs_f64() * 1e3,
                r.warm_over_cold(),
                r.identical_warm,
                if i + 1 < self.mega.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"detect_scaling\": {\n");
        let _ = writeln!(out, "    \"preset\": \"{}\",", self.scaling_workload);
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
        out.push_str("    ]\n  },\n  \"memory\": [\n");
        for (i, r) in self.mega.iter().enumerate() {
            let f = &r.footprint;
            let _ = writeln!(
                out,
                "    {{\"preset\": \"{}\", \"shb_traces_bytes\": {}, \"shb_csr_bytes\": {}, \
                 \"shb_locks_bytes\": {}, \"shb_access_index_bytes\": {}, \"osa_bytes\": {}, \
                 \"total_bytes\": {}}}{}",
                r.preset,
                f.shb_traces,
                f.shb_csr,
                f.shb_locks,
                f.shb_access_index,
                f.osa,
                f.total(),
                if i + 1 < self.mega.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"peak_rss_bytes\": {},", self.peak_rss_bytes);
        out.push_str("  \"notes\": [\n");
        if self.host_parallelism <= 1 {
            out.push_str(
                "    \"host has 1 hardware thread: extra detect workers add \
                 coordination cost with no parallel speedup, so speedup <= 1.0 here; \
                 identical_to_serial is the determinism property under test\",\n",
            );
        }
        out.push_str(
            "    \"prune stages partition raw pre-region-merge pairs; candidate_pairs \
             is what the pair loop would enumerate without the per-location budget\",\n",
        );
        out.push_str(
            "    \"peak_rss_bytes is VmHWM for the whole bench process (all groups \
             run so far), not one preset's footprint; per-structure bytes are \
             capacity-based estimates\"\n  ]\n}\n",
        );
        out
    }

    /// Renders the human-readable summary printed by the harness.
    pub fn render(&self) -> String {
        let mut out = String::from("## PR 6 mega scale (prune / cold-warm / memory)\n\n");
        let _ = writeln!(out, "host_parallelism: {}\n", self.host_parallelism);
        let _ = writeln!(
            out,
            "{:>14} {:>8} {:>12} {:>11} {:>11} {:>11} {:>11} {:>7}",
            "workload",
            "origins",
            "pre_pairs",
            "read_only",
            "single_org",
            "common_gd",
            "candidate",
            "rate"
        );
        for r in &self.prune_table {
            let p = &r.prune;
            let _ = writeln!(
                out,
                "{:>14} {:>8} {:>12} {:>11} {:>11} {:>11} {:>11} {:>6.1}%",
                r.workload,
                r.origins,
                p.pre_prune_pairs,
                p.read_only_pairs,
                p.single_origin_pairs,
                p.common_guard_pairs,
                p.candidate_pairs,
                p.prune_rate() * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "\n{:>12} {:>8} {:>6} {:>10} {:>10} {:>10} {:>9}",
            "preset", "origins", "races", "cold", "warm", "warm/cold", "identical"
        );
        for r in &self.mega {
            let _ = writeln!(
                out,
                "{:>12} {:>8} {:>6} {:>10} {:>10} {:>10.3} {:>9}",
                r.preset,
                r.origins,
                r.races,
                fmt_dur(r.cold),
                fmt_dur(r.warm),
                r.warm_over_cold(),
                r.identical_warm,
            );
        }
        let _ = writeln!(
            out,
            "\ndetect scaling on {} ({} races):",
            self.scaling_workload, self.races
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
        let _ = writeln!(out, "\nmemory (capacity estimates):");
        for r in &self.mega {
            let f = &r.footprint;
            let _ = writeln!(
                out,
                "  {:>12}: traces {}K  csr {}K  locks {}K  access-index {}K  osa {}K  total {}K",
                r.preset,
                f.shb_traces / 1024,
                f.shb_csr / 1024,
                f.shb_locks / 1024,
                f.shb_access_index / 1024,
                f.osa / 1024,
                f.total() / 1024,
            );
        }
        let _ = writeln!(out, "peak RSS: {} MiB", self.peak_rss_bytes / (1024 * 1024));
        out
    }
}

/// Extracts every single-line `{"preset"/"workload": ..., "cold_ms": ...}`
/// row from a harness JSON report, in file order. Reports without
/// `cold_ms` rows (pr1, pr2) yield an empty list.
pub fn cold_rows(json: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for line in json.lines() {
        let name = match extract_str(line, "\"preset\": \"")
            .or_else(|| extract_str(line, "\"workload\": \""))
        {
            Some(n) => n,
            None => continue,
        };
        if let Some(ms) = extract_num(line, "\"cold_ms\": ") {
            rows.push((name, ms));
        }
    }
    rows
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Regression threshold: a cold row fails if it is more than 25% slower
/// than the committed baseline AND slower by more than an absolute 5 ms
/// floor (sub-floor jitter on tiny presets is not a regression).
pub const REGRESSION_RATIO: f64 = 1.25;
/// Absolute slow-down floor (milliseconds) below which rows never fail.
pub const REGRESSION_FLOOR_MS: f64 = 5.0;

/// Compares two harness reports row-by-row and returns one message per
/// regressed cold row (empty = gate passes). Rows are matched by name
/// and position; a schema change (different row sets) skips the
/// mismatched tail rather than failing the gate.
pub fn regression_failures(baseline: &str, current: &str) -> Vec<String> {
    let base = cold_rows(baseline);
    let cur = cold_rows(current);
    let mut failures = Vec::new();
    for ((bn, bms), (cn, cms)) in base.iter().zip(cur.iter()) {
        if bn != cn {
            // Schema drift: stop comparing at the first mismatch.
            break;
        }
        if *cms > bms * REGRESSION_RATIO && cms - bms > REGRESSION_FLOOR_MS {
            failures.push(format!(
                "{bn}: cold {cms:.1} ms vs baseline {bms:.1} ms \
                 (+{:.0}%, threshold +{:.0}% and > {REGRESSION_FLOOR_MS} ms)",
                (cms / bms - 1.0) * 100.0,
                (REGRESSION_RATIO - 1.0) * 100.0,
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_on_the_smoke_preset() {
        let opts = Pr6Options {
            prune_workloads: vec!["xalan".to_string(), "mega-smoke".to_string()],
            mega: vec!["mega-smoke".to_string()],
            scaling_workload: "mega-smoke".to_string(),
            threads: vec![1, 2],
            iters: 1,
            out_path: None,
        };
        let report = run(&opts);
        assert_eq!(report.prune_table.len(), 2);
        assert_eq!(report.mega.len(), 1);
        assert!(report.mega[0].identical_warm);
        assert!(report.scaling.iter().all(|r| r.identical_to_serial));

        // The smoke preset exercises every prune stage.
        let smoke = &report.prune_table[1].prune;
        assert!(smoke.read_only_pairs > 0, "{smoke:?}");
        assert!(smoke.common_guard_pairs > 0, "{smoke:?}");
        assert!(smoke.prune_rate() > 0.3, "{smoke:?}");

        let json = report.to_json();
        assert!(json.contains("\"prune_table\""), "{json}");
        assert!(json.contains("\"peak_rss_bytes\""), "{json}");
        assert!(json.contains("\"memory\""), "{json}");
    }

    #[test]
    fn prune_taxonomy_partitions_pairs() {
        let row = prune_row("mega-smoke").unwrap();
        let p = row.prune;
        assert_eq!(
            p.pre_prune_pairs,
            p.read_only_pairs + p.single_origin_pairs + p.common_guard_pairs + p.candidate_pairs
        );
        assert_eq!(
            p.locations,
            p.read_only_locs + p.single_origin_locs + p.common_guard_locs + p.candidate_locs
        );
    }

    #[test]
    fn regression_gate_compares_cold_rows() {
        let base = "{\n  \"x\": [\n    {\"preset\": \"a\", \"cold_ms\": 100.0},\n    \
                    {\"preset\": \"b\", \"cold_ms\": 2.000}\n  ]\n}\n";
        let same = base.to_string();
        assert!(regression_failures(base, &same).is_empty());

        // 30% slower and > 5 ms absolute: fails.
        let slow = "{\n  \"x\": [\n    {\"preset\": \"a\", \"cold_ms\": 130.0},\n    \
                    {\"preset\": \"b\", \"cold_ms\": 2.000}\n  ]\n}\n";
        let fails = regression_failures(base, slow);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("a:"), "{fails:?}");

        // 100% slower but under the 5 ms floor: tiny-preset jitter, passes.
        let jitter = "{\n  \"x\": [\n    {\"preset\": \"a\", \"cold_ms\": 100.0},\n    \
                      {\"preset\": \"b\", \"cold_ms\": 4.000}\n  ]\n}\n";
        assert!(regression_failures(base, jitter).is_empty());

        // Reports without cold_ms rows (pr1/pr2 shape) trivially pass.
        assert!(regression_failures("{}", "{}").is_empty());
    }
}
