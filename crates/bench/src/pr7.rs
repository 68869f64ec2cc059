//! The PR 7 synchronization-semantics harness: the reader-writer-lock,
//! condition-variable, and async-executor fixtures (Java- and C-surface)
//! timed cold and replayed warm, with their pre-loop prune taxonomy and
//! expected-vs-found race counts, written to `BENCH_pr7.json`.
//!
//! One row per fixture:
//!
//! - `expected` / `found` — the model's confirmed race count versus what
//!   the engine reports; `pass` is their equality. A failing row means
//!   the new lockset lattice or happens-before rules regressed — the
//!   row set is the precision contract of the richer semantics.
//! - `prune` — the [`PruneStats`] taxonomy on the fixture, showing how
//!   the asymmetric locksets interact with the common-guard stage (a
//!   shared *read* lock must never count as a common guard).
//! - `cold_ms` — best-of-N cold end-to-end time, gated by
//!   `bench --regress` against the committed baseline like the other
//!   groups.
//! - `identical_warm` — the warm database replay of the unchanged
//!   program renders a byte-identical race report (rw elements, cond
//!   events, and executor elements all round-trip through the v2 image).
//!
//! Std-only and hand-rolled JSON, like every other harness here.

use crate::{fmt_dur, run_with_db};
use o2::prelude::*;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Options for the PR 7 harness run.
#[derive(Clone, Debug)]
pub struct Pr7Options {
    /// Repetitions per timed cell (best-of-N).
    pub iters: usize,
    /// Where to write the JSON report; `None` skips the write.
    pub out_path: Option<String>,
}

impl Default for Pr7Options {
    fn default() -> Self {
        Pr7Options {
            iters: 3,
            out_path: Some("BENCH_pr7.json".to_string()),
        }
    }
}

/// One fixture's row: precision contract, prune taxonomy, timings.
#[derive(Clone, Debug)]
pub struct FixtureRow {
    /// Fixture name with its frontend, e.g. `openssl-rwlock(java)`.
    pub workload: String,
    /// Confirmed races the model encodes.
    pub expected: usize,
    /// Races the engine reports.
    pub found: usize,
    /// `expected == found`.
    pub pass: bool,
    /// Pre-loop pruning taxonomy of the cold run.
    pub prune: PruneStats,
    /// Best-of-N cold end-to-end wall time.
    pub cold: Duration,
    /// Warm replay of the unchanged program renders byte-identically.
    pub identical_warm: bool,
}

/// The full harness result.
#[derive(Clone, Debug)]
pub struct Pr7Report {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// One row per fixture (Java models first, then C siblings).
    pub fixtures: Vec<FixtureRow>,
}

fn fixture_row(name: String, program: &Program, expected: usize, iters: usize) -> FixtureRow {
    let engine = O2Builder::new().build();
    let mut cold = Duration::MAX;
    let mut report = None;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let r = engine.analyze(program);
        cold = cold.min(t0.elapsed());
        report = Some(r);
    }
    let report = report.expect("at least one cold iteration");

    let mut db = AnalysisDb::new(engine.config_sig());
    run_with_db(&engine, program, &mut db, None);
    let warm = run_with_db(&engine, program, &mut db, None).report;

    FixtureRow {
        workload: name,
        expected,
        found: report.num_races(),
        pass: report.num_races() == expected,
        prune: report.races.prune,
        cold,
        identical_warm: report.races.to_json(program) == warm.races.to_json(program),
    }
}

/// Runs the full harness and (optionally) writes `BENCH_pr7.json`.
pub fn run(opts: &Pr7Options) -> Pr7Report {
    let mut fixtures = Vec::new();
    for m in o2_workloads::extended_models() {
        fixtures.push(fixture_row(
            format!("{}(java)", m.name),
            &m.program,
            m.expected_races,
            opts.iters,
        ));
    }
    for m in o2_workloads::extended_c_models() {
        fixtures.push(fixture_row(
            format!("{}(c)", m.name),
            &m.program,
            m.expected_races,
            opts.iters,
        ));
    }
    let report = Pr7Report {
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        fixtures,
    };
    if let Some(path) = &opts.out_path {
        std::fs::write(path, report.to_json()).expect("write BENCH_pr7.json");
    }
    report
}

impl Pr7Report {
    /// `true` when every fixture found exactly its expected race count
    /// and replayed warm byte-identically.
    pub fn all_pass(&self) -> bool {
        self.fixtures.iter().all(|f| f.pass && f.identical_warm)
    }

    /// Serializes the report (hand-rolled JSON, stable schema).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"host_parallelism\": {},", self.host_parallelism);
        out.push_str("  \"fixtures\": [\n");
        for (i, f) in self.fixtures.iter().enumerate() {
            let p = &f.prune;
            let _ = writeln!(
                out,
                "    {{\"workload\": \"{}\", \"expected\": {}, \"found\": {}, \
                 \"pass\": {}, \"pre_prune_pairs\": {}, \"read_only_pairs\": {}, \
                 \"single_origin_pairs\": {}, \"common_guard_pairs\": {}, \
                 \"candidate_pairs\": {}, \"cold_ms\": {:.3}, \"identical_warm\": {}}}{}",
                f.workload,
                f.expected,
                f.found,
                f.pass,
                p.pre_prune_pairs,
                p.read_only_pairs,
                p.single_origin_pairs,
                p.common_guard_pairs,
                p.candidate_pairs,
                f.cold.as_secs_f64() * 1e3,
                f.identical_warm,
                if i + 1 < self.fixtures.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],\n  \"all_pass\": {},", self.all_pass());
        out.push_str(
            "  \"notes\": [\n    \"one row per rwlock/condvar/async fixture; pass means the \
             engine reports exactly the model's confirmed races\",\n    \"a shared read lock \
             never reaches common_guard_pairs: the common-guard stage requires a self-excluding \
             element\"\n  ]\n}\n",
        );
        out
    }

    /// Renders the human-readable summary printed by the harness.
    pub fn render(&self) -> String {
        let mut out = String::from("## PR 7 synchronization semantics (rwlock/condvar/async)\n\n");
        let _ = writeln!(out, "host_parallelism: {}\n", self.host_parallelism);
        let _ = writeln!(
            out,
            "{:>22} {:>8} {:>5} {:>5} {:>11} {:>10} {:>9}",
            "fixture", "expected", "found", "pass", "cand_pairs", "cold", "identical"
        );
        for f in &self.fixtures {
            let _ = writeln!(
                out,
                "{:>22} {:>8} {:>5} {:>5} {:>11} {:>10} {:>9}",
                f.workload,
                f.expected,
                f.found,
                f.pass,
                f.prune.candidate_pairs,
                fmt_dur(f.cold),
                f.identical_warm,
            );
        }
        let _ = writeln!(out, "\nall_pass: {}", self.all_pass());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_passes_on_every_fixture() {
        let report = run(&Pr7Options {
            iters: 1,
            out_path: None,
        });
        assert_eq!(report.fixtures.len(), 5, "3 java + 2 c fixtures");
        assert!(report.all_pass(), "{}", report.render());
        let json = report.to_json();
        assert!(json.contains("\"all_pass\": true"), "{json}");
        assert!(json.contains("cold_ms"), "{json}");
    }

    #[test]
    fn rdlock_fixture_is_not_common_guard_pruned() {
        // The OpenSSL fixture's racy counter is guarded only by the read
        // side; if the common-guard stage ever accepted it, the race
        // would be synthesized away and `found` would drop to zero.
        let report = run(&Pr7Options {
            iters: 1,
            out_path: None,
        });
        let row = report
            .fixtures
            .iter()
            .find(|f| f.workload == "OpenSSL-rwlock(java)")
            .expect("fixture present");
        assert_eq!(row.found, 1);
        assert!(row.prune.candidate_pairs > 0, "{:?}", row.prune);
    }
}
