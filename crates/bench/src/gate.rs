//! The gated bench report: every measurement of the harness, taken once
//! per shape and written to one `BENCH_gate.json`.
//!
//! [`run`] fills one [`Report`] of named rows (`section/workload`):
//!
//! - `mega/` — cold analyze, warm replay from the program's own image,
//!   and heap footprint of each mega preset. It runs first, so the
//!   report's process-wide `peak_rss_bytes` (`VmHWM`, read right after
//!   it) describes the mega presets.
//! - `edit/` — cold analyze of a preset after a 1-function edit vs a warm
//!   replay of it from the unedited program's image, with the database's
//!   replay and re-check counters.
//! - `cold/` — cold analyze of the unedited preset.
//! - `sync/` — the rwlock/condvar/async fixtures: expected vs found
//!   races, pre-loop prune taxonomy, cold and warm.
//! - `prune/` — the pre-loop prune taxonomy of every preset and mega
//!   preset.
//! - `scaling/` — detect at each worker count over one frozen
//!   PTA/OSA/SHB prefix, with the byte-identity check against 1 worker.
//! - `solver/` — OPA difference propagation vs the full-set baseline.
//! - `passes/`, `realbugs/` — per-pass counters of the precision
//!   pipeline, and recall over the real-bug models.
//! - `hb/` — integer-id vs edge-walking happens-before queries (§4.1
//!   optimization 1).
//! - `batch/` — the whole-corpus batch at 1, 2 and 4 workers.
//! - `serve/` — daemon cold, warm and edit latency, and an open-system
//!   load run.
//! - `error/` — structured error answers, the cost of the request
//!   budget, and a malformed-request injection load.
//!
//! Two rules make the report a gate. Every row carrying `cold_ms` is
//! compared by [`regression_failures`] against the committed baseline.
//! Every boolean field is an oracle: [`Report::oracle_failures`] names
//! each false one, and the `bench` binary exits 1 on any.

use o2::prelude::*;
use o2::serve::{solo_reports, spawn, Client, JsonValue, ServeState};
use o2::{run_batch, BatchEntry, LoadgenConfig, LoadgenReport, ServeOptions, ServerHandle};
use o2_analysis::run_osa;
use o2_detect::detect;
use o2_ir::{json_escape, ProgramDigests};
use o2_pta::{analyze, OriginId};
use o2_shb::build_shb;
use o2_workloads::GeneratedWorkload;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Regression threshold: a gated row fails if it is more than 25% slower
/// than the committed baseline AND slower by more than an absolute 5 ms
/// floor (sub-floor jitter on tiny presets is not a regression).
pub const REGRESSION_RATIO: f64 = 1.25;
/// Absolute slow-down floor (milliseconds) below which rows never fail.
pub const REGRESSION_FLOOR_MS: f64 = 5.0;

/// The mega presets, timed cold and warm and measured for memory.
const MEGA: [&str; 3] = ["mega-smoke", "mega-grid", "mega-skew"];
/// Presets timed cold vs warm after a 1-function edit.
const EDIT: [&str; 6] = [
    "xalan",
    "avrora",
    "sunflow",
    "zookeeper",
    "k9mail",
    "telegram",
];
/// Presets timed cold without an edit.
const COLD: [&str; 2] = ["zookeeper", "telegram"];
/// Presets whose OPA solver statistics are compared.
const SOLVER: [&str; 4] = ["avrora", "lusearch", "zookeeper", "telegram"];
/// Presets run through the precision pipeline under O2 and 0-ctx.
const PASSES: [&str; 4] = ["avrora", "lusearch", "zookeeper", "memcached"];
/// The batch corpus: Table 5 presets, a mega preset, and real-bug models
/// from both frontends. `luindex`/`lusearch` overlap in generated shape,
/// which guarantees cross-program digest hits.
const CORPUS: [&str; 8] = [
    "avrora",
    "luindex",
    "lusearch",
    "xalan",
    "mega-smoke",
    "realbug:ZooKeeper",
    "realbug:Tomcat",
    "realbug-c:Memcached",
];
/// Presets driven through a live daemon.
const SERVE: [&str; 3] = ["avrora", "lusearch", "mega-smoke"];
/// Warm repeat requests per served preset; their median is the warm cell.
const WARM_REPS: usize = 9;

/// One field value of a report row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// Milliseconds.
    Ms(f64),
    /// A ratio or rate.
    Ratio(f64),
    /// An oracle: the run fails when it is false.
    Flag(bool),
    /// A name.
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Ms(ms) => write!(f, "{ms:.3}"),
            Value::Ratio(r) => write!(f, "{r:.4}"),
            Value::Flag(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "\"{}\"", json_escape(s)),
        }
    }
}

/// One named row of the report: `section/workload` plus its fields in
/// insertion order.
#[derive(Clone, Debug)]
pub struct Row {
    /// `section/workload`, unique within a report.
    pub name: String,
    /// Field names and values.
    pub fields: Vec<(String, Value)>,
}

impl Row {
    /// An empty row.
    fn new(name: impl Into<String>) -> Row {
        Row {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    fn with(mut self, key: impl Into<String>, value: Value) -> Row {
        self.fields.push((key.into(), value));
        self
    }

    /// Adds a count.
    fn int(self, key: impl Into<String>, n: u64) -> Row {
        self.with(key, Value::Int(n))
    }

    /// Adds a duration in milliseconds.
    fn ms(self, key: impl Into<String>, d: Duration) -> Row {
        self.with(key, Value::Ms(d.as_secs_f64() * 1e3))
    }

    /// Adds a ratio.
    fn ratio(self, key: impl Into<String>, r: f64) -> Row {
        self.with(key, Value::Ratio(r))
    }

    /// Adds an oracle.
    fn flag(self, key: impl Into<String>, ok: bool) -> Row {
        self.with(key, Value::Flag(ok))
    }

    /// Adds a name.
    fn text(self, key: impl Into<String>, s: impl Into<String>) -> Row {
        self.with(key, Value::Text(s.into()))
    }

    /// Adds the pre-loop pruning taxonomy.
    fn prune(self, p: &PruneStats) -> Row {
        self.int("locations", p.locations)
            .int("pre_prune_pairs", p.pre_prune_pairs)
            .int("read_only_pairs", p.read_only_pairs)
            .int("single_origin_pairs", p.single_origin_pairs)
            .int("common_guard_pairs", p.common_guard_pairs)
            .int("candidate_pairs", p.candidate_pairs)
            .ratio("prune_rate", p.prune_rate())
    }
}

/// The whole report.
#[derive(Clone, Debug)]
pub struct Report {
    /// `std::thread::available_parallelism()` on the measuring host: read
    /// it before trusting any speedup.
    pub host_parallelism: usize,
    /// Timed repetitions per cell (best-of-N).
    pub iters: usize,
    /// `VmHWM` right after the `mega/` section (0 if unavailable).
    pub peak_rss_bytes: usize,
    /// Every row, in section order.
    pub rows: Vec<Row>,
}

const NOTES: [&str; 5] = [
    "rows with cold_ms are gated by bench --regress: a row fails when it is missing or more \
     than 25% and more than 5 ms slower than the committed baseline",
    "every boolean field is an oracle: bench exits 1 when any is false",
    "peak_rss_bytes is the process-wide VmHWM read right after the mega/ rows; the per-structure \
     *_bytes fields are capacity-based estimates",
    "worker and thread counts above host_parallelism time oversubscription, not parallel speedup",
    "prune stages partition raw pre-region-merge pairs; candidate_pairs is what the pair loop \
     would enumerate without the per-location budget",
];

impl Report {
    /// One message per false oracle field (empty = every oracle holds).
    pub fn oracle_failures(&self) -> Vec<String> {
        self.rows
            .iter()
            .flat_map(|row| {
                row.fields
                    .iter()
                    .filter(|(_, value)| *value == Value::Flag(false))
                    .map(move |(key, _)| format!("{}: {key} is false", row.name))
            })
            .collect()
    }

    /// Serializes the report, one row object per line (the line shape
    /// [`cold_rows`] reads).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"host_parallelism\": {},", self.host_parallelism);
        let _ = writeln!(out, "  \"iters\": {},", self.iters);
        let _ = writeln!(out, "  \"peak_rss_bytes\": {},", self.peak_rss_bytes);
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(out, "    {{\"row\": \"{}\"", json_escape(&row.name));
            for (key, value) in &row.fields {
                let _ = write!(out, ", \"{}\": {value}", json_escape(key));
            }
            out.push_str(if i + 1 < self.rows.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ],\n  \"notes\": [\n");
        for (i, note) in NOTES.iter().enumerate() {
            let sep = if i + 1 < NOTES.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{note}\"{sep}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// One line per row, for the terminal.
    pub fn render(&self) -> String {
        let mut out = format!(
            "host_parallelism {} | best of {} | peak RSS after mega/ {} MiB\n",
            self.host_parallelism,
            self.iters,
            self.peak_rss_bytes / (1024 * 1024)
        );
        for row in &self.rows {
            let _ = write!(out, "{:<34}", row.name);
            for (key, value) in &row.fields {
                let _ = write!(out, " {key}={value}");
            }
            out.push('\n');
        }
        out
    }
}

/// Runs every section and returns the report.
pub fn run(iters: usize) -> Report {
    let engine = O2::default();
    let mut rows = mega_rows(&engine, &MEGA, iters);
    let peak_rss_bytes = peak_rss_bytes().unwrap_or(0);
    rows.extend(edit_rows(&engine, &EDIT, iters));
    rows.extend(COLD.iter().map(|name| {
        let w = workload(name);
        let (cold, _) = timed(iters, || engine.analyze(&w.program));
        Row::new(format!("cold/{name}")).ms("cold_ms", cold)
    }));
    rows.extend(sync_rows(&engine, iters));
    let prune: Vec<String> = o2_workloads::all_presets()
        .iter()
        .map(|p| p.name.to_string())
        .chain(MEGA.iter().map(|m| m.to_string()))
        .collect();
    rows.extend(prune_rows(&engine, &prune));
    rows.extend(scaling_rows("telegram", &[1, 2, 4, 8], iters));
    rows.extend(scaling_rows("mega-grid", &[1, 2, 4], iters));
    rows.extend(solver_rows(&SOLVER, iters));
    rows.extend(passes_rows(&PASSES, iters));
    rows.push(realbugs_row(
        "java",
        &engine,
        &o2_workloads::realbugs::all_models(),
    ));
    rows.push(realbugs_row("c", &engine, &o2_workloads::all_c_models()));
    rows.push(hb_row("zookeeper", iters));
    rows.extend(batch_rows(&engine, &[1, 2, 4], iters));
    rows.extend(serve_rows(&engine, &SERVE, iters));
    rows.extend(error_rows(&engine, iters));
    Report {
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        iters,
        peak_rss_bytes,
        rows,
    }
}

/// Best-of-`iters` wall time of `f`. Each run gets a fresh `setup()`,
/// built and dropped outside the timed region. Returns the fastest time
/// and what that run returned; an oracle that must hold on every run is
/// checked inside `f`.
fn best_of<S, T>(
    iters: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(&mut S) -> T,
) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..iters.max(1) {
        let mut state = setup();
        let t0 = Instant::now();
        let v = f(&mut state);
        let d = t0.elapsed();
        if best.as_ref().is_none_or(|(b, _)| d < *b) {
            best = Some((d, v));
        }
    }
    best.expect("at least one run")
}

/// [`best_of`] without per-run setup.
fn timed<T>(iters: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    best_of(iters, || (), |_| f())
}

fn workload(name: &str) -> GeneratedWorkload {
    o2_workloads::workload_by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"))
}

/// One [`O2::run`]: cold without `db`, warm against it otherwise.
fn run_request(
    engine: &O2,
    program: &Program,
    db: Option<&mut AnalysisDb>,
    digests: Option<&ProgramDigests>,
) -> Analysis {
    let budget = Budget::unlimited();
    let mut request = AnalysisRequest::new(ProgramCtx::solo(program), &budget);
    request.db = db;
    request.digests = digests;
    engine.run(request).expect("unlimited budget")
}

/// The cold/warm shape: best-of cold analyze of `target`, then best-of
/// warm replay of it from the image of `base`. Returns the row with the
/// shared fields, the cold report, and the warm run's replay counters.
fn cold_warm(
    name: String,
    engine: &O2,
    base: &Program,
    target: &Program,
    iters: usize,
) -> (Row, AnalysisReport, IncrStats) {
    // One untimed run first: the mega presets run first in the process,
    // and their first run pays for growing the heap.
    engine.analyze(target);
    let (cold, report) = timed(iters, || engine.analyze(target));
    // The image is built once, outside the timed region: the cost being
    // measured is the replay, not the initial indexing. The digests are
    // computed once too, the way the CLI reuses those of `--load-db`
    // image verification.
    let image = {
        let mut db = AnalysisDb::new(engine.config_sig());
        run_request(engine, base, Some(&mut db), None);
        db.to_bytes()
    };
    let digests = o2_ir::digest_program(target);
    let (warm, analysis) = best_of(
        iters,
        || AnalysisDb::from_bytes(&image).expect("image round-trips"),
        |db| run_request(engine, target, Some(db), Some(&digests)),
    );
    let row = Row::new(name)
        .int("origins", report.num_origins() as u64)
        .int("races", report.num_races() as u64)
        .ms("cold_ms", cold)
        .ms("warm_ms", warm)
        .ratio(
            "warm_over_cold",
            warm.as_secs_f64() / cold.as_secs_f64().max(1e-9),
        )
        .flag("incremental", analysis.stats.incremental)
        .flag(
            "identical_warm",
            report.races.to_json(target) == analysis.report.races.to_json(target),
        );
    (row, report, analysis.stats)
}

/// `mega/` rows: cold/warm of each preset against its own image, plus the
/// cold run's per-structure heap estimates.
fn mega_rows(engine: &O2, names: &[&str], iters: usize) -> Vec<Row> {
    names
        .iter()
        .map(|name| {
            let w = workload(name);
            let (row, report, _) = cold_warm(
                format!("mega/{name}"),
                engine,
                &w.program,
                &w.program,
                iters,
            );
            let f = report.memory_footprint();
            row.int("shb_traces_bytes", f.shb_traces as u64)
                .int("shb_csr_bytes", f.shb_csr as u64)
                .int("shb_locks_bytes", f.shb_locks as u64)
                .int("shb_access_index_bytes", f.shb_access_index as u64)
                .int("osa_bytes", f.osa as u64)
                .int("total_bytes", f.total() as u64)
        })
        .collect()
}

/// `edit/` rows: cold analyze of the edited preset vs warm replay from
/// the unedited image, with the database counters of the warm run.
fn edit_rows(engine: &O2, names: &[&str], iters: usize) -> Vec<Row> {
    names
        .iter()
        .map(|name| {
            let w = workload(name);
            let (edited, edited_fn) = o2_workloads::single_function_edit(&w.program);
            let (row, report, s) =
                cold_warm(format!("edit/{name}"), engine, &w.program, &edited, iters);
            row.text("edited", edited_fn)
                .int("pairs_cold", report.races.pairs_checked)
                .int("pairs_replayed", s.pairs_replayed)
                .int("pairs_rechecked", s.pairs_rechecked)
                .int("origins_replayed", s.origins_replayed as u64)
                .int("origins_walked", s.origins_walked as u64)
                .int("candidates_replayed", s.candidates_replayed as u64)
                .int("candidates_rechecked", s.candidates_rechecked as u64)
        })
        .collect()
}

/// `sync/` rows: every rwlock/condvar/async fixture (Java models, then C
/// siblings) must report exactly its confirmed races.
fn sync_rows(engine: &O2, iters: usize) -> Vec<Row> {
    let java = o2_workloads::extended_models()
        .into_iter()
        .map(|m| ("java", m));
    let c = o2_workloads::extended_c_models()
        .into_iter()
        .map(|m| ("c", m));
    java.chain(c)
        .map(|(frontend, m)| {
            let name = format!("sync/{}({frontend})", m.name);
            let (row, report, _) = cold_warm(name, engine, &m.program, &m.program, iters);
            row.int("expected", m.expected_races as u64)
                .flag("pass", report.num_races() == m.expected_races)
                .prune(&report.races.prune)
        })
        .collect()
}

/// `prune/` rows: one cold analysis per workload, classified by the
/// pre-loop pruning taxonomy.
fn prune_rows(engine: &O2, names: &[String]) -> Vec<Row> {
    names
        .iter()
        .map(|name| {
            let report = engine.analyze(&workload(name).program);
            Row::new(format!("prune/{name}"))
                .int("origins", report.num_origins() as u64)
                .int("races", report.num_races() as u64)
                .prune(&report.races.prune)
        })
        .collect()
}

/// `scaling/` rows: the pipeline prefix (PTA, OSA, SHB) once, then the
/// pair check at each worker count over the frozen SHB.
fn scaling_rows(name: &str, threads: &[usize], iters: usize) -> Vec<Row> {
    let w = workload(name);
    let ctx = ProgramCtx::solo(&w.program);
    let pta = analyze(&ctx, &PtaConfig::with_policy(Policy::origin1()));
    let mut osa = run_osa(&ctx, &pta);
    let shb = build_shb(&ctx, &pta, &ShbConfig::default(), &mut osa.locs);
    let mut serial: Option<(Duration, String)> = None;
    let mut rows = Vec::new();
    for &t in threads {
        let cfg = DetectConfig::o2().with_threads(t);
        let (time, report) = timed(iters, || detect(&ctx, &pta, &osa, &shb, &cfg));
        let json = report.to_json(&w.program);
        let (serial_time, serial_json) = serial.get_or_insert_with(|| (time, json.clone()));
        let secs = time.as_secs_f64().max(1e-9);
        rows.push(
            Row::new(format!("scaling/{name}/t{t}"))
                .int("threads_used", report.threads_used as u64)
                .int("races", report.races.len() as u64)
                .int("pairs_checked", report.pairs_checked)
                .ms("time_ms", time)
                .int("pairs_per_sec", (report.pairs_checked as f64 / secs) as u64)
                .ratio("speedup", serial_time.as_secs_f64() / secs)
                .flag("identical_to_serial", json == *serial_json),
        );
    }
    rows
}

/// `solver/` rows: each preset under origin-1 with difference
/// propagation on and off.
fn solver_rows(names: &[&str], iters: usize) -> Vec<Row> {
    names
        .iter()
        .map(|name| {
            let w = workload(name);
            let ctx = ProgramCtx::solo(&w.program);
            let solve = |difference_propagation| {
                let cfg = PtaConfig {
                    policy: Policy::origin1(),
                    difference_propagation,
                    ..Default::default()
                };
                timed(iters, || analyze(&ctx, &cfg))
            };
            let (time_diff, diff) = solve(true);
            let (time_full, full) = solve(false);
            let (d, f) = (&diff.stats, &full.stats);
            let reduction = if f.propagated_objects == 0 {
                0.0
            } else {
                1.0 - d.propagated_objects as f64 / f.propagated_objects as f64
            };
            Row::new(format!("solver/{name}"))
                .int("edges", d.num_edges)
                .flag("same_graph", d.num_edges == f.num_edges)
                .int("steps_full", f.solve_steps)
                .int("steps_diff", d.solve_steps)
                .int("propagated_full", f.propagated_objects)
                .int("propagated_diff", d.propagated_objects)
                .ratio("reduction", reduction)
                .ms("time_full_ms", time_full)
                .ms("time_diff_ms", time_diff)
        })
        .collect()
}

/// `passes/` rows: what the detector found on each preset under O2 and
/// 0-ctx, and what each precision pass did to it.
fn passes_rows(names: &[&str], iters: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for name in names {
        let w = workload(name);
        for policy in [Policy::origin1(), Policy::insensitive()] {
            let engine = O2Builder::new().policy(policy).build();
            let (_, a) = timed(iters, || run_request(&engine, &w.program, None, None));
            let p = &a.pipeline;
            let mut row = Row::new(format!("passes/{name}/{policy}"))
                .int("detected", a.report.num_races() as u64)
                .int("high", p.tier_count(Tier::High) as u64)
                .int("medium", p.tier_count(Tier::Medium) as u64)
                .int("low", p.tier_count(Tier::Low) as u64)
                .int("pruned", p.pruned.len() as u64)
                .int("suppressed", p.suppressed.len() as u64)
                .ms("passes_ms", p.passes.iter().map(|r| r.duration).sum());
            for pass in &p.passes {
                for (stat, v) in &pass.stats {
                    row = row.int(format!("{}.{stat}", pass.name), *v);
                }
            }
            rows.push(row);
        }
    }
    rows
}

/// A `realbugs/` row: every confirmed race of a real-bug family must
/// survive triage, in the high tier.
fn realbugs_row(label: &str, engine: &O2, models: &[o2_workloads::RealBugModel]) -> Row {
    let (mut races, mut expected, mut removed, mut all_high) = (0, 0, 0, true);
    for m in models {
        let p = run_request(engine, &m.program, None, None).pipeline;
        races += p.races.len();
        expected += m.expected_races;
        removed += p.pruned.len() + p.suppressed.len();
        all_high &= p.races.iter().all(|r| r.tier == Tier::High);
    }
    Row::new(format!("realbugs/{label}"))
        .int("models", models.len() as u64)
        .int("races", races as u64)
        .int("removed", removed as u64)
        .flag("recall", races == expected)
        .flag("none_removed", removed == 0)
        .flag("all_high", all_high)
}

/// The `hb/` row: integer-id vs naive edge-walking happens-before over a
/// deterministic sample of cross-origin access pairs, 64 passes each.
fn hb_row(name: &str, iters: usize) -> Row {
    let w = workload(name);
    let ctx = ProgramCtx::solo(&w.program);
    let pta = analyze(&ctx, &PtaConfig::with_policy(Policy::origin1()));
    let shb = build_shb(
        &ctx,
        &pta,
        &ShbConfig::default(),
        &mut o2_analysis::LocTable::new(),
    );
    let firsts: Vec<_> = shb
        .traces
        .iter()
        .enumerate()
        .filter_map(|(o, t)| Some((OriginId(o as u32), t.accesses.first()?.pos)))
        .collect();
    let queries: Vec<_> = firsts
        .iter()
        .flat_map(|&a| firsts.iter().map(move |&b| (a, b)))
        .take(256)
        .collect();
    type Pos = (OriginId, u32);
    type Query = (Pos, Pos);
    // Generic, not `dyn`, so each query kind is inlined into its loop.
    fn hits(iters: usize, queries: &[Query], hb: impl Fn(Pos, Pos) -> bool) -> (Duration, usize) {
        timed(iters, || {
            (0..64)
                .map(|_| queries.iter().filter(|&&(x, y)| hb(x, y)).count())
                .sum::<usize>()
        })
    }
    let (integer, integer_hits) = hits(iters, &queries, |x, y| shb.happens_before(x, y));
    let (naive, naive_hits) = hits(iters, &queries, |x, y| shb.happens_before_naive(x, y));
    Row::new(format!("hb/{name}"))
        .int("queries", 64 * queries.len() as u64)
        .ms("integer_ms", integer)
        .ms("naive_ms", naive)
        .flag("agree", integer_hits == naive_hits)
}

/// `batch/` rows: the corpus at each worker count over a fresh artifact
/// pool. Merged JSON and SARIF must byte-match the first worker count's,
/// and the timed run must score cross-program hits at every worker count.
fn batch_rows(engine: &O2, workers: &[usize], iters: usize) -> Vec<Row> {
    let entries: Vec<BatchEntry> = CORPUS
        .iter()
        .map(|spec| {
            let w = workload(spec);
            BatchEntry {
                name: w.name,
                program: Ok(w.program),
            }
        })
        .collect();
    let mut first: Option<(String, String)> = None;
    let mut rows = Vec::new();
    for &n in workers {
        let (cold, report) = timed(iters, || run_batch(engine, &entries, n));
        let (json, sarif) =
            first.get_or_insert_with(|| (report.json.clone(), report.sarif.clone()));
        let hits = report.cross_program_hits();
        rows.push(
            Row::new(format!("batch/w{n}"))
                .int("programs", entries.len() as u64)
                .ms("cold_ms", cold)
                .int("cross_program_hits", hits as u64)
                .ratio("hit_rate", report.hit_rate())
                .int("races", report.total_races() as u64)
                .flag("identical", report.json == *json && report.sarif == *sarif)
                .flag("scored_hits", hits > 0),
        );
    }
    rows
}

/// A booted in-process daemon (real TCP on a loopback port) with one
/// connected client. It is shut down when dropped, and a failed shutdown
/// clears `clean`.
struct Daemon<'a> {
    server: Option<ServerHandle>,
    client: Client,
    clean: &'a Cell<bool>,
}

impl<'a> Daemon<'a> {
    fn boot(engine: &O2, clean: &'a Cell<bool>) -> Daemon<'a> {
        let state = Arc::new(ServeState::new(engine.clone()));
        let server = spawn("127.0.0.1:0", state, ServeOptions::default()).expect("bind loopback");
        let client = Client::connect(server.addr()).expect("connect");
        Daemon {
            server: Some(server),
            client,
            clean,
        }
    }

    fn request(&mut self, line: &str) -> BTreeMap<String, JsonValue> {
        self.client.request(line).expect("daemon answers")
    }

    fn loadgen(&self, engine: &O2, config: &LoadgenConfig) -> LoadgenReport {
        let addr = self.server.as_ref().expect("running").addr().to_string();
        o2::run_loadgen(&addr, engine, config).expect("loadgen completes")
    }
}

impl Drop for Daemon<'_> {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            if let Err(e) = server.shutdown() {
                eprintln!("bench: daemon shutdown failed: {e}");
                self.clean.set(false);
            }
        }
    }
}

fn output(map: &BTreeMap<String, JsonValue>) -> Option<&str> {
    map.get("output").and_then(|v| v.as_str())
}

/// `serve/` rows: per preset, the first request against a fresh daemon
/// (`cold_ms`, gated), the median of digest-identical repeats, and one
/// 1-function-edited request that misses the report cache but replays
/// artifacts from the pool. Every answer must byte-match the solo
/// oracle, every daemon must shut down cleanly, and warm must beat half
/// of cold on at least two presets. `serve/load` drives the open-system
/// loadgen schedule with response verification on.
fn serve_rows(engine: &O2, presets: &[&str], iters: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut halved = 0;
    for preset in presets {
        let w = workload(preset);
        let (edited, _) = o2_workloads::single_function_edit(&w.program);
        let solo = solo_reports(engine, &w.program).expect("solo oracle").text;
        let edited_solo = solo_reports(engine, &edited).expect("solo oracle").text;
        let line = format!("{{\"op\":\"analyze\",\"workload\":\"{preset}\"}}");
        let edit_line = format!("{{\"op\":\"analyze\",\"workload\":\"{preset}\",\"edit\":1}}");

        let clean = Cell::new(true);
        let mut identical = true;
        let (cold, _) = best_of(
            iters,
            || Daemon::boot(engine, &clean),
            |d| identical &= output(&d.request(&line)) == Some(solo.as_str()),
        );
        let mut daemon = Daemon::boot(engine, &clean);
        identical &= output(&daemon.request(&line)) == Some(solo.as_str());
        let mut warm: Vec<Duration> = (0..WARM_REPS)
            .map(|_| {
                let t0 = Instant::now();
                let map = daemon.request(&line);
                let d = t0.elapsed();
                identical &= map.get("digest_hit").and_then(|v| v.as_bool()) == Some(true)
                    && output(&map) == Some(solo.as_str());
                d
            })
            .collect();
        warm.sort();
        let warm_p50 = warm[(warm.len() - 1) / 2];
        let t0 = Instant::now();
        let map = daemon.request(&edit_line);
        let edit = t0.elapsed();
        identical &= output(&map) == Some(edited_solo.as_str());
        drop(daemon);
        let warm_over_cold = warm_p50.as_secs_f64() / cold.as_secs_f64().max(1e-9);
        halved += usize::from(warm_over_cold < 0.5);
        rows.push(
            Row::new(format!("serve/{preset}"))
                .ms("cold_ms", cold)
                .ms("warm_p50_ms", warm_p50)
                .ms("edit_ms", edit)
                .int(
                    "edit_replays",
                    map.get("replays").and_then(|v| v.as_u64()).unwrap_or(0),
                )
                .ratio("warm_over_cold", warm_over_cold)
                .flag("identical", identical)
                .flag("clean_shutdown", clean.get()),
        );
    }
    rows.push(
        Row::new("serve/halved")
            .int("presets_halved", halved as u64)
            .flag("at_least_two", halved >= 2),
    );
    let clean = Cell::new(true);
    let load = Daemon::boot(engine, &clean).loadgen(
        engine,
        &LoadgenConfig {
            seed: 0x9_2026,
            requests: 48,
            rate: 40.0,
            workloads: vec![
                "avrora".to_string(),
                "lusearch".to_string(),
                "realbug:ZooKeeper".to_string(),
            ],
            edit_prob: 0.2,
            verify: true,
            ..Default::default()
        },
    );
    rows.push(
        Row::new("serve/load")
            .with("cold_ms", Value::Ms(load.cold.p50))
            .with("warm_p50_ms", Value::Ms(load.warm.p50))
            .with("warm_p90_ms", Value::Ms(load.warm.p90))
            .with("warm_p99_ms", Value::Ms(load.warm.p99))
            .ratio("analyses_per_sec", load.analyses_per_sec)
            .int("requests", load.requests as u64)
            .int("warm_responses", load.warm_responses as u64)
            .int("errors", load.errors as u64)
            .int("mismatches", load.mismatches as u64)
            .flag("clean", load.errors == 0 && load.mismatches == 0)
            .flag("clean_shutdown", clean.get()),
    );
    rows
}

/// `error/` rows: how fast a daemon answers a structured error for a
/// broken inline source, an unknown workload and a `deadline_ms: 0`
/// request; what the unlimited request [`Budget`] costs on the success
/// path; and a loadgen run where a quarter of the requests are malformed,
/// each of which must come back as a structured error. Every answer is
/// checked, and the daemon that served them must shut down cleanly.
fn error_rows(engine: &O2, iters: usize) -> Vec<Row> {
    let clean = Cell::new(true);
    let mut daemon = Daemon::boot(engine, &clean);
    let mut rows: Vec<Row> = [
        (
            "parse",
            "{\"op\":\"analyze\",\"source\":\"class Broken {\"}",
        ),
        (
            "resolve",
            "{\"op\":\"analyze\",\"workload\":\"no-such-workload\"}",
        ),
        (
            "timeout",
            "{\"op\":\"analyze\",\"workload\":\"avrora\",\"deadline_ms\":0}",
        ),
    ]
    .iter()
    .map(|(stage, line)| {
        let mut structured = true;
        let (cold, _) = timed(iters, || {
            let map = daemon.request(line);
            structured &= map.get("ok").and_then(|v| v.as_bool()) == Some(false)
                && map.get("stage").and_then(|v| v.as_str()) == Some(stage);
        });
        Row::new(format!("error/{stage}"))
            .ms("cold_ms", cold)
            .flag("structured", structured)
    })
    .collect();

    // Both legs drop their report inside the timed region.
    let w = workload("avrora");
    let (plain, _) = timed(iters, || {
        std::hint::black_box(engine.analyze(&w.program));
    });
    let mut completed = true;
    let (budgeted, _) = timed(iters, || {
        completed &= engine
            .try_analyze(&w.program, &Budget::unlimited())
            .map(std::hint::black_box)
            .is_ok();
    });
    let ratio = budgeted.as_secs_f64() / plain.as_secs_f64().max(1e-9);
    rows.push(
        Row::new("error/budget-overhead")
            .ms("cold_ms", budgeted)
            .ms("plain_ms", plain)
            .ratio("ratio", ratio)
            .flag("completed", completed)
            // Generous: the two paths differ by atomic loads, but tiny
            // presets are noisy.
            .flag("under_1_5x", ratio < 1.5),
    );

    let load = daemon.loadgen(
        engine,
        &LoadgenConfig {
            seed: 0x10_2026,
            requests: 48,
            workloads: vec!["avrora".to_string(), "realbug:ZooKeeper".to_string()],
            edit_prob: 0.2,
            malformed_frac: 0.25,
            ..Default::default()
        },
    );
    drop(daemon);
    rows.push(
        Row::new("error/load")
            .with("cold_ms", Value::Ms(load.err.p50))
            .with("err_p99_ms", Value::Ms(load.err.p99))
            .with("ok_p50_ms", Value::Ms(load.all.p50))
            .int("requests", load.requests as u64)
            .int("malformed", load.malformed as u64)
            .int("malformed_ok", load.malformed_ok as u64)
            .int("errors", load.errors as u64)
            .flag(
                "all_answered",
                load.malformed > 0 && load.malformed_ok == load.malformed,
            )
            .flag("clean", load.errors == 0)
            .flag("clean_shutdown", clean.get()),
    );
    rows
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every gated row of a report (`name → cold_ms`).
pub fn cold_rows(json: &str) -> BTreeMap<String, f64> {
    json.lines()
        .filter_map(|line| {
            Some((
                extract_str(line, "\"row\": \"")?,
                extract_num(line, "\"cold_ms\": ")?,
            ))
        })
        .collect()
}

/// The CI regression gate. Matches the gated rows of two reports by name
/// and returns how many were compared plus one message per failure: a
/// baseline row missing from `current`, or a row more than
/// [`REGRESSION_RATIO`] and [`REGRESSION_FLOOR_MS`] slower than its
/// baseline. Rows only in `current` are new and pass.
pub fn regression_failures(baseline: &str, current: &str) -> (usize, Vec<String>) {
    let cur = cold_rows(current);
    let mut compared = 0;
    let mut failures = Vec::new();
    for (name, bms) in cold_rows(baseline) {
        let Some(&cms) = cur.get(&name) else {
            failures.push(format!("{name}: gated row missing from the current report"));
            continue;
        };
        compared += 1;
        if cms > bms * REGRESSION_RATIO && cms - bms > REGRESSION_FLOOR_MS {
            failures.push(format!(
                "{name}: cold {cms:.1} ms vs baseline {bms:.1} ms \
                 (+{:.0}%, threshold +{:.0}% and > {REGRESSION_FLOOR_MS} ms)",
                (cms / bms - 1.0) * 100.0,
                (REGRESSION_RATIO - 1.0) * 100.0,
            ));
        }
    }
    (compared, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(row: &'a Row, key: &str) -> Option<&'a Value> {
        row.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn int(row: &Row, key: &str) -> u64 {
        match field(row, key) {
            Some(Value::Int(n)) => *n,
            other => panic!("{}: {key} is {other:?}", row.name),
        }
    }

    fn report(rows: Vec<Row>) -> Report {
        Report {
            host_parallelism: 1,
            iters: 1,
            peak_rss_bytes: 0,
            rows,
        }
    }

    /// Asserts that every oracle of `rows` holds and returns them.
    fn holding(rows: Vec<Row>) -> Vec<Row> {
        let r = report(rows);
        assert_eq!(r.oracle_failures(), Vec::<String>::new(), "{}", r.render());
        r.rows
    }

    #[test]
    fn a_false_oracle_fails_the_run() {
        let ok = report(vec![Row::new("sync/a(java)")
            .ms("cold_ms", Duration::from_millis(2))
            .flag("pass", true)
            .text("edited", "Main.main/0")]);
        assert!(ok.oracle_failures().is_empty());

        let bad = report(vec![
            Row::new("scaling/x/t2").flag("identical_to_serial", false),
            Row::new("realbugs/java")
                .flag("recall", true)
                .flag("all_high", false),
        ]);
        assert_eq!(
            bad.oracle_failures(),
            [
                "scaling/x/t2: identical_to_serial is false",
                "realbugs/java: all_high is false"
            ]
        );
    }

    #[test]
    fn regression_gate_compares_cold_rows() {
        let rows = |a: u64, b: u64| {
            report(vec![
                Row::new("edit/a").ms("cold_ms", Duration::from_millis(a)),
                Row::new("solver/s").ms("time_full_ms", Duration::from_millis(900)),
                Row::new("edit/b").ms("cold_ms", Duration::from_millis(b)),
            ])
            .to_json()
        };
        let base = rows(100, 2);
        assert_eq!(regression_failures(&base, &base), (2, vec![]));

        // 30% slower and > 5 ms absolute: fails.
        let (compared, fails) = regression_failures(&base, &rows(130, 2));
        assert_eq!(compared, 2);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("edit/a:"), "{fails:?}");

        // 100% slower but under the 5 ms floor: tiny-preset jitter, passes.
        assert_eq!(regression_failures(&base, &rows(100, 4)), (2, vec![]));

        // A renamed row leaves its baseline row unmatched: fails, and
        // only the matched row counts as compared.
        let renamed = base.replace("edit/a", "edit/a2");
        let (compared, fails) = regression_failures(&base, &renamed);
        assert_eq!(compared, 1);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].starts_with("edit/a: gated row missing"),
            "{fails:?}"
        );

        // A dropped row fails too, wherever it sat.
        let dropped = report(vec![
            Row::new("edit/b").ms("cold_ms", Duration::from_millis(2))
        ]);
        let (compared, fails) = regression_failures(&base, &dropped.to_json());
        assert_eq!(compared, 1);
        assert_eq!(fails.len(), 1, "{fails:?}");

        // Rows new in the current report pass.
        let (compared, fails) = regression_failures(&dropped.to_json(), &base);
        assert_eq!((compared, fails.len()), (1, 0));
    }

    #[test]
    fn cold_warm_rows_replay_identically() {
        let engine = O2::default();
        let mega = holding(mega_rows(&engine, &["mega-smoke"], 1));
        assert!(int(&mega[0], "total_bytes") > 0);

        let edit = holding(edit_rows(&engine, &["xalan"], 1));
        let (rechecked, cold) = (
            int(&edit[0], "pairs_rechecked"),
            int(&edit[0], "pairs_cold"),
        );
        assert!(
            rechecked < cold || (cold == 0 && rechecked == 0),
            "warm run re-checked {rechecked} of {cold} pairs"
        );
    }

    #[test]
    fn sync_fixtures_find_their_races_and_rdlock_is_not_common_guard_pruned() {
        let rows = holding(sync_rows(&O2::default(), 1));
        assert_eq!(rows.len(), 5, "3 java + 2 c fixtures");
        // The OpenSSL fixture's racy counter is guarded only by the read
        // side; if the common-guard stage ever accepted it, the race
        // would be synthesized away.
        let rw = rows
            .iter()
            .find(|r| r.name == "sync/OpenSSL-rwlock(java)")
            .expect("fixture present");
        assert_eq!(int(rw, "races"), 1);
        assert!(int(rw, "candidate_pairs") > 0);
    }

    #[test]
    fn prune_taxonomy_partitions_pairs() {
        let rows = prune_rows(&O2::default(), &["xalan".into(), "mega-smoke".into()]);
        for row in &rows {
            assert_eq!(
                int(row, "pre_prune_pairs"),
                [
                    "read_only_pairs",
                    "single_origin_pairs",
                    "common_guard_pairs",
                    "candidate_pairs"
                ]
                .iter()
                .map(|k| int(row, k))
                .sum::<u64>(),
                "{row:?}"
            );
        }
        let p = O2::default()
            .analyze(&workload("mega-smoke").program)
            .races
            .prune;
        assert_eq!(
            p.locations,
            p.read_only_locs + p.single_origin_locs + p.common_guard_locs + p.candidate_locs
        );
        // The smoke preset exercises every prune stage.
        let smoke = &rows[1];
        assert!(int(smoke, "read_only_pairs") > 0, "{smoke:?}");
        assert!(int(smoke, "common_guard_pairs") > 0, "{smoke:?}");
        assert!(p.prune_rate() > 0.3, "{p:?}");
    }

    #[test]
    fn detect_scaling_is_identical_and_difference_propagation_moves_less() {
        let scaling = holding(scaling_rows("xalan", &[1, 2], 1));
        assert_eq!(scaling.len(), 2);
        let solver = holding(solver_rows(&["xalan"], 1));
        assert!(int(&solver[0], "propagated_diff") <= int(&solver[0], "propagated_full"));
    }

    #[test]
    fn real_bug_recall_survives_triage_and_zero_ctx_bait_is_pruned() {
        let engine = O2::default();
        let rows = holding(vec![
            realbugs_row("java", &engine, &o2_workloads::realbugs::all_models()),
            realbugs_row("c", &engine, &o2_workloads::all_c_models()),
        ]);
        let (java, c) = (&rows[0], &rows[1]);
        // Pinned to the paper's counts.
        assert_eq!(int(java, "races"), 40);
        assert_eq!(int(c, "races"), 35);

        let rows = passes_rows(&["avrora"], 1);
        let zero_ctx = rows
            .iter()
            .find(|r| r.name == "passes/avrora/0-ctx")
            .expect("0-ctx row");
        assert!(
            int(zero_ctx, "pruned") >= 1,
            "ownership pass prunes 0-ctx bait"
        );
        assert!(int(zero_ctx, "high") >= 1, "planted races survive");
    }

    #[test]
    fn batch_scores_hits_and_stays_deterministic() {
        let rows = holding(batch_rows(&O2::default(), &[1, 2], 1));
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(field(row, "scored_hits"), Some(&Value::Flag(true)));
        }
        assert_eq!(int(&rows[0], "races"), int(&rows[1], "races"));
        assert_eq!(cold_rows(&report(rows).to_json()).len(), 2);
    }

    #[test]
    fn serve_halves_warm_latency_and_stays_identical() {
        let rows = holding(serve_rows(&O2::default(), &SERVE, 1));
        // One gated row per preset, plus the load row.
        assert_eq!(cold_rows(&report(rows).to_json()).len(), SERVE.len() + 1);
    }
}
