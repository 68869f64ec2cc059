//! # o2 — static race detection with origins
//!
//! The facade crate of the O2 reproduction (*"When Threads Meet Events:
//! Efficient and Precise Static Race Detection with Origins"*, PLDI 2021).
//! It wires the full pipeline:
//!
//! 1. **OPA** — origin-sensitive pointer analysis ([`o2_pta`]),
//! 2. **OSA** — origin-sharing analysis ([`o2_analysis`]),
//! 3. **SHB** — static happens-before graph construction ([`o2_shb`]),
//! 4. **race detection** with the §4.1 optimizations ([`o2_detect`]).
//!
//! ```
//! use o2::prelude::*;
//!
//! let program = o2_ir::parser::parse(r#"
//!     class S { field data; }
//!     class W impl Runnable {
//!         field s;
//!         method <init>(s) { this.s = s; }
//!         method run() { s = this.s; s.data = s; }
//!     }
//!     class Main {
//!         static method main() {
//!             s = new S();
//!             w = new W(s);
//!             w.start();
//!             x = s.data;
//!         }
//!     }
//! "#).unwrap();
//! let report = O2Builder::new().build().analyze(&program);
//! assert_eq!(report.races.races.len(), 1);
//! println!("{}", report.summary());
//! ```
//!
//! [`O2::analyze`] and [`O2::try_analyze`] run the four stages cold.
//! Everything a front end needs beyond that — an incremental database, the
//! precision passes, a request [`Budget`], a panic guard — goes through
//! the one request entry, [`O2::run`], which the `o2` CLI, `o2 batch`
//! and `o2 serve` all call ([`O2::diff_analyze`] is two such requests
//! against one database):
//!
//! ```
//! use o2::prelude::*;
//!
//! let program = o2_workloads::figures::figure2();
//! let engine = O2::default();
//! let mut db = AnalysisDb::new(engine.config_sig());
//! let budget = Budget::unlimited();
//! let request = AnalysisRequest::new(ProgramCtx::solo(&program), &budget).db(&mut db);
//! let analysis = engine.run(request)?;
//! assert!(analysis.stats.incremental);
//! assert!(analysis.pipeline.races.is_empty());
//! # Ok::<(), O2Error>(())
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod incremental;
pub mod loadgen;
pub mod serve;

pub use batch::{
    parse_manifest, run_batch, run_batch_with_store, BatchEntry, BatchReport, ProgramOutcome,
};
pub use incremental::{DiffAnalysis, IncrStats};
pub use loadgen::{run_loadgen, LatencyStats, LoadgenConfig, LoadgenReport};
pub use serve::{Client, ServeOptions, ServerHandle};

use o2_analysis::{run_osa_bounded, OsaResult};
use o2_db::{AnalysisDb, CachedReports};
use o2_detect::{DetectConfig, RaceReport};
use o2_ir::program::Program;
use o2_ir::{digest_program, Budget, O2Error, ProgramCtx, ProgramDigests, ProgramId};
use o2_passes::{AnalysisCtx, PassManager, PipelineReport};
use o2_pta::{Policy, PtaConfig, PtaResult};
use o2_shb::{build_shb, ShbConfig, ShbGraph};
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// Re-exports of the most commonly used items across the workspace.
pub mod prelude {
    pub use crate::{
        peak_rss_bytes, Analysis, AnalysisReport, AnalysisRequest, DiffAnalysis, IncrStats,
        MemoryFootprint, O2Builder, Timings, O2,
    };
    pub use o2_analysis::{MemKey, OsaResult};
    pub use o2_db::AnalysisDb;
    pub use o2_detect::{
        DeadlockReport, DetectConfig, OversyncReport, PruneStats, Race, RaceReport,
    };
    pub use o2_ir::{Budget, EntryPointConfig, O2Error, OriginKind, Program, ProgramCtx};
    pub use o2_passes::{PipelineReport, Tier, TriagedRace};
    pub use o2_pta::{Policy, PtaConfig, PtaResult};
    pub use o2_shb::{ShbConfig, ShbGraph};
}

/// Per-stage wall-clock timings of one end-to-end run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// Pointer analysis.
    pub pta: Duration,
    /// Origin-sharing analysis.
    pub osa: Duration,
    /// SHB construction.
    pub shb: Duration,
    /// Race detection.
    pub detect: Duration,
    /// End-to-end total.
    pub total: Duration,
}

/// The complete result of one end-to-end analysis.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The pointer-analysis result (points-to sets, call graph, origins).
    pub pta: PtaResult,
    /// The origin-sharing result.
    pub osa: OsaResult,
    /// The SHB graph.
    pub shb: ShbGraph,
    /// The race report.
    pub races: RaceReport,
    /// Per-stage timings.
    pub timings: Timings,
}

impl AnalysisReport {
    /// Bundles the four stage results, reading each stage's duration
    /// from its result; `t0` is when the run started.
    fn assemble(
        pta: PtaResult,
        osa: OsaResult,
        shb: ShbGraph,
        races: RaceReport,
        t0: Instant,
    ) -> AnalysisReport {
        let timings = Timings {
            pta: pta.duration,
            osa: osa.duration,
            shb: shb.duration,
            detect: races.duration,
            total: t0.elapsed(),
        };
        AnalysisReport {
            pta,
            osa,
            shb,
            races,
            timings,
        }
    }

    /// `true` if any stage hit its budget before completion.
    pub fn timed_out(&self) -> bool {
        self.pta.timed_out
            || self.osa.truncated
            || self.races.timed_out
            || self.shb.traces.iter().any(|t| t.truncated)
    }

    /// Number of origins discovered (`#O` of Table 5).
    pub fn num_origins(&self) -> usize {
        self.pta.num_origins()
    }

    /// Number of reported races.
    pub fn num_races(&self) -> usize {
        self.races.races.len()
    }

    /// The program namespace this report's dense ids belong to
    /// ([`ProgramId::SOLO`] unless the report came from a batch run).
    pub fn program_id(&self) -> ProgramId {
        self.pta.program_id
    }

    /// Runs the deadlock analysis (§3's "beyond race detection" client)
    /// over this report's SHB graph.
    pub fn detect_deadlocks(&self, program: &Program) -> o2_detect::DeadlockReport {
        o2_detect::detect_deadlocks(program, &self.shb)
    }

    /// Runs the over-synchronization analysis over this report's OSA and
    /// SHB results.
    pub fn find_oversync(&self, program: &Program) -> o2_detect::OversyncReport {
        o2_detect::find_oversync(program, &self.osa, &self.shb)
    }

    /// Runs the post-detection precision pipeline (suppression, ownership
    /// pruning, guarded-by inference, RacerD agreement, deadlock and
    /// over-sync checks) over this report and returns the triaged result.
    pub fn run_pipeline(&self, program: &Program) -> o2_passes::PipelineReport {
        // Rebuild a context in this report's own namespace so the
        // pipeline's ProgramCtx agreement asserts hold for batch reports.
        let ctx = ProgramCtx::new(self.program_id(), "", program);
        o2_passes::run_pipeline(&ctx, &self.pta, &self.osa, &self.shb, &self.races)
    }

    /// Per-structure heap estimates for this run's long-lived state.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let (shb_traces, shb_csr, shb_locks, shb_access_index) = self.shb.approx_bytes();
        MemoryFootprint {
            shb_traces,
            shb_csr,
            shb_locks,
            shb_access_index,
            osa: self.osa.approx_bytes(),
        }
    }

    /// A one-paragraph textual summary (policy, origins, sharing, races).
    pub fn summary(&self) -> String {
        format!(
            "policy={} origins={} mis={} pointers={} objects={} edges={} \
             shared_accesses={} shared_objects={} races={} \
             (pta {:?}, osa {:?}, shb {:?}, detect {:?})",
            self.pta.policy,
            self.num_origins(),
            self.pta.stats.num_mis,
            self.pta.stats.num_pointers,
            self.pta.stats.num_objects,
            self.pta.stats.num_edges,
            self.osa.num_shared_accesses(),
            self.osa.num_shared_objects(),
            self.num_races(),
            self.timings.pta,
            self.timings.osa,
            self.timings.shb,
            self.timings.detect,
        )
    }
}

/// Approximate heap bytes held by each long-lived analysis structure,
/// gathered from the per-crate `approx_bytes` estimators. These are
/// capacity-based estimates (what the structures asked the allocator
/// for), not allocator-measured truth — compare them against
/// [`peak_rss_bytes`] for the whole-process ceiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// SHB per-origin traces (nodes + per-node metadata).
    pub shb_traces: usize,
    /// The frozen CSR adjacency (entry + join edge arrays).
    pub shb_csr: usize,
    /// Interned locksets: canonical element slices, bitset mirrors, and
    /// the intern index.
    pub shb_locks: usize,
    /// The per-location access index driving candidate collection.
    pub shb_access_index: usize,
    /// OSA sharing entries, origin sets, and the location interner.
    pub osa: usize,
}

impl MemoryFootprint {
    /// Sum over all tracked structures.
    pub fn total(&self) -> usize {
        self.shb_traces + self.shb_csr + self.shb_locks + self.shb_access_index + self.osa
    }
}

/// Peak resident-set size of the current process in bytes (`VmHWM` from
/// `/proc/self/status`). Returns `None` on platforms without procfs (or
/// when the field is missing/unparsable), so callers can distinguish
/// "unavailable" from a genuinely small peak.
pub fn peak_rss_bytes() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Builder for an [`O2`] analyzer (C-BUILDER).
///
/// Defaults to the paper's configuration: 1-origin OPA, the event
/// dispatcher lock, and all three detection optimizations.
#[derive(Clone, Debug, Default)]
pub struct O2Builder {
    pta: PtaConfig,
    shb: ShbConfig,
    detect: DetectConfig,
}

impl O2Builder {
    /// Creates a builder with the paper's default configuration.
    pub fn new() -> Self {
        O2Builder::default()
    }

    /// Sets the pointer-analysis context policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.pta.policy = policy;
        self
    }

    /// Sets a wall-clock budget for the pointer analysis.
    pub fn pta_timeout(mut self, timeout: Duration) -> Self {
        self.pta.timeout = Some(timeout);
        self
    }

    /// Sets a wall-clock budget for race detection.
    pub fn detect_timeout(mut self, timeout: Duration) -> Self {
        self.detect.timeout = Some(timeout);
        self
    }

    /// Replaces the pointer-analysis configuration.
    pub fn pta_config(mut self, cfg: PtaConfig) -> Self {
        self.pta = cfg;
        self
    }

    /// Replaces the SHB configuration.
    pub fn shb_config(mut self, cfg: ShbConfig) -> Self {
        self.shb = cfg;
        self
    }

    /// Replaces the detection configuration (e.g. [`DetectConfig::naive`]).
    pub fn detect_config(mut self, cfg: DetectConfig) -> Self {
        self.detect = cfg;
        self
    }

    /// Sets the worker-thread count for the race-checking engine
    /// (0 = available parallelism).
    pub fn detect_threads(mut self, threads: usize) -> Self {
        self.detect.threads = threads;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> O2 {
        O2 {
            pta: self.pta,
            shb: self.shb,
            detect: self.detect,
        }
    }
}

/// The configured end-to-end analyzer.
#[derive(Clone, Debug)]
pub struct O2 {
    pta: PtaConfig,
    shb: ShbConfig,
    detect: DetectConfig,
}

impl Default for O2 {
    fn default() -> Self {
        O2Builder::new().build()
    }
}

/// One analysis request: the program, the database its artifacts live
/// in (if any), and how long it may take. [`O2::run`] answers it; the
/// CLI, `o2 batch` and `o2 serve` each build one per program they
/// analyze.
pub struct AnalysisRequest<'a> {
    /// The program and the namespace of its dense ids.
    pub ctx: ProgramCtx<'a>,
    /// The incremental database to replay from and commit to. `None`
    /// runs cold: no digesting, no `CanonIndex`, no database.
    pub db: Option<&'a mut AnalysisDb>,
    /// Digests of `ctx.program()` the caller already holds; computed on
    /// demand when a database is given without them.
    pub digests: Option<&'a ProgramDigests>,
    /// The request's deadline and step ceiling.
    pub budget: &'a Budget,
}

impl<'a> AnalysisRequest<'a> {
    /// A cold request for `ctx` under `budget`.
    pub fn new(ctx: ProgramCtx<'a>, budget: &'a Budget) -> Self {
        AnalysisRequest {
            ctx,
            db: None,
            digests: None,
            budget,
        }
    }

    /// Runs the request against `db` instead of cold.
    pub fn db(mut self, db: &'a mut AnalysisDb) -> Self {
        self.db = Some(db);
        self
    }

    /// Reuses precomputed digests of the program on the database path.
    pub fn digests(mut self, digests: &'a ProgramDigests) -> Self {
        self.digests = Some(digests);
        self
    }
}

/// Everything one [`AnalysisRequest`] produces.
#[derive(Debug)]
pub struct Analysis {
    /// The four stage results.
    pub report: AnalysisReport,
    /// The triaged output of the precision passes.
    pub pipeline: PipelineReport,
    /// Replay counters of the database path (all zero, `incremental`
    /// false, for a cold request or a truncated pointer analysis).
    pub stats: IncrStats,
}

impl Analysis {
    /// The triaged report in all three formats: what the CLI prints per
    /// `--format`, what `o2 serve` answers with, and what a database
    /// caches for a digest-identical rerun.
    pub fn reports(&self, program: &Program) -> CachedReports {
        CachedReports {
            n_races: self.pipeline.races.len() as u64,
            text: self.pipeline.render(program),
            json: self.pipeline.to_json(program),
            sarif: self.pipeline.to_sarif(program),
        }
    }
}

impl O2 {
    /// Runs the four stages on `program` in the solo namespace, cold and
    /// without a budget.
    pub fn analyze(&self, program: &Program) -> AnalysisReport {
        self.try_analyze(program, &Budget::unlimited())
            .expect("unlimited budget cannot trip")
    }

    /// [`Self::analyze`] under a request-scoped [`Budget`] checked at
    /// every stage boundary (and polled inside the OPA solver loop and
    /// the detect chunk-claim loop). Tripping it aborts with
    /// [`O2Error::Timeout`] / [`O2Error::Budget`] instead of returning a
    /// truncated report.
    ///
    /// # Errors
    ///
    /// The budget's typed error when it trips at any checkpoint.
    pub fn try_analyze(
        &self,
        program: &Program,
        budget: &Budget,
    ) -> Result<AnalysisReport, O2Error> {
        self.cold(&ProgramCtx::solo(program), budget)
    }

    /// Answers one [`AnalysisRequest`]: the four stages (cold, or warm
    /// against the request's database), then the precision passes, all
    /// under the request's budget. A panic anywhere inside becomes an
    /// [`O2Error::Internal`]; callers hold no lock across this call, so
    /// a caught panic poisons nothing.
    ///
    /// # Errors
    ///
    /// The budget's typed error when it trips, or the caught panic.
    pub fn run(&self, req: AnalysisRequest<'_>) -> Result<Analysis, O2Error> {
        let AnalysisRequest {
            ctx,
            db,
            digests,
            budget,
        } = req;
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            let (report, stats) = match (db, digests) {
                (None, _) => (self.cold(&ctx, budget)?, IncrStats::default()),
                (Some(db), Some(digests)) => self.warm(&ctx, db, digests, budget)?,
                (Some(db), None) => self.warm(&ctx, db, &digest_program(ctx.program()), budget)?,
            };
            let actx = AnalysisCtx {
                program: ctx.program(),
                pta: &report.pta,
                osa: &report.osa,
                shb: &report.shb,
            };
            let pipeline = PassManager::standard().run_budgeted(&actx, &report.races, budget)?;
            Ok(Analysis {
                report,
                pipeline,
                stats,
            })
        }))
        .unwrap_or_else(|payload| Err(O2Error::from_panic(payload)))
    }

    /// The cold composition: pta → osa → shb → detect.
    fn cold(&self, ctx: &ProgramCtx<'_>, budget: &Budget) -> Result<AnalysisReport, O2Error> {
        let t0 = Instant::now();
        let pta = o2_pta::analyze_budgeted(ctx, &self.pta, budget)?;
        self.cold_after_pta(ctx, pta, budget, t0)
    }

    /// The cold stages after the pointer analysis; the database path
    /// falls back to these when the solve was truncated.
    fn cold_after_pta(
        &self,
        ctx: &ProgramCtx<'_>,
        pta: PtaResult,
        budget: &Budget,
        t0: Instant,
    ) -> Result<AnalysisReport, O2Error> {
        let (down_budget, shb_cfg, detect_cfg) = self.stage_configs(pta.timed_out);
        budget.check("osa entry")?;
        let mut osa = run_osa_bounded(ctx, &pta, down_budget);
        budget.check("shb entry")?;
        // SHB interns into OSA's location table so every downstream
        // consumer shares one dense id space.
        let shb = build_shb(ctx, &pta, &shb_cfg, &mut osa.locs);
        let races = o2_detect::detect_budgeted(ctx, &pta, &osa, &shb, &detect_cfg, budget)?;
        Ok(AnalysisReport::assemble(pta, osa, shb, races, t0))
    }

    /// Per-stage truncation budgets below the pointer analysis. Its
    /// stage budget also bounds the OSA scan and SHB walk (deep
    /// object-sensitive runs can explode the method-instance count) and
    /// caps detection unless the caller chose one explicitly. If the
    /// pointer analysis already blew its budget, the run is a timeout
    /// regardless, so the remaining stages get a token budget and the
    /// report comes back promptly.
    fn stage_configs(&self, pta_timed_out: bool) -> (Option<Duration>, ShbConfig, DetectConfig) {
        let token = Some(Duration::from_millis(500));
        let down_budget = if pta_timed_out {
            token
        } else {
            self.pta.timeout
        };
        let shb = ShbConfig {
            timeout: self.shb.timeout.or(down_budget),
            ..self.shb.clone()
        };
        let detect = DetectConfig {
            timeout: if pta_timed_out {
                token
            } else {
                self.detect.timeout.or(self.pta.timeout)
            },
            ..self.detect.clone()
        };
        (down_budget, shb, detect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY: &str = r#"
        class S { field data; }
        class W impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; }
        }
        class Main {
            static method main() {
                s = new S();
                w = new W(s);
                w.start();
                x = s.data;
            }
        }
    "#;

    fn analyze_racy(engine: O2) -> AnalysisReport {
        engine.analyze(&o2_ir::parser::parse(RACY).unwrap())
    }

    #[test]
    fn end_to_end_pipeline() {
        let report = analyze_racy(O2Builder::new().build());
        assert_eq!(report.num_races(), 1);
        assert_eq!(report.num_origins(), 2);
        assert!(!report.timed_out());
        let s = report.summary();
        assert!(s.contains("races=1"), "{s}");
    }

    #[test]
    fn policies_are_configurable() {
        for policy in [Policy::insensitive(), Policy::cfa1(), Policy::origin1()] {
            let report = analyze_racy(O2Builder::new().policy(policy).build());
            assert_eq!(report.pta.policy, policy);
            assert_eq!(report.num_races(), 1, "{policy}");
        }
    }

    #[test]
    fn naive_engine_is_available() {
        let report = analyze_racy(
            O2Builder::new()
                .detect_config(DetectConfig::naive())
                .build(),
        );
        assert_eq!(report.num_races(), 1);
    }

    #[test]
    fn parse_errors_propagate() {
        let err = o2_ir::parser::parse("class {")
            .map(|p| O2::default().analyze(&p))
            .unwrap_err();
        assert!(err.message.contains("identifier"), "{err}");
    }
}
