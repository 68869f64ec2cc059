//! Verdict paths.
//!
//! [`production_verdict`] is what a user's cold verdict runs: the public
//! entry points the CLI uses. [`traced_verdict`] composes the same
//! stages one public call at a time, each inside a span, and must give
//! byte-identical JSON.

use crate::trace::Tracer;
use o2::O2;
use o2_analysis::run_osa_bounded;
use o2_detect::{detect_budgeted, DetectConfig, RaceReport};
use o2_ir::{parser, Budget, Program, ProgramCtx};
use o2_passes::{
    agreement, guards, ownership, reports, triage, AnalysisCtx, Pass, PassRun, PipelineReport,
    PipelineState, TriagedRace,
};
use o2_pta::{PtaConfig, PtaResult};
use o2_shb::{build_shb, ShbConfig, ShbGraph};

/// Source → parse → O2 default engine → precision passes → JSON.
pub fn production_verdict(engine: &O2, src: &str) -> Result<String, String> {
    let program = parser::parse(src).map_err(|e| format!("parse: {e}"))?;
    let report = engine
        .try_analyze(&program, &Budget::unlimited())
        .map_err(|e| e.to_string())?;
    Ok(report.run_pipeline(&program).to_json(&program))
}

/// Counters recorded at the stage boundaries of one verdict.
pub fn count_stages(
    t: &mut Tracer,
    pta: &PtaResult,
    osa: &o2_analysis::OsaResult,
    shb: &ShbGraph,
    races: &RaceReport,
) {
    t.count("verdict.analyses", 1.0);
    t.count("pta.solve_steps", pta.stats.solve_steps as f64);
    t.count(
        "pta.propagated_objects",
        pta.stats.propagated_objects as f64,
    );
    t.count("analysis.shared_accesses", osa.num_shared_accesses() as f64);
    let (a, b, c, d) = shb.approx_bytes();
    t.count("shb.bytes", (a + b + c + d) as f64);
    t.count("detect.pre_prune_pairs", races.prune.pre_prune_pairs as f64);
    t.count("detect.candidate_pairs", races.prune.candidate_pairs as f64);
    t.count("detect.races", races.races.len() as f64);
    t.count("detect.threads_used", races.threads_used as f64);
}

/// The standard pass sequence, each `Pass::run` in its own span, then
/// `triage::finalize`. Mirrors `PassManager::standard().run`.
pub fn traced_passes(t: &mut Tracer, ctx: &AnalysisCtx<'_>, races: &RaceReport) -> PipelineReport {
    let mut state = PipelineState {
        races: races.races.iter().map(TriagedRace::seed).collect(),
        ..Default::default()
    };
    let passes: [(&'static str, Box<dyn Pass>); 6] = [
        ("passes.suppression", Box::new(triage::SuppressionPass)),
        ("passes.ownership", Box::new(ownership::OwnershipPass)),
        ("passes.guarded_by", Box::new(guards::GuardedByPass)),
        (
            "passes.racerd_agreement",
            Box::new(agreement::RacerdAgreementPass),
        ),
        ("passes.deadlock", Box::new(reports::DeadlockPass)),
        ("passes.oversync", Box::new(reports::OversyncPass)),
    ];
    let mut runs = Vec::with_capacity(passes.len());
    for (span, mut pass) in passes {
        let t0 = std::time::Instant::now();
        let stats = t.span(span, || pass.run(ctx, &mut state));
        runs.push(PassRun {
            name: pass.name(),
            duration: t0.elapsed(),
            stats,
        });
    }
    t.span("passes.finalize", || triage::finalize(&mut state));
    PipelineReport {
        races: state.races,
        pruned: state.pruned,
        suppressed: state.suppressed,
        deadlocks: state.deadlocks,
        oversync: state.oversync,
        racerd: state.racerd,
        passes: runs,
    }
}

/// The cold verdict composed stage by stage under spans. The caller has
/// opened the request's root span.
pub fn traced_verdict(t: &mut Tracer, src: &str) -> Result<String, String> {
    let budget = Budget::unlimited();
    let program: Program = t
        .span("ir.parse", || parser::parse(src))
        .map_err(|e| format!("parse: {e}"))?;
    let ctx = ProgramCtx::solo(&program);
    let pta = t
        .span("pta.solve", || {
            o2_pta::analyze_budgeted(&ctx, &PtaConfig::default(), &budget)
        })
        .map_err(|e| e.to_string())?;
    if pta.timed_out {
        return Err("pointer analysis hit its budget".into());
    }
    let mut osa = t.span("analysis.osa", || run_osa_bounded(&ctx, &pta, None));
    let shb = t.span("shb.build", || {
        build_shb(&ctx, &pta, &ShbConfig::default(), &mut osa.locs)
    });
    let races = t
        .span("detect.check", || {
            detect_budgeted(&ctx, &pta, &osa, &shb, &DetectConfig::default(), &budget)
        })
        .map_err(|e| e.to_string())?;
    count_stages(t, &pta, &osa, &shb, &races);
    let actx = AnalysisCtx {
        program: &program,
        pta: &pta,
        osa: &osa,
        shb: &shb,
    };
    let pipeline = traced_passes(t, &actx, &races);
    Ok(t.span("passes.render", || pipeline.to_json(&program)))
}
