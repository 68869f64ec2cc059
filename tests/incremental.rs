//! Warm-vs-cold equivalence of the incremental analysis database.
//!
//! For every benchmark preset and real-bug model: apply a deterministic
//! single-function edit, analyze the edited program cold, and analyze it
//! warm from the base version's database. The warm run must produce
//! byte-identical text/JSON/SARIF reports while re-walking strictly
//! fewer origins and re-checking strictly fewer candidate pairs than the
//! cold run examines.

use o2::prelude::*;
use o2::{AnalysisReport, IncrStats};
use o2_workloads::single_function_edit;

/// One database-backed request through [`O2::run`].
fn run_db(engine: &O2, program: &Program, db: &mut AnalysisDb) -> (AnalysisReport, IncrStats) {
    let budget = Budget::unlimited();
    let a = engine
        .run(AnalysisRequest::new(ProgramCtx::solo(program), &budget).db(db))
        .unwrap();
    (a.report, a.stats)
}

const PRESETS: &[&str] = &[
    "xalan",
    "avrora",
    "sunflow",
    "zookeeper",
    "k9mail",
    "telegram",
];

fn renders(program: &Program, report: &AnalysisReport) -> (String, String, String) {
    let p = report.run_pipeline(program);
    (p.render(program), p.to_json(program), p.to_sarif(program))
}

/// Cold on the edited program vs warm from the base program's database.
/// `strict` additionally demands per-workload savings; small models where
/// the edit lands in `main` (whose trace is in every candidate's HB
/// neighborhood) legitimately re-check everything, so their savings are
/// asserted in aggregate instead.
fn check_workload(name: &str, base: &Program, strict: bool) -> (IncrStats, u64) {
    let (edited, edited_fn) = single_function_edit(base);
    let engine = O2Builder::new().build();

    let cold = engine.analyze(&edited);
    let mut db = AnalysisDb::new(engine.config_sig());
    let (_, base_stats) = run_db(&engine, base, &mut db);
    assert!(base_stats.incremental, "{name}: base run not incremental");
    let (warm, stats) = run_db(&engine, &edited, &mut db);
    assert!(stats.incremental, "{name}: warm run not incremental");

    assert_eq!(
        renders(&edited, &cold),
        renders(&edited, &warm),
        "{name}: warm reports differ from cold (edited {edited_fn})"
    );
    assert_eq!(
        warm.races.races, cold.races.races,
        "{name}: race lists differ"
    );
    assert_eq!(
        warm.races.pairs_checked, cold.races.pairs_checked,
        "{name}: pair counters differ"
    );

    if strict {
        // Strictly fewer re-checked pairs than the cold run examines,
        // and at least one origin replayed instead of re-walked.
        assert!(
            stats.pairs_rechecked < cold.races.pairs_checked
                || (cold.races.pairs_checked == 0 && stats.pairs_rechecked == 0),
            "{name}: re-checked {} of {} pairs (nothing saved; edited {edited_fn})",
            stats.pairs_rechecked,
            cold.races.pairs_checked
        );
        assert!(
            stats.origins_replayed > 0,
            "{name}: no origin replayed ({} walked; edited {edited_fn})",
            stats.origins_walked
        );
    }
    (stats, cold.races.pairs_checked)
}

#[test]
fn presets_warm_equals_cold_after_edit() {
    let mut replayed_pairs = 0u64;
    let mut rechecked_pairs = 0u64;
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let (stats, _) = check_workload(name, &w.program, true);
        replayed_pairs += stats.pairs_replayed;
        rechecked_pairs += stats.pairs_rechecked;
    }
    assert!(
        replayed_pairs > rechecked_pairs,
        "presets: replay should dominate after a 1-function edit \
         ({replayed_pairs} replayed vs {rechecked_pairs} re-checked)"
    );
}

#[test]
fn realbug_models_warm_equals_cold_after_edit() {
    let mut origins_replayed = 0usize;
    let mut origins_walked = 0usize;
    let mut rechecked_pairs = 0u64;
    let mut cold_pairs = 0u64;
    for model in o2_workloads::all_models() {
        let (stats, pairs) = check_workload(model.name, &model.program, false);
        origins_replayed += stats.origins_replayed;
        origins_walked += stats.origins_walked;
        rechecked_pairs += stats.pairs_rechecked;
        cold_pairs += pairs;
    }
    assert!(
        origins_replayed > 0,
        "realbugs: some origin must replay ({origins_replayed} replayed, {origins_walked} walked)"
    );
    assert!(
        rechecked_pairs < cold_pairs,
        "realbugs: strictly fewer pairs re-checked in aggregate \
         ({rechecked_pairs} of {cold_pairs})"
    );
}

/// An *unchanged* program replays everything: zero rescans anywhere.
#[test]
fn unchanged_program_replays_fully() {
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let engine = O2Builder::new().build();
        let mut db = AnalysisDb::new(engine.config_sig());
        run_db(&engine, &w.program, &mut db);
        let (_, stats) = run_db(&engine, &w.program, &mut db);
        assert_eq!(stats.mis_rescanned, 0, "{name}: {}", stats.summary());
        assert_eq!(stats.origins_walked, 0, "{name}: {}", stats.summary());
        assert_eq!(stats.candidates_rechecked, 0, "{name}: {}", stats.summary());
    }
}

/// A pointer analysis cut short by its step limit has unstable dense
/// ids, so the db-backed entry must bypass the database: it renders the
/// same bytes as the cold entry and leaves the database untouched.
#[test]
fn pta_truncated_run_bypasses_the_db() {
    let w = o2_workloads::preset_by_name("avrora")
        .expect("preset exists")
        .generate();
    let engine = O2Builder::new()
        .pta_config(PtaConfig {
            max_steps: 1,
            ..Default::default()
        })
        .build();
    let cold = engine
        .try_analyze(&w.program, &Budget::unlimited())
        .expect("unlimited budget");
    assert!(cold.pta.timed_out, "max_steps 1 must truncate the solve");
    let mut db = AnalysisDb::new(engine.config_sig());
    let before = db.to_bytes();
    let (warm, stats) = run_db(&engine, &w.program, &mut db);
    assert!(warm.pta.timed_out);
    assert!(!stats.incremental, "{}", stats.summary());
    assert_eq!(renders(&w.program, &cold), renders(&w.program, &warm));
    assert_eq!(
        db.to_bytes(),
        before,
        "a truncated run must not write the db"
    );
}
