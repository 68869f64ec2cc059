//! End-to-end checks for the richer synchronization semantics: the
//! reader-writer-lock, condition-variable, and async-executor real-bug
//! models must report exactly their expected race counts, match their
//! C-frontend siblings, and render byte-identical reports across
//! `--threads 1/4`, warm-vs-cold database replay, and
//! `preloop_prune` on/off.

use o2::prelude::*;
use o2::{AnalysisReport, IncrStats};

/// One database-backed request through [`O2::run`].
fn run_db(engine: &O2, program: &Program, db: &mut AnalysisDb) -> (AnalysisReport, IncrStats) {
    let budget = Budget::unlimited();
    let a = engine
        .run(AnalysisRequest::new(ProgramCtx::solo(program), &budget).db(db))
        .unwrap();
    (a.report, a.stats)
}

fn renders(program: &Program, report: &AnalysisReport) -> (String, String, String) {
    let p = report.run_pipeline(program);
    (p.render(program), p.to_json(program), p.to_sarif(program))
}

#[test]
fn extended_models_match_expected_counts() {
    for m in o2_workloads::extended_models() {
        let report = O2Builder::new().build().analyze(&m.program);
        assert_eq!(
            report.num_races(),
            m.expected_races,
            "{}: {}\n{}",
            m.name,
            m.description,
            report.races.render(&m.program)
        );
    }
}

#[test]
fn extended_c_models_match_their_java_siblings() {
    for m in o2_workloads::extended_c_models() {
        let report = O2Builder::new().build().analyze(&m.program);
        assert_eq!(
            report.num_races(),
            m.expected_races,
            "{} (C frontend): {}\n{}",
            m.name,
            m.description,
            report.races.render(&m.program)
        );
    }
}

#[test]
fn extended_models_are_thread_count_invariant() {
    for m in o2_workloads::extended_models() {
        let mut outs = Vec::new();
        for threads in [1usize, 4] {
            let report = O2Builder::new()
                .detect_threads(threads)
                .build()
                .analyze(&m.program);
            outs.push(renders(&m.program, &report));
        }
        assert_eq!(outs[0], outs[1], "{}: reports depend on --threads", m.name);
    }
}

#[test]
fn extended_models_warm_replay_equals_cold() {
    for m in o2_workloads::extended_models() {
        let engine = O2Builder::new().build();
        let cold = engine.analyze(&m.program);
        let mut db = AnalysisDb::new(engine.config_sig());
        run_db(&engine, &m.program, &mut db);
        let (warm, stats) = run_db(&engine, &m.program, &mut db);
        assert_eq!(
            stats.origins_walked, 0,
            "{}: unchanged program must replay every origin (incl. rw/cond \
             events and executor elements)",
            m.name
        );
        assert_eq!(
            renders(&m.program, &cold),
            renders(&m.program, &warm),
            "{}: warm reports differ from cold",
            m.name
        );
    }
}

#[test]
fn extended_models_warm_equals_cold_after_edit() {
    // A one-function edit must invalidate exactly enough: the warm run
    // still reproduces the cold report byte for byte even though the
    // edited origin re-walks its rw/cond events.
    for m in o2_workloads::extended_models() {
        let (edited, edited_fn) = o2_workloads::single_function_edit(&m.program);
        let engine = O2Builder::new().build();
        let cold = engine.analyze(&edited);
        let mut db = AnalysisDb::new(engine.config_sig());
        run_db(&engine, &m.program, &mut db);
        let (warm, _) = run_db(&engine, &edited, &mut db);
        assert_eq!(
            renders(&edited, &cold),
            renders(&edited, &warm),
            "{}: warm reports differ from cold after editing {edited_fn}",
            m.name
        );
    }
}

#[test]
fn extended_models_are_prune_invariant() {
    for m in o2_workloads::extended_models() {
        let with = O2Builder::new().build().analyze(&m.program);
        let mut cfg = DetectConfig::o2();
        cfg.preloop_prune = false;
        let without = O2Builder::new()
            .detect_config(cfg)
            .build()
            .analyze(&m.program);
        assert_eq!(
            with.races.races, without.races.races,
            "{}: preloop_prune changes the race list",
            m.name
        );
        assert_eq!(
            renders(&m.program, &with),
            renders(&m.program, &without),
            "{}: preloop_prune changes a rendering",
            m.name
        );
    }
}

#[test]
fn libuv_race_is_between_task_and_thread() {
    // The async hallmark: the one libuv race must pair an async-task
    // origin with a plain thread origin.
    let m = o2_workloads::realbugs::libuv_loop();
    let report = O2Builder::new().build().analyze(&m.program);
    assert_eq!(report.num_races(), 1);
    let race = &report.races.races[0];
    let kinds: Vec<_> = [race.a.origin, race.b.origin]
        .iter()
        .map(|&o| report.pta.arena.origin_data(o).kind)
        .collect();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, OriginKind::AsyncTask { .. })),
        "{kinds:?}"
    );
    assert!(kinds.contains(&OriginKind::Thread), "{kinds:?}");
}
