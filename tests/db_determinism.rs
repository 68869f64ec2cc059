//! Determinism of the incremental analysis database.
//!
//! The serialized database must be byte-identical across worker-thread
//! counts and across repeated runs in one process: every artifact is
//! keyed and ordered by content digests, never by discovery order or
//! wall-clock. Likewise the warm-run rendered reports must not depend on
//! the thread count.

use o2::prelude::*;

/// One database-backed request through [`O2::run`].
fn run_db(engine: &O2, program: &Program, db: &mut AnalysisDb) -> (AnalysisReport, IncrStats) {
    let budget = Budget::unlimited();
    let a = engine
        .run(AnalysisRequest::new(ProgramCtx::solo(program), &budget).db(db))
        .unwrap();
    (a.report, a.stats)
}

const PRESETS: &[&str] = &["xalan", "avrora", "zookeeper"];

fn db_bytes_for(program: &Program, threads: usize) -> (Vec<u8>, String) {
    let engine = O2Builder::new().detect_threads(threads).build();
    let mut db = AnalysisDb::new(engine.config_sig());
    let (report, _) = run_db(&engine, program, &mut db);
    let json = report.run_pipeline(program).to_json(program);
    (db.to_bytes(), json)
}

#[test]
fn db_bytes_identical_across_thread_counts() {
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let (base_bytes, base_json) = db_bytes_for(&w.program, 1);
        for threads in [2usize, 8] {
            let (bytes, json) = db_bytes_for(&w.program, threads);
            assert_eq!(
                bytes, base_bytes,
                "{name}: database bytes differ at {threads} threads"
            );
            assert_eq!(
                json, base_json,
                "{name}: report differs at {threads} threads"
            );
        }
    }
}

#[test]
fn db_bytes_identical_across_repeated_runs() {
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let engine = O2Builder::new().build();
        let mut db1 = AnalysisDb::new(engine.config_sig());
        run_db(&engine, &w.program, &mut db1);
        let first = db1.to_bytes();
        // A second cold database over the same program...
        let mut db2 = AnalysisDb::new(engine.config_sig());
        run_db(&engine, &w.program, &mut db2);
        assert_eq!(db2.to_bytes(), first, "{name}: cold databases differ");
        // ...and a warm rewrite of the first: artifacts are replaced by
        // exactly the artifacts of the new run, so bytes are unchanged.
        run_db(&engine, &w.program, &mut db1);
        assert_eq!(
            db1.to_bytes(),
            first,
            "{name}: warm rewrite changed the database"
        );
    }
}

/// Warm-run reports are byte-identical across thread counts even when
/// the database came from a *different* thread count's run.
#[test]
fn warm_reports_identical_across_thread_counts() {
    let w = o2_workloads::preset_by_name("avrora")
        .expect("preset exists")
        .generate();
    let (edited, _) = o2_workloads::single_function_edit(&w.program);
    let serial = O2Builder::new().detect_threads(1).build();
    let mut db = AnalysisDb::new(serial.config_sig());
    run_db(&serial, &w.program, &mut db);
    let bytes = db.to_bytes();

    let mut outputs: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = O2Builder::new().detect_threads(threads).build();
        let mut warm_db = AnalysisDb::from_bytes(&bytes).unwrap();
        let (report, stats) = run_db(&engine, &edited, &mut warm_db);
        assert!(stats.incremental);
        outputs.push(report.run_pipeline(&edited).to_json(&edited));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}
