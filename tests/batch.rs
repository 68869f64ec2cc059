//! Integration tests for `o2 batch` whole-corpus analysis.
//!
//! The contract under test: the merged JSON and SARIF reports are a pure
//! function of the manifest's programs — worker count, claim order, and
//! manifest order cannot change a byte — while the shared artifact pool
//! produces real cross-program digest hits whenever programs share
//! function bodies.

use o2::prelude::*;
use o2::{parse_manifest, run_batch, BatchEntry};
use o2_db::SharedStore;
use o2_ir::{ProgramCtx, ProgramId};

/// An 8-program corpus mixing all four workload registries. `luindex`
/// and `lusearch` are generated from overlapping preset shapes, so the
/// corpus is guaranteed to contain shared function bodies.
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

fn corpus_entries(order: &[&str]) -> Vec<BatchEntry> {
    order
        .iter()
        .map(|spec| {
            let w = o2_workloads::workload_by_name(spec).expect("corpus spec resolves");
            BatchEntry {
                name: w.name,
                program: Ok(w.program),
            }
        })
        .collect()
}

#[test]
fn batch_reports_are_byte_identical_across_workers_and_manifest_order() {
    let engine = O2Builder::new().build();
    let baseline = run_batch(&engine, &corpus_entries(&CORPUS), 1);
    assert_eq!(baseline.programs.len(), CORPUS.len());
    assert!(
        baseline.cross_program_hits() > 0,
        "corpus with shared bodies must produce cross-program hits"
    );

    let mut shuffled = CORPUS;
    shuffled.reverse();
    let mut interleaved = CORPUS;
    interleaved.swap(0, 5);
    interleaved.swap(2, 7);
    for (entries, workers) in [
        (corpus_entries(&CORPUS), 2),
        (corpus_entries(&CORPUS), 4),
        (corpus_entries(&shuffled), 3),
        (corpus_entries(&interleaved), 4),
    ] {
        let run = run_batch(&engine, &entries, workers);
        assert_eq!(
            baseline.json, run.json,
            "JSON must not depend on scheduling"
        );
        assert_eq!(
            baseline.sarif, run.sarif,
            "SARIF must not depend on scheduling"
        );
    }
}

#[test]
fn batch_summary_accounts_every_program() {
    let engine = O2Builder::new().build();
    let run = run_batch(&engine, &corpus_entries(&CORPUS), 2);
    let summary = run.summary();
    for spec in CORPUS {
        assert!(summary.contains(spec), "summary lists {spec}");
    }
    assert!(summary.contains("cross-program hits"));
    assert_eq!(run.store.checkouts, CORPUS.len());
    assert_eq!(run.store.publishes, CORPUS.len());
    // Names are sorted in the merged outputs regardless of manifest order.
    let mut names: Vec<&str> = run.programs.iter().map(|p| p.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
    names.dedup();
    assert_eq!(names.len(), CORPUS.len());
}

/// Two programs sharing `S`/`W` verbatim; `b.o2` appends one extra
/// statement to `Main.main`, so `Main` re-analyzes but the worker class
/// replays from whichever program the pool saw first.
const SHARED_A: &str = r#"
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

const SHARED_B: &str = r#"
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
            y = s.data;
        }
    }
"#;

#[test]
fn common_function_body_hits_across_programs_without_changing_reports() {
    let engine = O2Builder::new().build();
    let a = o2_ir::parser::parse(SHARED_A).unwrap();
    let b = o2_ir::parser::parse(SHARED_B).unwrap();

    // Solo ground truth: each program analyzed alone, no sharing.
    let solo_a = engine.analyze(&a).run_pipeline(&a);
    let solo_b = engine.analyze(&b).run_pipeline(&b);
    let solo_json = o2_passes::corpus_json(&[("a", &solo_a, &a), ("b", &solo_b, &b)]);
    let solo_sarif = o2_passes::corpus_sarif(&[("a", &solo_a, &a), ("b", &solo_b, &b)]);

    for workers in [1usize, 2] {
        let entries = vec![
            BatchEntry {
                name: "a".to_string(),
                program: Ok(o2_ir::parser::parse(SHARED_A).unwrap()),
            },
            BatchEntry {
                name: "b".to_string(),
                program: Ok(o2_ir::parser::parse(SHARED_B).unwrap()),
            },
        ];
        let run = run_batch(&engine, &entries, workers);
        // Hit counts are scheduling-dependent above one worker (two
        // workers can both check out before either publishes); only the
        // serial run is guaranteed to replay the shared W body.
        if workers == 1 {
            assert!(
                run.cross_program_hits() >= 1,
                "shared W body must replay across programs (workers={workers})"
            );
        }
        assert_eq!(
            run.json, solo_json,
            "batch sharing must not change any program's report"
        );
        assert_eq!(run.sarif, solo_sarif);
    }
}

#[test]
fn manifest_parses_names_files_and_rejects_duplicates() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch_manifest");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("a.o2"), SHARED_A).unwrap();
    std::fs::write(dir.join("b.o2"), SHARED_B).unwrap();

    let manifest = "# corpus\navrora\nshared-a = a.o2\nshared-b = b.o2\n\nrealbug:ZooKeeper\n";
    let entries = parse_manifest(manifest, &dir).unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        names,
        ["avrora", "shared-a", "shared-b", "realbug:ZooKeeper"]
    );

    assert!(parse_manifest("avrora\navrora\n", &dir)
        .unwrap_err()
        .contains("duplicate"));
    assert!(parse_manifest("", &dir).unwrap_err().contains("no entries"));

    // A loadable manifest with an unknown workload parses; the bad line
    // becomes an error entry instead of aborting the whole manifest.
    let entries = parse_manifest("no-such-workload\n", &dir).unwrap();
    assert_eq!(entries.len(), 1);
    let err = entries[0].program.as_ref().unwrap_err();
    assert_eq!(err.stage(), "resolve");
    assert!(err.to_string().contains("unknown workload"));
}

#[test]
fn program_contexts_are_reentrant_across_threads_sharing_one_store() {
    // Two ProgramCtx analyses run concurrently on scoped threads. The
    // only shared state is the digest-keyed store — each context owns
    // its checkout — and each result is byte-identical to a solo run.
    let engine = O2Builder::new().build();
    let a = o2_ir::parser::parse(SHARED_A).unwrap();
    let b = o2_ir::parser::parse(SHARED_B).unwrap();
    let solo_a = engine.analyze(&a).races.render(&a);
    let solo_b = engine.analyze(&b).races.render(&b);

    let store = SharedStore::new(engine.config_sig());
    let (concurrent_a, concurrent_b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| {
            let ctx = ProgramCtx::new(ProgramId(1), "a", &a);
            let mut db = store.checkout();
            let report = engine
                .run(AnalysisRequest::new(ctx, &Budget::unlimited()).db(&mut db))
                .unwrap()
                .report;
            store.publish(&db);
            report.races.render(&a)
        });
        let tb = scope.spawn(|| {
            let ctx = ProgramCtx::new(ProgramId(2), "b", &b);
            let mut db = store.checkout();
            let report = engine
                .run(AnalysisRequest::new(ctx, &Budget::unlimited()).db(&mut db))
                .unwrap()
                .report;
            store.publish(&db);
            report.races.render(&b)
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(concurrent_a, solo_a);
    assert_eq!(concurrent_b, solo_b);
    assert_eq!(store.stats().checkouts, 2);
    assert_eq!(store.stats().publishes, 2);
}
