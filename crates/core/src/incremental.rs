//! Incremental orchestration: the whole pipeline against an
//! [`AnalysisDb`].
//!
//! An [`crate::AnalysisRequest`] that carries a database runs the same
//! stages as a cold one, but threads the database through them: OSA
//! replays stored per-method-instance artifacts, SHB replays stored
//! per-origin subgraphs, and detection replays cached per-candidate
//! verdicts — wherever the corresponding content signature is
//! unchanged. The pointer analysis itself is always re-solved (it is
//! the cheap stage and its dense ids anchor every replay), so a warm
//! run produces a report *byte-identical* to a cold run on the same
//! program.
//!
//! Invalidation rule: an artifact is reused iff its stored content
//! signature equals the signature recomputed from this run's program
//! and solver state. There is no dependency tracking to get wrong —
//! a stale artifact simply fails its signature match and the stage
//! recomputes it.

use crate::{Analysis, AnalysisReport, AnalysisRequest, O2};
use o2_analysis::run_osa_incremental;
use o2_db::{AnalysisDb, Digest, DigestHasher};
use o2_detect::detect_incremental_budgeted;
use o2_ir::{digest_diff, Budget, DigestDiff, O2Error, ProgramCtx, ProgramDigests};
use o2_pta::{CanonIndex, Policy};
use o2_shb::build_shb_incremental;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rewrites `dst` to equal `src`, reusing the existing `String` keys of
/// unchanged entries. A warm run commits the full per-method digest maps
/// every time; cloning them key-by-key re-allocates every method name.
fn update_digest_map(dst: &mut BTreeMap<String, Digest>, src: &BTreeMap<String, Digest>) {
    dst.retain(|k, _| src.contains_key(k));
    for (k, &v) in src {
        if let Some(d) = dst.get_mut(k) {
            *d = v;
        } else {
            dst.insert(k.clone(), v);
        }
    }
}

/// Replay/recompute counters of one database-backed [`O2::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrStats {
    /// `false` when the run bypassed the database (pointer analysis hit
    /// its budget, so dense ids were unstable and nothing was replayed
    /// or stored).
    pub incremental: bool,
    /// OSA method instances replayed from stored artifacts.
    pub mis_replayed: usize,
    /// OSA method instances rescanned.
    pub mis_rescanned: usize,
    /// SHB origins replayed from stored subgraphs.
    pub origins_replayed: usize,
    /// SHB origins re-walked.
    pub origins_walked: usize,
    /// Race candidates whose verdict was replayed.
    pub candidates_replayed: usize,
    /// Race candidates actually re-checked.
    pub candidates_rechecked: usize,
    /// Access pairs accounted from cached verdicts.
    pub pairs_replayed: u64,
    /// Access pairs examined by this run's checks.
    pub pairs_rechecked: u64,
    /// Artifacts replayed from another program's run of the shared batch
    /// store (set by `o2 batch` orchestration; always 0 in solo runs).
    pub cross_program_hits: usize,
}

impl IncrStats {
    /// One-line textual rendering (used by `--load-db` diagnostics and
    /// `diff-analyze`).
    pub fn summary(&self) -> String {
        if !self.incremental {
            return "incremental: bypassed (pointer analysis timed out)".to_string();
        }
        format!(
            "incremental: mis {}r/{}s, origins {}r/{}w, candidates {}r/{}c, pairs {}r/{}c",
            self.mis_replayed,
            self.mis_rescanned,
            self.origins_replayed,
            self.origins_walked,
            self.candidates_replayed,
            self.candidates_rechecked,
            self.pairs_replayed,
            self.pairs_rechecked,
        )
    }

    /// Total artifacts replayed across all three stages. In a batch run,
    /// where each program is analyzed exactly once against the shared
    /// store, every replay is necessarily a cross-program hit.
    pub fn total_replays(&self) -> usize {
        self.mis_replayed + self.origins_replayed + self.candidates_replayed
    }
}

fn write_policy(h: &mut DigestHasher, p: Policy) {
    match p {
        Policy::Insensitive => {
            h.write_u8(0);
            h.write_u64(0);
            h.write_u64(0);
        }
        Policy::CallSite { k, hk } => {
            h.write_u8(1);
            h.write_u64(k as u64);
            h.write_u64(hk as u64);
        }
        Policy::Object { k, hk } => {
            h.write_u8(2);
            h.write_u64(k as u64);
            h.write_u64(hk as u64);
        }
        Policy::Origin { k } => {
            h.write_u8(3);
            h.write_u64(k as u64);
            h.write_u64(0);
        }
    }
}

fn write_timeout(h: &mut DigestHasher, t: Option<Duration>) {
    match t {
        Some(d) => {
            h.write_bool(true);
            h.write_u64(d.as_nanos() as u64);
        }
        None => {
            h.write_bool(false);
            h.write_u64(0);
        }
    }
}

impl O2 {
    /// Digest of every configuration field that can influence analysis
    /// *results*. A database recorded under a different signature is
    /// cleared before use. `detect.threads` is deliberately excluded:
    /// the report is byte-identical for every worker count, so warm
    /// databases are shareable across `--threads` settings.
    pub fn config_sig(&self) -> Digest {
        let mut h = DigestHasher::with_tag("o2.config.v1");
        write_policy(&mut h, self.pta.policy);
        write_timeout(&mut h, self.pta.timeout);
        h.write_u64(self.pta.max_steps);
        h.write_u64(self.pta.wrapper_site_limit as u64);
        h.write_u32(self.pta.max_origin_depth);
        h.write_bool(self.pta.anonymous_external_objects);
        h.write_bool(self.pta.difference_propagation);
        h.write_u64(self.shb.node_budget as u64);
        h.write_u64(self.shb.max_walk_depth as u64);
        h.write_u64(self.shb.max_visited_methods as u64);
        h.write_bool(self.shb.event_dispatcher_lock);
        match self.shb.main_dispatcher {
            Some(d) => {
                h.write_bool(true);
                h.write_u32(u32::from(d));
            }
            None => {
                h.write_bool(false);
                h.write_u32(0);
            }
        }
        write_timeout(&mut h, self.shb.timeout);
        h.write_bool(self.detect.integer_hb);
        h.write_bool(self.detect.canonical_locksets);
        h.write_bool(self.detect.lock_region_merging);
        h.write_bool(self.detect.hb_cache);
        h.write_u64(self.detect.max_pairs_per_location as u64);
        write_timeout(&mut h, self.detect.timeout);
        h.finish()
    }

    /// The database path of [`O2::run`]: the four stages against `db`,
    /// replaying stored artifacts for every unchanged origin / method
    /// instance / candidate and rewriting the database to exactly this
    /// run's artifacts.
    ///
    /// The report is equal to the cold composition's on the same program
    /// (asserted byte-identical over rendered outputs by the equivalence
    /// tests). If the pointer analysis hits its budget the run falls back
    /// to the cold stages and leaves the database untouched — a
    /// truncated solve has unstable dense ids, so nothing is replayed or
    /// stored.
    ///
    /// When the request budget trips, artifacts committed by stages that
    /// finished before the trip are valid and signature-matched, so they
    /// replay on the next run; the final program-identity commit is
    /// skipped, which keeps cached rendered reports describing a
    /// completed run.
    pub(crate) fn warm(
        &self,
        ctx: &ProgramCtx<'_>,
        db: &mut AnalysisDb,
        digests: &ProgramDigests,
        budget: &Budget,
    ) -> Result<(AnalysisReport, IncrStats), O2Error> {
        let t0 = Instant::now();
        let cfg_sig = self.config_sig();
        if !db.compatible_with(cfg_sig) {
            db.clear_artifacts();
        }
        db.config_sig = cfg_sig;

        let pta = o2_pta::analyze_budgeted(ctx, &self.pta, budget)?;
        if pta.timed_out {
            let report = self.cold_after_pta(ctx, pta, budget, t0)?;
            return Ok((report, IncrStats::default()));
        }
        let (down_budget, shb_cfg, detect_cfg) = self.stage_configs(false);

        budget.check("osa entry")?;
        let canon = CanonIndex::build(ctx, &pta, digests);
        let mut osa = run_osa_incremental(ctx, &pta, &canon, db, down_budget);
        budget.check("shb entry")?;
        let shb = build_shb_incremental(ctx, &pta, &shb_cfg, &canon, &mut osa.result.locs, db);
        let det = detect_incremental_budgeted(
            ctx,
            &pta,
            &osa.result,
            &shb.graph,
            &detect_cfg,
            &canon,
            &shb.fresh_base,
            db,
            budget,
        )?;

        // Commit the program identity the database now describes. Cached
        // rendered reports survive only a digest-identical program.
        if db.program_sig != digests.program {
            db.reports = None;
        }
        db.program_sig = digests.program;
        update_digest_map(&mut db.fn_digests, &digests.fns);
        update_digest_map(&mut db.closure_digests, &digests.closures);
        db.origin_sigs = pta
            .arena
            .origins()
            .map(|(o, _)| (canon.origin_digest(o), canon.origin_sig(o)))
            .collect();

        let stats = IncrStats {
            incremental: true,
            mis_replayed: osa.mis_replayed,
            mis_rescanned: osa.mis_rescanned,
            origins_replayed: shb.origins_replayed,
            origins_walked: shb.origins_walked,
            candidates_replayed: det.candidates_replayed,
            candidates_rechecked: det.candidates_rechecked,
            pairs_replayed: det.pairs_replayed,
            pairs_rechecked: det.pairs_rechecked,
            cross_program_hits: 0,
        };
        let report = AnalysisReport::assemble(pta, osa.result, shb.graph, det.report, t0);
        Ok((report, stats))
    }

    /// Runs `old`, then `new` warm from `old`'s artifacts, both against
    /// `db`, and reports what changed: the function-level digest diff
    /// and both analyses (the replay counters of the warm run are
    /// `new.stats`). Each program is given with its digests, so neither
    /// is digested twice. `on_commit` sees the database after each run
    /// (`o2 serve` publishes it to its shared pool there).
    ///
    /// # Errors
    ///
    /// The first run's error: the budget tripping or a caught panic.
    pub fn diff_analyze(
        &self,
        old: (ProgramCtx<'_>, &ProgramDigests),
        new: (ProgramCtx<'_>, &ProgramDigests),
        db: &mut AnalysisDb,
        budget: &Budget,
        mut on_commit: impl FnMut(&AnalysisDb),
    ) -> Result<DiffAnalysis, O2Error> {
        let old_run = self.run(AnalysisRequest::new(old.0, budget).db(db).digests(old.1))?;
        on_commit(db);
        let new_run = self.run(AnalysisRequest::new(new.0, budget).db(db).digests(new.1))?;
        on_commit(db);
        Ok(DiffAnalysis {
            diff: digest_diff(old.1, new.1),
            old: old_run,
            new: new_run,
        })
    }
}

/// Result of [`O2::diff_analyze`]: both analyses plus the digest diff.
#[derive(Debug)]
pub struct DiffAnalysis {
    /// Function-level digest diff between the two versions.
    pub diff: DigestDiff,
    /// The old version's analysis.
    pub old: Analysis,
    /// The new version's analysis, warm from the old one's artifacts
    /// (byte-equal to a cold run).
    pub new: Analysis,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IncrStats, O2Builder};
    use o2_detect::DetectConfig;
    use o2_ir::parser::parse;
    use o2_ir::{digest_program, Program};

    const BASE: &str = r#"
        class S { field data; field extra; }
        class W1 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; }
        }
        class W2 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.extra = s; }
        }
        class Main {
            static method main() {
                s = new S();
                a = new W1(s);
                b = new W2(s);
                a.start();
                b.start();
                x = s.data;
                y = s.extra;
            }
        }
    "#;

    // W2 writes `data` instead of `extra`: one function body changed.
    const EDITED: &str = r#"
        class S { field data; field extra; }
        class W1 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; }
        }
        class W2 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; s.extra = s; }
        }
        class Main {
            static method main() {
                s = new S();
                a = new W1(s);
                b = new W2(s);
                a.start();
                b.start();
                x = s.data;
                y = s.extra;
            }
        }
    "#;

    fn run_db(o2: &O2, program: &Program, db: &mut AnalysisDb) -> (AnalysisReport, IncrStats) {
        let budget = Budget::unlimited();
        let a = o2
            .run(AnalysisRequest::new(ProgramCtx::solo(program), &budget).db(db))
            .unwrap();
        (a.report, a.stats)
    }

    fn render_all(program: &Program, report: &AnalysisReport) -> (String, String, String) {
        let p = report.run_pipeline(program);
        (p.render(program), p.to_json(program), p.to_sarif(program))
    }

    #[test]
    fn warm_rerun_replays_everything() {
        let program = parse(BASE).unwrap();
        let o2 = O2Builder::new().build();
        let mut db = AnalysisDb::new(o2.config_sig());
        let (cold, s0) = run_db(&o2, &program, &mut db);
        assert!(s0.incremental);
        assert_eq!(s0.mis_replayed, 0);
        let (warm, s1) = run_db(&o2, &program, &mut db);
        assert_eq!(s1.mis_rescanned, 0, "{}", s1.summary());
        assert_eq!(s1.origins_walked, 0, "{}", s1.summary());
        assert_eq!(s1.candidates_rechecked, 0, "{}", s1.summary());
        assert_eq!(render_all(&program, &cold), render_all(&program, &warm));
    }

    #[test]
    fn diff_analyze_matches_cold_and_recomputes_less() {
        let old = parse(BASE).unwrap();
        let new = parse(EDITED).unwrap();
        let o2 = O2Builder::new().build();
        let (od, nd) = (digest_program(&old), digest_program(&new));
        let mut db = AnalysisDb::new(o2.config_sig());
        let d = o2
            .diff_analyze(
                (ProgramCtx::solo(&old), &od),
                (ProgramCtx::solo(&new), &nd),
                &mut db,
                &Budget::unlimited(),
                |_| {},
            )
            .unwrap();
        assert_eq!(d.diff.changed, vec!["W2.run/0".to_string()]);
        assert!(d.new.stats.incremental);
        assert!(d.new.stats.mis_replayed > 0, "{}", d.new.stats.summary());
        assert!(
            d.new.stats.origins_replayed > 0,
            "{}",
            d.new.stats.summary()
        );
        let cold = o2.analyze(&new);
        assert_eq!(render_all(&new, &cold), render_all(&new, &d.new.report));
        // Strictly fewer re-checked candidates than a cold run checks.
        let total = d.new.stats.candidates_replayed + d.new.stats.candidates_rechecked;
        assert!(
            d.new.stats.candidates_rechecked < total,
            "{}",
            d.new.stats.summary()
        );
    }

    #[test]
    fn config_change_invalidates_database() {
        let program = parse(BASE).unwrap();
        let o2 = O2Builder::new().build();
        let mut db = AnalysisDb::new(o2.config_sig());
        run_db(&o2, &program, &mut db);
        let naive = O2Builder::new()
            .detect_config(DetectConfig::naive())
            .build();
        assert_ne!(o2.config_sig(), naive.config_sig());
        let (_, s) = run_db(&naive, &program, &mut db);
        assert!(s.incremental);
        assert_eq!(s.mis_replayed, 0, "cleared db replays nothing");
        assert_eq!(db.config_sig, naive.config_sig());
    }

    #[test]
    fn db_roundtrips_through_bytes() {
        let program = parse(BASE).unwrap();
        let o2 = O2Builder::new().build();
        let mut db = AnalysisDb::new(o2.config_sig());
        run_db(&o2, &program, &mut db);
        let bytes = db.to_bytes();
        let back = AnalysisDb::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        let mut db2 = back;
        let (_, s) = run_db(&o2, &program, &mut db2);
        assert_eq!(s.mis_rescanned, 0, "{}", s.summary());
        assert_eq!(s.origins_walked, 0, "{}", s.summary());
        assert_eq!(s.candidates_rechecked, 0, "{}", s.summary());
    }
}
