//! Incremental race checking over the analysis database.
//!
//! Candidate collection (phase 1 of [`detect`](crate::detect)) is cheap
//! and always re-runs; what the database memoizes is the expensive part —
//! the per-candidate pair check. A candidate's verdict
//! ([`o2_db::VerdictArtifact`]) is replayed when a digest over *all of
//! the check's inputs* is unchanged:
//!
//! - the candidate itself: location, (region-merged) access list with
//!   positions, regions and canonical lockset contents, and the
//!   per-origin multi-instance / sole-allocator flags;
//! - the detection configuration (minus threads and timeout, which do
//!   not affect the outcome);
//! - the happens-before neighborhood: the trace lengths and inter-origin
//!   edges of every origin the pair check's HB traversal can reach from
//!   the candidate's origins.
//!
//! The cached verdict stores exactly the counters the check contributed
//! (`pairs_checked`, `lock_pruned`, `hb_pruned`), so the merged report —
//! including the counters printed by `RaceReport::to_json` — is
//! byte-identical to a cold run's.

use crate::{
    check_candidates_parallel, collect_candidates, merge_outcomes, under_budget, Candidate,
    DetectConfig, KeyOutcome, Race, RaceAccess, RaceReport,
};
use o2_analysis::{memkey_to_db, KeyResolver, MemKey, OsaResult};
use o2_db::{
    digest_of_sorted, AnalysisDb, DbRace, DbRaceAccess, DbStmt, Digest, DigestHasher, FastMap,
    StableIds, VerdictArtifact,
};
use o2_ir::error::{Budget, O2Error};
use o2_ir::ids::{GStmt, MethodId};
use o2_ir::program::Program;
use o2_ir::ProgramCtx;
use o2_pta::{CanonIndex, OriginId, PtaResult};
use o2_shb::{LockElem, ShbGraph};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// A warm detection run: the report plus replay accounting.
#[derive(Debug)]
pub struct DetectIncr {
    /// The merged report, equal to what a cold [`crate::detect`] produces.
    pub report: RaceReport,
    /// Candidates whose verdict was replayed from the database.
    pub candidates_replayed: usize,
    /// Candidates actually re-checked.
    pub candidates_rechecked: usize,
    /// Access pairs accounted from cached verdicts.
    pub pairs_replayed: u64,
    /// Access pairs examined by this run's checks.
    pub pairs_rechecked: u64,
}

fn write_stmt(h: &mut DigestHasher, canon: &CanonIndex, g: GStmt) {
    h.write_str(canon.qname(g.method));
    h.write_u32(g.index);
}

/// Canonical digest of one lock element. Fresh locks are expressed as
/// ordinals relative to their origin's fresh-lock base, which is stable
/// across runs (unlike the raw `u32::MAX - k` id).
fn elem_digest(e: LockElem, program: &Program, canon: &CanonIndex, fresh_base: u32) -> Digest {
    let mut h = DigestHasher::with_tag("o2.detect.elem.v1");
    match e {
        // Fresh locks live at `u32::MAX - k` for small counter values `k`;
        // dense object ids never approach the upper half of the id space.
        LockElem::Obj(o) if o.0 >= u32::MAX / 2 => {
            h.write_u8(1);
            h.write_u32((u32::MAX - o.0).wrapping_sub(fresh_base + 1));
        }
        LockElem::Obj(o) => {
            h.write_u8(0);
            h.write_digest(canon.obj_digest(o));
        }
        LockElem::Class(c) => {
            h.write_u8(2);
            h.write_str(&program.class(c).name);
        }
        LockElem::Dispatcher(d) => {
            h.write_u8(3);
            h.write_u32(d as u32);
        }
        LockElem::AtomicCell(o, f) => {
            h.write_u8(4);
            h.write_digest(canon.obj_digest(o));
            h.write_str(program.field_name(f));
        }
        LockElem::RwRead(o) if o.0 >= u32::MAX / 2 => {
            h.write_u8(5);
            h.write_u32((u32::MAX - o.0).wrapping_sub(fresh_base + 1));
        }
        LockElem::RwRead(o) => {
            h.write_u8(6);
            h.write_digest(canon.obj_digest(o));
        }
        LockElem::RwWrite(o) if o.0 >= u32::MAX / 2 => {
            h.write_u8(7);
            h.write_u32((u32::MAX - o.0).wrapping_sub(fresh_base + 1));
        }
        LockElem::RwWrite(o) => {
            h.write_u8(8);
            h.write_digest(canon.obj_digest(o));
        }
        LockElem::Executor(e) => {
            h.write_u8(9);
            h.write_u32(e as u32);
        }
    }
    h.finish()
}

fn write_memkey(h: &mut DigestHasher, key: MemKey, program: &Program, canon: &CanonIndex) {
    match key {
        MemKey::Field(obj, f) => {
            h.write_u8(0);
            h.write_digest(canon.obj_digest(obj));
            h.write_str(program.field_name(f));
        }
        MemKey::Static(c, f) => {
            h.write_u8(1);
            h.write_str(&program.class(c).name);
            h.write_str(program.field_name(f));
        }
    }
}

/// Per-origin happens-before signatures: `local` digests one origin's
/// HB-relevant state (trace length plus outgoing entry/join arcs);
/// `reach` is the set of origins a HB traversal starting at this origin
/// can visit (entry edges parent→child, join edges child→parent).
struct HbSigs {
    local: Vec<Digest>,
    reach: Vec<Vec<u32>>,
}

fn hb_sigs(shb: &ShbGraph, canon: &CanonIndex, include_len: bool) -> HbSigs {
    let n = shb.traces.len();
    let mut out_arcs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut hashers: Vec<DigestHasher> = (0..n)
        .map(|i| {
            let mut h = DigestHasher::with_tag("o2.hb.origin.v1");
            h.write_digest(canon.origin_digest(OriginId(i as u32)));
            // The optimized traversal never reads intermediate trace
            // lengths; only the naive walk does. Excluding them here keeps
            // a body edit in origin X from invalidating candidates that
            // can merely *reach* X through the spawning parent.
            if include_len {
                h.write_u32(shb.traces[i].len);
            }
            h
        })
        .collect();
    for e in &shb.entry_edges {
        out_arcs[e.parent.0 as usize].push(e.child.0);
        let h = &mut hashers[e.parent.0 as usize];
        h.write_u8(1);
        h.write_digest(canon.origin_digest(e.child));
        h.write_u32(e.pos);
    }
    for j in &shb.join_edges {
        out_arcs[j.child.0 as usize].push(j.parent.0);
        let h = &mut hashers[j.child.0 as usize];
        h.write_u8(2);
        h.write_digest(canon.origin_digest(j.parent));
        h.write_u32(j.pos);
    }
    // Condvar edges (notifier → waiter) are part of the HB neighborhood
    // exactly like entry edges: an edit that adds or moves a notify must
    // invalidate every candidate whose traversal could cross it.
    for c in &shb.cond_edges {
        out_arcs[c.from.0 as usize].push(c.to.0);
        let h = &mut hashers[c.from.0 as usize];
        h.write_u8(3);
        h.write_digest(canon.origin_digest(c.to));
        h.write_u32(c.from_pos);
        h.write_u32(c.to_pos);
    }
    let local: Vec<Digest> = hashers.into_iter().map(|h| h.finish()).collect();
    let mut reach: Vec<Vec<u32>> = Vec::with_capacity(n);
    for o in 0..n {
        let mut seen = vec![false; n];
        let mut stack = vec![o as u32];
        let mut set = Vec::new();
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut seen[x as usize], true) {
                continue;
            }
            set.push(x);
            stack.extend(out_arcs[x as usize].iter().copied());
        }
        set.sort_unstable();
        reach.push(set);
    }
    HbSigs { local, reach }
}

/// Memo tables shared across the candidate digests of one run. Locksets
/// are interned ([`o2_shb::LockSets`]) and candidates cluster on a few
/// origin sets, so both sub-digests repeat heavily; computing each once
/// keeps the digest pass cheaper than the checks it replaces.
#[derive(Default)]
struct SigMemo {
    /// `(lockset id, fresh base)` → sorted element digests.
    locksets: FastMap<(u32, u32), Vec<Digest>>,
    /// Sorted accessing-origin set → HB-neighborhood signature.
    hoods: FastMap<Vec<u32>, Digest>,
}

/// Digest over everything [`crate::check_candidate`] reads for one
/// candidate.
#[allow(clippy::too_many_arguments)]
fn candidate_digest(
    cand: &Candidate,
    program: &Program,
    canon: &CanonIndex,
    shb: &ShbGraph,
    fresh_base: &[u32],
    hb: &HbSigs,
    config_sig: Digest,
    memo: &mut SigMemo,
) -> Digest {
    let mut h = DigestHasher::with_tag("o2.cand.v1");
    h.write_digest(config_sig);
    write_memkey(&mut h, cand.key, program, canon);
    h.write_u64(cand.accesses.len() as u64);
    let mut origins: Vec<u32> = Vec::new();
    for &(origin, a) in &cand.accesses {
        if !origins.contains(&origin.0) {
            origins.push(origin.0);
        }
        h.write_digest(canon.origin_digest(origin));
        write_stmt(&mut h, canon, a.stmt);
        h.write_bool(a.is_write);
        h.write_u32(a.pos);
        h.write_u32(a.region);
        let fresh = fresh_base.get(origin.0 as usize).copied().unwrap_or(0);
        let elems = memo
            .locksets
            .entry((a.lockset.0, fresh))
            .or_insert_with(|| {
                let mut elems: Vec<Digest> = shb
                    .locks
                    .set_elems(a.lockset)
                    .iter()
                    .map(|&eid| elem_digest(shb.locks.elem_data(eid), program, canon, fresh))
                    .collect();
                elems.sort_unstable();
                elems
            });
        h.write_u64(elems.len() as u64);
        for &d in elems.iter() {
            h.write_digest(d);
        }
    }
    // Per-origin flags in first-appearance order (deterministic).
    for &o in &origins {
        let (multi, sole) = cand
            .flags
            .get(o as usize)
            .copied()
            .unwrap_or((false, false));
        h.write_digest(canon.origin_digest(OriginId(o)));
        h.write_bool(multi);
        h.write_bool(sole);
    }
    // HB neighborhood: every origin the pair check can traverse.
    let mut okey = origins;
    okey.sort_unstable();
    let hood_sig = match memo.hoods.get(&okey) {
        Some(&d) => d,
        None => {
            let mut hood: BTreeSet<u32> = BTreeSet::new();
            for &o in &okey {
                hood.extend(hb.reach[o as usize].iter().copied());
            }
            let hood_locals: Vec<Digest> = hood.iter().map(|&o| hb.local[o as usize]).collect();
            let d = digest_of_sorted("o2.cand.hood.v1", &hood_locals);
            memo.hoods.insert(okey, d);
            d
        }
    };
    h.write_digest(hood_sig);
    h.finish()
}

/// Digest of the [`DetectConfig`] fields that influence a candidate's
/// outcome (threads and timeout do not).
fn detect_config_sig(config: &DetectConfig) -> Digest {
    let mut h = DigestHasher::with_tag("o2.detect.cfg.v1");
    h.write_bool(config.integer_hb);
    h.write_bool(config.canonical_locksets);
    h.write_bool(config.lock_region_merging);
    h.write_bool(config.hb_cache);
    h.write_bool(config.preloop_prune);
    h.write_u64(config.max_pairs_per_location as u64);
    h.finish()
}

fn race_to_db(r: &Race, program: &Program, canon: &CanonIndex, names: &mut StableIds) -> DbRace {
    let side = |a: &RaceAccess, names: &mut StableIds| DbRaceAccess {
        origin: canon.origin_digest(a.origin),
        stmt: DbStmt {
            method: names.intern(canon.qname(a.stmt.method)),
            index: a.stmt.index,
        },
        is_write: a.is_write,
    };
    DbRace {
        key: memkey_to_db(r.key, program, canon, names),
        a: side(&r.a, names),
        b: side(&r.b, names),
    }
}

/// Memoized name → id resolution for verdict decoding. Stored races
/// repeat the same few origins, methods, and keys; without the memo a
/// warm run pays a string-keyed lookup per race side.
#[derive(Default)]
struct RaceMemo {
    keys: KeyResolver,
    methods: FastMap<u32, Option<MethodId>>,
}

impl RaceMemo {
    fn method(&mut self, canon: &CanonIndex, names: &StableIds, id: u32) -> Option<MethodId> {
        *self
            .methods
            .entry(id)
            .or_insert_with(|| names.resolve(id).and_then(|q| canon.method_of_qname(q)))
    }
}

fn race_side(
    a: &DbRaceAccess,
    canon: &CanonIndex,
    names: &StableIds,
    memo: &mut RaceMemo,
) -> Option<RaceAccess> {
    Some(RaceAccess {
        origin: canon.origin_of_digest(a.origin)?,
        stmt: GStmt::new(
            memo.method(canon, names, a.stmt.method)?,
            a.stmt.index as usize,
        ),
        is_write: a.is_write,
    })
}

fn race_from_db(
    r: &DbRace,
    program: &Program,
    canon: &CanonIndex,
    names: &StableIds,
    memo: &mut RaceMemo,
) -> Option<Race> {
    Some(Race {
        key: memo.keys.memkey(program, canon, names, r.key)?,
        a: race_side(&r.a, canon, names, memo)?,
        b: race_side(&r.b, canon, names, memo)?,
    })
}

/// Runs race detection incrementally: candidates whose input digest has a
/// stored verdict are replayed; the rest are checked (in parallel, as in
/// the cold path); the merge is [`crate::detect`]'s, so the report —
/// counters included — is byte-identical to a cold run. The database
/// section is rewritten to exactly this run's verdicts unless the run
/// timed out.
///
/// Polls a request-scoped [`Budget`] in the chunk-claim loop and aborts
/// with a typed error when it trips (pass [`Budget::unlimited`] to run
/// unbounded). A budget-aborted run keeps the database's previous
/// verdicts (same rule as a truncation timeout: the run never saw the
/// full candidate set).
///
/// # Errors
///
/// [`O2Error::Timeout`] / [`O2Error::Budget`] when the budget trips.
#[allow(clippy::too_many_arguments)]
pub fn detect_incremental_budgeted(
    ctx: &ProgramCtx<'_>,
    pta: &PtaResult,
    osa: &OsaResult,
    shb: &ShbGraph,
    config: &DetectConfig,
    canon: &CanonIndex,
    fresh_base: &[u32],
    db: &mut AnalysisDb,
    budget: &Budget,
) -> Result<DetectIncr, O2Error> {
    under_budget(budget, |b| {
        detect_incremental_inner(ctx, pta, osa, shb, config, canon, fresh_base, db, b)
    })
}

#[allow(clippy::too_many_arguments)]
fn detect_incremental_inner(
    ctx: &ProgramCtx<'_>,
    pta: &PtaResult,
    osa: &OsaResult,
    shb: &ShbGraph,
    config: &DetectConfig,
    canon: &CanonIndex,
    fresh_base: &[u32],
    db: &mut AnalysisDb,
    budget: Option<&Budget>,
) -> (DetectIncr, bool) {
    debug_assert_eq!(
        pta.program_id,
        ctx.id(),
        "detect_incremental: PtaResult from a different ProgramCtx"
    );
    debug_assert_eq!(
        shb.program_id,
        ctx.id(),
        "detect_incremental: ShbGraph from a different ProgramCtx"
    );
    debug_assert_eq!(
        canon.program_id(),
        ctx.id(),
        "detect_incremental: CanonIndex from a different ProgramCtx"
    );
    let program = ctx.program();
    let start = Instant::now();
    let deadline = config.timeout.map(|t| start + t);
    let mut report = RaceReport::default();
    let mut names = std::mem::take(&mut db.names);

    let (candidates, prune) = collect_candidates(program, pta, osa, shb, config);
    report.prune = prune;
    let hb = hb_sigs(shb, canon, !config.integer_hb);
    let cfg_sig = detect_config_sig(config);

    let mut memo = SigMemo::default();
    let digests: Vec<Digest> = candidates
        .iter()
        .map(|c| candidate_digest(c, program, canon, shb, fresh_base, &hb, cfg_sig, &mut memo))
        .collect();

    // Partition into replayable and to-check. Decoding failures (stale
    // name/digest references) fall through to a re-check. The old verdict
    // map is taken out wholesale: replayed artifacts move into the next
    // map as-is instead of being re-encoded through `race_to_db`.
    let mut old_verdicts = std::mem::take(&mut db.verdicts);
    let mut outcomes: Vec<Option<KeyOutcome>> = Vec::with_capacity(candidates.len());
    let mut replayed: Vec<bool> = vec![false; candidates.len()];
    let mut todo: Vec<usize> = Vec::new();
    let mut candidates_replayed = 0usize;
    let mut pairs_replayed = 0u64;
    let mut rmemo = RaceMemo::default();
    for (i, d) in digests.iter().enumerate() {
        let replay = old_verdicts.get(d).and_then(|art| {
            let races: Option<Vec<Race>> = art
                .races
                .iter()
                .map(|r| race_from_db(r, program, canon, &names, &mut rmemo))
                .collect();
            Some(KeyOutcome {
                races: races?,
                pairs_checked: art.pairs_checked,
                lock_pruned: art.lock_pruned,
                hb_pruned: art.hb_pruned,
                pairs_budget_hit: art.budget_hit,
                timed_out: false,
            })
        });
        match replay {
            Some(o) => {
                candidates_replayed += 1;
                pairs_replayed += o.pairs_checked;
                replayed[i] = true;
                outcomes.push(Some(o));
            }
            None => {
                todo.push(i);
                outcomes.push(None);
            }
        }
    }

    let budget_flag = std::sync::atomic::AtomicBool::new(false);
    let (checked, hits, misses, out_of_time, workers) = check_candidates_parallel(
        &candidates,
        &todo,
        shb,
        config,
        deadline,
        config.effective_threads(),
        budget,
        &budget_flag,
    );
    let budget_hit = budget_flag.load(std::sync::atomic::Ordering::Relaxed);
    report.lock_cache_hits = hits;
    report.lock_cache_misses = misses;
    let candidates_rechecked = checked.len();
    let mut pairs_rechecked = 0u64;
    for (i, o) in checked {
        pairs_rechecked += o.pairs_checked;
        outcomes[i] = Some(o);
    }

    // A timed-out (or budget-aborted) run saw only part of the candidate
    // set; it keeps the old verdicts rather than dropping artifacts it
    // never got to, so verdict storage is skipped entirely below.
    let timed_out_run = out_of_time || budget_hit || outcomes.iter().flatten().any(|o| o.timed_out);

    // A candidate without an outcome was never checked: the run timed
    // out first.
    merge_outcomes(
        &mut report,
        &candidates,
        outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| Some((i, o.as_ref()?))),
        out_of_time,
        workers,
    );
    let mut next_verdicts: BTreeMap<Digest, VerdictArtifact> = BTreeMap::new();
    if !timed_out_run {
        for (i, outcome) in outcomes.iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            // A replayed candidate's stored artifact is moved over as-is
            // (same digest ⇒ same content); only re-checked candidates
            // are encoded.
            let art = if replayed[i] {
                old_verdicts.remove(&digests[i])
            } else {
                None
            };
            let art = art.unwrap_or_else(|| VerdictArtifact {
                races: outcome
                    .races
                    .iter()
                    .map(|r| race_to_db(r, program, canon, &mut names))
                    .collect(),
                pairs_checked: outcome.pairs_checked,
                lock_pruned: outcome.lock_pruned,
                hb_pruned: outcome.hb_pruned,
                budget_hit: outcome.pairs_budget_hit,
            });
            next_verdicts.insert(digests[i], art);
        }
    }
    report.duration = start.elapsed();

    db.verdicts = if timed_out_run {
        old_verdicts
    } else {
        next_verdicts
    };
    db.names = names;
    let _ = pta;
    (
        DetectIncr {
            report,
            candidates_replayed,
            candidates_rechecked,
            pairs_replayed,
            pairs_rechecked,
        },
        budget_hit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect;
    use o2_analysis::run_osa;
    use o2_ir::parser::parse;
    use o2_pta::{analyze, Policy, PtaConfig};
    use o2_shb::{build_shb_incremental, ShbConfig};

    const SRC: &str = r#"
        class S { field a; field b; }
        class W1 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.a = s; }
        }
        class W2 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.b = s; }
        }
        class Main {
            static method main() {
                s = new S();
                w1 = new W1(s);
                w2 = new W2(s);
                w1.start();
                w2.start();
                x = s.a;
                y = s.b;
            }
        }
    "#;

    struct Stages {
        p: o2_ir::Program,
        pta: o2_pta::PtaResult,
        canon: CanonIndex,
        osa: o2_analysis::OsaResult,
    }

    fn stages(src: &str) -> Stages {
        let p = parse(src).unwrap();
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let digests = o2_ir::digest_program(&p);
        let canon = CanonIndex::build(&o2_ir::ProgramCtx::solo(&p), &pta, &digests);
        let osa = run_osa(&o2_ir::ProgramCtx::solo(&p), &pta);
        Stages { p, pta, canon, osa }
    }

    fn reports_equal(a: &RaceReport, b: &RaceReport) -> bool {
        a.races == b.races
            && a.pairs_checked == b.pairs_checked
            && a.lock_pruned == b.lock_pruned
            && a.hb_pruned == b.hb_pruned
            && a.region_merged == b.region_merged
            && a.timed_out == b.timed_out
    }

    #[test]
    fn warm_replay_equals_cold_detect() {
        let mut s = stages(SRC);
        let cfg = DetectConfig::o2();
        let mut db = AnalysisDb::new(Digest(1, 1));
        let shb = build_shb_incremental(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &ShbConfig::default(),
            &s.canon,
            &mut s.osa.locs,
            &mut db,
        );
        let cold = detect(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &s.osa,
            &shb.graph,
            &cfg,
        );
        let first = detect_incremental_budgeted(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &s.osa,
            &shb.graph,
            &cfg,
            &s.canon,
            &shb.fresh_base,
            &mut db,
            &Budget::unlimited(),
        )
        .expect("unlimited budget");
        assert_eq!(first.candidates_replayed, 0);
        assert!(reports_equal(&first.report, &cold));
        let second = detect_incremental_budgeted(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &s.osa,
            &shb.graph,
            &cfg,
            &s.canon,
            &shb.fresh_base,
            &mut db,
            &Budget::unlimited(),
        )
        .expect("unlimited budget");
        assert_eq!(second.candidates_rechecked, 0);
        assert_eq!(second.candidates_replayed, first.candidates_rechecked);
        assert!(reports_equal(&second.report, &cold));
        assert_eq!(
            second.report.to_json(&s.p),
            cold.to_json(&s.p),
            "warm JSON must be byte-identical"
        );
    }

    #[test]
    fn edit_rechecks_only_affected_candidates() {
        let mut s = stages(SRC);
        let cfg = DetectConfig::o2();
        let mut db = AnalysisDb::new(Digest(1, 1));
        let shb = build_shb_incremental(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &ShbConfig::default(),
            &s.canon,
            &mut s.osa.locs,
            &mut db,
        );
        let base = detect_incremental_budgeted(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &s.osa,
            &shb.graph,
            &cfg,
            &s.canon,
            &shb.fresh_base,
            &mut db,
            &Budget::unlimited(),
        )
        .expect("unlimited budget");
        assert!(base.candidates_rechecked >= 2, "S.a and S.b are candidates");
        // Edit W2.run (touches S.b only). W1's candidate on S.a still
        // involves main (entry edges), but main's own trace changes only
        // if main changed — it did not, so S.a replays.
        let edited = SRC.replace(
            "method run() { s = this.s; s.b = s; }",
            "method run() { s = this.s; s.b = s; z = s.b; }",
        );
        let mut s2 = stages(&edited);
        let shb2 = build_shb_incremental(
            &o2_ir::ProgramCtx::solo(&s2.p),
            &s2.pta,
            &ShbConfig::default(),
            &s2.canon,
            &mut s2.osa.locs,
            &mut db,
        );
        let warm = detect_incremental_budgeted(
            &o2_ir::ProgramCtx::solo(&s2.p),
            &s2.pta,
            &s2.osa,
            &shb2.graph,
            &cfg,
            &s2.canon,
            &shb2.fresh_base,
            &mut db,
            &Budget::unlimited(),
        )
        .expect("unlimited budget");
        let cold = detect(
            &o2_ir::ProgramCtx::solo(&s2.p),
            &s2.pta,
            &s2.osa,
            &shb2.graph,
            &cfg,
        );
        assert!(reports_equal(&warm.report, &cold));
        assert_eq!(warm.report.to_json(&s2.p), cold.to_json(&s2.p));
        assert!(
            warm.candidates_replayed >= 1,
            "the untouched candidate replays: {} replayed / {} rechecked",
            warm.candidates_replayed,
            warm.candidates_rechecked
        );
        assert!(
            warm.candidates_rechecked < base.candidates_rechecked,
            "strictly fewer candidates re-checked"
        );
    }

    #[test]
    fn config_change_invalidates_verdicts() {
        let mut s = stages(SRC);
        let mut db = AnalysisDb::new(Digest(1, 1));
        let shb = build_shb_incremental(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &ShbConfig::default(),
            &s.canon,
            &mut s.osa.locs,
            &mut db,
        );
        let cfg = DetectConfig::o2();
        detect_incremental_budgeted(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &s.osa,
            &shb.graph,
            &cfg,
            &s.canon,
            &shb.fresh_base,
            &mut db,
            &Budget::unlimited(),
        )
        .expect("unlimited budget");
        let naive = DetectConfig::naive();
        let warm = detect_incremental_budgeted(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &s.osa,
            &shb.graph,
            &naive,
            &s.canon,
            &shb.fresh_base,
            &mut db,
            &Budget::unlimited(),
        )
        .expect("unlimited budget");
        assert_eq!(warm.candidates_replayed, 0, "different engine, no replay");
        let cold = detect(
            &o2_ir::ProgramCtx::solo(&s.p),
            &s.pta,
            &s.osa,
            &shb.graph,
            &naive,
        );
        assert!(reports_equal(&warm.report, &cold));
    }
}
