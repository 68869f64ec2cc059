//! Whole-corpus analysis: the engine behind `o2 batch <manifest>`.
//!
//! A batch run analyzes every program of a manifest under one engine
//! configuration, sharing a single digest-keyed artifact pool
//! ([`SharedStore`]) across all workers. Each program is claimed by
//! exactly one worker, checked out a private database seeded from the
//! pool, analyzed with the ordinary incremental pipeline, and published
//! back — so any function body two programs share is analyzed once and
//! replayed everywhere else. Because each program is analyzed exactly
//! once per batch, every replay its [`IncrStats`] counts is necessarily
//! a *cross-program* hit, and [`run_batch`] records it as such.
//!
//! Scheduling is a std-only work-stealing pool: `workers` scoped threads
//! race on one atomic claim counter; whoever claims index `i` analyzes
//! entry `i`. The merged JSON and SARIF reports are byte-identical for
//! every worker count and claim order — they are pure functions of the
//! per-program reports sorted by program name, and replay is
//! byte-identical to recompute by the store's invariant. Only the
//! [`BatchReport::summary`] table (wall times, hit counts) is
//! scheduling-dependent, which is why it is a separate artifact.

use crate::incremental::IncrStats;
use crate::{Analysis, AnalysisRequest, O2};
use o2_db::{SharedStore, StoreStats};
use o2_ir::{Budget, O2Error, Program, ProgramCtx, ProgramId};
use o2_passes::{PipelineReport, Tier};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One named program of a batch manifest. A program that failed to load
/// (unreadable file, parse error, unknown workload) carries its typed
/// error instead: the batch analyzes everything that loaded and reports
/// the failures as per-program error entries in the merged output, so
/// one bad program never aborts a corpus run.
#[derive(Debug)]
pub struct BatchEntry {
    /// Report key; must be unique within the batch.
    pub name: String,
    /// The program to analyze, or why it could not be loaded.
    pub program: Result<Program, O2Error>,
}

/// Parses a batch manifest: one entry per line, `#` comments and blank
/// lines ignored. Each line is either
///
/// - a workload spec the unified registry resolves (`avrora`,
///   `mega-smoke`, `realbug:ZooKeeper`, `realbug-c:Memcached`), or
/// - `<name> = <path>` — analyze the `.o2` (or `.c`) source file at
///   `path`, reported under `name`. Relative paths resolve against the
///   manifest's directory.
///
/// Duplicate names are an error: the merged report is keyed by name.
///
/// A syntactically valid line whose program fails to *load* — the path
/// is unreadable, the source does not parse, the workload spec is
/// unknown — is not a manifest error: it becomes an entry carrying the
/// typed [`O2Error`], which the batch run reports without aborting the
/// rest of the corpus. Only malformed manifest structure (empty name or
/// path, duplicate names, an empty manifest) fails the whole parse.
pub fn parse_manifest(text: &str, base: &std::path::Path) -> Result<Vec<BatchEntry>, String> {
    let mut entries: Vec<BatchEntry> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let entry = if let Some((name, path)) = line.split_once('=') {
            let (name, path) = (name.trim(), path.trim());
            if name.is_empty() || path.is_empty() {
                return Err(format!("manifest line {}: empty name or path", lineno + 1));
            }
            let full = base.join(path);
            let program = match std::fs::read_to_string(&full) {
                Err(e) => Err(O2Error::Io(format!("cannot read {path}: {e}"))),
                Ok(src) => if path.ends_with(".c") {
                    o2_ir::cfront::parse_c(&src)
                } else {
                    o2_ir::parser::parse(&src)
                }
                .map_err(O2Error::from),
            };
            BatchEntry {
                name: name.to_string(),
                program,
            }
        } else {
            match o2_workloads::workload_by_name(line) {
                Some(w) => BatchEntry {
                    name: w.name,
                    program: Ok(w.program),
                },
                None => BatchEntry {
                    name: line.to_string(),
                    program: Err(O2Error::Resolve(format!("unknown workload {line}"))),
                },
            }
        };
        if entries.iter().any(|e| e.name == entry.name) {
            return Err(format!(
                "manifest line {}: duplicate program name {}",
                lineno + 1,
                entry.name
            ));
        }
        entries.push(entry);
    }
    if entries.is_empty() {
        return Err("manifest has no entries".to_string());
    }
    Ok(entries)
}

/// Per-program outcome of a batch run (summary-table data; the full
/// triaged report lives in [`BatchReport::json`]/[`BatchReport::sarif`]).
#[derive(Debug)]
pub struct ProgramOutcome {
    /// The manifest name.
    pub name: String,
    /// Surviving races by tier: (high, medium, low). All zero when the
    /// entry failed.
    pub tiers: (usize, usize, usize),
    /// Replay/recompute counters, with `cross_program_hits` set.
    pub stats: IncrStats,
    /// Wall time of this program's analysis (scheduling-dependent).
    pub wall_ms: f64,
    /// Why this entry produced no report: a load failure carried in
    /// from the manifest, or a panic caught by [`O2::run`]. `None`
    /// for every successfully analyzed program.
    pub error: Option<O2Error>,
}

/// Everything a batch run produces.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-program outcomes, sorted by name.
    pub programs: Vec<ProgramOutcome>,
    /// The merged JSON report ([`o2_passes::corpus_json`] bytes).
    pub json: String,
    /// The merged SARIF report ([`o2_passes::corpus_sarif`] bytes).
    pub sarif: String,
    /// Shared-store accounting for the whole run.
    pub store: StoreStats,
    /// Wall time of the whole batch.
    pub wall_ms: f64,
}

impl BatchReport {
    /// The first failing entry in name order, if any — the CLI maps its
    /// stage to the process exit code when the corpus has no races.
    pub fn first_error(&self) -> Option<&O2Error> {
        self.programs.iter().find_map(|p| p.error.as_ref())
    }

    /// Number of entries that failed (load errors plus caught panics).
    pub fn error_count(&self) -> usize {
        self.programs.iter().filter(|p| p.error.is_some()).count()
    }

    /// Total cross-program digest hits across all programs.
    pub fn cross_program_hits(&self) -> usize {
        self.programs
            .iter()
            .map(|p| p.stats.cross_program_hits)
            .sum()
    }

    /// Total surviving races across all programs.
    pub fn total_races(&self) -> usize {
        self.programs
            .iter()
            .map(|p| p.tiers.0 + p.tiers.1 + p.tiers.2)
            .sum()
    }

    /// Fraction of artifact lookups served by replay, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let (mut hits, mut total) = (0usize, 0usize);
        for p in &self.programs {
            let s = &p.stats;
            hits += s.total_replays();
            total +=
                s.total_replays() + s.mis_rescanned + s.origins_walked + s.candidates_rechecked;
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The corpus summary table. Wall times and hit counts here depend
    /// on scheduling; everything byte-pinned lives in `json`/`sarif`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>5} {:>6} {:>4} {:>10} {:>9}",
            "program", "high", "medium", "low", "xprog-hits", "wall-ms"
        );
        for p in &self.programs {
            if let Some(err) = &p.error {
                let _ = writeln!(
                    out,
                    "{:<28} error at stage {}: {}",
                    p.name,
                    err.stage(),
                    err
                );
                continue;
            }
            let _ = writeln!(
                out,
                "{:<28} {:>5} {:>6} {:>4} {:>10} {:>9.1}",
                p.name, p.tiers.0, p.tiers.1, p.tiers.2, p.stats.cross_program_hits, p.wall_ms
            );
        }
        let _ = writeln!(
            out,
            "corpus: {} programs, {} races, {} errors, {} cross-program hits \
             ({:.1}% replay rate), {:.1} ms",
            self.programs.len(),
            self.total_races(),
            self.error_count(),
            self.cross_program_hits(),
            self.hit_rate() * 100.0,
            self.wall_ms
        );
        let s = &self.store;
        let _ = writeln!(
            out,
            "store: {} checkouts, {} publishes, {} artifacts pooled ({} offered, \
             {} digest collisions, {:.1}% collision rate), {:.1}% cross-program hit rate",
            s.checkouts,
            s.publishes,
            s.artifacts_accepted,
            s.artifacts_offered,
            s.digest_collisions(),
            s.collision_rate() * 100.0,
            self.hit_rate() * 100.0,
        );
        out
    }
}

struct Slot {
    /// `None` when the entry failed (outcome carries the error).
    pipeline: Option<PipelineReport>,
    outcome: ProgramOutcome,
}

fn error_outcome(name: &str, error: O2Error, wall_ms: f64) -> ProgramOutcome {
    ProgramOutcome {
        name: name.to_string(),
        tiers: (0, 0, 0),
        stats: IncrStats::default(),
        wall_ms,
        error: Some(error),
    }
}

/// Analyzes every entry under `engine`'s configuration with `workers`
/// threads sharing one artifact pool. See the module docs for the
/// determinism contract.
pub fn run_batch(engine: &O2, entries: &[BatchEntry], workers: usize) -> BatchReport {
    let store = SharedStore::new(engine.config_sig());
    run_batch_with_store(engine, entries, workers, &store)
}

/// [`run_batch`] against a caller-provided artifact pool. The pool must
/// carry `engine.config_sig()` (checkout/publish assert it); after the
/// run its accumulated artifacts can be snapshotted and persisted, which
/// is how `o2 batch --save-db` seeds a daemon's warm start.
pub fn run_batch_with_store(
    engine: &O2,
    entries: &[BatchEntry],
    workers: usize,
    store: &SharedStore,
) -> BatchReport {
    let workers = workers.max(1);
    let t0 = Instant::now();
    let claim = AtomicUsize::new(0);
    let budget = Budget::unlimited();
    let slots: Mutex<Vec<Option<Slot>>> = Mutex::new((0..entries.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers.min(entries.len()) {
            scope.spawn(|| loop {
                let i = claim.fetch_add(1, Ordering::Relaxed);
                if i >= entries.len() {
                    break;
                }
                let entry = &entries[i];
                let t = Instant::now();
                let program = match &entry.program {
                    Ok(p) => p,
                    Err(e) => {
                        slots.lock().expect("batch slots poisoned")[i] = Some(Slot {
                            pipeline: None,
                            outcome: error_outcome(&entry.name, e.clone(), 0.0),
                        });
                        continue;
                    }
                };
                // ProgramId is the manifest index: unique per entry, and
                // purely internal — nothing id-derived reaches a report.
                let ctx = ProgramCtx::new(ProgramId(i as u32), &entry.name, program);
                let mut db = store.checkout();
                // A panic in one program's analysis becomes that entry's
                // error; the worker claims the next entry.
                let run = engine.run(AnalysisRequest::new(ctx, &budget).db(&mut db));
                if run.is_ok() {
                    store.publish(&db);
                }
                let wall_ms = t.elapsed().as_secs_f64() * 1000.0;
                let slot = match run {
                    Ok(Analysis {
                        pipeline,
                        mut stats,
                        ..
                    }) => {
                        // Each program runs once per batch, so every replay
                        // came from an artifact another program published.
                        stats.cross_program_hits = stats.total_replays();
                        let outcome = ProgramOutcome {
                            name: entry.name.clone(),
                            tiers: (
                                pipeline.tier_count(Tier::High),
                                pipeline.tier_count(Tier::Medium),
                                pipeline.tier_count(Tier::Low),
                            ),
                            stats,
                            wall_ms,
                            error: None,
                        };
                        Slot {
                            pipeline: Some(pipeline),
                            outcome,
                        }
                    }
                    Err(error) => Slot {
                        pipeline: None,
                        outcome: error_outcome(&entry.name, error, wall_ms),
                    },
                };
                slots.lock().expect("batch slots poisoned")[i] = Some(slot);
            });
        }
    });

    let slots = slots.into_inner().expect("batch slots poisoned");
    let mut done: Vec<(usize, Slot)> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i, s.expect("every claimed entry completes")))
        .collect();
    done.sort_by(|a, b| entries[a.0].name.cmp(&entries[b.0].name));

    let merged: Vec<(&str, &PipelineReport, &Program)> = done
        .iter()
        .filter_map(|(i, s)| {
            let pipeline = s.pipeline.as_ref()?;
            let program = entries[*i]
                .program
                .as_ref()
                .expect("a pipeline report implies the program loaded");
            Some((entries[*i].name.as_str(), pipeline, program))
        })
        .collect();
    let errors: Vec<(&str, &O2Error)> = done
        .iter()
        .filter_map(|(i, s)| Some((entries[*i].name.as_str(), s.outcome.error.as_ref()?)))
        .collect();
    let json = o2_passes::corpus_json_with_errors(&merged, &errors);
    let sarif = o2_passes::corpus_sarif_with_errors(&merged, &errors);

    BatchReport {
        programs: done.into_iter().map(|(_, s)| s.outcome).collect(),
        json,
        sarif,
        store: store.stats(),
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
    }
}
