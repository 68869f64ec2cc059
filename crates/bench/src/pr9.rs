//! The PR 9 daemon-latency harness: cold vs warm request latency
//! against a live `o2 serve` instance, plus a sustained open-system
//! load row, written to `BENCH_pr9.json`.
//!
//! Per preset, the harness boots a fresh in-process server (real TCP on
//! a loopback port) and measures:
//!
//! - `cold_ms` — best-of-N first-request latency against an empty
//!   artifact pool (one fresh server per iteration; this is the row the
//!   `--regress` gate compares);
//! - `warm_p50_ms` — median of repeat requests for the digest-identical
//!   program (the rendered-report fast path);
//! - `edit_ms` — one request for a 1-function-edited variant, which
//!   misses the report cache but replays unchanged artifacts from the
//!   pool;
//! - `identical` — cold, warm, and edited responses byte-match the solo
//!   CLI oracle.
//!
//! The `serve-load` row drives the daemon with the `o2 loadgen`
//! open-system schedule (SplitMix64-seeded Poisson arrivals, Zipf
//! workload draws, response verification on) and reports analyses/sec
//! with cold/warm latency percentiles. The headline number — and the
//! PR 9 acceptance bar — is `warm_p50 < 0.5 × cold_p50` on at least two
//! presets with every response byte-identical.

use o2::serve::{solo_reports, spawn, Client, JsonValue, ServeState};
use o2::{LoadgenConfig, O2Builder, ServeOptions, O2};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Presets measured cold vs warm. Must stay in sync with the committed
/// `BENCH_pr9.json` baseline (the regress gate compares row names).
pub const PRESETS: [&str; 3] = ["avrora", "lusearch", "mega-smoke"];

/// Options for the PR 9 harness run.
#[derive(Clone, Debug)]
pub struct Pr9Options {
    /// Fresh-server repetitions for the cold cell (best-of-N).
    pub iters: usize,
    /// Warm repeat requests per preset (their p50 is the warm cell).
    pub warm_reps: usize,
    /// Total requests of the sustained-load row.
    pub load_requests: usize,
    /// Concurrent clients of the sustained-load row.
    pub load_clients: usize,
    /// Poisson arrival rate (requests/second) of the sustained-load row.
    pub load_rate: f64,
    /// Where to write the JSON report; `None` skips the write.
    pub out_path: Option<String>,
}

impl Default for Pr9Options {
    fn default() -> Self {
        Pr9Options {
            iters: 3,
            warm_reps: 9,
            load_requests: 48,
            load_clients: 4,
            load_rate: 40.0,
            out_path: Some("BENCH_pr9.json".to_string()),
        }
    }
}

/// One preset's cold/warm row.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// The preset driven through the daemon.
    pub preset: String,
    /// Best-of-N first-request latency against an empty pool (ms).
    pub cold_ms: f64,
    /// Median repeat-request latency (ms).
    pub warm_p50_ms: f64,
    /// Latency of one edited-variant request (report-cache miss,
    /// artifact-pool hit), in ms.
    pub edit_ms: f64,
    /// Artifacts the edited request replayed from the pool.
    pub edit_replays: u64,
    /// `warm_p50_ms / cold_ms`.
    pub warm_over_cold: f64,
    /// Cold, warm, and edited outputs byte-match the solo oracle.
    pub identical: bool,
}

/// The sustained open-system load row.
#[derive(Clone, Debug)]
pub struct LoadRow {
    /// Requests completed.
    pub requests: usize,
    /// Completed analyses per second of wall time.
    pub analyses_per_sec: f64,
    /// Cold p50 under load (ms) — the regress-gated cell.
    pub cold_p50_ms: f64,
    /// Warm p50 under load (ms).
    pub warm_p50_ms: f64,
    /// Warm p90 under load (ms).
    pub warm_p90_ms: f64,
    /// Warm p99 under load (ms).
    pub warm_p99_ms: f64,
    /// Responses answered warm.
    pub warm_responses: usize,
    /// Transport or protocol errors (must be 0).
    pub errors: usize,
    /// Responses differing from the solo oracle (must be 0).
    pub mismatches: usize,
}

/// The full harness result.
#[derive(Clone, Debug)]
pub struct Pr9Report {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// One row per preset.
    pub rows: Vec<ServeRow>,
    /// The sustained-load row.
    pub load: LoadRow,
}

fn p50(mut samples: Vec<f64>) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    samples[(samples.len() - 1) / 2]
}

fn timed_request(client: &mut Client, line: &str) -> (f64, BTreeMap<String, JsonValue>) {
    let t0 = Instant::now();
    let map = client.request(line).expect("daemon answers");
    (t0.elapsed().as_secs_f64() * 1e3, map)
}

fn output_of(map: &BTreeMap<String, JsonValue>) -> &str {
    map.get("output")
        .and_then(|v| v.as_str())
        .expect("analyze responses carry output")
}

fn preset_row(engine: &O2, preset: &str, opts: &Pr9Options) -> ServeRow {
    let w = o2_workloads::workload_by_name(preset).expect("preset resolves");
    let solo = solo_reports(engine, &w.program).expect("solo oracle");
    let edited_solo = {
        let (edited, _) = o2_workloads::single_function_edit(&w.program);
        solo_reports(engine, &edited).expect("solo oracle")
    };
    let line = format!("{{\"op\":\"analyze\",\"workload\":\"{preset}\"}}");
    let edit_line = format!("{{\"op\":\"analyze\",\"workload\":\"{preset}\",\"edit\":1}}");

    // Cold: a fresh server (empty pool, empty caches) per iteration.
    let mut cold_ms = f64::MAX;
    let mut identical = true;
    let mut last: Option<(o2::ServerHandle, Client)> = None;
    for _ in 0..opts.iters.max(1) {
        let state = Arc::new(ServeState::new(engine.clone()));
        let server = spawn("127.0.0.1:0", state, ServeOptions::default()).expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");
        let (ms, map) = timed_request(&mut client, &line);
        cold_ms = cold_ms.min(ms);
        identical &= output_of(&map) == solo.text;
        if let Some((old, _)) = last.replace((server, client)) {
            old.shutdown().expect("clean shutdown");
        }
    }
    let (server, mut client) = last.expect("at least one iteration");

    // Warm: repeats against the last server's now-hot caches.
    let mut warm = Vec::with_capacity(opts.warm_reps);
    for _ in 0..opts.warm_reps.max(1) {
        let (ms, map) = timed_request(&mut client, &line);
        identical &= map.get("digest_hit").and_then(|v| v.as_bool()) == Some(true)
            && output_of(&map) == solo.text;
        warm.push(ms);
    }
    let warm_p50_ms = p50(warm);

    // Edited variant: misses the report cache, replays from the pool.
    let (edit_ms, map) = timed_request(&mut client, &edit_line);
    let edit_replays = map.get("replays").and_then(|v| v.as_u64()).unwrap_or(0);
    identical &= output_of(&map) == edited_solo.text;
    server.shutdown().expect("clean shutdown");

    ServeRow {
        preset: preset.to_string(),
        cold_ms,
        warm_p50_ms,
        edit_ms,
        edit_replays,
        warm_over_cold: if cold_ms > 0.0 {
            warm_p50_ms / cold_ms
        } else {
            0.0
        },
        identical,
    }
}

fn load_row(engine: &O2, opts: &Pr9Options) -> LoadRow {
    let state = Arc::new(ServeState::new(engine.clone()));
    let server = spawn("127.0.0.1:0", state, ServeOptions::default()).expect("bind loopback");
    let config = LoadgenConfig {
        seed: 0x9_2026,
        clients: opts.load_clients,
        requests: opts.load_requests,
        rate: opts.load_rate,
        workloads: vec![
            "avrora".to_string(),
            "lusearch".to_string(),
            "realbug:ZooKeeper".to_string(),
        ],
        zipf_s: 1.0,
        edit_prob: 0.2,
        max_edit: 2,
        verify: true,
        shutdown: false,
        malformed_frac: 0.0,
    };
    let report =
        o2::run_loadgen(&server.addr().to_string(), engine, &config).expect("loadgen completes");
    server.shutdown().expect("clean shutdown");
    LoadRow {
        requests: report.requests,
        analyses_per_sec: report.analyses_per_sec,
        cold_p50_ms: report.cold.p50,
        warm_p50_ms: report.warm.p50,
        warm_p90_ms: report.warm.p90,
        warm_p99_ms: report.warm.p99,
        warm_responses: report.warm_responses,
        errors: report.errors,
        mismatches: report.mismatches,
    }
}

/// Runs the full harness and (optionally) writes `BENCH_pr9.json`.
pub fn run(opts: &Pr9Options) -> Pr9Report {
    let engine = O2Builder::new().build();
    let rows: Vec<ServeRow> = PRESETS
        .iter()
        .map(|preset| preset_row(&engine, preset, opts))
        .collect();
    let load = load_row(&engine, opts);
    let report = Pr9Report {
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rows,
        load,
    };
    if let Some(path) = &opts.out_path {
        std::fs::write(path, report.to_json()).expect("write BENCH_pr9.json");
    }
    report
}

impl Pr9Report {
    /// How many presets hit the acceptance bar (`warm p50 < 0.5 × cold`).
    pub fn presets_halved(&self) -> usize {
        self.rows.iter().filter(|r| r.warm_over_cold < 0.5).count()
    }

    /// `true` when every response byte-matched the solo oracle, the
    /// load row saw no errors or mismatches, and at least two presets
    /// answered warm in under half their cold latency.
    pub fn all_pass(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
            && self.load.errors == 0
            && self.load.mismatches == 0
            && self.presets_halved() >= 2
    }

    /// Serializes the report (hand-rolled JSON, stable schema; one row
    /// per line so the `--regress` gate can read `cold_ms`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"host_parallelism\": {},", self.host_parallelism);
        out.push_str("  \"rows\": [\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "    {{\"workload\": \"serve-{}\", \"cold_ms\": {:.3}, \
                 \"warm_p50_ms\": {:.3}, \"edit_ms\": {:.3}, \"edit_replays\": {}, \
                 \"warm_over_cold\": {:.4}, \"identical\": {}}},",
                r.preset,
                r.cold_ms,
                r.warm_p50_ms,
                r.edit_ms,
                r.edit_replays,
                r.warm_over_cold,
                r.identical,
            );
        }
        let l = &self.load;
        let _ = writeln!(
            out,
            "    {{\"workload\": \"serve-load\", \"cold_ms\": {:.3}, \
             \"warm_p50_ms\": {:.3}, \"warm_p90_ms\": {:.3}, \"warm_p99_ms\": {:.3}, \
             \"analyses_per_sec\": {:.3}, \"requests\": {}, \"warm_responses\": {}, \
             \"errors\": {}, \"mismatches\": {}}}",
            l.cold_p50_ms,
            l.warm_p50_ms,
            l.warm_p90_ms,
            l.warm_p99_ms,
            l.analyses_per_sec,
            l.requests,
            l.warm_responses,
            l.errors,
            l.mismatches,
        );
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"presets_halved\": {},", self.presets_halved());
        let _ = writeln!(out, "  \"all_pass\": {},", self.all_pass());
        let _ = writeln!(
            out,
            "  \"notes\": [\n    \"cold_ms is the first request against a fresh daemon \
             (empty pool); warm_p50_ms repeats the digest-identical request\",\n    \
             \"serve-load cold_ms is the cold p50 of the open-system loadgen run \
             (Poisson arrivals, latency from scheduled arrival)\",\n    \
             \"single-core hosts (host_parallelism {}) time queueing, not parallel \
             service; the schedule is identical either way\"\n  ]\n}}",
            self.host_parallelism
        );
        out
    }

    /// Renders the human-readable summary printed by the harness.
    pub fn render(&self) -> String {
        let mut out = String::from("## PR 9 resident daemon latency (o2 serve)\n\n");
        let _ = writeln!(out, "host_parallelism: {}\n", self.host_parallelism);
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>9} {:>8} {:>10} {:>10}",
            "preset", "cold", "warm-p50", "edit", "replays", "warm/cold", "identical"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<12} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>8} {:>9.3}x {:>10}",
                r.preset,
                r.cold_ms,
                r.warm_p50_ms,
                r.edit_ms,
                r.edit_replays,
                r.warm_over_cold,
                r.identical,
            );
        }
        let l = &self.load;
        let _ = writeln!(
            out,
            "\nload: {} requests, {:.1} analyses/sec, cold p50 {:.2} ms, \
             warm p50/p90/p99 {:.2}/{:.2}/{:.2} ms, {} warm, {} errors, {} mismatches",
            l.requests,
            l.analyses_per_sec,
            l.cold_p50_ms,
            l.warm_p50_ms,
            l.warm_p90_ms,
            l.warm_p99_ms,
            l.warm_responses,
            l.errors,
            l.mismatches,
        );
        let _ = writeln!(
            out,
            "\npresets halved: {}/{} | all_pass: {}",
            self.presets_halved(),
            self.rows.len(),
            self.all_pass()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_halves_warm_latency_and_stays_identical() {
        let report = run(&Pr9Options {
            iters: 1,
            warm_reps: 3,
            load_requests: 12,
            load_clients: 2,
            load_rate: 0.0,
            out_path: None,
        });
        assert_eq!(report.rows.len(), PRESETS.len());
        assert!(report.all_pass(), "{}", report.render());
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"serve-avrora\""), "{json}");
        assert!(json.contains("\"workload\": \"serve-load\""), "{json}");
        // The regress gate must see one cold row per preset + the load
        // row.
        assert_eq!(
            crate::pr6::cold_rows(&json).len(),
            PRESETS.len() + 1,
            "{json}"
        );
    }
}
