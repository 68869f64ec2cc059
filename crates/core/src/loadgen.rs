//! Deterministic open-system load generation for `o2 serve`.
//!
//! `o2 loadgen <addr>` drives a running daemon with a pre-generated,
//! seeded request schedule and reports throughput and latency
//! percentiles split cold vs. warm. The schedule is an *open system*
//! (ROADMAP item 2): arrivals are Poisson — exponential inter-arrival
//! times at a target rate — and each arrival draws its workload from a
//! Zipf distribution over the configured specs, with a coin flip for
//! "analyze an edited variant" (which exercises artifact-level warm
//! replay instead of the whole-report digest hit).
//!
//! Latency is measured from each request's *scheduled* arrival time,
//! not from when the client got around to sending it, so a server that
//! falls behind accumulates queueing delay in the numbers instead of
//! silently stretching the schedule (the coordinated-omission trap).
//! With `rate = 0` the driver degrades to a closed loop — each client
//! sends back-to-back — and latency is measured from the send instant.
//!
//! Everything random flows from one [`SplitMix64`] stream seeded by
//! [`LoadgenConfig::seed`]: same seed, same schedule, byte-for-byte.
//! With [`LoadgenConfig::verify`] set, every response's `output` field
//! is compared against a locally computed solo-CLI oracle
//! ([`crate::serve::solo_reports`]) — sharing changes how fast the
//! daemon answers, never what it answers.

use crate::serve::{json_escape, solo_reports, Client, JsonValue};
use crate::O2;
use o2_db::FastMap;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Randomness.
// ---------------------------------------------------------------------

/// The SplitMix64 generator: tiny, seedable, and plenty for load
/// scheduling (this is a driver, not a cryptosystem).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential draw with rate `lambda` (mean `1/lambda`).
    pub fn next_exp(&mut self, lambda: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / lambda
    }
}

/// A Zipf sampler over ranks `0..n`: rank `r` has weight
/// `1/(r+1)^s`. With `s = 0` it degrades to uniform.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draws a rank in `0..n`.
    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

// ---------------------------------------------------------------------
// Latency accounting.
// ---------------------------------------------------------------------

/// Percentile summary of one latency population, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencyStats {
    /// Summarizes `samples` (milliseconds). Percentiles use the
    /// nearest-rank method; an empty population yields all zeros.
    pub fn from_ms(mut samples: Vec<f64>) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let n = samples.len();
        let pct = |p: f64| -> f64 {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            samples[rank.clamp(1, n) - 1]
        };
        LatencyStats {
            n,
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
            mean: samples.iter().sum::<f64>() / n as f64,
            min: samples[0],
            max: samples[n - 1],
        }
    }
}

// ---------------------------------------------------------------------
// Configuration and schedule.
// ---------------------------------------------------------------------

/// Knobs of one loadgen run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Seed of the one RNG stream everything draws from.
    pub seed: u64,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Target arrival rate in requests/second across the whole run
    /// (Poisson). `0` = closed loop: each client sends back-to-back.
    pub rate: f64,
    /// Workload specs drawn from (Zipf by list position).
    pub workloads: Vec<String>,
    /// Zipf exponent over `workloads` (0 = uniform).
    pub zipf_s: f64,
    /// Probability a request analyzes an edited variant.
    pub edit_prob: f64,
    /// Edited requests draw an edit depth in `1..=max_edit`.
    pub max_edit: u32,
    /// Byte-compare every response against the local solo oracle.
    pub verify: bool,
    /// Send a `shutdown` request after the run.
    pub shutdown: bool,
    /// Probability a scheduled request is replaced by an injected
    /// malformed one (broken inline source, unknown workload, unknown
    /// op, or a non-JSON line). The daemon must answer each with a
    /// structured `"ok":false` line and keep the connection alive;
    /// anything else counts as an error.
    pub malformed_frac: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 0xa11ce,
            clients: 4,
            requests: 64,
            rate: 0.0,
            workloads: vec!["avrora".to_string(), "lusearch".to_string()],
            zipf_s: 1.0,
            edit_prob: 0.25,
            max_edit: 2,
            verify: false,
            shutdown: false,
            malformed_frac: 0.0,
        }
    }
}

struct Scheduled {
    /// Seconds after t0 this request is due (0 in closed-loop mode).
    arrival_s: f64,
    /// The request line to send.
    line: String,
    /// Oracle key: `spec#edit` (empty for injected malformed requests,
    /// which the oracle skips).
    key: String,
    /// Which client connection carries it.
    client: usize,
    /// Injected malformed request: the expected outcome is a structured
    /// error response, not a report.
    expect_err: bool,
}

/// One response's accounting.
struct Sample {
    ms: f64,
    warm: bool,
    ok: bool,
    matched: bool,
    /// Mirrors [`Scheduled::expect_err`].
    injected: bool,
    /// The daemon answered a parseable response line (as opposed to a
    /// transport failure or closed connection).
    answered: bool,
}

/// What one loadgen run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests sent.
    pub requests: usize,
    /// Responses with `"ok":false` (or transport failures).
    pub errors: usize,
    /// Responses whose `output` differed from the solo oracle (always 0
    /// unless [`LoadgenConfig::verify`] was set — and must be 0 then).
    pub mismatches: usize,
    /// Responses answered warm (`digest_hit` or ≥ 1 artifact replay).
    pub warm_responses: usize,
    /// Injected malformed requests sent (`malformed_frac` > 0).
    pub malformed: usize,
    /// Injected requests the daemon answered with a structured
    /// `"ok":false` line on a surviving connection (the expected
    /// outcome; anything else counts in `errors`).
    pub malformed_ok: usize,
    /// Wall time of the whole run.
    pub wall_ms: f64,
    /// Completed analyses per second of wall time.
    pub analyses_per_sec: f64,
    /// Latency of cold responses.
    pub cold: LatencyStats,
    /// Latency of warm responses.
    pub warm: LatencyStats,
    /// Latency of all responses.
    pub all: LatencyStats,
    /// Latency of answered injected-error responses.
    pub err: LatencyStats,
}

impl LoadgenReport {
    /// The human-readable summary `o2 loadgen` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} requests in {:.1} ms ({:.1} analyses/sec), \
             {} warm, {} errors, {} mismatches",
            self.requests,
            self.wall_ms,
            self.analyses_per_sec,
            self.warm_responses,
            self.errors,
            self.mismatches,
        );
        if self.malformed > 0 {
            let _ = writeln!(
                out,
                "error injection: {} malformed sent, {} answered with a \
                 structured error ({:.1}% error rate by design)",
                self.malformed,
                self.malformed_ok,
                100.0 * self.malformed as f64 / self.requests.max(1) as f64,
            );
        }
        let row = |name: &str, s: &LatencyStats| {
            format!(
                "{name:<6} n={:<5} p50={:>8.2}ms p90={:>8.2}ms p99={:>8.2}ms mean={:>8.2}ms",
                s.n, s.p50, s.p90, s.p99, s.mean
            )
        };
        let _ = writeln!(out, "{}", row("cold", &self.cold));
        let _ = writeln!(out, "{}", row("warm", &self.warm));
        let _ = writeln!(out, "{}", row("all", &self.all));
        if self.malformed > 0 {
            let _ = writeln!(out, "{}", row("err", &self.err));
        }
        out
    }
}

/// Generates the full request schedule for `config`. Exposed so the
/// PR 9 bench can reuse the exact CLI schedule shape.
fn build_schedule(config: &LoadgenConfig) -> Result<Vec<Scheduled>, String> {
    if config.workloads.is_empty() {
        return Err("loadgen needs at least one workload".to_string());
    }
    // Resolve every spec up front: unknown names fail fast, and specs
    // without an editable memory access never draw an edit (the server
    // would answer a structured error).
    let mut editable = Vec::with_capacity(config.workloads.len());
    for spec in &config.workloads {
        let w = o2_workloads::workload_by_name(spec)
            .ok_or_else(|| format!("unknown workload {spec:?}"))?;
        editable.push(crate::serve::has_memory_access(&w.program));
    }
    let mut rng = SplitMix64::new(config.seed);
    let zipf = Zipf::new(config.workloads.len(), config.zipf_s);
    let mut schedule = Vec::with_capacity(config.requests);
    let mut clock = 0.0f64;
    for i in 0..config.requests {
        if config.rate > 0.0 {
            clock += rng.next_exp(config.rate);
        }
        if config.malformed_frac > 0.0 && rng.next_f64() < config.malformed_frac {
            // Injected error request. Four rotating shapes, all of which
            // the daemon must answer with a structured `"ok":false` line
            // (never an empty line — the server skips those, so the
            // client would hang waiting for a response).
            let line = match rng.next_u64() % 4 {
                0 => "{\"op\":\"analyze\",\"source\":\"class Broken {\"}".to_string(),
                1 => "{\"op\":\"analyze\",\"workload\":\"no-such-workload\"}".to_string(),
                2 => "{\"op\":\"frobnicate\"}".to_string(),
                _ => "this is not json".to_string(),
            };
            schedule.push(Scheduled {
                arrival_s: clock,
                line,
                key: String::new(),
                client: i % config.clients.max(1),
                expect_err: true,
            });
            continue;
        }
        let w = zipf.draw(&mut rng);
        let spec = &config.workloads[w];
        let edit = if editable[w] && config.max_edit > 0 && rng.next_f64() < config.edit_prob {
            1 + (rng.next_u64() % config.max_edit as u64) as u32
        } else {
            0
        };
        let mut line = format!(
            "{{\"op\":\"analyze\",\"workload\":\"{}\"",
            json_escape(spec)
        );
        if edit > 0 {
            use std::fmt::Write as _;
            let _ = write!(line, ",\"edit\":{edit}");
        }
        line.push('}');
        schedule.push(Scheduled {
            arrival_s: clock,
            line,
            key: format!("{spec}#{edit}"),
            client: i % config.clients.max(1),
            expect_err: false,
        });
    }
    Ok(schedule)
}

/// Computes the solo-CLI oracle for every distinct `(spec, edit)` the
/// schedule draws. Cold-runs each one locally, so this happens before
/// the clock starts.
fn build_oracle(engine: &O2, schedule: &[Scheduled]) -> Result<FastMap<String, String>, String> {
    let mut oracle: FastMap<String, String> = FastMap::default();
    for s in schedule {
        if s.expect_err || oracle.contains_key(&s.key) {
            continue;
        }
        let (spec, edit) = s.key.rsplit_once('#').expect("oracle keys are spec#edit");
        let edit: u32 = edit.parse().expect("edit depth is numeric");
        let w = o2_workloads::workload_by_name(spec)
            .ok_or_else(|| format!("unknown workload {spec:?}"))?;
        let mut program = w.program;
        for _ in 0..edit {
            program = o2_workloads::single_function_edit(&program).0;
        }
        let solo = solo_reports(engine, &program).map_err(|e| format!("oracle {spec}: {e}"))?;
        oracle.insert(s.key.clone(), solo.text);
    }
    Ok(oracle)
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

fn classify(map: &BTreeMap<String, JsonValue>) -> (bool, bool) {
    let ok = map.get("ok").and_then(|v| v.as_bool()).unwrap_or(false);
    let warm = map
        .get("digest_hit")
        .and_then(|v| v.as_bool())
        .unwrap_or(false)
        || map.get("replays").and_then(|v| v.as_u64()).unwrap_or(0) > 0;
    (ok, warm)
}

/// Runs the configured load against a daemon at `addr` and gathers the
/// latency report. `engine` must match the daemon's configuration when
/// [`LoadgenConfig::verify`] is set (it computes the solo oracle).
pub fn run_loadgen(
    addr: &str,
    engine: &O2,
    config: &LoadgenConfig,
) -> Result<LoadgenReport, String> {
    let schedule = build_schedule(config)?;
    let oracle = if config.verify {
        Some(build_oracle(engine, &schedule)?)
    } else {
        None
    };
    let clients = config.clients.max(1);
    // Partition by client, preserving arrival order within each.
    let mut per_client: Vec<Vec<&Scheduled>> = (0..clients).map(|_| Vec::new()).collect();
    for s in &schedule {
        per_client[s.client].push(s);
    }
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(schedule.len()));
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for mine in &per_client {
            let samples = &samples;
            let failure = &failure;
            let oracle = oracle.as_ref();
            scope.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        *failure.lock().expect("loadgen failure slot poisoned") =
                            Some(format!("connect {addr}: {e}"));
                        return;
                    }
                };
                let mut local = Vec::with_capacity(mine.len());
                for s in mine {
                    let due = t0 + Duration::from_secs_f64(s.arrival_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    // Open system: latency from the scheduled arrival.
                    // Closed loop (rate 0): from the send instant.
                    let base = if config.rate > 0.0 {
                        due
                    } else {
                        Instant::now()
                    };
                    match client.request(&s.line) {
                        Ok(map) => {
                            let ms = base.elapsed().as_secs_f64() * 1e3;
                            let (ok, warm) = classify(&map);
                            let matched = match oracle {
                                None => true,
                                Some(_) if s.expect_err => true,
                                Some(o) => {
                                    map.get("output").and_then(|v| v.as_str())
                                        == o.get(&s.key).map(|s| s.as_str())
                                }
                            };
                            local.push(Sample {
                                ms,
                                warm,
                                ok,
                                matched,
                                injected: s.expect_err,
                                answered: true,
                            });
                        }
                        Err(e) => {
                            let ms = base.elapsed().as_secs_f64() * 1e3;
                            local.push(Sample {
                                ms,
                                warm: false,
                                ok: false,
                                matched: true,
                                injected: s.expect_err,
                                answered: false,
                            });
                            let _ = e;
                        }
                    }
                }
                samples
                    .lock()
                    .expect("loadgen samples poisoned")
                    .extend(local);
            });
        }
    });
    if let Some(err) = failure.into_inner().expect("loadgen failure slot poisoned") {
        return Err(err);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if config.shutdown {
        let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = c.send_line("{\"op\":\"shutdown\"}");
    }
    let samples = samples.into_inner().expect("loadgen samples poisoned");
    let malformed = samples.iter().filter(|s| s.injected).count();
    // An injected request succeeds when the daemon answered a structured
    // `"ok":false` line; a transport failure or an `"ok":true` answer to
    // garbage both count as errors.
    let malformed_ok = samples
        .iter()
        .filter(|s| s.injected && s.answered && !s.ok)
        .count();
    let errors =
        samples.iter().filter(|s| !s.injected && !s.ok).count() + (malformed - malformed_ok);
    let mismatches = samples.iter().filter(|s| !s.matched).count();
    let warm_responses = samples.iter().filter(|s| s.ok && s.warm).count();
    let cold_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok && !s.warm)
        .map(|s| s.ms)
        .collect();
    let warm_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok && s.warm)
        .map(|s| s.ms)
        .collect();
    let all_ms: Vec<f64> = samples.iter().filter(|s| s.ok).map(|s| s.ms).collect();
    let err_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.injected && s.answered)
        .map(|s| s.ms)
        .collect();
    let completed = all_ms.len();
    Ok(LoadgenReport {
        requests: samples.len(),
        errors,
        mismatches,
        warm_responses,
        malformed,
        malformed_ok,
        wall_ms,
        analyses_per_sec: if wall_ms > 0.0 {
            completed as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        cold: LatencyStats::from_ms(cold_ms),
        warm: LatencyStats::from_ms(warm_ms),
        all: LatencyStats::from_ms(all_ms),
        err: LatencyStats::from_ms(err_ms),
    })
}

// ---------------------------------------------------------------------
// Smoke mode.
// ---------------------------------------------------------------------

/// The CI smoke (`o2 loadgen <addr> --smoke`): one cold request, one
/// warm repeat, both byte-compared against the local solo oracle, plus
/// a stats round-trip and an error-plane probe (a non-JSON line and a
/// `deadline_ms: 0` request must both answer structured errors without
/// killing the connection). `engine` must match the daemon's
/// configuration. Returns a one-line summary, or the first discrepancy
/// as an error.
pub fn run_smoke(addr: &str, engine: &O2, shutdown: bool) -> Result<String, String> {
    let spec = "realbug:ZooKeeper";
    let w = o2_workloads::workload_by_name(spec).expect("smoke workload exists");
    let solo = solo_reports(engine, &w.program).map_err(|e| format!("oracle {spec}: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let ping = client.request("{\"op\":\"ping\"}")?;
    if ping.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        return Err("ping failed".to_string());
    }
    let line = format!("{{\"op\":\"analyze\",\"workload\":\"{spec}\"}}");
    let t = Instant::now();
    let cold = client.request(&line)?;
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    if cold.get("output").and_then(|v| v.as_str()) != Some(solo.text.as_str()) {
        return Err("cold response differs from solo CLI output".to_string());
    }
    let t = Instant::now();
    let warm = client.request(&line)?;
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    if warm.get("digest_hit").and_then(|v| v.as_bool()) != Some(true) {
        return Err("warm repeat did not report a digest hit".to_string());
    }
    if warm.get("output").and_then(|v| v.as_str()) != Some(solo.text.as_str()) {
        return Err("warm response differs from solo CLI output".to_string());
    }
    let stats = client.request("{\"op\":\"stats\"}")?;
    if stats
        .get("report_hits")
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
        < 1
    {
        return Err("stats did not count the report hit".to_string());
    }
    // Error plane: garbage must come back as a structured error on the
    // same connection, not a panic or a dropped socket.
    let bad = client.request("this is not json")?;
    if bad.get("ok").and_then(|v| v.as_bool()) != Some(false) {
        return Err("malformed line was not answered with ok:false".to_string());
    }
    // A zero deadline must be rejected at admission with stage=timeout —
    // even though this workload's report is already cached.
    let timed = client.request(&format!(
        "{{\"op\":\"analyze\",\"workload\":\"{spec}\",\"deadline_ms\":0}}"
    ))?;
    if timed.get("stage").and_then(|v| v.as_str()) != Some("timeout") {
        return Err("deadline_ms=0 request did not answer stage=timeout".to_string());
    }
    // And the daemon keeps serving afterwards.
    let after = client.request(&line)?;
    if after.get("output").and_then(|v| v.as_str()) != Some(solo.text.as_str()) {
        return Err("post-error response differs from solo CLI output".to_string());
    }
    if shutdown {
        let _ = client.send_line("{\"op\":\"shutdown\"}");
    }
    Ok(format!(
        "smoke ok: {spec} cold {cold_ms:.1} ms, warm {warm_ms:.1} ms (digest hit), \
         outputs byte-identical to solo, error plane answers structured errors"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mean: f64 = (0..1000).map(|_| a.next_f64()).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = SplitMix64::new(7);
        let zipf = Zipf::new(4, 1.0);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[zipf.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] > counts[3], "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let s = LatencyStats::from_ms((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(LatencyStats::from_ms(vec![]).n, 0);
    }

    #[test]
    fn schedules_are_deterministic_and_monotone() {
        let config = LoadgenConfig {
            requests: 32,
            rate: 50.0,
            workloads: vec!["realbug:ZooKeeper".to_string(), "avrora".to_string()],
            ..LoadgenConfig::default()
        };
        let a = build_schedule(&config).unwrap();
        let b = build_schedule(&config).unwrap();
        assert_eq!(a.len(), 32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.line, y.line);
            assert_eq!(x.arrival_s, y.arrival_s);
        }
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.iter().any(|s| s.line.contains("\"edit\":")));
    }

    #[test]
    fn malformed_injection_is_deterministic_and_never_blank() {
        let config = LoadgenConfig {
            requests: 64,
            malformed_frac: 0.5,
            ..LoadgenConfig::default()
        };
        let a = build_schedule(&config).unwrap();
        let b = build_schedule(&config).unwrap();
        let injected: Vec<_> = a.iter().filter(|s| s.expect_err).collect();
        assert!(!injected.is_empty(), "frac 0.5 over 64 requests injects");
        assert!(injected.len() < 64, "not every request is malformed");
        // Injected lines are keyless (oracle skips them) and never empty
        // (the server skips blank lines, which would hang the client).
        assert!(injected.iter().all(|s| s.key.is_empty()));
        assert!(injected.iter().all(|s| !s.line.trim().is_empty()));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.line, y.line);
            assert_eq!(x.expect_err, y.expect_err);
        }
    }

    #[test]
    fn schedules_reject_unknown_workloads() {
        let config = LoadgenConfig {
            workloads: vec!["nonsense".to_string()],
            ..LoadgenConfig::default()
        };
        assert!(build_schedule(&config).is_err());
    }
}
