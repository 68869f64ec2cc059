//! `serve-edits`: an IDE/CI fleet talking to a resident daemon.
//!
//! The daemon is this binary re-executed with `--daemon`, which runs
//! `o2::serve::run` over `ServeState::new(O2::default())` exactly as
//! `o2 serve` does, in a child process so its peak RSS is its own.
//!
//! The generator is its own client, one thread on one connection: it
//! sends a Poisson schedule at a fixed offered rate (an open loop), times
//! from the scheduled send to the arrival of the response's newline, and
//! parses nothing inside that interval. Around each request it reads the
//! daemon's CPU time, which gives the cost of each verdict; the
//! daemon's CPU time over the whole loop gives its capacity.

use crate::check::{check_response, Json, Truth};
use crate::compose::{count_stages, traced_passes};
use crate::inputs::{edit_in_place, Input, Rng};
use crate::speed::{HostSpeed, Kernel};
use crate::stats::{self, metric};
use crate::trace::Tracer;
use crate::Outcome;
use o2::serve::ServeState;
use o2::O2;
use o2_analysis::run_osa_incremental;
use o2_db::{AnalysisDb, CachedReports, Digest, DigestHasher, SharedStore};
use o2_detect::{detect_incremental_budgeted, DetectConfig};
use o2_ir::{digest_program, parser, Budget, Program, ProgramCtx, ProgramDigests, ProgramId};
use o2_passes::AnalysisCtx;
use o2_pta::{CanonIndex, PtaConfig};
use o2_shb::{build_shb_incremental, ShbConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of the daemon on this workload, verdicts per second: its
/// verdicts per CPU second as measured (before scaling by host speed)
/// with the benchmark confined to one CPU, on a 2-vCPU host (`nproc=2`)
/// with the layout of `build.rs` when the workload was defined (10.1 to
/// 12.6 over its first seeds).
pub const CAPACITY: f64 = 11.0;
/// Offered load of the open-loop phase as a share of [`CAPACITY`]. The
/// one connection makes the open loop a single-server queue: at this
/// load about half the requests wait for the previous answer, and the
/// open loop, at whole decks, spans about `--seconds`.
pub const UTILISATION: f64 = 0.4;
/// Offered rate of the open-loop phase, requests per second.
pub const OFFERED_RATE: f64 = CAPACITY * UTILISATION;
/// Zipf exponent of the popularity of the ranks: the classic law, where
/// popularity falls as one over the rank.
const ZIPF_S: f64 = 1.0;
/// Requests per stratified deck (see [`schedule`]).
const DECK: usize = 48;
/// Seed of the arrival trace (see [`schedule`]).
const TRACE_SEED: u64 = 0x0A22_1FA1;
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Latency limit of the open loop's SLO share, in milliseconds.
const SLO_MS: f64 = 500.0;

/// Zipf ranks, most popular first, in the order the workload's
/// definition lists the bases. `*` is one rank for all the real-bug
/// models: its requests go to the models in turn.
const RANKS: [&str; 8] = [
    "avrora",
    "lusearch",
    "k9mail",
    "chrome",
    "hbase",
    "zookeeper",
    "mega-smoke",
    "*",
];

pub fn daemon_main() -> std::process::ExitCode {
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("daemon: cannot bind: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let mut out = std::io::stdout();
    let _ = writeln!(out, "listening {addr}");
    let _ = out.flush();
    // The CPU-time channel: one line on stdin asks for this process's CPU
    // time so far, answered as one line on stdout.
    std::thread::spawn(|| {
        let mut out = std::io::stdout();
        for line in std::io::stdin().lines() {
            if line.is_err() || writeln!(out, "{}", stats::cpu_ms()).is_err() {
                break;
            }
            let _ = out.flush();
        }
    });
    let state = ServeState::new(O2::default());
    match o2::serve::run(listener, &state, &o2::ServeOptions::default()) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daemon: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

/// A running daemon child; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    addr: String,
    /// The CPU-time channel (see [`daemon_main`]).
    ask: ChildStdin,
    answer: BufReader<ChildStdout>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start daemon: {e}"))?;
        let mut line = String::new();
        let ask = child.stdin.take().expect("stdin is piped");
        let mut answer = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = answer.read_line(&mut line);
        let addr = match (read, line.strip_prefix("listening ")) {
            (Ok(_), Some(a)) => a.trim().to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not report an address: {line:?}"));
            }
        };
        let d = Daemon {
            child,
            addr,
            ask,
            answer,
        };
        let mut c = connect(&d.addr)?;
        let mut buf = Vec::new();
        let (_, _, pong) = round_trip(&mut c, "{\"op\":\"ping\"}\n", &mut buf)
            .map_err(|e| format!("daemon ping: {e}"))?;
        if !pong.contains("\"ok\":true") {
            return Err(format!("daemon ping answered {pong}"));
        }
        Ok(d)
    }

    /// The daemon's CPU time so far, all threads, in milliseconds.
    fn cpu_ms(&mut self) -> Result<f64, String> {
        let mut line = String::new();
        self.ask
            .write_all(b"\n")
            .and_then(|()| self.ask.flush())
            .and_then(|()| self.answer.read_line(&mut line))
            .map_err(|e| format!("daemon CPU time: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("daemon CPU time: {line:?}"))
    }

    fn peak_rss_mb(&self) -> f64 {
        stats::peak_rss_mb(&self.child.id().to_string()).unwrap_or(f64::NAN)
    }

    /// Asks the daemon to exit and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let mut c = connect(&self.addr)?;
        let mut buf = Vec::new();
        round_trip(&mut c, "{\"op\":\"shutdown\"}\n", &mut buf)
            .map_err(|e| format!("daemon shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Err("daemon did not exit within 10 s of shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(READ_TIMEOUT));
    Ok(s)
}

/// Sends one newline-terminated request line and reads one response
/// line. The clock stops when the newline arrives; nothing is parsed
/// before that.
fn round_trip(
    s: &mut TcpStream,
    line: &str,
    buf: &mut Vec<u8>,
) -> std::io::Result<(Instant, Instant, String)> {
    let send = Instant::now();
    s.write_all(line.as_bytes())?;
    let mut chunk = [0u8; 65536];
    buf.clear();
    loop {
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let old = buf.len();
        buf.extend_from_slice(&chunk[..n]);
        if let Some(p) = buf[old..].iter().position(|&b| b == b'\n') {
            let done = Instant::now();
            let text = String::from_utf8_lossy(&buf[..old + p]).into_owned();
            return Ok((send, done, text));
        }
    }
}

fn request_line(source: &str) -> Arc<str> {
    format!(
        "{{\"op\":\"analyze\",\"format\":\"json\",\"source\":\"{}\"}}\n",
        o2::serve::json_escape(source)
    )
    .into()
}

/// One scheduled request.
#[derive(Clone)]
pub struct Req {
    /// Send time in seconds from the phase start (open loop only).
    at_s: f64,
    base: usize,
    fresh: bool,
    line: Arc<str>,
}

/// The request stream: a pure function of the seed and the bases.
pub struct Schedule {
    pub bases: Vec<Input>,
    open: Vec<Req>,
}

/// Requests per rank in one deck of [`DECK`] requests: Zipf weights
/// over the ranks, rounded by largest remainder so they sum to `DECK`.
fn deck_counts(n: usize) -> Vec<usize> {
    let w: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
    let total: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / total * DECK as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = DECK - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// The Zipf rank of a base: its place in [`RANKS`], or the last rank for
/// a real-bug model.
fn rank_of(name: &str) -> usize {
    RANKS
        .iter()
        .position(|&r| r == name)
        .unwrap_or(RANKS.len() - 1)
}

/// Builds the request stream. The Zipf popularity is stratified: every
/// consecutive [`DECK`] requests hold the same number of requests per
/// rank, and the real-bug models take the `*` rank's requests in turn,
/// smallest first. The arrival trace (the shuffled order of ranks and
/// the Poisson gaps) comes from [`TRACE_SEED`]; the workload seed
/// generates what is sent: the re-seeded bases, the edit sites and which
/// earlier program a repeat resends. Seeds thus vary the inputs but not
/// when a request of a given rank arrives, which keeps queueing noise out
/// of the comparison between seeds (common random numbers). A base's
/// first request sends it unedited; after that its requests alternate
/// between a fresh seeded edit and a repeat of a program already sent.
pub fn schedule(seed: u64, mut bases: Vec<Input>, seconds: f64) -> Schedule {
    bases.sort_by_key(|b| (rank_of(&b.name), b.source.len()));
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); RANKS.len()];
    for (i, b) in bases.iter().enumerate() {
        members[rank_of(&b.name)].push(i);
    }
    assert!(
        members.iter().all(|m| !m.is_empty()),
        "every rank has a base"
    );
    let mut rng = Rng::new(seed ^ 0x5E12_7E00);
    let mut trace = Rng::new(TRACE_SEED);
    let deck: Vec<usize> = deck_counts(RANKS.len())
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    let base_lines: Vec<Arc<str>> = bases.iter().map(|b| request_line(&b.source)).collect();
    // Generator-side copies of the bases. Each fresh edit duplicates one
    // access in the latest version of its base, so a base's versions
    // form an edit history and never run out.
    let mut current: Vec<Program> = bases
        .iter()
        .map(|b| parser::parse(&b.source).expect("printed bases parse"))
        .collect();
    let mut sent: Vec<Vec<Arc<str>>> = vec![Vec::new(); bases.len()];
    let mut drawn = vec![0usize; bases.len()];
    let mut turn = vec![0usize; RANKS.len()];
    let mut order: Vec<usize> = Vec::new();
    let mut next = |rng: &mut Rng, trace: &mut Rng, at_s: f64| -> Req {
        if order.is_empty() {
            order = deck.clone();
            trace.shuffle(&mut order);
        }
        let rank = order.pop().expect("deck is not empty");
        let base = members[rank][turn[rank] % members[rank].len()];
        turn[rank] += 1;
        drawn[base] += 1;
        let fresh = drawn[base] == 1 || drawn[base].is_multiple_of(2);
        let line = if !fresh {
            sent[base][rng.below(sent[base].len())].clone()
        } else if drawn[base] == 1 {
            base_lines[base].clone()
        } else {
            let edited = edit_in_place(&mut current[base], rng);
            assert!(edited, "every base has a memory access");
            request_line(&o2_ir::printer::print_program(&current[base]))
        };
        if fresh {
            sent[base].push(line.clone());
        }
        Req {
            at_s,
            base,
            fresh,
            line,
        }
    };
    let decks =
        |rate: f64, secs: f64| ((rate * secs / DECK as f64).round().max(1.0) as usize) * DECK;
    let n_open = decks(OFFERED_RATE, seconds);
    let mut t = 0.0;
    let mut open = Vec::with_capacity(n_open);
    for _ in 0..n_open {
        t += -(1.0 - trace.next_f64()).ln() / OFFERED_RATE;
        open.push(next(&mut rng, &mut trace, t));
    }
    Schedule { bases, open }
}

/// One answered (or failed) request.
struct Done {
    idx: usize,
    sched: Instant,
    send: Instant,
    done: Instant,
    /// The daemon's CPU time from just before the send to just after the
    /// response's newline arrived.
    cpu_ms: f64,
    /// Host speed samples taken before the send (see
    /// [`HostSpeed::factor_around`]).
    speed_k: usize,
    response: Result<String, String>,
}

/// Sends `reqs` over one connection, which stays open as an IDE's
/// would: request `i` is due at `start + at_s`, and one that falls due
/// while the previous is still out waits for it. Every request is sent.
/// Returns the answers and the daemon's CPU time over the whole phase.
/// The host's speed is sampled after each answer, before the next send,
/// and again in a gap of more than 5 ms before a send, so every request
/// lies between two samples close to it.
fn drive(
    daemon: &mut Daemon,
    reqs: &[Req],
    speed: &mut HostSpeed,
) -> Result<(Vec<Done>, f64), String> {
    let mut conn = connect(&daemon.addr);
    let mut buf = Vec::new();
    let cpu0 = daemon.cpu_ms()?;
    let start = Instant::now() + Duration::from_millis(20);
    let mut all = Vec::with_capacity(reqs.len());
    for (idx, req) in reqs.iter().enumerate() {
        let sched = start + Duration::from_secs_f64(req.at_s);
        if sched > Instant::now() + Duration::from_millis(5) {
            speed.sample();
        }
        if let Some(wait) = sched.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let speed_k = speed.len();
        let c0 = daemon.cpu_ms()?;
        let res = match conn.as_mut() {
            Ok(c) => round_trip(c, &req.line, &mut buf).map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        };
        let c1 = daemon.cpu_ms()?;
        speed.sample();
        let (send, done, response) = match res {
            Ok((s, d, text)) => (s, d, Ok(text)),
            Err(e) => {
                let now = Instant::now();
                // A broken connection is replaced for the next request.
                conn = connect(&daemon.addr);
                (now, now, Err(e))
            }
        };
        all.push(Done {
            idx,
            sched,
            send,
            done,
            cpu_ms: c1 - c0,
            speed_k,
            response,
        });
    }
    Ok((all, daemon.cpu_ms()? - cpu0))
}

/// A checked response: the parsed daemon answer, or why it failed.
fn verdict(d: &Done, truth: &Truth) -> Result<Json, String> {
    let line = d.response.as_ref().map_err(|e| format!("transport: {e}"))?;
    check_response(line, truth)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut notes = Vec::new();
    // Set-up: generate and print the bases and build the schedule; then
    // start the daemon and wait for its first answer. Each part is timed
    // SETUPS times on its own, in CPU time (the daemon's own included),
    // and setup_s is the sum of their medians; the last schedule and
    // daemon are kept. Each build is scaled by the host speed around it,
    // the daemon starts by the run's.
    const SETUPS: usize = 9;
    let mut speed = HostSpeed::new(Kernel::RequestParsing);
    speed.sample();
    let mut build_s = Vec::new();
    let mut scaled_build_s = Vec::new();
    let mut start_s = Vec::new();
    let mut sched = None;
    for _ in 0..SETUPS {
        let k = speed.len();
        let c0 = stats::cpu_ms();
        sched = Some(schedule(seed, crate::inputs::serve_bases(seed), seconds));
        let s = (stats::cpu_ms() - c0) / 1e3;
        speed.sample();
        build_s.push(s);
        scaled_build_s.push(s * speed.factor_around(k));
    }
    let sched = sched.expect("set-up ran");
    let mut daemon = None;
    for rep in 0..SETUPS {
        if let Some(d) = daemon.take() {
            if let Err(e) = Daemon::stop(d) {
                return Outcome::error(format!("set-up {rep}: {e}"));
            }
        }
        let c0 = stats::cpu_ms();
        let mut d = match Daemon::start() {
            Ok(d) => d,
            Err(e) => return Outcome::error(e),
        };
        let ours = stats::cpu_ms() - c0;
        match d.cpu_ms() {
            Ok(theirs) => start_s.push((ours + theirs) / 1e3),
            Err(e) => return Outcome::error(e),
        }
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("set-up ran");
    notes.push(format!(
        "set-up as measured: schedule build {:.4} s, daemon start {:.4} s (CPU time, medians of {SETUPS})",
        stats::median(&build_s),
        stats::median(&start_s)
    ));

    let (open, daemon_cpu_ms) = match drive(&mut daemon, &sched.open, &mut speed) {
        Ok(r) => r,
        Err(e) => return Outcome::error(e),
    };
    let peak_rss = daemon.peak_rss_mb();
    if let Err(e) = daemon.stop() {
        return Outcome::error(e);
    }

    let mut failures = Vec::new();
    let mut check = |d: &Done, reqs: &[Req]| -> Option<Json> {
        let base = &sched.bases[reqs[d.idx].base];
        verdict(d, &base.truth)
            .map_err(|e| failures.push(format!("request {} ({}): {e}", d.idx, base.name)))
            .ok()
    };
    let open_resp: Vec<Option<Json>> = open.iter().map(|d| check(d, &sched.open)).collect();
    let ok = open_resp.iter().filter(|r| r.is_some()).count();
    let attempted = open.len() as u64;
    let f = speed.factor();

    let lat: Vec<f64> = open.iter().map(|d| ms(d.done - d.sched)).collect();
    let late: Vec<f64> = open.iter().map(|d| ms(d.send - d.sched)).collect();
    let in_slo = open
        .iter()
        .zip(&open_resp)
        .filter(|(d, r)| r.is_some() && ms(d.done - d.sched) <= SLO_MS)
        .count();
    let lat_sorted = stats::sorted(lat);
    let tail = stats::tail(&lat_sorted);
    let queued = late.iter().filter(|&&l| l > 1.0).count();
    let late_tail = stats::tail(&stats::sorted(late));
    let fresh = sched.open.iter().filter(|r| r.fresh).count();
    let cpu = stats::sorted(open.iter().map(|d| d.cpu_ms).collect());
    let cpu_tail = stats::tail(&cpu);
    let scaled: Vec<f64> = open
        .iter()
        .map(|d| d.cpu_ms * speed.factor_around(d.speed_k))
        .collect();
    // The daemon's CPU time outside the requests' windows (idle ticks,
    // work after a response was sent) is scaled by the run's speed.
    let scaled_total_ms =
        scaled.iter().sum::<f64>() + (daemon_cpu_ms - cpu.iter().sum::<f64>()) * f;
    let scaled = stats::sorted(scaled);
    notes.push(format!(
        "open loop: {} requests at {OFFERED_RATE:.2} req/s offered ({UTILISATION} of {CAPACITY} verdicts/s) \
         over one connection, {fresh} fresh, {queued} waited over 1 ms for the previous answer",
        open.len()
    ));
    notes.push(speed.note());
    notes.push(format!(
        "as measured: daemon CPU time {:.1} ms over the open loop, {:.2} verdicts per CPU second, \
         CPU time p50 {:.3} ms, p{} {:.3} ms ({} requests)",
        daemon_cpu_ms,
        ok as f64 / (daemon_cpu_ms / 1e3),
        stats::percentile(&cpu, 50.0),
        cpu_tail.percentile,
        cpu_tail.value,
        cpu_tail.samples
    ));
    notes.push(format!(
        "wall clock from the scheduled send: latency p50 {:.3} ms, p{} {:.3} ms, {:.4} of requests \
         answered correctly within {SLO_MS} ms; generator lateness p{} = {:.3} ms",
        stats::percentile(&lat_sorted, 50.0),
        tail.percentile,
        tail.value,
        in_slo as f64 / open.len().max(1) as f64,
        late_tail.percentile,
        late_tail.value
    ));
    let mut out = Outcome::new(attempted, failures, notes);
    if !traced {
        out.metrics = vec![
            metric(
                "setup_s",
                stats::median(&scaled_build_s) + stats::median(&start_s) * f,
                "s",
            ),
            metric(
                "verdicts_per_cpu_s",
                ok as f64 / (scaled_total_ms / 1e3),
                "1/s",
            ),
            metric("cpu_ms_p50", stats::percentile(&scaled, 50.0), "ms"),
            metric("cpu_ms_tail", stats::tail(&scaled).value, "ms"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ];
        return out;
    }

    // Traced run: client round trips against the live daemon, then the
    // same lines replayed in-process through the daemon's public calls.
    let epoch = open.first().map_or_else(Instant::now, |d| d.sched);
    let mut t = Tracer::new(epoch);
    for d in &open {
        t.record("serve.rtt", d.send, d.done);
    }
    let wire: Vec<f64> = open
        .iter()
        .zip(&open_resp)
        .filter_map(|(d, r)| {
            let wall = r.as_ref()?.get("wall_ms")?.as_f64()?;
            Some(ms(d.done - d.send) - wall)
        })
        .collect();
    let hits = open_resp
        .iter()
        .filter(|r| {
            r.as_ref()
                .and_then(|j| j.get("digest_hit"))
                .and_then(Json::as_bool)
                == Some(true)
        })
        .count();
    // The composition and an untraced `ServeState::handle_line` get each
    // line in turn, so host drift cancels out of their comparison.
    let mut replay = Replay::new();
    let state = ServeState::new(O2::default());
    let mut mismatches = 0usize;
    let mut root_ms = 0.0;
    let mut handle_ms = 0.0;
    for (d, resp) in open.iter().zip(&open_resp) {
        let line = sched.open[d.idx].line.trim_end();
        let t0 = Instant::now();
        let composed = replay.request(&mut t, line);
        root_ms += ms(t0.elapsed());
        let composed = composed.map(|(resolved, json)| {
            if let Some(r) = resolved {
                replay.cold(&r);
            }
            json
        });
        let t0 = Instant::now();
        let (plain, _) = state.handle_line(line);
        handle_ms += ms(t0.elapsed());
        std::hint::black_box(plain);
        let daemon_out = resp
            .as_ref()
            .and_then(|j| j.get("output"))
            .and_then(Json::as_str);
        match (&composed, daemon_out) {
            (Ok(c), Some(o)) if c == o => {}
            _ => {
                mismatches += 1;
                out.notes.push(format!(
                    "request {}: composed output differs from the daemon's ({})",
                    d.idx,
                    composed
                        .as_ref()
                        .err()
                        .map_or("bytes differ", |e| e.as_str())
                ));
            }
        }
    }
    if mismatches > 0 {
        out.correct = false;
        out.failed += mismatches as u64;
    }
    out.notes.push(format!(
        "byte identity: {} of {} composed outputs equal the daemon's",
        open.len() - mismatches,
        open.len()
    ));
    let n = open.len().max(1) as f64;
    let selfs = t.self_ms();
    let layer_sum: f64 = selfs
        .iter()
        .filter(|(k, _)| !matches!(**k, "serve.rtt" | "serve.request"))
        .map(|(_, v)| v)
        .sum();
    out.metrics = crate::layer_metrics(&t, n);
    let (osa, shb, verdicts) = replay.store.pooled();
    out.set("db.pool_artifacts", (osa + shb + verdicts) as f64);
    out.set(
        "db.replay_frac",
        replay.replays / (replay.replays + replay.recomputes).max(1.0),
    );
    out.set(
        "incremental.warm_over_cold",
        replay.warm_ms / replay.cold_ms.max(1e-9),
    );
    out.set("serve.handle_ms", handle_ms / n);
    out.set("serve.wire_ms", stats::median(&wire));
    out.set("serve.report_hit_frac", hits as f64 / n);
    out.set("loadgen.late_ms_tail", late_tail.value);
    out.set("trace.overhead_frac", root_ms / handle_ms - 1.0);
    out.set("trace.coverage_frac", layer_sum / handle_ms);
    out.notes.push(format!(
        "per-layer times are self time per request over {} replayed requests; \
         layers sum to {:.3} ms/request against {:.3} ms/request for untraced handle_line",
        open.len(),
        layer_sum / n,
        handle_ms / n
    ));
    // Evidence for two known costs: request parsing that grows faster
    // than the line, and a store checkout that grows with the pool.
    let durations = |name: &str| -> Vec<f64> {
        t.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    let parse = durations("serve.request_parse");
    let sizes: Vec<usize> = open.iter().map(|d| sched.open[d.idx].line.len()).collect();
    let (small, large) = (sizes.iter().min(), sizes.iter().max());
    if let (Some(&small), Some(&large)) = (small, large) {
        let at = |len: usize| {
            let v: Vec<f64> = parse
                .iter()
                .zip(&sizes)
                .filter(|(_, &l)| l == len)
                .map(|(&ms, _)| ms)
                .collect();
            stats::median(&v)
        };
        out.notes.push(format!(
            "serve.request_parse: {:.3} ms for a {:.1} KB line, {:.3} ms for a {:.1} KB line",
            at(small),
            small as f64 / 1024.0,
            at(large),
            large as f64 / 1024.0
        ));
    }
    let checkout = durations("db.checkout");
    if checkout.len() >= 8 {
        let q = checkout.len() / 4;
        out.notes.push(format!(
            "db.checkout: {:.3} ms median over the first {q} checkouts, {:.3} ms over the last {q}",
            stats::median(&checkout[..q]),
            stats::median(&checkout[checkout.len() - q..])
        ));
    }
    out.trace = Some(t);
    out
}

struct Resolved {
    program: Program,
    digests: ProgramDigests,
}

/// The daemon's request path composed from public calls: request parse,
/// program resolution, report-cache lookup, store checkout, the
/// incremental stages, publish, passes and the three renders.
struct Replay {
    store: SharedStore,
    engine: O2,
    programs: HashMap<String, Arc<Resolved>>,
    reports: HashMap<Digest, Arc<CachedReports>>,
    next_id: u32,
    replays: f64,
    recomputes: f64,
    warm_ms: f64,
    cold_ms: f64,
}

impl Replay {
    fn new() -> Replay {
        let engine = O2::default();
        Replay {
            store: SharedStore::new(engine.config_sig()),
            engine,
            programs: HashMap::new(),
            reports: HashMap::new(),
            next_id: 1,
            replays: 0.0,
            recomputes: 0.0,
            warm_ms: 0.0,
            cold_ms: 0.0,
        }
    }

    /// Handles one request line under a `serve.request` root span. Returns
    /// the JSON report the daemon would put in `output`, and the program
    /// when the report was computed rather than served from the cache.
    fn request(
        &mut self,
        t: &mut Tracer,
        line: &str,
    ) -> Result<(Option<Arc<Resolved>>, String), String> {
        let root = t.begin("serve.request");
        let res = self.request_inner(t, line);
        t.end(root);
        res
    }

    /// Cold analysis of a program the warm path just analysed, for
    /// `incremental.warm_over_cold`. Runs outside every span and outside
    /// the time compared in `trace.overhead_frac`.
    fn cold(&mut self, resolved: &Resolved) {
        let t0 = Instant::now();
        let cold = self
            .engine
            .try_analyze(&resolved.program, &Budget::unlimited());
        self.cold_ms += ms(t0.elapsed());
        std::hint::black_box(cold.map(|r| r.num_races()).ok());
    }

    fn request_inner(
        &mut self,
        t: &mut Tracer,
        line: &str,
    ) -> Result<(Option<Arc<Resolved>>, String), String> {
        let map: BTreeMap<String, o2::serve::JsonValue> =
            t.span("serve.request_parse", || o2::serve::parse_flat_json(line))?;
        let src = map
            .get("source")
            .and_then(|v| v.as_str())
            .ok_or("request has no source")?;
        let mut h = DigestHasher::with_tag("o2.serve.src.v1");
        h.write_bytes(src.as_bytes());
        h.write_bool(false);
        h.write_u32(0);
        let d = h.finish();
        let key = format!("s\u{1}{:016x}{:016x}", d.0, d.1);
        let resolved = match self.programs.get(&key) {
            Some(r) => r.clone(),
            None => {
                let program = t
                    .span("ir.parse", || parser::parse(src))
                    .map_err(|e| format!("parse: {e}"))?;
                let issues = t.span("ir.validate", || o2_ir::validate::validate(&program));
                if let Some(issue) = issues.first() {
                    return Err(format!("invalid program: {issue}"));
                }
                let digests = t.span("ir.digest", || digest_program(&program));
                let r = Arc::new(Resolved { program, digests });
                self.programs.insert(key, r.clone());
                r
            }
        };
        if let Some(cached) = self.reports.get(&resolved.digests.program) {
            let json = cached.json.clone();
            t.span("serve.respond", || o2::serve::json_escape(&json));
            return Ok((None, json));
        }
        let program = &resolved.program;
        let ctx = ProgramCtx::new(ProgramId(self.next_id), "inline", program);
        self.next_id += 1;
        let mut db: AnalysisDb = t.span("db.checkout", || self.store.checkout());
        let budget = Budget::unlimited();
        let warm0 = Instant::now();
        let cfg_sig = self.engine.config_sig();
        if !db.compatible_with(cfg_sig) {
            db.clear_artifacts();
        }
        db.config_sig = cfg_sig;
        let pta = t
            .span("pta.solve", || {
                o2_pta::analyze_budgeted(&ctx, &PtaConfig::default(), &budget)
            })
            .map_err(|e| e.to_string())?;
        if pta.timed_out {
            return Err("pointer analysis hit its budget".into());
        }
        let canon = t.span("incremental.canon", || {
            CanonIndex::build(&ctx, &pta, &resolved.digests)
        });
        let mut osa = t.span("incremental.osa", || {
            run_osa_incremental(&ctx, &pta, &canon, &mut db, None)
        });
        let shb = t.span("incremental.shb", || {
            build_shb_incremental(
                &ctx,
                &pta,
                &ShbConfig::default(),
                &canon,
                &mut osa.result.locs,
                &mut db,
            )
        });
        let det = t
            .span("incremental.detect", || {
                detect_incremental_budgeted(
                    &ctx,
                    &pta,
                    &osa.result,
                    &shb.graph,
                    &DetectConfig::default(),
                    &canon,
                    &shb.fresh_base,
                    &mut db,
                    &budget,
                )
            })
            .map_err(|e| e.to_string())?;
        t.span("db.commit", || {
            if db.program_sig != resolved.digests.program {
                db.reports = None;
            }
            db.program_sig = resolved.digests.program;
            db.fn_digests = resolved.digests.fns.clone();
            db.closure_digests = resolved.digests.closures.clone();
            db.origin_sigs = pta
                .arena
                .origins()
                .map(|(o, _)| (canon.origin_digest(o), canon.origin_sig(o)))
                .collect();
        });
        self.warm_ms += ms(warm0.elapsed());
        self.replays += (osa.mis_replayed + shb.origins_replayed + det.candidates_replayed) as f64;
        self.recomputes +=
            (osa.mis_rescanned + shb.origins_walked + det.candidates_rechecked) as f64;
        t.span("db.publish", || self.store.publish(&db));
        count_stages(t, &pta, &osa.result, &shb.graph, &det.report);
        let actx = AnalysisCtx {
            program,
            pta: &pta,
            osa: &osa.result,
            shb: &shb.graph,
        };
        let pipeline = traced_passes(t, &actx, &det.report);
        let cached = t.span("passes.render", || {
            Arc::new(CachedReports {
                n_races: pipeline.races.len() as u64,
                text: pipeline.render(program),
                json: pipeline.to_json(program),
                sarif: pipeline.to_sarif(program),
            })
        });
        let json = cached.json.clone();
        self.reports.insert(resolved.digests.program, cached);
        t.span("serve.respond", || o2::serve::json_escape(&json));
        Ok((Some(resolved.clone()), json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bases() -> Vec<Input> {
        crate::inputs::serve_bases(7)
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(3, tiny_bases(), 5.0);
        let b = schedule(3, tiny_bases(), 5.0);
        let lines =
            |s: &Schedule| -> Vec<String> { s.open.iter().map(|r| r.line.to_string()).collect() };
        assert_eq!(lines(&a), lines(&b));
        let c = schedule(4, tiny_bases(), 5.0);
        assert_ne!(lines(&a), lines(&c));
        assert!(a.open.windows(2).all(|w| w[0].at_s <= w[1].at_s));
    }

    #[test]
    fn decks_follow_zipf_over_eight_ranks() {
        assert_eq!(deck_counts(RANKS.len()), [18, 9, 6, 4, 4, 3, 2, 2]);
        // The real-bug models share the last rank and take its requests
        // in turn.
        let s = schedule(3, tiny_bases(), 30.0);
        let models: std::collections::HashSet<usize> = s
            .open
            .iter()
            .filter(|r| rank_of(&s.bases[r.base].name) == RANKS.len() - 1)
            .map(|r| r.base)
            .collect();
        assert_eq!(models.len(), 2 * s.open.len() / DECK);
    }

    #[test]
    fn about_half_the_requests_repeat() {
        let s = schedule(11, tiny_bases(), 10.0);
        let all: Vec<&Req> = s.open.iter().collect();
        let repeats = all.iter().filter(|r| !r.fresh).count() as f64 / all.len() as f64;
        assert!((0.35..0.6).contains(&repeats), "{repeats}");
        // Every fresh request is a program not sent before.
        let mut seen = std::collections::HashSet::new();
        for r in all.iter().filter(|r| r.fresh) {
            assert!(seen.insert(r.line.clone()), "a fresh request repeats");
        }
    }

    #[test]
    fn request_lines_round_trip_through_the_wire_parser() {
        let s = schedule(5, tiny_bases(), 2.0);
        let line = s.open[0].line.trim_end();
        let map = o2::serve::parse_flat_json(line).unwrap();
        let src = map["source"].as_str().unwrap();
        assert!(parser::parse(src).is_ok());
        assert!(crate::check::parse_json(line).is_ok());
    }
}
