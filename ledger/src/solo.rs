//! `cold-paper` and `mega-origins`: one client asking for cold verdicts
//! in a closed loop over a seed-shuffled order of the workload's inputs.
//!
//! Only whole passes over the inputs are measured, so every program
//! weighs the same in every run.

use crate::check::check_report;
use crate::compose::{production_verdict, traced_verdict};
use crate::inputs::{Input, Rng};
use crate::speed::{HostSpeed, Kernel};
use crate::stats::{self, metric};
use crate::trace::Tracer;
use crate::Outcome;
use o2::O2;
use std::time::Instant;

struct Sample {
    /// Wall time of the verdict.
    ms: f64,
    /// CPU time the process spent on it, all threads.
    cpu_ms: f64,
    ok: bool,
}

/// One seed-shuffled pass over `inputs`. `verdict` returns the JSON
/// report; it is checked after the clock stops.
fn pass(
    inputs: &[Input],
    rng: &mut Rng,
    mut verdict: impl FnMut(&str) -> Result<String, String>,
    failures: &mut Vec<String>,
    out: &mut Vec<Sample>,
) {
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    rng.shuffle(&mut order);
    for i in order {
        let c0 = stats::cpu_ms();
        let t0 = Instant::now();
        let res = verdict(&inputs[i].source);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = stats::cpu_ms() - c0;
        let ok = match res.and_then(|json| check_report(&json, &inputs[i].truth)) {
            Ok(()) => true,
            Err(e) => {
                failures.push(format!("{}: {e}", inputs[i].name));
                false
            }
        };
        out.push(Sample { ms, cpu_ms, ok });
    }
}

pub fn run(make: fn(u64) -> Vec<Input>, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let engine = O2::default();
    let mut failures = Vec::new();
    let mut rng = Rng::new(seed ^ 0xC01D_0000);
    // Set-up: generate and print every input, then one warm-up pass of
    // verdicts. Done SETUPS times, each timed in CPU time and scaled by
    // the host speed around it; the median is reported.
    const SETUPS: usize = 5;
    let mut speed = HostSpeed::new(Kernel::Analyses);
    speed.sample();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let k = speed.len();
        let c0 = stats::cpu_ms();
        inputs = make(seed);
        let mut warm = Vec::new();
        let verdict = |src: &str| production_verdict(&engine, src);
        pass(&inputs, &mut rng, verdict, &mut failures, &mut warm);
        let s = (stats::cpu_ms() - c0) / 1e3;
        speed.sample();
        raw_setups.push(s);
        setups.push(s * speed.factor_around(k));
    }
    let mut notes = vec![format!("{} inputs per pass", inputs.len())];

    if !traced {
        let start = Instant::now();
        let mut samples = Vec::new();
        // Each pass's CPU times scaled by the host speed around the pass.
        let mut scaled = Vec::new();
        while start.elapsed().as_secs_f64() < seconds {
            let k = speed.len();
            let from = samples.len();
            let verdict = |src: &str| production_verdict(&engine, src);
            pass(&inputs, &mut rng, verdict, &mut failures, &mut samples);
            speed.sample();
            let f = speed.factor_around(k);
            scaled.extend(samples[from..].iter().map(|s| s.cpu_ms * f));
        }
        let wall = start.elapsed();
        let ok = samples.iter().filter(|s| s.ok).count();
        let cpu = stats::sorted(samples.iter().map(|s| s.cpu_ms).collect());
        let cpu_s = cpu.iter().sum::<f64>() / 1e3;
        let cpu_tail = stats::tail(&cpu);
        let scaled_s = scaled.iter().sum::<f64>() / 1e3;
        let scaled = stats::sorted(scaled);
        let lat = stats::sorted(samples.iter().map(|s| s.ms).collect());
        let tail = stats::tail(&lat);
        notes.push(format!(
            "{} verdicts in {} whole passes over {:.2} s; cpu_ms_tail is p{} of {} samples",
            samples.len(),
            samples.len() / inputs.len(),
            wall.as_secs_f64(),
            cpu_tail.percentile,
            cpu_tail.samples
        ));
        notes.push(speed.note());
        notes.push(format!(
            "as measured: {:.2} verdicts per CPU second, CPU time p50 {:.3} ms, p{} {:.3} ms, set-up {:.4} s",
            ok as f64 / cpu_s,
            stats::percentile(&cpu, 50.0),
            cpu_tail.percentile,
            cpu_tail.value,
            stats::median(&raw_setups)
        ));
        notes.push(format!(
            "wall clock: {:.2} verdicts/s, latency p50 {:.3} ms, p{} {:.3} ms",
            ok as f64 / wall.as_secs_f64(),
            stats::percentile(&lat, 50.0),
            tail.percentile,
            tail.value
        ));
        let attempted = (samples.len() + SETUPS * inputs.len()) as u64;
        let mut out = Outcome::new(attempted, failures, notes);
        out.metrics = vec![
            metric("setup_s", stats::median(&setups), "s"),
            metric("verdicts_per_cpu_s", ok as f64 / scaled_s, "1/s"),
            metric("cpu_ms_p50", stats::percentile(&scaled, 50.0), "ms"),
            metric("cpu_ms_tail", stats::tail(&scaled).value, "ms"),
            metric(
                "peak_rss_mb",
                stats::peak_rss_mb("self").unwrap_or(f64::NAN),
                "MB",
            ),
        ];
        return out;
    }

    // Traced run. First the byte-identity check of the composition, then
    // an untraced half and a traced half over the same inputs.
    let mut mismatches = 0;
    for input in &inputs {
        let mut scratch = Tracer::new(Instant::now());
        let prod = production_verdict(&engine, &input.source);
        let root = scratch.begin("verdict");
        let composed = traced_verdict(&mut scratch, &input.source);
        scratch.end(root);
        if prod.is_err() || prod != composed {
            mismatches += 1;
            failures.push(format!(
                "{}: traced composition differs from production",
                input.name
            ));
        }
    }
    notes.push(format!(
        "byte identity: {} of {} composed reports equal production",
        inputs.len() - mismatches,
        inputs.len()
    ));
    // Untraced and traced passes alternate, so host drift cancels out
    // of their comparison.
    let mut plain = Vec::new();
    let mut traced_samples = Vec::new();
    let mut t = Tracer::new(Instant::now());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let verdict = |src: &str| production_verdict(&engine, src);
        pass(&inputs, &mut rng, verdict, &mut failures, &mut plain);
        let verdict = |src: &str| {
            let root = t.begin("verdict");
            let r = traced_verdict(&mut t, src);
            t.end(root);
            r
        };
        pass(
            &inputs,
            &mut rng,
            verdict,
            &mut failures,
            &mut traced_samples,
        );
    }
    let mean = |v: &[Sample]| v.iter().map(|s| s.ms).sum::<f64>() / v.len().max(1) as f64;
    let plain_mean = mean(&plain);
    let traced_mean = mean(&traced_samples);
    let n = traced_samples.len() as f64;
    let layer_sum: f64 = t
        .self_ms()
        .iter()
        .filter(|(k, _)| **k != "verdict")
        .map(|(_, v)| v)
        .sum::<f64>()
        / n;
    let plain_p50 = stats::median(&plain.iter().map(|s| s.ms).collect::<Vec<_>>());
    notes.push(format!(
        "per-layer times are self time per verdict over {} traced verdicts; layers sum to \
         {layer_sum:.3} ms/verdict against an untraced mean of {plain_mean:.3} ms \
         (untraced p50 {plain_p50:.3} ms, traced mean {traced_mean:.3} ms)",
        traced_samples.len()
    ));
    let attempted = (plain.len() + traced_samples.len() + (SETUPS + 1) * inputs.len()) as u64;
    let mut out = Outcome::new(attempted, failures, notes);
    out.metrics = crate::layer_metrics(&t, n);
    out.set("trace.overhead_frac", traced_mean / plain_mean - 1.0);
    out.set("trace.coverage_frac", layer_sum / plain_mean);
    out.trace = Some(t);
    out
}
