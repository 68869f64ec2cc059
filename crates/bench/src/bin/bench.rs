//! Std-only bench harness: runs every measurement of [`o2_bench::gate`]
//! and writes the gated report.
//!
//! ```text
//! bench [--iters N] [--out PATH]
//! bench --regress BASELINE.json CURRENT.json
//! ```
//!
//! Without `--regress`, times every section best-of-N (N = `--iters`,
//! default 3), prints one line per row, writes the JSON report to PATH
//! (default `BENCH_gate.json`), and exits 1 if any oracle field of the
//! report is false.
//!
//! `--regress` matches the gated `cold_ms` rows of two reports by name
//! and exits 1 if a BASELINE row is missing from CURRENT or is more than
//! 25% (and more than an absolute 5 ms) slower there — the CI gate run
//! by `scripts/verify.sh` against the committed `BENCH_gate.json`.

use o2_bench::gate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iters = 3usize;
    let mut out = "BENCH_gate.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--regress" => {
                let baseline = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                let current = args.get(i + 2).cloned().unwrap_or_else(|| usage());
                regress(&baseline, &current);
                return;
            }
            "--iters" => {
                i += 1;
                iters = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    let report = gate::run(iters);
    print!("{}", report.render());
    let json = report.to_json();
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
    let failures = report.oracle_failures();
    if !failures.is_empty() {
        eprintln!("bench: {} oracle(s) failed", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench [--iters N] [--out PATH]\n       \
         bench --regress BASELINE.json CURRENT.json"
    );
    std::process::exit(2);
}

/// The CI regression gate: compares the gated rows of two reports by
/// name and exits 1 on a missing row or a >25% (and >5 ms) slow-down.
fn regress(baseline: &str, current: &str) {
    let read =
        |path: &str| std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let (compared, failures) = gate::regression_failures(&read(baseline), &read(current));
    if failures.is_empty() {
        println!("regress {baseline} vs {current}: ok ({compared} cold rows compared)");
    } else {
        eprintln!("regress {baseline} vs {current}: FAIL ({compared} cold rows compared)");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
