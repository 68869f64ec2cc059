#!/usr/bin/env sh
# Full offline verification: formatting, release build, complete test
# suite (which diffs the checked-in golden JSON/SARIF reports under
# tests/golden/), lints (including the panic-budget lint over non-test
# crate code), and the gated bench report (BENCH_gate.json at the repo
# root).
#
# `bench` regenerates the report and fails the script if any oracle field
# in it is false. Its `cold_ms` rows are then gated against the
# *committed* BENCH_gate.json: `bench --regress` fails the script if a
# committed row is missing or got more than 25% (and more than an
# absolute 5 ms) slower. The committed baseline is snapshotted to a temp
# dir before the bench runs, so the gate always compares against what
# was last checked in.
#
# The workspace has no external dependencies, so every step runs with
# --offline and must succeed without network access.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Panic-budget lint (DESIGN §15): grep-count unwrap()/expect(/panic!(
# in non-test crate code — src files outside the bench harness, with
# everything from the first #[cfg(test)] to EOF stripped. The ceiling is
# the audited baseline of internal-invariant panics (poisoned mutexes,
# parser token bookkeeping, "unlimited budget cannot trip"); anything
# above it means a new panic crept into code reachable from a request,
# which the typed error plane forbids. Lower the ceiling when you remove
# panics; never raise it without an audit.
panic_budget=179
echo "==> panic-budget lint (ceiling $panic_budget)"
panic_count=$(for f in $(find crates -name '*.rs' -path '*/src/*' \
        ! -path 'crates/bench/*' ! -name '*tests*' | sort); do
    awk '/#!?\[cfg\(test\)\]/{exit} {print}' "$f"
done | grep -c -E '\.unwrap\(\)|\.expect\(|panic!\(' || true)
echo "panic sites in non-test crate code: $panic_count"
if [ "$panic_count" -gt "$panic_budget" ]; then
    echo "panic-budget lint: $panic_count sites exceed the ceiling of $panic_budget" >&2
    echo "new code must return O2Error instead of panicking (DESIGN §15)" >&2
    exit 1
fi

# Snapshot the committed baseline before the bench overwrites it.
baseline_dir=$(mktemp -d)
trap 'rm -rf "$baseline_dir"' EXIT
if [ -f BENCH_gate.json ]; then cp BENCH_gate.json "$baseline_dir/BENCH_gate.json"; fi

echo "==> bench (writes BENCH_gate.json; fails on any false oracle)"
cargo run --release --offline -p o2-bench --bin bench

echo "==> cold end-to-end regression gate (vs committed baseline)"
if [ -f "$baseline_dir/BENCH_gate.json" ]; then
    cargo run --release --offline -p o2-bench --bin bench -- \
        --regress "$baseline_dir/BENCH_gate.json" BENCH_gate.json
fi

echo "==> incremental warm-vs-cold equivalence"
cargo test -q --offline --test incremental --test db_determinism --test roundtrip --test sync_primitives

echo "==> golden report diffs (incl. mega presets)"
cargo test -q --offline --test golden --test mega

echo "==> error-plane tests + CLI exit-code smoke"
cargo test -q --offline --test errors
bad_src=$(mktemp -u).o2
printf 'class Broken {\n' > "$bad_src"
trap 'rm -rf "$baseline_dir" "$bad_src"' EXIT
rc=0; ./target/release/o2 "$bad_src" --quiet >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 10 ]; then
    echo "error smoke: parse failure exited $rc, expected 10" >&2
    exit 1
fi
rc=0; ./target/release/o2 /nonexistent/file.o2 --quiet >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 16 ]; then
    echo "error smoke: missing file exited $rc, expected 16" >&2
    exit 1
fi
echo "error smoke: parse exits 10, io exits 16"

echo "==> batch determinism tests + o2 batch smoke"
cargo test -q --offline --test batch
batch_manifest=$(mktemp)
batch_a=$(mktemp)
batch_b=$(mktemp)
trap 'rm -rf "$baseline_dir" "$bad_src" "$batch_manifest" "$batch_a" "$batch_b"' EXIT
printf 'avrora\nlusearch\nmega-smoke\nrealbug:ZooKeeper\nrealbug-c:Memcached\n' > "$batch_manifest"
./target/release/o2 batch "$batch_manifest" --workers 1 --format sarif --quiet > "$batch_a" || true
./target/release/o2 batch "$batch_manifest" --workers 4 --format sarif --quiet > "$batch_b" || true
cmp "$batch_a" "$batch_b"
echo "batch smoke: merged SARIF byte-identical at 1 and 4 workers"

# A manifest with a failing entry still merges deterministically and
# exits with the failing stage's code (races take precedence; this
# corpus has none in avrora alone, so the resolve entry's code wins
# unless a race is found — use the exit code only as a sanity signal).
printf 'avrora\nno-such-workload\n' > "$batch_manifest"
rc=0; ./target/release/o2 batch "$batch_manifest" --workers 2 --format json --quiet > "$batch_a" || rc=$?
if [ "$rc" -ne 1 ] && [ "$rc" -ne 11 ]; then
    echo "error smoke: batch with a resolve failure exited $rc, expected 1 or 11" >&2
    exit 1
fi
grep -q '"stage": "resolve"' "$batch_a"
echo "batch smoke: failing entry recorded in merged JSON, exit code carries the stage"

echo "==> serve daemon tests + o2 serve smoke"
cargo test -q --offline --test serve
port_file=$(mktemp)
serve_db=$(mktemp -u)
trap 'rm -rf "$baseline_dir" "$batch_manifest" "$batch_a" "$batch_b" "$port_file" "$serve_db"' EXIT
rm -f "$port_file"
./target/release/o2 serve 127.0.0.1:0 --port-file "$port_file" --save-db "$serve_db" --quiet &
serve_pid=$!
tries=0
while [ ! -s "$port_file" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "serve smoke: daemon never wrote its port file" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
serve_addr=$(cat "$port_file")
# Error-injection load: a quarter of the requests are malformed; every
# one must come back as a structured error on a surviving connection
# (loadgen exits 1 on any residual error or oracle mismatch).
./target/release/o2 loadgen "$serve_addr" --requests 24 --clients 2 \
    --workloads avrora --malformed-frac 0.3 --verify
# One cold + one warm request, byte-compared against the solo CLI
# oracle inside loadgen's smoke mode — plus the error-plane probe (a
# non-JSON line and a deadline_ms=0 request both answer structured
# errors) — then a clean protocol shutdown.
./target/release/o2 loadgen "$serve_addr" --smoke --shutdown
wait "$serve_pid"
test -s "$serve_db"
echo "serve smoke: cold+warm byte-identical to solo, malformed answered structured, clean shutdown, pool saved"

echo "==> verify OK"
