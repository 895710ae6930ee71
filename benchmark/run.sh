#!/usr/bin/env bash
# The ledger's one command. Run it from the repository root.
#
#   benchmark/run.sh [--seed S] [--seconds T] [workload…]
#       every named workload (default: all five), end to end and traced:
#       prints each metric as `name value unit`, writes
#       benchmark/out/<workload>.json, <workload>.traced.json and
#       <workload>.trace.json, exits non-zero if anything failed.
#
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#       one run, as the benchmark driver invokes it (BENCHMARK.json
#       `command`); the last line of output is the result object.
#
#   benchmark/run.sh --check | repeat … | diff A B
#       passed through to the `ledger` binary.
#
# Builds offline on every call (a no-op when fresh) into
# $CARGO_TARGET_DIR, or benchmark/target when that is not set.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release"

build() {
    # stdout is the result channel; cargo's own chatter goes to stderr.
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" --target-dir "$target" --bin "$1" 1>&2
}

export LEDGER_RUSTC="${LEDGER_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export LEDGER_COMMIT="${LEDGER_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

# `ledger` first and on its own: the end-to-end binary must build even
# when the wider surface only `ledger-traced` uses does not.
build ledger

workload="" trace="0" seed="" seconds="" names=()
args=("$@")
case "${1:-}" in
--check | repeat | diff)
    build ledger-traced || echo "run.sh: ledger-traced did not build; continuing without it" >&2
    exec "$bin/ledger" "$@"
    ;;
esac
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --workload) workload="${args[i + 1]:-}" && i=$((i + 1)) ;;
    --trace) trace="${args[i + 1]:-}" && i=$((i + 1)) ;;
    --seed) seed="${args[i + 1]:-}" && i=$((i + 1)) ;;
    --seconds) seconds="${args[i + 1]:-}" && i=$((i + 1)) ;;
    --*) echo "run.sh: unknown flag ${args[i]}" >&2 && exit 2 ;;
    *) names+=("${args[i]}") ;;
    esac
done

if [[ -n "$workload" ]]; then
    # Driver mode: one run, result object on the last line.
    if [[ "$trace" == "1" ]]; then
        build ledger-traced
        exec "$bin/ledger-traced" "$@" --out "$here/out/$workload.traced.json"
    fi
    exec "$bin/ledger" "$@" --out "$here/out/$workload.json"
fi

# Set mode: every workload, both binaries.
build ledger-traced
[[ ${#names[@]} -gt 0 ]] || names=(cold-single cold-batch8 hot-zipf sim-sift shmem-persona)
common=(${seed:+--seed "$seed"} ${seconds:+--seconds "$seconds"})
failed=0
for name in "${names[@]}"; do
    for mode in 0 1; do
        if [[ "$mode" == "0" ]]; then
            out="$here/out/$name.json" runner="$bin/ledger"
        else
            out="$here/out/$name.traced.json" runner="$bin/ledger-traced"
        fi
        "$runner" --workload "$name" --trace "$mode" "${common[@]}" --out "$out" | sed '$d'
        grep -q '"correct": true' "$out" || failed=1
    done
done
if [[ "$failed" != "0" ]]; then
    echo "run.sh: failed_share > 0 on at least one workload" >&2
    exit 1
fi
