# Development recipes. `just ci` mirrors .github/workflows/ci.yml.

# List recipes.
default:
    @just --list

# Format the workspace.
fmt:
    cargo fmt --all

# Fail if anything is unformatted.
fmt-check:
    cargo fmt --all -- --check

# Lint everything; warnings are errors, as in CI — `unreachable_pub`
# among them (`[workspace.lints]`), and rustdoc's (a link from public
# docs to a private item is one). The first grep keeps the two seed
# labels (process coins, adversary schedule) inside rng.rs; the next
# two keep the workspace at one build configuration: no `cfg(feature …)`
# in any source file, no `[features]` table in any manifest; the next
# keeps JSON in `sift_obs::json` — no hand-escaped key anywhere else;
# the next keeps one reference per layer, the model (no lock-based
# object copies, no frozen engine copy); the last keeps the service's
# workers behind their doorbells (no condvar, no polling timeout).
clippy: api-audit
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    ! grep -rnE '\.(stream|seed)\("(process|schedule)"' --include=*.rs --exclude=rng.rs crates src tests examples
    ! grep -rnE 'cfg!?\(.*feature' --include=*.rs crates src tests examples
    ! grep -rn '^\[features\]' Cargo.toml crates/*/Cargo.toml
    ! grep -rnE '\\"[A-Za-z_.]+\\": ?' crates/*/src src examples --include=*.rs --exclude=json.rs
    ! grep -rnwE 'CoarseMemory|ObjectMemory|LegacyEngine|LockRegister|LockMaxRegister|CoarseSnapshot' --include=*.rs crates src tests examples
    ! grep -rnwE 'SeqCell|PairCell|CombiningMax|inline_ok|is_inline|is_combining' --include=*.rs crates src tests examples
    ! grep -rnE 'Condvar|wait_timeout|notify_all|wake_lock' crates/service/src
    ! grep -rnE '\bobs: ObsReport\b' crates/service/src

# Per crate: how many distinct `pub` item names its `src/` declares, and
# which of them no `.rs` file outside that `src/` mentions (DESIGN.md,
# "What `pub` means"). A type on that list is there because a public
# signature names it; a `pub fn`, `const` or `static` never is, so one
# fails the recipe. `#[doc(hidden)]` items (reached through a macro)
# are skipped.
api-audit:
    #!/usr/bin/env bash
    set -eu
    total=0; unnamed=0; bad=0
    for dir in crates/*/; do
        items=$(find "${dir}src" -name '*.rs' -exec cat {} + | awk '
            /#\[doc\(hidden\)\]/ { hidden = 1; next }
            match($0, /^[ \t]*pub ((unsafe|const|async) )*(fn|struct|enum|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*/) {
                if (!hidden) { n = split(substr($0, RSTART, RLENGTH), w, " "); print w[n - 1], w[n] }
            }
            { hidden = 0 }' | sort -u -k2,2)
        count=0; orphans=""
        while read -r kind name; do
            count=$((count + 1))
            if ! grep -rlw --include='*.rs' -- "$name" crates src tests examples benchmark/src | grep -qv "^${dir}src/"; then
                orphans="$orphans $kind:$name"
                case $kind in fn | const | static) bad=$((bad + 1)) ;; esac
            fi
        done <<<"$items"
        echo "$(basename "$dir"): $count pub names, $(wc -w <<<"$orphans") never named outside its src:$orphans"
        total=$((total + count)); unnamed=$((unnamed + $(wc -w <<<"$orphans")))
    done
    echo "total: $total pub names, $unnamed never named outside their crate's src"
    if [ "$bad" -ne 0 ]; then
        echo "api-audit: $bad pub fn/const/static named by nothing outside its crate (demote or delete it)" >&2
        exit 1
    fi

# Tier-1 gate: release build plus the full test suite (default-members
# covers the workspace, so this runs every crate's suites).
tier1:
    cargo build --release
    cargo test -q

# Prove the executor is thread-count invariant: the determinism test
# suite, then a byte-for-byte diff of `exp all` at 1 vs 4 threads.
determinism:
    cargo test -q -p sift-bench --test determinism
    cargo build --release -p sift-bench --bin exp
    SIFT_TRIALS=20 SIFT_THREADS=1 ./target/release/exp all > /tmp/sift_t1.txt
    SIFT_TRIALS=20 SIFT_THREADS=4 ./target/release/exp all > /tmp/sift_t4.txt
    diff -u /tmp/sift_t1.txt /tmp/sift_t4.txt
    @echo "exp all output is byte-identical across thread counts"

# The model-checking suites on their own: DPOR exploration,
# linearizability of captured histories, and counterexample replay, in
# debug exactly as `tier1` runs them (the non-ignored instances are
# small); `mc-full` covers the heavy tier.
mc:
    cargo test -q --test exhaustive --test linearizability --test mc_replay

# The full model-checking tier, including the `#[ignore]`d 4-proposer
# instances (hundreds of thousands of explored interleavings; release
# mode is mandatory — debug would take many minutes).
mc-full:
    cargo test --release --test exhaustive --test linearizability --test mc_replay -- --include-ignored

# The statistical conformance suite (E22): every quantitative claim of
# the paper as a one-sided 99% hypothesis test, plus the mutation tests
# proving that broken sifters are refuted. SIFT_TRIALS scales the
# per-claim trial counts (default 1 = the smoke tier CI gates on;
# nightly runs use a larger scale).
conformance:
    cargo run --release -p sift-bench --bin exp -- conformance
    cargo test -q --release -p sift-bench --test mutants
    cargo test -q --release -p sift-bench --test seed_stability

# Service-level suites: agreement/validity/decide-exactly-once under
# concurrent async clients, golden-pinned deterministic commit streams,
# the served-stack differential (lock-free and simulator memory agree on
# the stack the shard decides with), and the negative paths
# (evictions, zero capacity, cancellation) — each at worker counts
# 1, 4, and 8 — the crash-recovery suite, the allocations-per-decision
# gate, the served-stack ↔ engine pin in cross_runtime (phase 1 under
# round robin, phase 2 reachable when interleaved), the doorbell
# stress test at release speed, plus a small load-generator smoke run.
# The first two lines keep the sift-service → sift-shmem and
# sift-bench → sift-shmem edges cut.
service:
    ! cargo tree -p sift-service -e normal --offline | grep -q sift-shmem
    ! cargo tree -p sift-bench -e normal --offline | grep -q sift-shmem
    cargo test -q --test service_agreement --test service_determinism \
        --test service_negative --test substrate_differential \
        --test decide_allocations --test service_crash --test cross_runtime
    cargo test -q -p sift-service
    cargo test -q --release -p sift-service closed_loop
    SIFT_SERVICE_PROPOSALS=50000 SIFT_SERVICE_INSTANCES=5000 \
        cargo run --release -p sift-bench --bin exp -- service

# The full E23 load tier: one million proposals over 100k Zipf-skewed
# instances in one run (the acceptance bound for the service layer),
# both client models.
service-load:
    cargo run --release -p sift-bench --bin exp -- service
    SIFT_SERVICE_MODE=open cargo run --release -p sift-bench --bin exp -- service

# A coverage-guided adversary fuzzing campaign against the sifting
# conciliator's schedule-independent invariants. Knobs:
# SIFT_FUZZ_{N,GENERATIONS,POPULATION,OUT}. Set
# SIFT_FUZZ_EXTENDED=1 to also mutate the environment genes (adversary
# strength + register semantics) with tier-tagged invariants.
fuzz:
    cargo run --release -p sift-bench --bin exp -- fuzz

# Soak-mode conformance (E26): the deterministic tick-budget run (6
# windows of service + sifting + fuzz traffic with crash injection,
# golden-pinned trajectory), the crash/restart suites for both service
# crash models, and the soak golden-digest tests. Set SIFT_SOAK_SECS
# for a wall-clock run that also kills live workers under load (the
# nightly tier uses SIFT_SOAK_SECS=300 SIFT_FUZZ_EXTENDED=1).
soak:
    cargo run --release -p sift-bench --bin exp -- soak
    cargo test -q --release --test service_crash --test service_negative
    cargo test -q --release -p sift-bench --test seed_stability soak
    cargo test -q --release -p sift-bench --test mutants soak

# The adversary lattice (E24) and the negative conformance tier (E25):
# agreement vs adversary strength on both substrates, the
# expected-failure decay claims (`exp adversary` exits nonzero if any
# negative case has the wrong polarity) and the boundary tests. (The
# regular-register boundary of the checker pair is in `mc`.)
adversary:
    cargo run --release -p sift-bench --bin exp -- adversary
    cargo test -q --release -p sift-bench --test adversary_boundary

# Everything CI runs.
ci: fmt-check clippy tier1 determinism conformance adversary service soak

# Regenerate the experiment output EXPERIMENTS.md records (uses all
# cores); the raw copy lands under target/, untracked.
experiments:
    cargo run --release -p sift-bench --bin exp -- all | tee target/experiments_output.txt

# In-tree microbenchmarks.
bench:
    cargo bench -p sift-bench

# Regenerate the two tracked verdict files: BENCH_adversary.json (the
# E24 lattice sweep plus the E25 negative-tier verdicts) and
# BENCH_conformance.json (the E26 deterministic soak trajectory:
# per-claim sliding-window LCBs). Both are byte-identical for a fixed
# seed, so `git diff --exit-code BENCH_*.json` must stay clean.
# Performance is tracked by the ledger (`bash benchmark/run.sh`).
bench-json:
    SIFT_ADVERSARY_JSON={{justfile_directory()}}/BENCH_adversary.json \
    cargo run --release -p sift-bench --bin exp -- adversary
    SIFT_SOAK_JSON={{justfile_directory()}}/BENCH_conformance.json \
    cargo run --release -p sift-bench --bin exp -- soak
