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

# Lint everything; warnings are errors. CI's lint job runs this recipe
# (after `fmt-check`), so each guard below is written once, with its
# reason above it; any line that fails fails the recipe.
clippy: api-audit
    # `unreachable_pub` is on for every crate ([workspace.lints]): a
    # `pub` on an item no crate root exports fails here.
    cargo clippy --workspace --all-targets -- -D warnings
    # Unresolved links and links from public docs to private items are
    # errors.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    # Seed labels are spelled only in rng.rs: process coins and the
    # adversary's schedule are separated by two stream labels private to
    # SeedSplitter; every golden digest depends on them, so no other
    # file may spell them.
    ! grep -rnE '\.(stream|seed)\("(process|schedule)"' --include=*.rs --exclude=rng.rs crates src tests examples
    # No build modes: the workspace has one configuration, no cargo
    # feature, so no code compiled only for mutants, a torn register or
    # instrumentation. Negative testing is test-side wrappers
    # (crates/bench/tests/mutants.rs) and the model's
    # RegisterSemantics::Regular (tests/linearizability.rs).
    ! grep -rnE 'cfg!?\(.*feature' --include=*.rs crates src tests examples
    ! grep -rn '^\[features\]' Cargo.toml crates/*/Cargo.toml
    # No hand-rolled JSON: every JSON document is a
    # `sift_obs::json::Json` value rendered by its one writer and read
    # back by its one parser; a hand-escaped key anywhere else is a
    # second JSON writer.
    ! grep -rnE '\\"[A-Za-z_.]+\\": ?' crates/*/src src examples --include=*.rs --exclude=json.rs
    # No second reference: one reference per layer, and it is the model.
    # The threaded substrate is checked against
    # `Mutex<sift_sim::Memory>`, the engine against pinned digests. The
    # deleted lock-based objects and the frozen engine copy must not
    # come back.
    ! grep -rnwE 'CoarseMemory|ObjectMemory|LegacyEngine|LockRegister|LockMaxRegister|CoarseSnapshot' --include=*.rs crates src tests examples
    # One publication scheme: the deleted inline seqlock and combining
    # cells must not come back.
    ! grep -rnwE 'SeqCell|PairCell|CombiningMax|inline_ok|is_inline|is_combining' --include=*.rs crates src tests examples
    # One substrate: the threaded memory is the model's own objects, one
    # lock each. The deleted lock-free objects and their pointer
    # publication must not come back, and `sift-shmem` keeps no `unsafe`
    # outside the core-pinning syscall in `affinity.rs`.
    ! grep -rnwE 'LockFreeRegister|LockFreeSnapshot|LockFreeMaxRegister|Pile|ReadGuard|publish_with|publish_max' --include=*.rs crates src tests examples
    ! grep -rnE 'unsafe *(\{|fn|impl)' crates/shmem/src --exclude=affinity.rs
    # No polling park in the service: shard workers sleep behind a
    # per-worker doorbell with no timeout; a condvar wait with a timeout
    # would hide a lost wake-up that
    # `closed_loop_round_trips_never_lose_a_wakeup` otherwise turns into
    # a hang.
    ! grep -rnE 'Condvar|wait_timeout|notify_all|wake_lock' crates/service/src
    # Typed observations on the served path: a shard records into typed
    # fields and renders an `ObsReport` only when read; a string-keyed
    # report on `ShardCore` puts two `BTreeMap` lookups back on every
    # table hit. The ledger's `hot-zipf` `phase1_per_s` and
    # `ledger-traced` `shard.submit_ns_per_proposal` rows price the
    # difference (ROADMAP, Recent: "Typed shard observations").
    ! grep -rnE '\bobs: ObsReport\b' crates/service/src
    # One performance harness: wall-clock is measured in one place, the
    # ledger under `benchmark/` (`bash benchmark/run.sh`). No crate
    # carries a `cargo bench` target beside it.
    ! grep -n '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml
    # One service load harness: the ledger's cold-single, cold-batch8
    # and hot-zipf workloads time the service; what E23's load generator
    # checked is a test (tests/service_agreement.rs). No second load
    # generator, and no knob for one. (Each pattern brackets a letter so
    # that the guard does not match its own line in this file.)
    ! grep -rnE 'SIFT_SERVIC[E]_|service_loa[d]|exp -- servic[e]' crates src tests examples justfile
    # The served memory stores persona names: the served stack holds
    # personae by `PersonaName`, a `Copy` origin and input whose coins
    # sit in each phase's coin table, so a served operation touches no
    # persona reference count. The ledger's cold-batch8 `phase1_per_s`
    # prices the difference.
    ! grep -rnE 'Memory<Persona>|GafniSnapshotAc<Persona>' crates/service/src
    # Participants keep no history: the persona history per round (the
    # paper's Y_i) is an observation about a run that no protocol step
    # reads. One recorder, `sift_core::Recorder` in conciliator.rs,
    # keeps it for the readers that wrap their participants in it.
    ! grep -rnE 'history\.push|history: Vec' crates/core/src --exclude=conciliator.rs
    # One replay path: a checked sifting run, its witness's replay and
    # its shrink all go through `TrialFixture` in runner.rs, on the
    # registers of the run that found the witness. A checker that named
    # the simulator's default-engine replay, the bare shrink or a second
    # environment run could re-check a witness found on `Regular`
    # registers on atomic ones, so only runner.rs may name them.
    ! grep -rnwE 'replay_report|shrink_schedule_with|run_in' crates/bench/src --exclude=runner.rs

# Per crate: how many distinct `pub` item names its `src/` declares, and
# which of them no `.rs` file outside that `src/` mentions (DESIGN.md,
# "What `pub` means"). A type on that list is there because a public
# signature names it; a `pub fn`, `const` or `static` never is, so one
# fails the recipe.
api-audit:
    #!/usr/bin/env bash
    set -eu
    total=0; unnamed=0; bad=0
    for dir in crates/*/; do
        items=$(find "${dir}src" -name '*.rs' -exec cat {} + | awk '
            match($0, /^[ \t]*pub ((unsafe|const|async) )*(fn|struct|enum|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*/) {
                n = split(substr($0, RSTART, RLENGTH), w, " "); print w[n - 1], w[n]
            }' | sort -u -k2,2)
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
# mode is mandatory — debug would take many minutes), the n = 10^6
# lazy sifting round under its wall-clock bound, and E23's load script
# at 10^6 proposals over 10^5 instances.
mc-full:
    cargo test --release --test exhaustive --test linearizability --test mc_replay --test lazy_scale --test service_agreement -- --include-ignored

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
# the served-stack differential (`AtomicMemory` and the model agree on
# the stack the shard decides with), and the negative paths
# (evictions, zero capacity, cancellation) — each at worker counts
# 1, 4, and 8 — the crash-recovery suite, the allocations-per-decision
# gate, the served-stack ↔ engine pin in cross_runtime (phase 1 under
# round robin, phase 2 reachable when interleaved; service_agreement
# also runs E23's Zipf load script at 50 000 proposals), and the
# doorbell stress test at release speed.
# The first two lines keep the sift-service → sift-shmem edge cut, and
# every sift-bench → sift-shmem edge, dev-dependencies included.
service:
    ! cargo tree -p sift-service -e normal --offline | grep -q sift-shmem
    ! cargo tree -p sift-bench --offline | grep -q sift-shmem
    cargo test -q --test service_agreement --test service_determinism \
        --test service_negative --test substrate_differential \
        --test decide_allocations --test service_crash --test cross_runtime
    cargo test -q -p sift-service
    cargo test -q --release -p sift-service closed_loop

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

# Where a ledger workload spends its time (a developer tool: it needs
# gprofng, which CI runners may lack, so `ci` does not run it). Builds
# `ledger` with line tables into its own target dir, samples one 4 s run
# with gprofng's clock profiler, and prints the 15 functions with the
# most exclusive time. The build rewrites benchmark/Cargo.lock; the
# recipe restores it.
profile workload:
    #!/usr/bin/env bash
    set -eu
    target=target/profile
    trap 'git checkout --quiet benchmark/Cargo.lock' EXIT
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --target-dir "$target" --bin ledger
    gprofng collect app -p on -O "$target/{{workload}}.er" \
        "$target/release/ledger" --workload {{workload}} --seconds 4 > /dev/null
    gprofng display text -limit 15 -functions "$target/{{workload}}.er"

# Alternating before/after pairs of one ledger workload (a developer
# tool, like `profile`: it needs jq, and `ci` does not run it). Builds
# `ledger` at `rev` from a `git archive` export under
# target/ledger-pairs/ and the working tree's `ledger` beside it, then
# runs `pairs` pairs of `seconds`-long runs. The side that runs first
# alternates, and each pair draws a fresh seed, printed with it. For
# every end-to-end metric in BENCHMARK.json it prints each pair, both
# sides' median and quartiles, and how many pairs the working tree won.
# The build rewrites benchmark/Cargo.lock; the recipe restores it.
ledger-pairs rev workload pairs="10" seconds="24":
    #!/usr/bin/env bash
    set -euo pipefail
    trap 'git checkout --quiet benchmark/Cargo.lock' EXIT
    root=target/ledger-pairs
    sha=$(git rev-parse --short "{{rev}}^{commit}")
    src="$root/src-$sha"
    if [ ! -d "$src" ]; then
        rm -rf "$src.part" && mkdir -p "$src.part"
        git archive "$sha" | tar -x -C "$src.part"
        mv "$src.part" "$src"
    fi
    build() {
        cargo build --release --offline --quiet --manifest-path "$1/Cargo.toml" \
            --target-dir "$2" --bin ledger
    }
    build "$src/benchmark" "$root/target-$sha"
    build benchmark "$root/target-work"
    base="$root/target-$sha/release/ledger" work="$root/target-work/release/ledger"
    runs="$root/runs-{{workload}}.txt"
    : > "$runs"
    first_seed=$((RANDOM * 32768 + RANDOM))
    echo "ledger-pairs: {{workload}}, {{pairs}} pairs of {{seconds}} s, before = $sha, after = working tree"
    for ((i = 0; i < {{pairs}}; i++)); do
        seed=$((first_seed + i))
        order="base work"
        [ $((i % 2)) -eq 0 ] || order="work base"
        for side in $order; do
            bin=$base
            [ "$side" = base ] || bin=$work
            line=$("$bin" --workload {{workload}} --seed "$seed" --seconds {{seconds}} | tail -n 1)
            jq -e '.correct' <<<"$line" > /dev/null ||
                echo "ledger-pairs: pair $((i + 1)) $side failed a correctness check" >&2
            jq -r --arg pair "$((i + 1))" --arg seed "$seed" --arg side "$side" \
                --arg first "${order%% *}" '.metrics | to_entries[] |
                [$pair, $seed, $first, $side, .key, .value.value] | @tsv' <<<"$line" >> "$runs"
        done
    done
    jq -r '.end_to_end[] | [.name, .unit, .better] | @tsv' BENCHMARK.json |
    while IFS=$'\t' read -r metric unit better; do
        awk -F'\t' -v metric="$metric" -v unit="$unit" -v better="$better" '
            function sorted(v, n, s,   i, j, x) {
                for (i = 1; i <= n; i++) {
                    x = v[i]
                    for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
                    s[j + 1] = x
                }
            }
            function summary(s, n) {
                return sprintf("median %.6g  q1 %.6g  q3 %.6g", quantile(s, n, 0.5), quantile(s, n, 0.25), quantile(s, n, 0.75))
            }
            function quantile(s, n, q,   pos, lo) {
                pos = 1 + (n - 1) * q; lo = int(pos)
                return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
            }
            $5 == metric { seed[$1] = $2; first[$1] = $3; value[$1, $4] = $6; if ($1 + 0 > n) n = $1 + 0 }
            END {
                if (n == 0) exit
                printf "%s (%s, %s is better)\n", metric, unit, better
                for (p = 1; p <= n; p++) {
                    b = value[p, "base"]; a = value[p, "work"]; before[p] = b; after[p] = a
                    won = better == "higher" ? a > b : a < b; wins += won
                    printf "  pair %2d  seed %-10s %s first  %12.6g -> %-12.6g %s\n", p, seed[p], first[p] == "base" ? "before" : "after ", b, a, won ? "win" : ""
                }
                sorted(before, n, b_sorted); sorted(after, n, a_sorted)
                printf "  before: %s\n  after:  %s\n", summary(b_sorted, n), summary(a_sorted, n)
                m = quantile(b_sorted, n, 0.5)
                printf "  after won %d/%d pairs; median %+.1f %%\n", wins, n, m ? 100 * (quantile(a_sorted, n, 0.5) - m) / m : 0
            }' "$runs"
    done
