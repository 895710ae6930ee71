//! The ledger's metric names, in one place. `BENCHMARK.json` carries
//! the same lists (a unit test keeps the two in step); every record,
//! `ledger repeat` and `ledger diff` read names, units, directions and
//! bounds from here.

use crate::workloads::shmem::Kind;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `after` is than `before`, as a share of `before`
    /// (negative when it improved).
    pub fn worsening(self, before: f64, after: f64) -> f64 {
        if before == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (before - after) / before.abs(),
            Better::Lower => (after - before) / before.abs(),
        }
    }
}

/// An end-to-end metric: reported by every workload, gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics. What a phase is, and what its unit of work
/// and latency sample are, depends on the workload
/// ([`Workload::phases`](crate::workloads::Workload::phases)).
///
/// The p90s and the phase-2 throughput the issue proposed as
/// end-to-end metrics are not here: under a noisy neighbour their
/// spread over ten identical runs passed 0.25, the largest bound the
/// contract allows (a closed loop's throughput is the reciprocal of its
/// *mean* round trip, which every stall of the worker's vCPU moves; the
/// median round trip, gated here, shrugs them off), so by the issue's
/// own rule ("a metric that cannot be held is demoted, not kept noisy")
/// they are in every record (`phaseN.p90_ns`, `ungated.phase2_per_s`) and gate
/// nothing.
pub const END_TO_END: [EndToEndDef; 5] = [
    e2e("setup_s", "s", Better::Lower, BOUND),
    e2e("phase1_per_s", "1/s", Better::Higher, BOUND),
    e2e("phase1_p50_ns", "ns", Better::Lower, BOUND),
    e2e("phase2_p50_ns", "ns", Better::Lower, BOUND),
    e2e("peak_rss_mb", "MiB", Better::Lower, BOUND),
];

/// Every bound is the contract's maximum. On the shared 2-vCPU guest
/// this was frozen on, ten identical runs spread (interquartile, of the
/// median) 2–14% with the repetition `Pick` names reported and up to
/// 25% with the median repetition everywhere; a tighter bound would
/// reject the parent against itself in a noisy quarter of an hour. See
/// `benchmark/README.md`, "limits".
pub const BOUND: f64 = 0.25;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric: informational, never gated. `exact` ones are
/// counts that must repeat bit-for-bit for a seed.
#[derive(Debug, Clone)]
pub struct LayerDef {
    /// Name, prefixed with its layer.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction (meaningless for identities such as a digest).
    pub better: Better,
    /// Whether the value must repeat exactly for a seed.
    pub exact: bool,
}

/// The per-layer metrics, in ledger order. Every traced run prints all
/// of them; for a layer the workload does not exercise the value comes
/// from `ledger-traced`'s small reference pass.
pub fn per_layer() -> Vec<LayerDef> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    let mut add = |name: &str, unit, better, exact| {
        defs.push(LayerDef {
            name: name.to_string(),
            unit,
            better,
            exact,
        })
    };
    add("service.propose_call_ns_p50", "ns", Lower, false);
    add("service.handoff_ns_p50", "ns", Lower, false);
    add("service.rt_p99_ns", "ns", Lower, false);
    add("service.rt_batch_size_mean", "count", Higher, false);
    add("service.ol20k_p50_ns", "ns", Lower, false);
    add("service.ol20k_p99_ns", "ns", Lower, false);
    add("service.ol20k_gen_late_p99_ns", "ns", Lower, false);
    add("service.ol20k_max_outstanding", "count", Lower, false);
    add("shard.submit_ns_per_proposal", "ns", Lower, false);
    add("shard.tick_ns_per_decision", "ns", Lower, false);
    add("shard.tick_p99_ns", "ns", Lower, false);
    add("shard.residual_ns_per_decision", "ns", Lower, false);
    add("shard.batch_size_mean", "count", Higher, true);
    add("shard.batch_size_max", "count", Higher, true);
    add("shard.phases_mean", "count", Lower, true);
    add("shard.attempts_mean", "count", Lower, true);
    add("shard.retries", "count", Lower, true);
    add("shard.idempotent_share", "share", Higher, true);
    add("shard.fact_digest", "hash32", Lower, true);
    add("shard.allocs_per_decision", "count", Lower, true);
    add("shard.alloc_bytes_per_decision", "B", Lower, true);
    add("runtime.oneshot_roundtrip_ns", "ns", Lower, false);
    add("consensus.allocate_ns", "ns", Lower, false);
    add("consensus.participants_ns", "ns", Lower, false);
    add("consensus.phases_mean", "count", Lower, true);
    add("core.conciliator_run_ns", "ns", Lower, false);
    add("core.conciliator_ops_per_proc", "count", Lower, true);
    add("adopt_commit.run_ns", "ns", Lower, false);
    add("adopt_commit.ops_per_proc", "count", Lower, true);
    add("shmem.memory_new_ns", "ns", Lower, false);
    add("shmem.memory_drop_ns", "ns", Lower, false);
    add("shmem.memory_new_allocs", "count", Lower, true);
    add("shmem.lockstep_run_ns", "ns", Lower, false);
    add("shmem.predicted_run_ns", "ns", Lower, false);
    add("shmem.run_unexplained_ns", "ns", Lower, false);
    for (kind, _) in Kind::MIX {
        add(
            &format!("shmem.ops_per_decision.{}", kind.name()),
            "count",
            Lower,
            true,
        );
    }
    for threads in ["t1", "t2"] {
        for (kind, _) in Kind::MIX {
            add(
                &format!("shmem.ns_per_op.{}.{threads}", kind.name()),
                "ns",
                Lower,
                false,
            );
        }
    }
    add("shmem.ns_per_op.register_read.u64_t1", "ns", Lower, false);
    add("shmem.ns_per_op.register_write.u64_t1", "ns", Lower, false);
    add("sim.process_build_ns_per_proc", "ns", Lower, false);
    add("sim.engine_new_ns_per_proc", "ns", Lower, false);
    add("sim.run_ns_per_event", "ns", Lower, false);
    add("sim.schedule_ns_per_slot", "ns", Lower, false);
    add("sim.events_per_trial", "count", Lower, true);
    add("sim.steps_per_proc_mean", "count", Lower, true);
    add("sim.useful_slot_share", "share", Higher, true);
    add("sim.lazy_materialized_share", "share", Lower, true);
    add("sim.total_ops", "count", Lower, true);
    add("sim.allocs_per_event", "count", Lower, true);
    add("obs.add_count_ns", "ns", Lower, false);
    add("obs.record_hist_ns", "ns", Lower, false);
    add("bench.replica_match_share", "share", Higher, true);
    add("bench.trace_overhead_share", "share", Lower, false);
    add("bench.pinning", "flag", Higher, false);
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.10).abs() < 1e-12);
        assert_eq!(Better::Lower.worsening(0.0, 5.0), 0.0);
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |name: &str| {
            name.len() <= 64
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binaries print. They must list the same things.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::cli::DEFAULT_SECONDS)
        );
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let listed = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert!(listed("workloads")
            .iter()
            .all(|w| field(w, "why").len() <= 200));

        let end_to_end = listed("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (theirs, ours) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(theirs, "name"), ours.name);
            assert_eq!(field(theirs, "unit"), ours.unit);
            assert_eq!(field(theirs, "better"), ours.better.word());
            assert_eq!(theirs.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }
        let layers = per_layer();
        let per_layer = listed("per_layer");
        assert_eq!(per_layer.len(), layers.len());
        for (theirs, ours) in per_layer.iter().zip(&layers) {
            assert_eq!(field(theirs, "name"), ours.name);
            assert_eq!(field(theirs, "unit"), ours.unit);
            assert_eq!(field(theirs, "better"), ours.better.word());
        }
    }
}
