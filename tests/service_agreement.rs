//! Service-level agreement: the consensus-as-a-service frontend must
//! preserve the protocol stack's guarantees per *instance* while many
//! asynchronous clients hammer many instances at once.
//!
//! Each test drives N concurrent clients (scoped OS threads, each
//! waiting on its proposals with [`block_on`]) proposing conflicting
//! values across K instances, then asserts, per instance:
//!
//! * **agreement / decide-exactly-once** — every client observes the
//!   same commit fact, and the shard table records exactly one decision;
//! * **validity** — the decided value is one of the values actually
//!   proposed for that instance;
//! * **idempotence** — a repeat proposal to a decided instance returns
//!   the *original* commit fact, byte for byte.
//!
//! The whole suite runs at worker counts 1, 4, and 8, since the shard
//! scheduler degenerates differently at each (single worker = strictly
//! sequential ticks; workers > shards = idle spinners).
//!
//! The last three cases run E23's load script, a warm sweep over every
//! instance and then Zipf(0.99)-skewed repeats: closed loop and open
//! loop at 50 000 proposals in every run, and both at the acceptance
//! size of 10^6 proposals over 10^5 instances in the `#[ignore]`d heavy tier
//! (`cargo test --release --test service_agreement -- --include-ignored`).

use std::collections::HashMap;
use std::sync::OnceLock;

use sift::service::runtime::block_on;
use sift::service::{
    CommitFact, InstanceId, ProposeFuture, Service, ServiceConfig, ServiceError, ShardConfig,
};
use sift::sim::rng::SeedSplitter;
use sift_bench::soak::Zipf;

/// Worker counts every scenario is exercised at (acceptance criterion).
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

fn service(workers: usize, shards: usize, seed: u64) -> Service {
    Service::start(ServiceConfig {
        shards,
        workers,
        shard: ShardConfig {
            seed,
            ..ShardConfig::default()
        },
    })
}

/// Runs `clients` client threads, each driving `client(index)` to
/// completion with [`block_on`], and returns their outputs in client
/// order.
fn run_clients<T, F>(clients: usize, client: impl Fn(usize) -> F + Sync) -> Vec<T>
where
    T: Send,
    F: std::future::Future<Output = T>,
{
    std::thread::scope(|scope| {
        let client = &client;
        let handles: Vec<_> = (0..clients)
            .map(|index| scope.spawn(move || block_on(client(index))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs `clients` clients, each proposing its own conflicting value to
/// every one of `instances` instances, and returns each client's
/// observed facts, keyed by instance.
fn conflicting_clients(
    service: &Service,
    clients: usize,
    instances: u64,
) -> Vec<HashMap<InstanceId, CommitFact>> {
    run_clients(clients, |client| async move {
        let mut observed = HashMap::new();
        for raw in 0..instances {
            let instance = InstanceId(raw);
            // Client c proposes value c: every instance sees a
            // full spread of conflicting proposals.
            let fact = service
                .propose(instance, client as u64)
                .await
                .expect("proposal must resolve");
            observed.insert(instance, fact);
        }
        observed
    })
}

#[test]
fn concurrent_conflicting_clients_agree_per_instance() {
    for workers in WORKER_COUNTS {
        let clients = 6;
        let instances = 40u64;
        let service = service(workers, 4, 0xA6);
        let observed = conflicting_clients(&service, clients, instances);

        for raw in 0..instances {
            let instance = InstanceId(raw);
            let first = &observed[0][&instance];
            // Agreement: all clients saw the same commit fact.
            for (client, view) in observed.iter().enumerate() {
                assert_eq!(
                    view[&instance], *first,
                    "workers={workers}: client {client} diverged on {instance}"
                );
            }
            // Validity: the decision is one of the proposed values.
            assert!(
                (first.value as usize) < clients,
                "workers={workers}: {instance} decided unproposed value {}",
                first.value
            );
        }

        // Decide-exactly-once: the shard tables hold exactly one fact
        // per instance, nothing pending, nothing leaked.
        let stats = service.stats();
        assert_eq!(stats.decided, instances as usize, "workers={workers}");
        assert_eq!(stats.pending, 0, "workers={workers}");
        assert_eq!(stats.waiters, 0, "workers={workers}");
        let obs = service.shutdown();
        assert_eq!(obs.count("service.decided"), instances, "workers={workers}");
        assert_eq!(
            obs.count("service.proposals"),
            clients as u64 * instances,
            "workers={workers}"
        );
    }
}

#[test]
fn repeat_proposals_return_the_original_fact() {
    for workers in WORKER_COUNTS {
        let service = service(workers, 3, 0x1D);
        let instance = InstanceId(7);
        let original = service
            .propose_sync(instance, 11)
            .expect("first proposal decides");
        assert_eq!(original.value, 11, "workers={workers}: singleton validity");

        // Any later proposal — same value, different value, async or
        // sync — answers with the original fact, unchanged metadata
        // included.
        for (attempt, value) in [(0u64, 11u64), (1, 99), (2, 0)] {
            let repeat = block_on(service.propose(instance, value));
            assert_eq!(
                repeat.as_ref().expect("idempotent hit resolves"),
                &original,
                "workers={workers}: repeat #{attempt} must echo the original fact"
            );
        }
        let obs = service.shutdown();
        assert_eq!(obs.count("service.decided"), 1, "workers={workers}");
        assert_eq!(obs.count("service.idempotent"), 3, "workers={workers}");
    }
}

#[test]
fn interleaved_instances_decide_independently() {
    for workers in WORKER_COUNTS {
        // More shards than workers and more instances than shards:
        // every shard multiplexes several instances per tick.
        let service = service(workers, 8, 0x5EED);
        let shared = &service;
        let instances = 64u64;
        let per_client = run_clients(4, |client| async move {
            // Stripe instances across clients in different orders so
            // shard inboxes interleave instances.
            let mut facts = Vec::new();
            for step in 0..instances {
                let raw = (step * 17 + client as u64 * 13) % instances;
                let fact = shared
                    .propose(InstanceId(raw), client as u64 + 100)
                    .await
                    .expect("proposal resolves");
                facts.push((InstanceId(raw), fact));
            }
            facts
        });
        let mut by_instance: HashMap<InstanceId, CommitFact> = HashMap::new();
        for facts in per_client {
            for (instance, fact) in facts {
                match by_instance.entry(instance) {
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(fact);
                    }
                    std::collections::hash_map::Entry::Occupied(slot) => {
                        assert_eq!(slot.get(), &fact, "workers={workers}: {instance}");
                    }
                }
            }
        }
        assert_eq!(by_instance.len(), instances as usize);
        for fact in by_instance.values() {
            assert!(
                (100..104).contains(&fact.value),
                "workers={workers}: unproposed value {}",
                fact.value
            );
        }
        assert_eq!(service.stats().decided, instances as usize);
        service.shutdown();
    }
}

/// Shards of an E23 service.
const E23_SHARDS: usize = 16;
/// Client threads of an E23 load run.
const E23_CLIENTS: usize = 8;
/// E23 proposals carry values in `0..E23_VALUES`.
const E23_VALUES: u64 = 16;

/// How an E23 client waits for its answers.
#[derive(Debug, Clone, Copy)]
enum Clients {
    /// Each proposal waits for its answer before the next is issued,
    /// like RPC callers.
    Closed,
    /// Proposals are issued without waiting and their answers drained
    /// 4096 at a time, like a queue fed from outside.
    Open,
}

/// What one E23 load run saw.
#[derive(Debug, Default)]
struct Answers {
    /// Proposals answered with an error.
    rejected: u64,
    /// Answers that differ from the first fact for their instance, or
    /// name another instance, or decide a value nobody proposes.
    diverged: u64,
}

/// E23's script: `E23_CLIENTS` threads share the proposal positions
/// `0..proposals` round robin. Position `p < instances` proposes to
/// instance `p`, a warm sweep that touches every instance once; every
/// later position draws its instance from Zipf(0.99). Each answer is
/// checked against the first fact any client got for its instance.
fn e23_load(service: &Service, clients: Clients, proposals: u64, instances: u64) -> Answers {
    let zipf = Zipf::new(instances, 0.99);
    let first: Vec<OnceLock<CommitFact>> = (0..instances).map(|_| OnceLock::new()).collect();
    let check =
        |seen: &mut Answers, instance: InstanceId, answer: Result<CommitFact, ServiceError>| {
            match answer {
                Err(_) => seen.rejected += 1,
                Ok(fact) => {
                    let reference = first[instance.0 as usize].get_or_init(|| fact.clone());
                    let valid = fact.instance == instance && fact.value < E23_VALUES;
                    seen.diverged += u64::from(!valid || fact != *reference);
                }
            }
        };
    let split = SeedSplitter::new(0);
    let (zipf, check) = (&zipf, &check);
    run_clients(E23_CLIENTS, |client| {
        let mut rng = split.stream("load-client", client as u64);
        async move {
            let mut seen = Answers::default();
            let mut open: Vec<(InstanceId, ProposeFuture)> = Vec::new();
            for position in (client as u64..proposals).step_by(E23_CLIENTS) {
                let instance = if position < instances {
                    InstanceId(position)
                } else {
                    InstanceId(zipf.sample(&mut rng))
                };
                let future = service.propose(instance, rng.range_u64(E23_VALUES));
                match clients {
                    Clients::Closed => check(&mut seen, instance, future.await),
                    Clients::Open => {
                        open.push((instance, future));
                        if open.len() == 4096 {
                            for (instance, future) in open.drain(..) {
                                check(&mut seen, instance, future.await);
                            }
                        }
                    }
                }
            }
            for (instance, future) in open {
                check(&mut seen, instance, future.await);
            }
            seen
        }
    })
    .into_iter()
    .fold(Answers::default(), |a, b| Answers {
        rejected: a.rejected + b.rejected,
        diverged: a.diverged + b.diverged,
    })
}

/// Runs E23's script and checks what E23 checked: every instance
/// decided exactly once, nothing rejected, every re-proposal answered
/// with its instance's first fact, and per-shard latency histograms in
/// the report `shutdown` returns.
fn check_e23(workers: usize, clients: Clients, proposals: u64, instances: u64) {
    let context = format!("workers={workers} {clients:?} loop");
    let service = Service::start(ServiceConfig {
        shards: E23_SHARDS,
        workers,
        shard: ShardConfig {
            seed: 0,
            capacity: usize::MAX,
            // Every batch commits in phase 1 (round robin), so the
            // budget only sizes each stack's layout.
            base_phases: 2,
        },
    });
    let answers = e23_load(&service, clients, proposals, instances);
    assert_eq!(answers.rejected, 0, "{context}");
    assert_eq!(
        answers.diverged, 0,
        "{context}: answers differing from their instance's first fact"
    );
    assert_eq!(service.stats().decided, instances as usize, "{context}");
    let obs = service.shutdown();
    assert_eq!(obs.count("service.decided"), instances, "{context}");
    assert_eq!(obs.count("service.proposals"), proposals, "{context}");
    for shard in 0..E23_SHARDS {
        let key = format!("shard{shard:03}.latency_ns");
        assert!(obs.hist(&key).is_some(), "{context}: no {key}");
    }
}

#[test]
fn zipf_closed_loop_decides_every_instance_once() {
    for workers in WORKER_COUNTS {
        check_e23(workers, Clients::Closed, 50_000, 5_000);
    }
}

#[test]
fn zipf_open_loop_decides_every_instance_once() {
    for workers in WORKER_COUNTS {
        check_e23(workers, Clients::Open, 50_000, 5_000);
    }
}

#[test]
#[ignore = "heavy tier: E23's acceptance size, run in release"]
fn zipf_load_at_a_million_proposals_decides_every_instance_once() {
    for clients in [Clients::Closed, Clients::Open] {
        check_e23(4, clients, 1_000_000, 100_000);
    }
}
