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

use std::collections::HashMap;

use sift::service::runtime::block_on;
use sift::service::{CommitFact, InstanceId, Service, ServiceConfig, ShardConfig};

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
