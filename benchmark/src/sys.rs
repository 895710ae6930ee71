//! The host: process clock, peak memory, core count, thread placement.

use std::sync::OnceLock;
use std::time::Instant;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();
static NPROC: OnceLock<usize> = OnceLock::new();
static PLACEMENT: OnceLock<Placement> = OnceLock::new();

/// Marks process start; `main` calls this first so `now_ns` counts
/// from (as near as the program can tell) the start of the process,
/// and so the core count is read before any thread is pinned.
pub fn start_clock() {
    PROCESS_START.get_or_init(Instant::now);
    nproc();
}

/// Nanoseconds since [`start_clock`].
pub fn now_ns() -> u64 {
    PROCESS_START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds since [`start_clock`].
pub fn now_s() -> f64 {
    now_ns() as f64 / 1e9
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` does not exist or does not carry it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores the process may run on, as first asked: the answer follows
/// the calling thread's affinity mask, so it is cached before pinning
/// narrows that mask to one core.
pub fn nproc() -> usize {
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Pins the calling thread to `core` through the repo's public
/// `pin_to_core`; `false` means the kernel or platform refused and the
/// thread stays where the scheduler puts it.
pub fn pin(core: usize) -> bool {
    sift_shmem::affinity::pin_to_core(core)
}

/// Where the threaded phases put their two threads. With fewer than two
/// cores, or when pinning is refused, placement is left to the
/// scheduler and every threaded metric is reported with
/// `bench.pinning = 0` beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Whether both pins took effect.
    pub pinned: bool,
}

impl Placement {
    /// Core of the benchmark's own (client / main) thread.
    pub const CLIENT_CORE: usize = 0;
    /// Core of the thread it works against (service worker, peer).
    pub const PEER_CORE: usize = 1;

    /// The process's placement: decided once, on first use, by probing
    /// both cores from a scratch thread and then pinning the calling
    /// (main) thread to the client core.
    pub fn get() -> Self {
        *PLACEMENT.get_or_init(Self::probe)
    }

    fn probe() -> Self {
        let both = nproc() >= 2
            && std::thread::spawn(|| pin(Self::PEER_CORE) && pin(Self::CLIENT_CORE))
                .join()
                .unwrap_or(false);
        let pinned = both && pin(Self::CLIENT_CORE);
        if !pinned {
            eprintln!(
                "warning: core pinning unavailable (nproc = {}); threaded metrics are unpinned \
                 and may be bimodal (bench.pinning = 0)",
                nproc()
            );
        }
        Self { pinned }
    }

    /// Runs `start` — which spawns the peer thread — with the calling
    /// thread on the peer core, so the new thread inherits that mask,
    /// then moves the calling thread back to the client core.
    pub fn start_peer<T>(&self, start: impl FnOnce() -> T) -> T {
        if !self.pinned {
            return start();
        }
        pin(Self::PEER_CORE);
        let started = start();
        pin(Self::CLIENT_CORE);
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        start_clock();
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert!(now_s() >= 0.0);
    }

    #[test]
    fn peak_rss_reads_as_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.5);
        }
    }

    #[test]
    fn unpinned_placement_just_runs_the_closure() {
        let placement = Placement { pinned: false };
        assert_eq!(placement.start_peer(|| 7), 7);
    }
}
