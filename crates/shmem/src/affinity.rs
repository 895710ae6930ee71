//! Thread-to-core pinning for the ledger's timed workloads.
//!
//! The ledger under `benchmark/` pins each worker thread to a core so a
//! measured profile is a property of the primitives, not of where the
//! scheduler happened to place the threads, and reports whether pinning
//! actually took effect. The workspace carries no `libc` dependency, so
//! on x86-64 Linux the single call this needs — `sched_setaffinity(2)`
//! on the calling thread — is made as a raw syscall; everywhere else
//! [`pin_to_core`] reports failure and the caller falls back to an
//! unpinned run.

/// Pins the **calling thread** to `core` (0-based). Returns `true` on
/// success; `false` when the core does not exist, the kernel refuses,
/// or the platform is unsupported (non-Linux, non-x86-64).
pub fn pin_to_core(core: usize) -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        // A fixed 1024-bit cpu_set_t, the kernel's historical size.
        let mut mask = [0u64; 16];
        if core >= mask.len() * 64 {
            return false;
        }
        mask[core / 64] = 1u64 << (core % 64);
        let ret: isize;
        // Safety: sched_setaffinity (x86-64 syscall 203) reads
        // `len` bytes from the mask pointer and touches nothing else;
        // pid 0 means the calling thread. The asm clobbers only the
        // registers the syscall ABI says it may (rcx, r11, flags).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => ret,
                in("rdi") 0usize,                       // pid: calling thread
                in("rsi") std::mem::size_of_val(&mask), // mask length in bytes
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, readonly),
            );
        }
        ret == 0
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = core;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin inside a scratch thread so the test runner's own thread
    /// keeps its affinity.
    #[test]
    fn pinning_to_core_zero_succeeds_where_supported() {
        let ok = std::thread::spawn(|| pin_to_core(0)).join().unwrap();
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert!(ok, "core 0 always exists");
        } else {
            assert!(!ok, "unsupported platforms must report failure");
        }
    }

    #[test]
    fn pinning_to_absent_core_fails() {
        let ok = std::thread::spawn(|| pin_to_core(1 << 20)).join().unwrap();
        assert!(!ok);
    }
}
