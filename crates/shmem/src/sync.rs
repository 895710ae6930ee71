//! A thin wrapper over [`std::sync::Mutex`] with a guard-returning API,
//! for the crate's internal bookkeeping locks (the history log, the
//! switch-trie's leaves).
//!
//! The substrate never hands lock guards across unwind boundaries, so a
//! poisoned lock can only follow a panic that is already propagating;
//! the wrapper recovers the guard instead of double-panicking. Using
//! std keeps the workspace free of external dependencies.

/// A mutual-exclusion lock; [`lock`](Mutex::lock) returns the guard
/// directly.
#[derive(Debug, Default)]
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock holding `value`.
    pub(crate) fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering from poisoning.
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the lock and returns its contents, recovering from
    /// poisoning.
    pub(crate) fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }
}
