//! A minimal async runtime: oneshot channels and `block_on`.
//!
//! The workspace builds fully offline, so the service cannot link an
//! external runtime (tokio); this module provides the thin slice the
//! service needs — completion futures for proposals and a way for plain
//! threads to wait on them. Nothing here is specific to consensus; it is
//! deliberately tiny rather than general.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// One-shot channel: a [`Sender`](oneshot::Sender) half that delivers at
/// most one value and a [`Receiver`](oneshot::Receiver) half that is a
/// [`Future`] of it.
pub mod oneshot {
    use super::*;

    enum State<T> {
        /// Nothing sent yet; the receiver may have parked a waker.
        Empty(Option<Waker>),
        /// A value is waiting for the receiver.
        Value(T),
        /// The sender dropped without sending.
        SenderGone,
        /// The receiver is gone (dropped or already took the value).
        Closed,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
    }

    /// The sending half; delivering is infallible bookkeeping even if
    /// the receiver has been dropped (the value is simply discarded).
    /// `send` takes the channel out, so the drop path only runs for a
    /// sender that never sent.
    pub struct Sender<T>(Option<Arc<Inner<T>>>);

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("oneshot::Sender")
        }
    }

    /// The receiving half: a future resolving to `Ok(value)` or
    /// `Err(RecvError)` if the sender dropped without sending.
    pub struct Receiver<T>(Arc<Inner<T>>);

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("oneshot::Receiver")
        }
    }

    /// The sender was dropped before sending a value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("oneshot sender dropped without sending")
        }
    }

    impl std::error::Error for RecvError {}

    /// Creates a connected sender/receiver pair.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State::Empty(None)),
        });
        (Sender(Some(Arc::clone(&inner))), Receiver(inner))
    }

    impl<T> Sender<T> {
        /// Delivers `value`. Returns it back if the receiver is gone —
        /// callers that treat cancellation as uninteresting can ignore
        /// the result.
        pub fn send(mut self, value: T) -> Result<(), T> {
            let inner = self.0.take().expect("only `send` takes the channel");
            let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            match std::mem::replace(&mut *state, State::Closed) {
                State::Empty(waker) => {
                    *state = State::Value(value);
                    drop(state);
                    if let Some(w) = waker {
                        w.wake();
                    }
                    Ok(())
                }
                State::Closed => Err(value),
                // A oneshot sender is consumed by `send`, so the state
                // cannot already hold a value or a dropped-sender mark.
                State::Value(_) | State::SenderGone => unreachable!("oneshot sent twice"),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            // After `send` there is no channel left to lock.
            let Some(inner) = self.0.take() else { return };
            let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            // The receiver may already be gone (`Closed`); only a
            // still-empty channel learns that no value is coming.
            if matches!(*state, State::Empty(_)) {
                if let State::Empty(waker) = std::mem::replace(&mut *state, State::SenderGone) {
                    drop(state);
                    if let Some(w) = waker {
                        w.wake();
                    }
                }
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            *state = State::Closed;
        }
    }

    impl<T> Future for Receiver<T> {
        type Output = Result<T, RecvError>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            match std::mem::replace(&mut *state, State::Closed) {
                State::Value(v) => Poll::Ready(Ok(v)),
                State::SenderGone => Poll::Ready(Err(RecvError)),
                State::Empty(_) => {
                    *state = State::Empty(Some(cx.waker().clone()));
                    Poll::Pending
                }
                State::Closed => unreachable!("oneshot receiver polled after completion"),
            }
        }
    }
}

struct ThreadUnparker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadUnparker {
    fn wake(self: Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// How long [`block_on`] spins on a pending future before it parks:
/// long enough to cover a shard worker's wake-up plus a k = 8 tick.
const SPIN: Duration = Duration::from_micros(50);

/// Drives `future` to completion on the current thread. This is how
/// plain (OS-thread) clients wait on a proposal.
///
/// After a `Pending` poll it spins for up to `SPIN` (50 µs) watching
/// for the wake, then parks. A reply that lands inside the window costs
/// the waking thread no futex wake (`unpark` of a running thread is a
/// store) and this thread no trip through the scheduler. Such a wake
/// leaves the thread's park token set; the park loop absorbs it, so a
/// later wait still waits.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let unparker = Arc::new(ThreadUnparker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    loop {
        if let Poll::Ready(out) = future.as_mut().poll(&mut cx) {
            return out;
        }
        let give_up = Instant::now() + SPIN;
        while !unparker.notified.load(Ordering::Relaxed) && Instant::now() < give_up {
            std::hint::spin_loop();
        }
        while !unparker.notified.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneshot_delivers() {
        let (tx, rx) = oneshot::channel();
        tx.send(41u32).unwrap();
        assert_eq!(block_on(rx), Ok(41));
    }

    #[test]
    fn oneshot_reports_dropped_sender() {
        let (tx, rx) = oneshot::channel::<u32>();
        drop(tx);
        assert_eq!(block_on(rx), Err(oneshot::RecvError));
    }

    #[test]
    fn oneshot_send_to_dropped_receiver_is_harmless() {
        let (tx, rx) = oneshot::channel();
        drop(rx);
        assert_eq!(tx.send(7u32), Err(7));
    }

    #[test]
    fn block_on_waits_for_cross_thread_send() {
        let (tx, rx) = oneshot::channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx.send(99u64).unwrap();
        });
        assert_eq!(block_on(rx), Ok(99));
        sender.join().unwrap();
    }

    /// Pending on its first poll, but wakes itself before returning, the
    /// way a reply that lands during the spin does: `block_on` sees the
    /// wake without parking, so the thread's park token stays set.
    struct WakesWhilePending(bool);

    impl Future for WakesWhilePending {
        type Output = u8;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u8> {
            if std::mem::replace(&mut self.0, true) {
                return Poll::Ready(1);
            }
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }

    #[test]
    fn block_on_after_a_spun_wake_still_waits() {
        assert_eq!(block_on(WakesWhilePending(false)), 1);
        // The leftover token makes the next `park` return at once; the
        // second wait must absorb it and keep waiting for the send.
        let (tx, rx) = oneshot::channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(2u8).unwrap();
        });
        assert_eq!(block_on(rx), Ok(2));
        sender.join().unwrap();
    }
}
