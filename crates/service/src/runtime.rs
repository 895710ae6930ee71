//! A minimal async runtime: oneshot channels, `block_on`, and a small
//! thread-pool executor.
//!
//! The workspace builds fully offline, so the service cannot link an
//! external runtime (tokio); this module provides the thin slice the
//! service needs — completion futures for proposals, a way for plain
//! threads to wait on them, and a pool to run many client tasks
//! concurrently in tests and load generators. Nothing here is specific
//! to consensus; it is deliberately tiny rather than general.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};

/// One-shot channel: a [`Sender`] half that delivers at most one value
/// and a [`Receiver`] half that is a [`Future`] of it.
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
    pub struct Sender<T>(Arc<Inner<T>>);

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
        (Sender(Arc::clone(&inner)), Receiver(inner))
    }

    impl<T> Sender<T> {
        /// Delivers `value`. Returns it back if the receiver is gone —
        /// callers that treat cancellation as uninteresting can ignore
        /// the result.
        pub fn send(self, value: T) -> Result<(), T> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
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
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            // `send` consumes the sender, so this also runs right after
            // a successful send — only a still-empty channel means the
            // sender is going away without a value.
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

/// Drives `future` to completion on the current thread, parking between
/// polls. This is how plain (OS-thread) clients wait on a proposal.
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
        while !unparker.notified.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

type BoxedFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Task>>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn push(&self, task: Arc<Task>) {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(task);
        drop(queue);
        self.available.notify_one();
    }
}

struct Task {
    /// `Some` while the task still has work; taken for good once the
    /// future completes.
    future: Mutex<Option<BoxedFuture>>,
    pool: Weak<PoolShared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if let Some(pool) = self.pool.upgrade() {
            pool.push(self);
        }
    }
}

/// A fixed-size thread-pool executor for `Send` futures.
///
/// Just enough to run "N concurrent clients" workloads: spawn returns a
/// [`JoinHandle`] future (also joinable from a plain thread). Dropping
/// the pool stops the workers after their current poll; tasks still
/// queued are dropped, which surfaces to their join handles as a
/// [`oneshot::RecvError`].
///
/// # Examples
///
/// ```
/// use sift_service::runtime::Pool;
///
/// let pool = Pool::new(4);
/// let handles: Vec<_> = (0..8).map(|i| pool.spawn(async move { i * 2 })).collect();
/// let sum: i32 = handles.into_iter().map(|h| h.join()).sum();
/// assert_eq!(sum, 56);
/// ```
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Starts `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sift-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Schedules `future` and returns a handle to its output.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (tx, rx) = oneshot::channel();
        let wrapped = async move {
            // A dropped JoinHandle makes delivery fail; that is
            // cancellation-by-disinterest, not an error.
            let _ = tx.send(future.await);
        };
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            pool: Arc::downgrade(&self.shared),
        });
        self.shared.push(task);
        JoinHandle { receiver: rx }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Raise the flag under the queue lock. A worker reads it with the
        // lock held and gives the lock up only inside `wait`; stored
        // without the lock, the flag and this notify could both land
        // between that read and that wait, and the worker would sleep
        // through its own shutdown while `join` below waits for it.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // Holding the slot lock across the poll serializes concurrent
        // wake-ups of the same task: a second worker that pops it
        // blocks here until this poll returns, then sees either the
        // parked future (and polls it again, as the wake demanded) or
        // `None` (task finished; nothing to do).
        let mut slot = task.future.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(mut future) = slot.take() {
            let waker = Waker::from(Arc::clone(&task));
            let mut cx = Context::from_waker(&waker);
            if future.as_mut().poll(&mut cx).is_pending() {
                *slot = Some(future);
            }
        }
    }
}

/// Handle to a spawned task's output: await it from async code or
/// [`join`](JoinHandle::join) it from a plain thread.
pub struct JoinHandle<T> {
    receiver: oneshot::Receiver<T>,
}

impl<T> JoinHandle<T> {
    /// Blocks the current thread until the task completes.
    ///
    /// # Panics
    ///
    /// Panics if the task was dropped unfinished (pool shut down).
    pub fn join(self) -> T {
        block_on(self.receiver).expect("task dropped before completing")
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, oneshot::RecvError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.receiver).poll(cx)
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

    #[test]
    fn pool_runs_many_tasks_on_few_threads() {
        let pool = Pool::new(2);
        let handles: Vec<_> = (0..64u64).map(|i| pool.spawn(async move { i })).collect();
        let total: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(total, 64 * 63 / 2);
    }

    #[test]
    fn pool_tasks_can_await_each_other() {
        let pool = Pool::new(2);
        let (tx, rx) = oneshot::channel();
        let downstream = pool.spawn(async move { rx.await.unwrap() + 1 });
        let upstream = pool.spawn(async move {
            tx.send(10u32).unwrap();
        });
        upstream.join();
        assert_eq!(downstream.join(), 11);
    }

    #[test]
    fn dropping_a_join_handle_cancels_nothing_and_panics_nothing() {
        let pool = Pool::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&flag);
        let handle = pool.spawn(async move {
            seen.store(true, Ordering::Release);
        });
        drop(handle);
        // The task still runs; give the worker a moment.
        for _ in 0..100 {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("spawned task never ran after its handle was dropped");
    }
}
