//! A resident worker pool: long-lived pinned threads with per-worker
//! mailboxes and park/unpark signalling.
//!
//! Spawning and joining a thread per device on every query costs more
//! than the query for a *stream*: on the recorded baselines the
//! spawn/join overhead alone made a per-device-thread executor slower
//! than a serial scan. [`ResidentPool`] keeps its workers alive across
//! calls instead (the batch executor starts one per core beyond the
//! caller's, each carrying a contiguous chunk of devices), so
//! steady-state dispatch is one mailbox push and one `unpark` — no
//! thread creation anywhere on the hot path.
//!
//! Design, std primitives only (hermetic — no crossbeam):
//!
//! * **Mailboxes** — one [`crate::sync::Mutex`]`<VecDeque<Job>>` per
//!   worker. Each queue has a single consumer (its worker); producers
//!   push through [`ResidentPool::submit`]. The lock is held only to
//!   push/pop, never while a job runs.
//! * **Signalling** — [`std::thread::park`] /
//!   [`Thread::unpark`](std::thread::Thread::unpark). A worker that
//!   finds its mailbox empty parks; `submit` unparks after
//!   pushing. `unpark` on a not-yet-parked thread stores a token that
//!   makes the next `park` return immediately, so the push→park race is
//!   benign; spurious wakeups just re-check the queue.
//! * **Panics** — a panicking job is caught, counted
//!   (`pool.resident.job_panics`), and stored; the worker survives.
//!   Callers that need propagation take the payload with
//!   [`ResidentPool::take_panic`] and re-raise it.
//!
//! Observability: `pool.resident.jobs` / `pool.resident.parks` counters
//! and a `pool.resident.queue_depth` histogram (depth observed at each
//! submit) — queue depth and worker occupancy for a traced run.
//!
//! # Examples
//!
//! ```
//! use pmr_rt::pool::resident::ResidentPool;
//! use std::sync::mpsc;
//!
//! let pool = ResidentPool::new(4);
//! let (tx, rx) = mpsc::channel();
//! for w in 0..4 {
//!     let tx = tx.clone();
//!     pool.submit(w, move || tx.send(w * 10).unwrap());
//! }
//! drop(tx);
//! let mut out: Vec<usize> = rx.iter().collect();
//! out.sort();
//! assert_eq!(out, vec![0, 10, 20, 30]);
//! ```

use crate::sync::Mutex;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A job queued onto one worker. Jobs are `'static`: a resident worker
/// outlives any caller's stack frame, so shared state crosses by `Arc`.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct Shared {
    /// One mailbox per worker; each has exactly one consumer.
    mailboxes: Vec<Mutex<VecDeque<Job>>>,
    /// Set (then all workers unparked) when the pool drops.
    shutdown: AtomicBool,
    /// First panic payload from any job, for caller-side propagation.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A fixed set of resident worker threads, one mailbox each.
///
/// Dropping the pool drains: every already-submitted job still runs,
/// then the workers exit and are joined.
pub struct ResidentPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ResidentPool {
    /// Starts `workers` resident threads (at least 1), named
    /// `pmr-resident-<i>`.
    pub fn new(workers: usize) -> ResidentPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            mailboxes: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("pmr-resident-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning a resident worker")
            })
            .collect();
        ResidentPool { shared, handles }
    }

    /// Number of resident workers.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Queues `job` onto `worker`'s mailbox and wakes the worker. Jobs on
    /// one worker run in submission order.
    ///
    /// # Panics
    ///
    /// If `worker` is out of range.
    pub fn submit<F>(&self, worker: usize, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let depth = {
            let mut mailbox = self.shared.mailboxes[worker].lock();
            mailbox.push_back(Box::new(job));
            mailbox.len()
        };
        crate::obs::POOL_RESIDENT_JOBS.add(1);
        crate::obs::POOL_RESIDENT_QUEUE_DEPTH.observe_us(depth as f64);
        self.handles[worker].thread().unpark();
    }

    /// Jobs currently waiting in `worker`'s mailbox (not counting a job
    /// already running). A scheduling signal, racy by nature.
    pub fn queue_depth(&self, worker: usize) -> usize {
        self.shared.mailboxes[worker].lock().len()
    }

    /// Takes the first panic payload raised by any job since the last
    /// call, if one occurred. Callers detecting a wedged protocol (e.g. a
    /// result channel closing early) re-raise it with
    /// [`std::panic::resume_unwind`].
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.shared.panic.lock().take()
    }
}

impl Drop for ResidentPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for handle in &self.handles {
            handle.thread().unpark();
        }
        for handle in self.handles.drain(..) {
            // A worker's own panics are caught in its loop; join errors
            // are not expected, and a pool drop must not double-panic.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut executed = 0u64;
    let mut parks = 0u64;
    loop {
        let job = shared.mailboxes[index].lock().pop_front();
        match job {
            Some(job) => {
                executed += 1;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                    crate::obs::POOL_RESIDENT_JOB_PANICS.add(1);
                    let mut slot = shared.panic.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            None => {
                // Check shutdown only with an empty mailbox: drop-time
                // drain semantics.
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                parks += 1;
                std::thread::park();
            }
        }
    }
    crate::obs::POOL_RESIDENT_JOBS_EXECUTED.add(executed);
    crate::obs::POOL_RESIDENT_PARKS.add(parks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_on_their_worker_in_order() {
        let pool = ResidentPool::new(3);
        let (tx, rx) = mpsc::channel();
        for round in 0..5u64 {
            for w in 0..3usize {
                let tx = tx.clone();
                pool.submit(w, move || tx.send((w, round)).unwrap());
            }
        }
        drop(tx);
        let mut per_worker: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for _ in 0..15 {
            let (w, round) = rx.recv().unwrap();
            per_worker[w].push(round);
        }
        // FIFO per mailbox.
        for rounds in per_worker {
            assert_eq!(rounds, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ResidentPool::new(2);
            for i in 0..64u64 {
                let counter = counter.clone();
                pool.submit((i % 2) as usize, move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop: must run all 64 before joining
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panicking_job_is_contained_and_reported() {
        let pool = ResidentPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.submit(0, || panic!("job exploded"));
        pool.submit(0, move || tx.send(42u64).unwrap());
        // The worker survived the panic and ran the next job.
        assert_eq!(rx.recv().unwrap(), 42);
        let payload = pool.take_panic().expect("panic payload stored");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "job exploded");
        assert!(pool.take_panic().is_none(), "payload is taken once");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ResidentPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = mpsc::channel();
        pool.submit(0, move || tx.send(1u8).unwrap());
        assert_eq!(rx.recv().unwrap(), 1);
    }
}
