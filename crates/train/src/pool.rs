//! Persistent worker pool for the sharded training pipeline.
//!
//! PR 2's parallel trainer spawned one `std::thread::scope` per mini-batch;
//! the spawn/join round-trip cost ~5% of an epoch even on one core (measured
//! in `BENCH_parallel.json`). [`WorkerPool`] removes it: threads are spawned
//! **once** (per [`Trainer`](crate::Trainer) lifetime) and then *parked* on
//! their job channels between batches — a blocked `recv()` costs nothing
//! while the main thread runs the merge/apply stages, and waking a parked
//! thread is an order of magnitude cheaper than creating one.
//!
//! # Round protocol
//!
//! A *round* is one call to [`WorkerPool::run_round`] (one mini-batch in the
//! trainer): the caller dispatches at most one job per worker, then blocks
//! until every dispatched job has reported completion.
//!
//! ```text
//! main thread                 worker i
//! ───────────                 ────────
//! send(job_i)  ─────────────▶ recv() wakes, runs job_i
//!     ⋮                       send(done_i) ───┐
//! recv() × dispatched  ◀─────────────────────┘
//! (merge / optimizer step — workers parked in recv())
//! ```
//!
//! The channels give the necessary happens-before edges: everything the main
//! thread wrote before `send(job_i)` is visible to worker `i`, and everything
//! worker `i` wrote is visible to the main thread after it receives the
//! completion message. Because the main thread never touches the dispatched
//! borrows between send and the final recv, each round is race-free — the
//! same discipline `std::thread::scope` enforces statically, held here by
//! `run_round`'s *drain-before-return* guarantee instead (which is also what
//! makes the internal lifetime erasure of the job closures sound; see the
//! `SAFETY` notes in the source).
//!
//! # Panic safety and shutdown
//!
//! Worker threads never die between rounds: a panicking job is caught on the
//! worker, carried back in its completion message, and re-thrown on the main
//! thread **after** the round has fully drained — so one shard's panic can
//! neither leak borrowed data nor poison the pool. If a completion message
//! can ever *not* be delivered (a worker vanished mid-round), the process
//! aborts rather than risk a use-after-free of round-borrowed data; no safe
//! code path reaches this. Dropping the pool closes the job channels; each
//! worker's `recv()` then errors, the worker exits its loop, and `Drop`
//! joins every thread — shutdown is deterministic and leak-free.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A lifetime-erased job. Only constructed inside [`WorkerPool::run_round`],
/// which guarantees the erased borrows outlive the job's execution.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion message of one job: the panic payload if it unwound.
type RoundDone = Option<Box<dyn Any + Send + 'static>>;

struct Worker {
    /// Job channel; `None` only during shutdown.
    tx: Option<Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

/// A fixed-size pool of persistent, channel-parked worker threads driven in
/// synchronous rounds. See the module docs for the protocol.
pub struct WorkerPool {
    workers: Vec<Worker>,
    done_rx: Receiver<RoundDone>,
}

impl WorkerPool {
    /// Spawn `workers` threads, immediately parked waiting for their first
    /// round.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let (done_tx, done_rx) = channel::<RoundDone>();
        let workers = (0..workers)
            .map(|i| {
                let (tx, rx) = channel::<Job>();
                let done = done_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("nsc-shard-{i}"))
                    .spawn(move || worker_loop(rx, done))
                    .expect("spawning a pool worker thread");
                Worker {
                    tx: Some(tx),
                    handle: Some(handle),
                }
            })
            .collect();
        Self { workers, done_rx }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run one round: dispatch each `(worker index, job)` pair to its worker
    /// and block until every dispatched job has completed.
    ///
    /// Panics from jobs are re-thrown here (after the round has drained, so
    /// the pool stays usable). Dispatching two jobs to the same worker in one
    /// round is allowed — they run sequentially in dispatch order — but the
    /// trainer maps shard `i` to worker `i` so rounds are one-to-one.
    pub fn run_round<'env>(
        &mut self,
        jobs: impl IntoIterator<Item = (usize, Box<dyn FnOnce() + Send + 'env>)>,
    ) {
        let mut drain = Drain {
            rx: &self.done_rx,
            pending: 0,
        };
        for (worker, job) in jobs {
            // SAFETY: `drain` guarantees — on both the normal path
            // (`finish`) and the unwind path (`Drop`) — that this function
            // does not return before one completion message per dispatched
            // job has been received, and it aborts the process if that ever
            // becomes impossible. The job therefore cannot run, or be
            // dropped, after the `'env` borrows it captures expire.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            let tx = self.workers[worker]
                .tx
                .as_ref()
                .expect("pool is not shutting down");
            // A send can only fail if the worker thread is gone, which no
            // safe code path can cause (job panics are caught on the
            // worker). Abort rather than unwind: `job` was moved into the
            // channel and may now be dropped at an arbitrary time.
            if tx.send(job).is_err() {
                std::process::abort();
            }
            drain.pending += 1;
        }
        if let Some(payload) = drain.finish() {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels unparks every worker with a recv error…
        for worker in &mut self.workers {
            worker.tx.take();
        }
        // …and each then exits its loop and can be joined.
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Guarantees the drain-before-return half of the round protocol: exactly
/// `pending` completion messages are consumed before control leaves
/// `run_round`, whether it returns normally (`finish`) or unwinds past the
/// guard (`Drop`).
struct Drain<'a> {
    rx: &'a Receiver<RoundDone>,
    pending: usize,
}

impl Drain<'_> {
    /// Consume the guard, draining all pending completions; returns the last
    /// panic payload observed, if any.
    fn finish(mut self) -> RoundDone {
        let mut payload = None;
        while self.pending > 0 {
            self.pending -= 1;
            match self.rx.recv() {
                Ok(done) => payload = done.or(payload),
                // A missing completion message means a worker vanished with
                // round borrows possibly still live; continuing would risk a
                // use-after-free, so don't.
                Err(_) => std::process::abort(),
            }
        }
        payload
    }
}

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        while self.pending > 0 {
            self.pending -= 1;
            if self.rx.recv().is_err() {
                std::process::abort();
            }
        }
    }
}

/// Body of one worker thread: run jobs until the pool drops the channel.
fn worker_loop(rx: Receiver<Job>, done: Sender<RoundDone>) {
    while let Ok(job) = rx.recv() {
        let payload = catch_unwind(AssertUnwindSafe(job)).err();
        if done.send(payload).is_err() {
            // The pool vanished mid-round; nothing left to report to.
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_results_are_visible_through_borrows() {
        let mut pool = WorkerPool::new(4);
        let mut outputs = [0usize; 4];
        {
            let jobs = outputs.iter_mut().enumerate().map(|(i, out)| {
                (
                    i,
                    Box::new(move || *out = i * 10) as Box<dyn FnOnce() + Send + '_>,
                )
            });
            pool.run_round(jobs);
        }
        assert_eq!(outputs, [0, 10, 20, 30]);
    }

    #[test]
    fn pool_is_reusable_across_many_rounds() {
        let mut pool = WorkerPool::new(3);
        let mut counters = [0u64; 3];
        for round in 0..200 {
            let jobs = counters.iter_mut().enumerate().filter_map(|(i, c)| {
                // Leave some workers idle on some rounds, like empty shards.
                if (round + i) % 3 == 0 {
                    return None;
                }
                Some((
                    i,
                    Box::new(move || *c += 1) as Box<dyn FnOnce() + Send + '_>,
                ))
            });
            pool.run_round(jobs);
        }
        // Each round skips exactly one of the three workers.
        assert_eq!(counters.iter().sum::<u64>(), 200 * 2);
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn empty_rounds_are_free() {
        let mut pool = WorkerPool::new(2);
        for _ in 0..10 {
            pool.run_round(std::iter::empty::<(usize, Box<dyn FnOnce() + Send>)>());
        }
    }

    #[test]
    fn jobs_actually_run_on_other_threads() {
        let mut pool = WorkerPool::new(2);
        let main_thread = std::thread::current().id();
        let mut seen = [None, None];
        {
            let jobs = seen.iter_mut().enumerate().map(|(i, slot)| {
                (
                    i,
                    Box::new(move || *slot = Some(std::thread::current().id()))
                        as Box<dyn FnOnce() + Send + '_>,
                )
            });
            pool.run_round(jobs);
        }
        let a = seen[0].expect("job 0 ran");
        let b = seen[1].expect("job 1 ran");
        assert_ne!(a, main_thread);
        assert_ne!(b, main_thread);
        assert_ne!(a, b, "distinct workers run distinct jobs");
    }

    #[test]
    fn a_panicking_job_propagates_without_poisoning_the_pool() {
        let mut pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let round = |pool: &mut WorkerPool, explode: bool| {
            let jobs = (0..2).map(|i| {
                let hits = &hits;
                (
                    i,
                    Box::new(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                        if explode && i == 1 {
                            panic!("shard exploded");
                        }
                    }) as Box<dyn FnOnce() + Send + '_>,
                )
            });
            pool.run_round(jobs);
        };
        let err = catch_unwind(AssertUnwindSafe(|| round(&mut pool, true)))
            .expect_err("the job panic must surface");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "shard exploded");
        // Both jobs of the failed round ran to their end or panic point…
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        // …and the pool still works.
        round(&mut pool, false);
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(8);
        drop(pool); // must not hang or leak; Drop joins every thread
    }
}
