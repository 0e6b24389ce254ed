//! Persistent corner-evaluation fan-out on the process-wide substrate.
//!
//! [`WorkerPool`] queues jobs with [`WorkerPool::submit`] and runs them
//! on the process-lifetime [`boson_num::pool`] workers, spawning no
//! threads of its own. `make_worker(i)` builds one closure per lane,
//! capturing whatever private state the caller wants kept warm (an
//! `EvalScratch` with its factor buffers, for the corner loop). Each
//! flush is one `boson_num::pool::WorkPool::map_with` dispatch with the
//! closures as lane contexts, so a closure runs on one thread at a time.
//! A panic inside a job is caught, stored with the job's slot, and
//! re-raised on the thread calling [`WorkerPool::recv`] — a loud
//! failure, never a hung run.
//!
//! No library code calls [`WorkerPool`]: the runner's direct corner
//! fan-out runs inside
//! [`crate::compiled::CompiledProblem::evaluate_corner_product`], on
//! `boson_num::pool` lanes with one `EvalScratch` each. The type stays
//! because the end-to-end benchmark's layer-by-layer replay
//! (`e2ebench/src/trace.rs`) builds against it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use boson_num::pool;

/// A fixed set of worker closures processing jobs of type `J` into
/// results of type `R` on the process-wide pool. `'env` is the lifetime
/// of whatever environment the worker closures borrow.
///
/// Results come back in **submission order** (the dispatch itself is
/// dynamic, but every queued job completes before the first
/// [`WorkerPool::recv`] returns, so ordering costs nothing); callers
/// that tag jobs with a slot index keep working unchanged.
pub struct WorkerPool<'env, J: Send, R: Send> {
    /// One closure per worker lane, each owning its private state.
    workers: Vec<Box<dyn FnMut(J) -> R + Send + 'env>>,
    /// Jobs queued since the last flush.
    queue: Vec<J>,
    /// Finished results in submission order, drained by `recv`.
    results: VecDeque<std::thread::Result<R>>,
}

impl<'env, J: Send, R: Send> WorkerPool<'env, J, R> {
    /// Builds `threads` worker closures; `make_worker(i)` constructs the
    /// per-lane closure (capturing that lane's private state). No
    /// threads are spawned — execution happens on the process-wide pool,
    /// on up to `threads` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new<F, W>(threads: usize, mut make_worker: F) -> Self
    where
        F: FnMut(usize) -> W,
        W: FnMut(J) -> R + Send + 'env,
    {
        assert!(threads > 0, "worker pool needs at least one worker");
        let mut workers: Vec<Box<dyn FnMut(J) -> R + Send + 'env>> = Vec::with_capacity(threads);
        for i in 0..threads {
            workers.push(Box::new(make_worker(i)));
        }
        Self {
            workers,
            queue: Vec::new(),
            results: VecDeque::new(),
        }
    }

    /// Number of worker closures (the pool's lane budget).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one job; nothing runs until [`WorkerPool::recv`] needs a
    /// result (batch submission then keeps a single pool dispatch for
    /// the whole fan-out).
    pub fn submit(&mut self, job: J) {
        self.queue.push(job);
    }

    /// Blocks for the next finished result, in submission order.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that occurred inside a worker's job (remaining
    /// results stay retrievable), and panics if called with no job
    /// submitted.
    pub fn recv(&mut self) -> R {
        if self.results.is_empty() {
            self.flush();
        }
        match self.results.pop_front() {
            Some(Ok(result)) => result,
            Some(Err(payload)) => resume_unwind(payload),
            None => panic!("worker pool recv with no job submitted"),
        }
    }

    /// Runs every queued job on the process-wide pool, filling
    /// `self.results` in submission order.
    fn flush(&mut self) {
        let jobs = std::mem::take(&mut self.queue);
        let results = pool::global().map_with(jobs, &mut self.workers, |job, work| {
            catch_unwind(AssertUnwindSafe(|| work(job)))
        });
        self.results.extend(results);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_processes_all_jobs_with_persistent_state() {
        // Each worker counts its own jobs — persistent per-lane state.
        let mut pool: WorkerPool<usize, (usize, usize, usize)> = WorkerPool::new(3, |wid| {
            let mut handled = 0usize;
            move |job: usize| {
                handled += 1;
                (job, job * job, wid * handled)
            }
        });
        let njobs = 40;
        for j in 0..njobs {
            pool.submit(j);
        }
        let mut out = vec![0usize; njobs];
        for _ in 0..njobs {
            let (j, sq, _) = pool.recv();
            out[j] = sq;
        }
        for (j, sq) in out.iter().enumerate() {
            assert_eq!(*sq, j * j);
        }
    }

    #[test]
    fn pool_survives_multiple_batches() {
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(2, |_| |x: u64| x + 1);
        for batch in 0..5u64 {
            for j in 0..8 {
                pool.submit(batch * 100 + j);
            }
            let mut sum = 0;
            for _ in 0..8 {
                sum += pool.recv();
            }
            assert_eq!(sum, (0..8).map(|j| batch * 100 + j + 1).sum::<u64>());
        }
    }

    #[test]
    fn pool_borrows_its_environment() {
        // The 'env lifetime lets workers borrow run-local state, the way
        // the runner's workers borrow the compiled problem.
        let base = [10u64, 20, 30, 40];
        let mut pool: WorkerPool<usize, u64> = WorkerPool::new(2, |_| |i: usize| base[i] * 2);
        for i in 0..base.len() {
            pool.submit(i);
        }
        let got: Vec<u64> = (0..base.len()).map(|_| pool.recv()).collect();
        assert_eq!(got, vec![20, 40, 60, 80]);
    }

    #[test]
    #[should_panic(expected = "corner exploded")]
    fn worker_panic_propagates_to_consumer() {
        let mut pool: WorkerPool<u32, u32> = WorkerPool::new(2, |_| {
            |x: u32| {
                if x == 3 {
                    panic!("corner exploded");
                }
                x
            }
        });
        for j in 0..4 {
            pool.submit(j);
        }
        for _ in 0..4 {
            pool.recv();
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let mut pool: WorkerPool<u32, u32> = WorkerPool::new(4, |_| |x: u32| x * x);
        for j in [5u32, 1, 9, 2] {
            pool.submit(j);
        }
        let got: Vec<u32> = (0..4).map(|_| pool.recv()).collect();
        assert_eq!(got, vec![25, 1, 81, 4]);
    }
}
