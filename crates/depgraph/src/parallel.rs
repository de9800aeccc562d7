//! A reusable worker pool for ownership-passing parallel work.
//!
//! The parallel commit scheduler (`fabricsharp_core::scheduler`) fans each execution wave out
//! on the generic [`WorkPool`], which ships arbitrary `Send` resources (a wave's transaction
//! chunk, a shard `MultiVersionStore`) to workers by value.
//!
//! # Design
//!
//! Jobs transfer **ownership** of their resource instead of borrowing it: the coordinator
//! moves each resource (a wave's transaction chunk, a shard `MultiVersionStore`) out of its
//! slot, ships it to a worker together with a boxed closure and a per-call result channel,
//! and re-installs it when the worker hands it back. That keeps every closure `'static` (no
//! scoped-lifetime unsafety), makes concurrent use of one pool by independent callers sound
//! (each call collects on its own channel), and costs only a shallow struct move per job.
//!
//! # Determinism
//!
//! Workers race freely, but [`WorkPool::run`] blocks until *every* job of the batch has
//! reported back and re-assembles results by batch position — the scheduling order is
//! invisible to the caller. Combined with the jobs operating on disjoint resources, a
//! parallel batch is observably identical to running the same closures sequentially in any
//! order, which is the foundation of the `E`-independence commit guarantee
//! (`tests/determinism_lattice.rs`).
//!
//! A worker that panics (a bug in a job closure) poisons the batch's result channel on its
//! unwind path, so the caller fails fast instead of deadlocking.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::thread::JoinHandle;

/// A unit of work for a [`WorkPool`]: runs against the resource it was shipped with, returns
/// an outcome.
pub type PoolJob<R, O> = Box<dyn FnOnce(&mut R) -> O + Send + 'static>;

/// One queued job: the resource it owns for the duration, the work, and where to report back.
struct JobMsg<R, O> {
    /// Position in the caller's batch (results are re-assembled by this tag).
    tag: usize,
    resource: R,
    work: PoolJob<R, O>,
    done: Sender<DoneMsg<R, O>>,
}

enum DoneMsg<R, O> {
    Done {
        tag: usize,
        // Boxed so the rare Panicked variant does not inflate every channel slot to the full
        // (stack-moved) resource size.
        resource: Box<R>,
        outcome: O,
    },
    /// Sent from a worker's unwind path: the job closure panicked. The resource it held is
    /// lost, but the caller is about to panic anyway — this only exists so it panics
    /// *promptly* instead of blocking on a result that will never arrive.
    Panicked(usize),
}

/// Drop guard armed while a job runs: if the worker unwinds, the batch's caller is notified.
struct PanicNotice<R, O> {
    tag: usize,
    done: Sender<DoneMsg<R, O>>,
    armed: bool,
}

impl<R, O> Drop for PanicNotice<R, O> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.done.send(DoneMsg::Panicked(self.tag));
        }
    }
}

/// A pool of worker threads executing [`PoolJob`]s on resources shipped by value.
#[derive(Debug)]
pub struct WorkPool<R, O> {
    jobs: Option<Sender<JobMsg<R, O>>>,
    workers: Vec<JoinHandle<()>>,
}

impl<R: Send + 'static, O: Send + 'static> WorkPool<R, O> {
    /// Spawns `threads` workers (clamped to at least one), named `{name}-{i}`.
    pub fn with_name(threads: usize, name: &str) -> Self {
        let threads = threads.max(1);
        let (job_tx, job_rx) = unbounded::<JobMsg<R, O>>();
        let workers = (0..threads)
            .map(|i| {
                let rx: Receiver<JobMsg<R, O>> = job_rx.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Ok(JobMsg {
                            tag,
                            mut resource,
                            work,
                            done,
                        }) = rx.recv()
                        {
                            let mut notice = PanicNotice {
                                tag,
                                done: done.clone(),
                                armed: true,
                            };
                            let outcome = work(&mut resource);
                            notice.armed = false;
                            let _ = done.send(DoneMsg::Done {
                                tag,
                                resource: Box::new(resource),
                                outcome,
                            });
                        }
                    })
                    .expect("spawning a pool worker")
            })
            .collect();
        WorkPool {
            jobs: Some(job_tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    #[cfg(test)]
    fn worker_finished(&self, index: usize) -> bool {
        self.workers[index].is_finished()
    }

    /// Runs a batch of jobs to completion and returns `(resource, outcome)` per batch
    /// position, in batch order. Blocks until every job has reported back.
    ///
    /// # Panics
    ///
    /// Panics if any job closure panicked on its worker — immediately for the batch that
    /// contained the bug, and loudly ("poisoned") for any later batch: a panicking job kills
    /// its worker for good and may have left the caller's moved-out resources replaced by
    /// empty placeholders, so continuing after catching the unwind must fail, not silently
    /// compute against empty resources.
    pub fn run(&self, batch: Vec<(R, PoolJob<R, O>)>) -> Vec<(R, O)> {
        if self.workers.iter().any(|w| w.is_finished()) {
            panic!("worker pool poisoned: a worker died in an earlier batch (job panic)");
        }
        let expected = batch.len();
        let (done_tx, done_rx) = unbounded::<DoneMsg<R, O>>();
        let jobs = self.jobs.as_ref().expect("pool not shut down");
        for (tag, (resource, work)) in batch.into_iter().enumerate() {
            let msg = JobMsg {
                tag,
                resource,
                work,
                done: done_tx.clone(),
            };
            if jobs.send(msg).is_err() {
                unreachable!("the job channel never closes while the pool lives");
            }
        }
        drop(done_tx);

        let mut slots: Vec<Option<(R, O)>> = (0..expected).map(|_| None).collect();
        for _ in 0..expected {
            match done_rx.recv() {
                Ok(DoneMsg::Done {
                    tag,
                    resource,
                    outcome,
                }) => {
                    debug_assert!(slots[tag].is_none(), "duplicate result for tag {tag}");
                    slots[tag] = Some((*resource, outcome));
                }
                Ok(DoneMsg::Panicked(tag)) => {
                    panic!("pool worker panicked while running batch job {tag}")
                }
                Err(_) => panic!("worker pool shut down mid-batch"),
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every tag reported exactly once"))
            .collect()
    }
}

impl<R, O> Drop for WorkPool<R, O> {
    fn drop(&mut self) {
        // Closing the job channel drains and parks every worker out of its loop; join so
        // tests and short-lived controllers do not leak threads.
        self.jobs.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Job = PoolJob<Vec<u64>, u64>;

    fn pool(threads: usize) -> WorkPool<Vec<u64>, u64> {
        WorkPool::with_name(threads, "test-worker")
    }

    #[test]
    fn batch_results_come_back_in_batch_order() {
        let pool = pool(3);
        assert_eq!(pool.threads(), 3);
        let batch: Vec<(Vec<u64>, Job)> = (0..6u64)
            .map(|i| {
                let resource: Vec<u64> = (i * 10..i * 10 + i + 1).collect();
                let job: Job = Box::new(|v: &mut Vec<u64>| v.len() as u64);
                (resource, job)
            })
            .collect();
        let results = pool.run(batch);
        assert_eq!(results.len(), 6);
        for (i, (resource, len)) in results.iter().enumerate() {
            let i = i as u64;
            let expected: Vec<u64> = (i * 10..i * 10 + i + 1).collect();
            assert_eq!(*resource, expected, "resource {i} came back intact");
            assert_eq!(*len, i + 1, "outcome {i}");
        }
    }

    #[test]
    fn jobs_mutate_the_resources_they_own() {
        let pool = pool(2);
        let batch: Vec<(Vec<u64>, Job)> = (0..4u64)
            .map(|i| {
                let job: Job = Box::new(move |v: &mut Vec<u64>| {
                    v.retain(|x| *x != i % 3);
                    0
                });
                (vec![0, 1, 2], job)
            })
            .collect();
        for (i, (resource, _)) in pool.run(batch).into_iter().enumerate() {
            assert_eq!(resource.len(), 2, "job {i} removed one of three");
        }
    }

    #[test]
    fn sequential_batches_reuse_the_same_workers() {
        let pool = pool(1);
        for round in 0..8u64 {
            let job: Job = Box::new(|v: &mut Vec<u64>| v[0]);
            let mut results = pool.run(vec![(vec![round], job)]);
            let (_, outcome) = results.pop().unwrap();
            assert_eq!(outcome, round);
        }
    }

    /// A caught job panic must not allow silent reuse: the worker is dead and the caller's
    /// moved-out resources may have been lost, so the next batch fails loudly instead of
    /// computing against empty placeholders.
    #[test]
    fn a_pool_that_swallowed_a_panic_is_poisoned_for_later_batches() {
        let pool = pool(1);
        let bad: Job = Box::new(|_: &mut Vec<u64>| panic!("buggy job"));
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(vec![(vec![], bad)])
        }));
        assert!(first.is_err(), "the offending batch itself panics");
        // The dead worker has sent its unwind notice; give its thread a moment to finish so
        // the liveness check observes it deterministically.
        while !pool.worker_finished(0) {
            std::thread::yield_now();
        }
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let job: Job = Box::new(|v: &mut Vec<u64>| v.len() as u64);
            pool.run(vec![(vec![], job)])
        }));
        let err = again.expect_err("a poisoned pool must refuse further batches");
        let message = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("poisoned"),
            "expected a poisoned-pool panic, got: {message}"
        );
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn a_panicking_job_fails_the_batch_fast() {
        let pool = pool(2);
        let bad: Job = Box::new(|_: &mut Vec<u64>| panic!("buggy job"));
        let good: Job = Box::new(|_: &mut Vec<u64>| 0);
        let _ = pool.run(vec![(vec![], bad), (vec![], good)]);
    }

    /// Jobs see the resource they were shipped with and may grow it — the shape the commit
    /// scheduler relies on (shipping transaction chunks / shard stores by value).
    #[test]
    fn generic_pool_round_trips_arbitrary_resources() {
        let pool = pool(2);
        let batch: Vec<(Vec<u64>, Job)> = (0..5u64)
            .map(|i| {
                let resource: Vec<u64> = (0..=i).collect();
                let job: Job = Box::new(move |v: &mut Vec<u64>| {
                    v.push(100 + i);
                    v.iter().sum()
                });
                (resource, job)
            })
            .collect();
        for (i, (resource, sum)) in pool.run(batch).into_iter().enumerate() {
            let i = i as u64;
            assert_eq!(*resource.last().unwrap(), 100 + i);
            assert_eq!(sum, (0..=i).sum::<u64>() + 100 + i);
        }
    }
}
