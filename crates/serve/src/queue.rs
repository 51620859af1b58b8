//! A sharded, work-stealing run queue (std-only).
//!
//! Jobs are pushed round-robin across one shard per worker. A worker
//! pops from the *front* of its home shard (FIFO for fairness) and, when
//! that is empty, steals from the *back* of the other shards — the
//! classic deque split that keeps an owner and its thieves on opposite
//! ends. Blocking is a single `Mutex`+`Condvar` pair, and no wakeup is
//! lost: an idle popper rechecks the backlog and the open flag while
//! holding the sleepers lock, and pushes (and [`close`](RunQueue::close))
//! take that lock before they notify, so a notify cannot fall between
//! a popper's last check and its wait. The wait keeps a timeout only as
//! a backstop. [`close`](RunQueue::close) starts the drain: poppers keep
//! serving until every shard is empty, then observe `None` — that is
//! the graceful-drain contract the service's shutdown relies on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Backstop on an idle popper's wait; pushes wake it well before.
const IDLE_WAIT: Duration = Duration::from_millis(1);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned shard only means another worker panicked mid-pop; the
    // queue's state is a plain VecDeque and stays valid.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One popped job plus where it came from.
#[derive(Debug)]
pub struct Popped<T> {
    /// The job.
    pub item: T,
    /// True when it was stolen from another worker's shard.
    pub stolen: bool,
    /// Queued jobs across all shards at the moment of the pop (before
    /// removing this one) — the queue-depth sample workers record.
    pub depth: usize,
}

/// The sharded work-stealing queue.
#[derive(Debug)]
pub struct RunQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Jobs pushed but not yet popped, across all shards.
    pending: AtomicUsize,
    /// False once [`close`](RunQueue::close) has been called.
    open: AtomicBool,
    /// Round-robin push cursor.
    cursor: AtomicUsize,
    sleepers: Mutex<()>,
    wake: Condvar,
}

impl<T> RunQueue<T> {
    /// A queue with `shards` shards (at least one); pass the worker
    /// count so every worker has a home shard.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        RunQueue {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            pending: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            cursor: AtomicUsize::new(0),
            sleepers: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Number of shards (== the worker count it was built for).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Jobs currently queued (racy snapshot).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// True until [`close`](RunQueue::close) is called.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    /// Enqueues a job on the next shard round-robin. Returns `false`
    /// (dropping nothing — the job is handed back implicitly by never
    /// queueing it) when the queue is closed.
    pub fn push(&self, item: T) -> bool {
        if !self.is_open() {
            return false;
        }
        // Count first so a concurrent popper that sees an empty shard
        // still knows work is in flight and keeps polling.
        self.pending.fetch_add(1, Ordering::AcqRel);
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        if let Some(shard) = self.shards.get(slot) {
            lock(shard).push_back(item);
        }
        self.notify(false);
        true
    }

    /// Pops a job for worker `home`: front of the home shard first, then
    /// steals from the back of the others. Blocks while the queue is
    /// open and empty; returns `None` only once the queue is closed
    /// *and* fully drained.
    pub fn pop(&self, home: usize) -> Option<Popped<T>> {
        let n = self.shards.len();
        let home = home % n;
        loop {
            let depth = self.pending();
            if depth > 0 {
                if let Some(shard) = self.shards.get(home) {
                    if let Some(item) = lock(shard).pop_front() {
                        self.pending.fetch_sub(1, Ordering::AcqRel);
                        return Some(Popped {
                            item,
                            stolen: false,
                            depth,
                        });
                    }
                }
                for off in 1..n {
                    let victim = (home + off) % n;
                    if let Some(shard) = self.shards.get(victim) {
                        if let Some(item) = lock(shard).pop_back() {
                            self.pending.fetch_sub(1, Ordering::AcqRel);
                            return Some(Popped {
                                item,
                                stolen: true,
                                depth,
                            });
                        }
                    }
                }
            }
            if !self.is_open() && self.pending() == 0 {
                // Propagate the drain: wake every peer now rather than
                // at its backstop timeout.
                self.notify(true);
                return None;
            }
            let guard = lock(&self.sleepers);
            // Recheck under the lock: a push or close that landed since
            // the checks above has either been seen here or will notify
            // only after this thread is waiting.
            if self.pending() > 0 || !self.is_open() {
                continue;
            }
            let _unused = self
                .wake
                .wait_timeout(guard, IDLE_WAIT)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: further pushes fail, poppers drain what is
    /// already queued and then observe `None`.
    pub fn close(&self) {
        self.open.store(false, Ordering::Release);
        self.notify(true);
    }

    /// Wakes one or all idle poppers. Taking `sleepers` first orders the
    /// notify after any popper that is between its recheck and its wait.
    fn notify(&self, all: bool) {
        drop(lock(&self.sleepers));
        if all {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fifo_on_a_single_shard() {
        let q = RunQueue::new(1);
        for i in 0..5 {
            assert!(q.push(i));
        }
        let got: Vec<i32> = (0..5).map(|_| q.pop(0).unwrap().item).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_steals_from_other_shards() {
        let q = RunQueue::new(2);
        // Round-robin: 0 -> shard 0, 1 -> shard 1.
        q.push(0);
        q.push(1);
        let first = q.pop(0).unwrap();
        assert!(!first.stolen);
        assert_eq!(first.item, 0);
        let second = q.pop(0).unwrap();
        assert!(second.stolen, "home shard empty, job 1 lives on shard 1");
        assert_eq!(second.item, 1);
    }

    #[test]
    fn close_rejects_pushes_and_drains() {
        let q = RunQueue::new(2);
        q.push(7);
        q.close();
        assert!(!q.push(8), "closed queue rejects new work");
        assert_eq!(q.pop(0).unwrap().item, 7, "queued work drains");
        assert!(q.pop(0).is_none(), "then poppers see None");
        assert!(q.pop(1).is_none());
    }

    #[test]
    fn concurrent_producers_and_stealing_consumers_drain_exactly() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 500;
        let q = RunQueue::new(CONSUMERS);
        let sum = AtomicU64::new(0);
        let popped = AtomicU64::new(0);
        let stolen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        assert!(q.push(p as u64 * PER_PRODUCER + i));
                    }
                });
            }
            for c in 0..CONSUMERS {
                let (q, sum, popped, stolen) = (&q, &sum, &popped, &stolen);
                s.spawn(move || {
                    while let Some(got) = q.pop(c) {
                        sum.fetch_add(got.item, Ordering::Relaxed);
                        popped.fetch_add(1, Ordering::Relaxed);
                        if got.stolen {
                            stolen.fetch_add(1, Ordering::Relaxed);
                        }
                        assert!(got.depth >= 1);
                    }
                });
            }
            // Give producers time to finish, then start the drain.
            while q.pending() > 0
                || popped.load(Ordering::Relaxed) < (PRODUCERS as u64) * PER_PRODUCER
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            q.close();
        });
        let total = (PRODUCERS as u64) * PER_PRODUCER;
        assert_eq!(popped.load(Ordering::Relaxed), total);
        let expect: u64 = (0..total).sum();
        assert_eq!(
            sum.load(Ordering::Relaxed),
            expect,
            "every job exactly once"
        );
    }

    #[test]
    fn push_wakes_an_idle_popper_without_the_backstop() {
        // One consumer, sequential round trips. The producer spins on the
        // consumer's answer and pushes the next job after a stagger of
        // 0..64 spins, so pushes land at varying points of the consumer's
        // way into its wait. A lost wakeup costs a full IDLE_WAIT, so a
        // wake that keeps falling back to the timeout blows the budget.
        const ROUND_TRIPS: u32 = 2_000;
        let q = RunQueue::new(1);
        let done = AtomicU64::new(0);
        let elapsed = std::thread::scope(|s| {
            let (q, done) = (&q, &done);
            s.spawn(move || {
                while let Some(got) = q.pop(0) {
                    done.store(u64::from(got.item) + 1, Ordering::Release);
                }
            });
            let start = std::time::Instant::now();
            for i in 0..ROUND_TRIPS {
                for _ in 0..i % 64 {
                    std::hint::spin_loop();
                }
                assert!(q.push(i));
                while done.load(Ordering::Acquire) != u64::from(i) + 1 {
                    std::thread::yield_now();
                }
            }
            let elapsed = start.elapsed();
            q.close();
            elapsed
        });
        let budget = IDLE_WAIT * ROUND_TRIPS / 10;
        assert!(
            elapsed < budget,
            "{ROUND_TRIPS} round trips took {elapsed:?} (budget {budget:?}): \
             wakeups fell back to the idle timeout"
        );
    }

    #[test]
    fn depth_reports_queued_backlog() {
        let q = RunQueue::new(1);
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pending(), 3);
        assert_eq!(q.pop(0).unwrap().depth, 3);
        assert_eq!(q.pop(0).unwrap().depth, 2);
        assert_eq!(q.pop(0).unwrap().depth, 1);
    }
}
