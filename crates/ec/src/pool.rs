//! A small fork-join worker pool built on scoped std threads.
//!
//! `fusion-core` uses this to encode a put's stripes in parallel (every
//! repair runs inline on its caller's thread), and `fusion-format` to
//! encode a table's column chunks. The pool is deliberately minimal — no
//! queues, no channels, no external dependencies: each call to
//! [`WorkerPool::for_each_mut`] partitions the work slice into contiguous
//! chunks and runs one scoped thread per chunk. Every item is visited by
//! exactly one thread, so workers mutate disjoint `&mut` regions and
//! per-item buffers (e.g. a stripe's parity vectors) never need
//! synchronization.
//!
//! With `threads == 1` (or a single-item slice) no thread is spawned and
//! the closure runs inline, keeping the sequential path allocation- and
//! syscall-free.

/// A fixed-width fork-join worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool that fans work out across `threads` workers.
    /// A value of zero is clamped to one.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Sizes the pool from the machine: `available_parallelism`, capped at
    /// eight (EC kernels saturate memory bandwidth well before that on
    /// typical hardware — see DESIGN.md §9 for thread-count guidance).
    pub fn auto() -> WorkerPool {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        WorkerPool::new(threads.min(8))
    }

    /// Number of worker threads this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f(index, item)` to every item, in parallel across the
    /// pool's workers. Items are split into contiguous chunks, one chunk
    /// per worker; `index` is the item's position in `items`.
    ///
    /// Runs inline without spawning when one worker (or one item) suffices.
    /// A panic in `f` propagates to the caller after all workers join.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = items.len().div_ceil(workers);
        std::thread::scope(|s| {
            for (ci, part) in items.chunks_mut(chunk).enumerate() {
                let f = &f;
                s.spawn(move || {
                    for (j, item) in part.iter_mut().enumerate() {
                        f(ci * chunk + j, item);
                    }
                });
            }
        });
    }
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_threads_clamped_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert!(WorkerPool::auto().threads() >= 1);
    }

    #[test]
    fn visits_every_item_exactly_once_with_correct_index() {
        for threads in [1, 2, 3, 8, 16] {
            let pool = WorkerPool::new(threads);
            let mut items: Vec<usize> = vec![0; 11];
            let calls = AtomicUsize::new(0);
            pool.for_each_mut(&mut items, |i, item| {
                *item = i * 10;
                calls.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(calls.load(Ordering::SeqCst), 11, "threads={threads}");
            for (i, item) in items.iter().enumerate() {
                assert_eq!(*item, i * 10, "threads={threads} item={i}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_result() {
        let serial_pool = WorkerPool::new(1);
        let parallel_pool = WorkerPool::new(4);
        let work = |_: usize, v: &mut u64| {
            let mut x = *v;
            for _ in 0..100 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            *v = x;
        };
        let mut a: Vec<u64> = (0..37).collect();
        let mut b = a.clone();
        serial_pool.for_each_mut(&mut a, work);
        parallel_pool.for_each_mut(&mut b, work);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_slice_is_fine() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u8> = Vec::new();
        pool.for_each_mut(&mut items, |_, _| panic!("must not be called"));
    }

    #[test]
    fn more_threads_than_items() {
        let pool = WorkerPool::new(8);
        let mut items = vec![1u8, 2];
        pool.for_each_mut(&mut items, |_, v| *v += 1);
        assert_eq!(items, vec![2, 3]);
    }
}
