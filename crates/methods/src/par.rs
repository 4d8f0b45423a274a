//! One fan-out for data-parallel loops: Grapes' parallel index build, the
//! verification fan-out of [`crate::batch`] and the engine's batch entry
//! points all run on it.
//!
//! Fan-outs do not nest: a loop started on a worker of another fan-out
//! runs inline on that worker, so a batch of queries spread over every
//! core verifies each query serially instead of multiplying threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set while this thread runs as a worker of a multi-worker fan-out.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a fan-out worker until dropped, restoring
/// the previous mark (the caller's thread runs worker 0 and may itself
/// be outside any fan-out).
struct WorkerMark(bool);

impl WorkerMark {
    fn enter() -> WorkerMark {
        WorkerMark(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// How many workers [`par_map`] runs `n` items on when asked for
/// `threads`: at most one per item, and one on a thread that is already
/// a worker of another fan-out.
pub fn workers(n: usize, threads: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        threads.min(n).max(1)
    }
}

/// Maps `f(worker, i)` over `i` in `0..n` on [`workers`]`(n, threads)`
/// workers (numbered from 0) that claim indexes from one shared cursor,
/// so uneven items balance across workers; the results come back
/// index-aligned. The caller's thread is worker 0 and the others are
/// scoped threads. With one worker the loop runs inline as worker 0.
pub fn par_map<R: Send>(n: usize, threads: usize, f: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    let workers = workers(n, threads);
    if workers == 1 {
        return (0..n).map(|i| f(0, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = |worker: usize| {
        let _mark = WorkerMark::enter();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let r = f(worker, i);
            *slot.lock().expect("par_map slot") = Some(r);
        }
    };
    std::thread::scope(|scope| {
        for worker in 1..workers {
            let work = &work;
            scope.spawn(move || work(worker));
        }
        work(0);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().ok().flatten().expect("claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_aligned_at_any_width() {
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [0, 1, 2, 5, 64] {
            assert_eq!(
                par_map(37, threads, |_, i| i * i),
                want,
                "threads={threads}"
            );
            let workers = par_map(37, threads, |w, _| w);
            assert!(workers.iter().all(|&w| w < threads.max(1)));
        }
        assert!(par_map(0, 4, |_, i| i).is_empty());
    }

    #[test]
    fn fan_outs_do_not_nest() {
        assert_eq!(workers(8, 4), 4);
        assert_eq!(workers(3, 4), 3);
        assert_eq!(workers(0, 4), 1);
        // Every worker, the caller's thread included, sees one worker for
        // a nested loop; the caller's mark is restored afterwards.
        let nested = par_map(8, 2, |_, _| workers(8, 4));
        assert_eq!(nested, vec![1; 8]);
        assert_eq!(workers(8, 4), 4);
    }
}
