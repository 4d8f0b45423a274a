//! One fan-out for data-parallel loops: every dataset index build (through
//! `map_in_order`), the verification fan-out of [`crate::batch`] and the
//! engine's batch entry points all run on it.
//!
//! Fan-outs do not nest: a loop started on a worker of another fan-out
//! runs inline on that worker, so a batch of queries spread over every
//! core verifies each query serially instead of multiplying threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

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

/// Results each worker of [`map_in_order`] may run ahead of its sink. A
/// build's result is one graph's features, and a PPI-sized graph's run to
/// hundreds of MB, so the bound is per worker rather than per dataset.
/// With fewer, workers idle while the sink inserts: one per worker built
/// the 10 000-graph AIDS GGSX index in 0.69–0.75 s against four's
/// 0.50–0.66 s on the 2-core reference box.
pub(crate) const AHEAD_PER_WORKER: usize = 4;

/// One [`map_in_order`]'s claims and results: items `sunk..next` are
/// claimed, and item `i` waits in slot `i % slots.len()` until the sink
/// takes it.
struct Window<R> {
    next: usize,
    sunk: usize,
    slots: Vec<Option<R>>,
    /// Workers waiting for the sink to make room.
    idle: usize,
    /// The sink is waiting for its next item.
    starved: bool,
    /// A worker or the sink panicked: nobody waits any more.
    stopped: bool,
}

impl<R> Window<R> {
    /// Claims the next of `n` items if the window has room for it.
    fn claim(&mut self, n: usize) -> Option<usize> {
        let i = self.next;
        let room = i < n && i < self.sunk + self.slots.len();
        room.then(|| {
            self.next += 1;
            i
        })
    }
}

/// Stops a [`Window`] and wakes its waiters if this thread unwinds, so the
/// scope joins and re-raises the panic instead of waiting forever for an
/// item nobody will finish.
struct StopOnPanic<'a, R> {
    window: &'a Mutex<Window<R>>,
    ready: &'a Condvar,
    room: &'a Condvar,
}

impl<R> Drop for StopOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut w = self.window.lock().unwrap_or_else(PoisonError::into_inner);
            w.stopped = true;
            drop(w);
            self.ready.notify_all();
            self.room.notify_all();
        }
    }
}

/// Maps `f(i)` over `i` in `0..n` on up to `threads` workers and hands
/// each result to `sink(i, result)` in index order on the caller's thread.
/// The caller's thread is a worker too: it sinks each result as soon as it
/// is in and maps items while it waits. No item is claimed more than
/// [`AHEAD_PER_WORKER`] × workers items past the sink, so no more results
/// than that are alive at a time, whatever `n`: a build that folds
/// per-graph features into an index in `sink` holds no more besides the
/// index. The sink sees exactly the sequence a serial loop would produce,
/// whatever the width. With one worker, or on a worker of another
/// fan-out, the loop runs inline.
pub(crate) fn map_in_order<R: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> R + Sync,
    mut sink: impl FnMut(usize, R),
) {
    let workers = workers(n, threads);
    if workers == 1 {
        for i in 0..n {
            sink(i, f(i));
        }
        return;
    }
    let window = Mutex::new(Window {
        next: 0,
        sunk: 0,
        slots: (0..AHEAD_PER_WORKER * workers).map(|_| None).collect(),
        idle: 0,
        starved: false,
        stopped: false,
    });
    // `ready`: the sink's next item is in; `room`: the sink moved on.
    let (ready, room) = (Condvar::new(), Condvar::new());
    let lock = || window.lock().expect("map_in_order window");
    let stop = || StopOnPanic {
        window: &window,
        ready: &ready,
        room: &room,
    };
    // Maps item `i` and files its result, waking the sink if it waits on it.
    let run = |i: usize| {
        let r = f(i);
        let mut w = lock();
        let at = i % w.slots.len();
        w.slots[at] = Some(r);
        if i == w.sunk && w.starved {
            ready.notify_one();
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| {
                let _mark = WorkerMark::enter();
                let _stop = stop();
                let mut w = lock();
                while w.next < n && !w.stopped {
                    if let Some(i) = w.claim(n) {
                        drop(w);
                        run(i);
                        w = lock();
                    } else {
                        w.idle += 1;
                        w = room.wait(w).expect("map_in_order window");
                        w.idle -= 1;
                    }
                }
            });
        }
        let _mark = WorkerMark::enter();
        let _stop = stop();
        let mut w = lock();
        while w.sunk < n && !w.stopped {
            let at = w.sunk % w.slots.len();
            if let Some(r) = w.slots[at].take() {
                let i = w.sunk;
                w.sunk += 1;
                let wake = w.idle > 0;
                drop(w);
                if wake {
                    room.notify_all();
                }
                sink(i, r);
            } else if let Some(i) = w.claim(n) {
                drop(w);
                run(i);
            } else {
                w.starved = true;
                w = ready.wait(w).expect("map_in_order window");
                w.starved = false;
                continue;
            }
            w = lock();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every index reaches the sink once, in order, with its own result,
    /// although some items finish long after the ones claimed next.
    fn assert_in_order(n: usize, threads: usize) {
        let mut seen = Vec::with_capacity(n);
        map_in_order(
            n,
            threads,
            |i| {
                if i % 97 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i * 3 + 1
            },
            |i, r| {
                assert_eq!(r, i * 3 + 1, "n={n} threads={threads}");
                seen.push(i);
            },
        );
        assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
    }

    /// Widths and lengths around every window boundary: a window holds
    /// [`AHEAD_PER_WORKER`] results per worker.
    #[test]
    fn map_in_order_sinks_each_index_once_in_order() {
        for threads in [0, 1, 2, 5, 64] {
            let ahead = AHEAD_PER_WORKER * threads.max(1);
            for n in [0, 1, ahead - 1, ahead, ahead + 1, 3 * ahead + 7, 300] {
                assert_in_order(n, threads);
            }
        }
    }

    /// A worker never starts an item more than a window ahead of the sink,
    /// and the sink never waits on a window that cannot move.
    #[test]
    fn map_in_order_holds_at_most_a_window() {
        let sunk = AtomicUsize::new(0);
        let widest = AtomicUsize::new(0);
        map_in_order(
            500,
            3,
            |i| {
                let gap = i - sunk.load(Ordering::SeqCst);
                widest.fetch_max(gap, Ordering::SeqCst);
            },
            |i, ()| sunk.store(i + 1, Ordering::SeqCst),
        );
        assert!(widest.load(Ordering::SeqCst) <= AHEAD_PER_WORKER * 3);
    }

    #[test]
    fn map_in_order_runs_inline_on_a_worker() {
        let inline = par_map(4, 2, |_, k| {
            let caller = std::thread::current().id();
            let mut threads = Vec::new();
            map_in_order(
                40,
                8,
                |_| std::thread::current().id(),
                |_, t| threads.push(t),
            );
            assert_in_order(40 + k, 8);
            threads.iter().all(|&t| t == caller)
        });
        assert_eq!(inline, vec![true; 4]);
    }

    /// A panic in a worker or in the sink reaches the caller instead of
    /// leaving the other side waiting.
    #[test]
    fn map_in_order_propagates_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let in_worker = catch_unwind(AssertUnwindSafe(|| {
            map_in_order(100, 2, |i| assert_ne!(i, 37, "worker"), |_, ()| {})
        }));
        assert!(in_worker.is_err());
        let in_sink = catch_unwind(AssertUnwindSafe(|| {
            map_in_order(100, 2, |i| i, |i, _| assert_ne!(i, 37, "sink"))
        }));
        assert!(in_sink.is_err());
    }

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
