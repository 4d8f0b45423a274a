//! One fan-out for data-parallel loops: Grapes' parallel index build and
//! verification and the engine's batch entry points all run on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f(worker, i)` over `i` in `0..n` on up to `threads` scoped
/// workers (numbered from 0) that claim indexes from one shared cursor,
/// so uneven items balance across workers; the results come back
/// index-aligned. With at most one worker (or fewer than two items) it
/// runs inline on the caller's thread as worker 0.
pub fn par_map<R: Send>(n: usize, threads: usize, f: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    if threads.min(n) <= 1 {
        return (0..n).map(|i| f(0, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..threads.min(n) {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let r = f(worker, i);
                *slot.lock().expect("par_map slot") = Some(r);
            });
        }
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
}
