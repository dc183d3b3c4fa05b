//! Scoped-thread work queue for fanning independent simulations across
//! host cores.
//!
//! The fleet fans node-shard advances through it and `maestro-bench` fans
//! experiment cells through the same primitive. Every unit of work is a
//! self-contained deterministic computation that shares no mutable state
//! with any other unit, so results collected *by index* are byte-identical
//! to a serial run regardless of `jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count used when the CLI gives no `--jobs N`:
/// `MAESTRO_BENCH_JOBS` if set to a positive integer, otherwise the host's
/// available parallelism, otherwise 1.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("MAESTRO_BENCH_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Map `f` over `0..n` on up to `jobs` scoped threads, returning results
/// in index order.
///
/// With `jobs <= 1` (or a single item) this degenerates to a plain serial
/// in-order loop — no threads, no locks — so `--jobs 1` is exactly the
/// pre-parallel harness. Otherwise worker threads claim indices from a
/// shared atomic counter (dynamic scheduling: long cells don't convoy
/// short ones) and deposit each result into its own slot.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` (the scope joins all
/// workers first).
pub fn parallel_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every index produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| i * i + 1;
        let serial = parallel_map(37, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(parallel_map(37, jobs, f), serial);
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_jobs_than_items() {
        assert_eq!(parallel_map(3, 16, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
