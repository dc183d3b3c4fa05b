//! Heap cost of cadence captures, counted by a counting global allocator
//! local to this test binary.
//!
//! A capture encodes into one reused buffer and keeps only the pages that
//! differ from the previous capture, so the heap bytes a cadence run asks
//! for beyond the same run without captures must be those fresh pages plus
//! a small, fixed per-capture slack (page lists, framing buffers). A
//! capture that copies state it does not write — say, a clone of every
//! live task's spec — shows up here as bytes no page accounts for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use maestro::Maestro;
use maestro_bench::scenario::scenario;
use maestro_runtime::SnapshotPlan;

/// Counts every byte the current thread asks the heap for; a `realloc`
/// counts as a fresh request of its new size (it may move).
struct Counting;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: an allocator must never panic.
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes as u64));
}

fn requested() -> u64 {
    REQUESTED.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Per-capture bytes no page accounts for: the page list, each fresh
/// page's reference-count header and the framing buffers of the monitor
/// sections, about 3 KiB a capture here.
const SLACK_PER_CAPTURE: u64 = 8 * 1024;

/// One-off bytes: the reused encode buffer doubling up to the largest
/// capture (~155 KB here, so ~512 KiB requested in all) and the capture
/// list growing to its final length.
const SLACK_FIXED: u64 = 640 * 1024;

#[test]
fn cadence_captures_allocate_little_beyond_their_fresh_pages() {
    let sc = scenario("contended-adaptive").expect("registered scenario");
    let run = |plan: &SnapshotPlan| {
        let mut m = Maestro::new(sc.config.clone());
        let task = sc.spec.clone().into_task();
        let before = requested();
        let run = m.runtime_mut().run_captured(&mut (), task, plan).expect("spec tasks capture");
        (requested() - before, run)
    };
    let (plain, _) = run(&SnapshotPlan::none());
    let (cadence, run) = run(&SnapshotPlan::every(10_000_000));

    let mut prev: &[Arc<[u8]>] = &[];
    let mut fresh = 0;
    for snap in &run.snapshots {
        let pages = snap.bytes.pages();
        fresh += pages
            .iter()
            .enumerate()
            .filter(|&(i, page)| !prev.get(i).is_some_and(|p| Arc::ptr_eq(p, page)))
            .map(|(_, page)| page.len() as u64)
            .sum::<u64>();
        prev = pages;
    }
    let captures = run.snapshots.len() as u64;
    assert!(captures > 80, "the run must take its ~90 cadence captures, took {captures}");
    let extra = cadence.saturating_sub(plain);
    let bound = fresh + captures * SLACK_PER_CAPTURE + SLACK_FIXED;
    assert!(
        extra <= bound,
        "{captures} captures asked for {extra} B beyond the plain run, but their fresh pages \
         hold {fresh} B (bound {bound} B): {} B a capture beyond its pages",
        (extra - fresh) / captures
    );
}
