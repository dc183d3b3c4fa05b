//! Criterion micro-benchmarks of the snapshot codec layer: a cadence
//! capture run of the contended scenario, paging one capture against its
//! predecessor, and a facade snapshot flattened to bytes, alone and in a
//! round trip through them.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use maestro::{Maestro, MaestroSnapshot};
use maestro_bench::scenario::{scenario, Scenario};
use maestro_machine::snap::PagedBytes;
use maestro_runtime::SnapshotPlan;
use std::hint::black_box;

/// Virtual time between cadence captures: ~90 captures per run.
const CADENCE_NS: u64 = 10_000_000;

fn contended() -> Scenario {
    scenario("contended-adaptive").expect("registered scenario")
}

/// Every cadence capture of one run of `sc`, in time order.
fn cadence_captures(sc: &Scenario) -> Vec<MaestroSnapshot> {
    let mut m = Maestro::new(sc.config.clone());
    m.run_captured(sc.name, &mut (), sc.spec.clone().into_task(), &SnapshotPlan::every(CADENCE_NS))
        .expect("spec tasks capture")
        .snapshots
}

fn bench_snapshot(c: &mut Criterion) {
    let sc = contended();
    let captures = cadence_captures(&sc);
    let mid = captures.len() / 2;
    let mut g = c.benchmark_group("snapshot");
    g.sample_size(10);

    g.bench_function("cadence_run_contended_adaptive_10ms", |b| {
        b.iter(|| black_box(cadence_captures(&sc)));
    });

    let (prev, next) = (captures[mid - 1].to_bytes(), captures[mid].to_bytes());
    let prev = PagedBytes::new(&prev);
    g.throughput(Throughput::Bytes(next.len() as u64));
    g.bench_function("page_against_previous_capture", |b| {
        b.iter(|| black_box(PagedBytes::share(&next, &prev)));
    });

    // A facade snapshot encodes to about as many bytes as its capture:
    // flattening alone, then the round trip, which adds the decode.
    g.bench_function("facade_snapshot_to_bytes", |b| {
        b.iter(|| black_box(captures[mid].to_bytes()));
    });

    g.bench_function("facade_snapshot_round_trip", |b| {
        b.iter(|| {
            let bytes = captures[mid].to_bytes();
            black_box(MaestroSnapshot::from_bytes(&bytes).expect("round trip"))
        });
    });

    g.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
