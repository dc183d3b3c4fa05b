//! Criterion micro-benchmarks of the fleet's report path: folding a
//! finished drill into its report (the cap-safety timeline merge included)
//! and digesting every node's degradation trace.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use maestro_bench::scenario::fleet_scenario;
use maestro_fleet::Fleet;
use std::hint::black_box;

/// The registry's §V drill (120 nodes, 60 epochs, crash wave, partition and
/// lossy grants), run to its end once; the benches only read it.
fn finished_drill() -> Fleet {
    let sc = fleet_scenario("fleet-correlated-failures").expect("registered fleet scenario");
    let mut fleet = Fleet::new(sc.config);
    fleet.advance_epochs(sc.epochs, 1);
    fleet
}

fn bench_fleet(c: &mut Criterion) {
    let fleet = finished_drill();
    let events: usize = (0..fleet.config().nodes).map(|i| fleet.node(i).trace().len()).sum();
    let mut g = c.benchmark_group("fleet");
    g.sample_size(20);
    // One element per trace event: both walks visit every one.
    g.throughput(Throughput::Elements(events as u64));

    g.bench_function("report_correlated_failures", |b| {
        b.iter(|| black_box(fleet.report()));
    });

    g.bench_function("trace_digest_correlated_failures", |b| {
        b.iter(|| black_box(fleet.trace_digest()));
    });

    g.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
