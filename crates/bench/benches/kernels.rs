//! Criterion micro-benchmarks of the real workload payloads (host-side
//! compute kernels, independent of the virtual-time machinery).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use maestro_rapl::WrapTracker;
use maestro_workloads::bots::alignment::{align_score, sequences};
use maestro_workloads::bots::sparselu::{bmod, lu0};
use maestro_workloads::bots::strassen::Matrix;
use maestro_workloads::lulesh::{kernels, Domain};
use maestro_workloads::micro::mergesort::merge_sort;
use maestro_workloads::micro::nqueens::{count_with_prefix, two_row_prefixes};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(30);

    g.bench_function("lulesh_step_edge8", |b| {
        b.iter_batched(
            || {
                let mut d = Domain::sedov(8);
                // Pre-roll a few cycles so the shock is moving.
                for _ in 0..3 {
                    kernels::step_sequential(&mut d);
                }
                d
            },
            |mut d| {
                kernels::step_sequential(&mut d);
                black_box(d.total_internal_energy())
            },
            criterion::BatchSize::LargeInput,
        );
    });

    g.bench_function("lulesh_force_edge14", |b| {
        let mut d = Domain::sedov(14);
        for _ in 0..3 {
            kernels::step_sequential(&mut d);
        }
        let (elems, nodes) = (d.num_elems(), d.num_nodes());
        b.iter(|| {
            kernels::calc_force_terms(&mut d, 0..elems);
            kernels::integrate_force(&mut d, 0..nodes);
            black_box(d.fx[nodes - 1])
        });
    });

    g.bench_function("sparselu_lu0_bmod_32", |b| {
        let bs = 32;
        let diag: Vec<f64> =
            (0..bs * bs).map(|i| if i % (bs + 1) == 0 { 50.0 } else { 0.3 }).collect();
        let row = vec![0.25f64; bs * bs];
        let col = vec![0.5f64; bs * bs];
        b.iter_batched(
            || diag.clone(),
            |mut d| {
                lu0(&mut d, bs);
                let mut target = vec![1.0f64; bs * bs];
                bmod(&row, &col, &mut target, bs);
                black_box(target)
            },
            criterion::BatchSize::SmallInput,
        );
    });

    // A group's throughput carries over to every later bench, so the
    // benches without a meaningful element count run before the first one
    // is set, and every bench after it sets its own.
    g.throughput(Throughput::Elements(128 * 128));
    g.bench_function("strassen_naive_128", |b| {
        let a = Matrix::random(128, 1);
        let m = Matrix::random(128, 2);
        b.iter(|| black_box(a.multiply_naive(&m)));
    });

    // One Smith-Waterman cell per element.
    g.throughput(Throughput::Elements(100 * 100));
    g.bench_function("alignment_sw_100x100", |b| {
        let seqs = sequences(2, 100, 7);
        b.iter(|| black_box(align_score(&seqs[0], &seqs[1])));
    });

    g.throughput(Throughput::Elements(65_536));
    g.bench_function("mergesort_64k", |b| {
        let data: Vec<u64> = (0..65_536u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        b.iter_batched(
            || data.clone(),
            |mut v| {
                merge_sort(&mut v);
                black_box(v)
            },
            criterion::BatchSize::LargeInput,
        );
    });

    g.throughput(Throughput::Elements(1));
    g.bench_function("rapl_wrap_tracker", |b| {
        let mut t = WrapTracker::new(1 << 32);
        let mut raw = 0u64;
        b.iter(|| {
            raw = (raw + 123_456_789) % (1 << 32);
            black_box(t.update(raw))
        });
    });

    // The micro nqueens cell's leaves at paper scale: all 110 two-row
    // prefixes of the 12x12 board.
    g.throughput(Throughput::Elements(110));
    g.bench_function("nqueens_n12_prefixes", |b| {
        b.iter(|| {
            let total: u64 =
                two_row_prefixes(12).map(|(c0, c1)| count_with_prefix(12, &[c0, c1])).sum();
            black_box(total)
        });
    });

    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
