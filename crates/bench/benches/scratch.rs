//! Scratch-reuse benches: the zero-copy partition path with a warm
//! [`ScratchSpace`], and the Transform kernels with a fresh vs a warm
//! scratch (allocating vs allocation-free steady state).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use presto_columnar::MemBlob;
use presto_datagen::{generate_batch, write_partition, RmConfig, RowBatch};
use presto_ops::{preprocess_partition_with, transform_batch_into, PreprocessPlan, ScratchSpace};
use std::hint::black_box;

const ROWS: usize = 1024;

fn rm1_fixture() -> (PreprocessPlan, RowBatch, MemBlob) {
    let mut config = RmConfig::rm1();
    config.batch_size = ROWS;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let batch = generate_batch(&config, ROWS, 5);
    let blob = write_partition(&batch).expect("encodes");
    (plan, batch, blob)
}

fn bench_partition_paths(c: &mut Criterion) {
    let (plan, _, blob) = rm1_fixture();
    let mut group = c.benchmark_group("partition_paths");
    group.throughput(Throughput::Elements(ROWS as u64));

    group.bench_function("zero_copy", |bench| {
        let mut scratch = ScratchSpace::new();
        bench.iter(|| {
            black_box(
                preprocess_partition_with(&plan, black_box(blob.clone()), &mut scratch)
                    .expect("pipeline")
                    .0,
            )
        });
    });
    group.finish();
}

fn bench_transform_scratch(c: &mut Criterion) {
    // Transform kernels only: fresh scratch per batch (allocating) vs one
    // warm scratch (allocation-free steady state).
    let (plan, batch, _) = rm1_fixture();
    let mut group = c.benchmark_group("transform_kernels");
    group.throughput(Throughput::Elements(ROWS as u64));

    group.bench_function("fresh_scratch", |bench| {
        bench.iter(|| {
            let mut scratch = ScratchSpace::new();
            black_box(transform_batch_into(&plan, &batch, &mut scratch).expect("transforms"));
        });
    });

    group.bench_function("warm_scratch", |bench| {
        let mut scratch = ScratchSpace::new();
        transform_batch_into(&plan, &batch, &mut scratch).expect("warms");
        bench.iter(|| {
            black_box(transform_batch_into(&plan, &batch, &mut scratch).expect("transforms"));
        });
    });
    group.finish();
}

/// Short measurement windows keep `cargo bench --workspace` to a few
/// minutes while staying statistically useful.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_partition_paths, bench_transform_scratch
}
criterion_main!(benches);
