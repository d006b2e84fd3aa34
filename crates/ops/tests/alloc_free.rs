//! Heap-allocation spot-check for the transform hot loop: once a
//! [`ScratchSpace`] is warm, `transform_batch_into` must perform **zero**
//! heap allocations per batch. This pins the allocation-free contract the
//! executor documents — a regression here silently reintroduces the
//! per-batch malloc traffic the zero-copy refactor removed.
//!
//! The counting allocator is process-global, so this file contains exactly
//! one `#[test]`: nothing else runs concurrently in this binary to perturb
//! the counters.

use presto_datagen::{generate_batch, RmConfig};
use presto_ops::{transform_batch_into, PlanGraph, PreprocessPlan, ScratchSpace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation call.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_transform_kernel_loop_allocates_nothing() {
    let mut config = RmConfig::rm1();
    config.batch_size = 512;
    // Variable-length lists: truncated_cross really truncates (x = 3) and
    // long_history (x = 64) takes the identity-FirstX skip.
    let mut lists = config.clone();
    lists.avg_sparse_len = 5;
    lists.fixed_sparse_len = false;
    let compile = |graph, config| PreprocessPlan::compile(graph, config).expect("plan builds");
    let inputs = [
        ("canonical", PreprocessPlan::from_config(&config, 7).expect("plan builds"), &config),
        (
            "truncated_cross",
            compile(PlanGraph::truncated_cross(&lists, 7, 3, 2).unwrap(), &lists),
            &lists,
        ),
        ("long_history", compile(PlanGraph::long_history(&lists, 7, 64).unwrap(), &lists), &lists),
    ];
    for (name, plan, config) in inputs {
        // Distinct same-shaped batches: steady state means *new data*
        // through *old buffers*, not re-processing one batch.
        let batches: Vec<_> = (0..4).map(|seed| generate_batch(config, 512, seed)).collect();

        let mut scratch = ScratchSpace::new();

        // Warm-up: first passes size every pool to the workload's
        // high-water mark (allocations expected and allowed here).
        for batch in &batches {
            transform_batch_into(&plan, batch, &mut scratch).expect("transform succeeds");
        }

        // Steady state: zero allocations across many further batches.
        let before = allocation_count();
        for _round in 0..8 {
            for batch in &batches {
                transform_batch_into(&plan, batch, &mut scratch).expect("transform succeeds");
            }
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta, 0,
            "{name}: steady-state transform loop allocated {delta} times over 32 batches"
        );

        // Sanity: outputs of the warm path still match a cold run.
        let mut cold = ScratchSpace::new();
        transform_batch_into(&plan, &batches[3], &mut cold).expect("cold transform succeeds");
        transform_batch_into(&plan, &batches[3], &mut scratch).expect("warm transform succeeds");
        assert_eq!(cold.generated(), scratch.generated());
        assert_eq!(cold.hashed(), scratch.hashed());
        assert_eq!(cold.dense(), scratch.dense());
    }
}
