//! Multi-worker host execution: the software architecture of Section II-D.
//!
//! [`run_workers`] is a thin wrapper over the host fleet
//! ([`crate::stream`]): workers produce mini-batches into a bounded channel,
//! the wrapper drains the channel in partition order into a `Vec`, and the
//! output is bit-identical to serial execution. Callers that want batches
//! *as they complete* — the real producer–consumer shape, where the trainer
//! overlaps with preprocessing — should spawn a [`crate::BatchStream`] (or
//! any fleet) through the unified [`crate::FleetConfig`] API directly.

use crate::engine::{BatchStream, FleetConfig};
use crate::executor::PreprocessError;
use crate::minibatch::MiniBatch;
use crate::plan::PreprocessPlan;
use presto_datagen::Partition;
use std::time::{Duration, Instant};

/// Outcome of a parallel preprocessing run.
#[derive(Debug)]
pub struct ParallelReport {
    /// Produced mini-batches, ordered by partition index.
    pub batches: Vec<MiniBatch>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Number of workers used.
    pub workers: usize,
}

impl ParallelReport {
    /// Aggregate throughput in samples per second.
    #[must_use]
    pub fn samples_per_sec(&self) -> f64 {
        let rows: usize = self.batches.iter().map(MiniBatch::rows).sum();
        rows as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Preprocesses all `partitions` using `workers` streaming pipelines and
/// collects the mini-batches in partition order.
///
/// Equivalent to draining
/// [`BatchStream::spawn`]`(..).into_ordered()`
/// with a channel capacity of `2 × workers`.
///
/// # Errors
///
/// Returns the first worker error encountered; remaining work is abandoned
/// (producers observe the stop flag within one partition).
///
/// # Panics
///
/// Panics if a worker thread itself panics.
pub fn run_workers(
    plan: &PreprocessPlan,
    partitions: &[Partition],
    workers: usize,
) -> Result<ParallelReport, PreprocessError> {
    let workers = workers.max(1).min(partitions.len().max(1));
    let start = Instant::now();
    let stream = BatchStream::spawn(plan, partitions, &FleetConfig::new(workers, workers * 2));
    let mut batches = Vec::with_capacity(partitions.len());
    for item in stream.into_ordered() {
        batches.push(item?.batch);
    }
    Ok(ParallelReport { batches, elapsed: start.elapsed(), workers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::{Dataset, RmConfig};

    fn tiny_dataset(partitions: usize) -> (RmConfig, Dataset) {
        let mut c = RmConfig::rm1();
        c.batch_size = 32;
        let ds = Dataset::generate(&c, partitions, 32, 2, 11).unwrap();
        (c, ds)
    }

    #[test]
    fn parallel_matches_serial() {
        let (c, ds) = tiny_dataset(6);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let serial = run_workers(&plan, ds.partitions(), 1).unwrap();
        let parallel = run_workers(&plan, ds.partitions(), 4).unwrap();
        assert_eq!(serial.batches, parallel.batches);
        assert_eq!(parallel.workers, 4);
    }

    #[test]
    fn output_order_follows_partition_index() {
        let (c, ds) = tiny_dataset(5);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let report = run_workers(&plan, ds.partitions(), 3).unwrap();
        assert_eq!(report.batches.len(), 5);
        for mb in &report.batches {
            assert_eq!(mb.rows(), 32);
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        let (c, ds) = tiny_dataset(2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let report = run_workers(&plan, ds.partitions(), 64).unwrap();
        assert_eq!(report.workers, 2);
        let report = run_workers(&plan, ds.partitions(), 0).unwrap();
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn throughput_is_positive() {
        let (c, ds) = tiny_dataset(3);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let report = run_workers(&plan, ds.partitions(), 2).unwrap();
        assert!(report.samples_per_sec() > 0.0);
    }

    #[test]
    fn corrupted_partition_surfaces_error() {
        let mut c = RmConfig::rm1();
        c.batch_size = 16;
        let ds = Dataset::generate(&c, 3, 16, 1, 1).unwrap();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        // Truncate one partition's blob.
        let mut partitions = ds.partitions().to_vec();
        let bytes = partitions[1].blob.as_bytes().to_vec();
        partitions[1].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        assert!(run_workers(&plan, &partitions, 2).is_err());
    }
}
