//! The host CPU fleet: streaming Extract → Transform → format over a
//! bounded output channel.
//!
//! This is the producer–consumer architecture of the paper's host baseline
//! (Section II-D) and of Fig. 9's training loop: preprocessing workers
//! *stream* finished mini-batches through a bounded channel to the consumer
//! (the trainer), so the first mini-batch reaches the consumer while later
//! partitions are still being read, and in-flight memory is
//! `O(capacity)`, not `O(partitions)`.
//!
//! [`BatchStream::spawn`] builds the host fleet on the [`engine`](crate::engine):
//!
//! * **Device-affine claims** — partitions are queued per storage device
//!   (`Partition::device`, cf. `Dataset::partitions_on`); workers are
//!   pinned round-robin to devices and steal cross-device only when their
//!   home queue drains. Per-device in-flight counters record contention
//!   when workers outnumber devices ([`BatchStream::device_report`]).
//! * **Double-buffered Extract** — the unit pipeline is Extract, then
//!   Transform and format, over a one-slot link per worker: each worker's
//!   front thread runs [`extract_partition_with`] (projected
//!   `read_at_into` reads and decode) for partition *i + 1* while its back
//!   thread transforms partition *i*, so each worker holds exactly two
//!   partitions in flight.
//!   `FsBlob`'s positioned `pread` makes the concurrent reads safe across
//!   workers.
//!
//! The failure semantics (retry, quarantine, fail-fast) are the engine's;
//! the host fleet is the fallback path itself, so it never fails over.
//! [`run_workers`](crate::run_workers) is a thin "drain the stream into a
//! `Vec`" wrapper over this module, bit-identical to serial execution.

use crate::engine::{
    BatchStream, ClaimOrder, FleetConfig, Front, Link, Produced, Run, Unit, UnitPipeline,
};
use crate::executor::{
    extract_partition_with, preprocess_batch_owned, PreprocessError, ScratchSpace,
};
use crate::plan::PreprocessPlan;
use presto_datagen::{Partition, RowBatch};
use std::time::Duration;

/// The host fleet's unit pipeline: Extract | Transform + format.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostPipeline;

impl UnitPipeline for HostPipeline {
    type Mid = (RowBatch, Duration);
    type Read = ();

    fn front(
        &self,
        run: &Run,
        unit: &Unit,
        scratch: &mut ScratchSpace,
    ) -> Result<Front<Self::Mid>, PreprocessError> {
        let blob = run.partition(unit).blob.clone();
        extract_partition_with(run.plan(), blob, scratch.read_scratch()).map(Front::Handoff)
    }

    fn back_read(&self, _: &Run, _: &Unit, _: &mut ScratchSpace) -> Result<(), PreprocessError> {
        Ok(())
    }

    fn back(
        &self,
        run: &Run,
        _: &Unit,
        (rows, extract): Self::Mid,
        (): (),
    ) -> Result<Produced, PreprocessError> {
        let (batch, mut timings) = preprocess_batch_owned(run.plan(), rows)?;
        timings.extract = extract;
        Ok((batch, timings))
    }
}

impl BatchStream {
    /// Starts a host-fleet streaming run and returns the consumer's end of
    /// the pipeline: `config.workers` Extract/Transform worker pairs
    /// (clamped to the partition count) over device-affine claims, feeding
    /// a `config.capacity`-bounded channel.
    ///
    /// Mini-batches are yielded **as they complete**, tagged with their
    /// partition index; wrap with [`BatchStream::into_ordered`] for
    /// deterministic order. Worker/partition data is snapshotted via O(1)
    /// clones (`MemBlob` shares its bytes), so the stream is `'static` and
    /// outlives the borrowed arguments.
    #[must_use]
    pub fn spawn(
        plan: &PreprocessPlan,
        partitions: &[Partition],
        config: &FleetConfig,
    ) -> BatchStream {
        let run = Run::new(
            plan.clone(),
            partitions.to_vec(),
            ClaimOrder::Affine,
            config.recovery.clone(),
        );
        BatchStream::from_pipeline(run, HostPipeline, config, Link::Paired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::inter_arrivals;
    use crate::minibatch::MiniBatch;
    use crate::recovery::RetryPolicy;
    use presto_datagen::{generate_batch, write_partition, Dataset, RmConfig};

    fn tiny_config(rows: usize) -> RmConfig {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        c
    }

    fn dataset(partitions: usize, rows: usize, devices: usize) -> (RmConfig, Dataset) {
        let c = tiny_config(rows);
        let ds = Dataset::generate(&c, partitions, rows, devices, 7).unwrap();
        (c, ds)
    }

    #[test]
    fn streaming_matches_serial_in_order() {
        let (c, ds) = dataset(6, 32, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| crate::executor::preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        let streamed: Vec<MiniBatch> =
            BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(3, 2))
                .into_ordered()
                .map(|item| item.unwrap().batch)
                .collect();
        assert_eq!(streamed, serial);
    }

    #[test]
    fn first_batch_arrives_before_last_partition_finishes() {
        // Partition 0 is ~64x the others *and* sits behind an emulated
        // slow device, so its worker provably sleeps while the small
        // partitions stream past it — a small partition must reach the
        // consumer while the big one is still in flight, the defining
        // property of streaming execution. (The latency, not just the row
        // count, is what makes this deterministic on a loaded single-core
        // runner: raw size alone races the OS scheduler.)
        let c = tiny_config(32);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = Vec::new();
        for (index, rows) in [2048usize, 32, 32, 32].into_iter().enumerate() {
            let batch = generate_batch(&c, rows, index as u64 + 1);
            let mut blob = write_partition(&batch).unwrap();
            if index == 0 {
                blob = blob.with_read_latency(std::time::Duration::from_millis(2));
            }
            partitions.push(Partition { index, device: index % 2, rows, blob });
        }
        let mut stream = BatchStream::spawn(&plan, &partitions, &FleetConfig::new(2, 4));
        let first = stream.next().expect("stream yields").expect("no error");
        assert!(
            stream.stats().completed < partitions.len(),
            "first batch must arrive while other partitions are unfinished"
        );
        assert_ne!(first.partition, 0, "the slow partition cannot be first");
        // Drain the rest: all four partitions arrive exactly once.
        let mut seen: Vec<usize> = stream.by_ref().map(|i| i.unwrap().partition).collect();
        seen.push(first.partition);
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn device_affinity_prefers_home_queues_and_steals_when_drained() {
        let (c, ds) = dataset(8, 16, 4);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        // One worker homed on device 0 must still process everything —
        // 2 affine claims + 6 steals.
        let stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(1, 8));
        let mut stolen = 0usize;
        let mut total = 0usize;
        let report = {
            let mut s = stream;
            for item in s.by_ref() {
                let b = item.unwrap();
                total += 1;
                stolen += usize::from(b.stolen);
            }
            s.device_report()
        };
        assert_eq!(total, 8);
        assert_eq!(stolen, 6);
        assert_eq!(report.len(), 4);
        assert_eq!(report.iter().map(|d| d.partitions).sum::<usize>(), 8);
        assert_eq!(report[0].stolen_from, 0, "home device is not stolen from");
        assert_eq!(report[1].stolen_from + report[2].stolen_from + report[3].stolen_from, 6);
    }

    #[test]
    fn contention_is_visible_when_workers_outnumber_devices() {
        let (c, ds) = dataset(8, 24, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        // Emulated device latency keeps each Extract on the device long
        // enough that concurrent claims genuinely overlap, host-independent.
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_read_latency(Duration::from_micros(200)),
            })
            .collect();
        let mut stream = BatchStream::spawn(&plan, &partitions, &FleetConfig::new(4, 16));
        let n = stream.by_ref().filter(|i| i.is_ok()).count();
        assert_eq!(n, 8);
        let report = stream.device_report();
        assert_eq!(report.len(), 1);
        assert!(
            report[0].max_in_flight > 1,
            "4 workers on 1 device must contend (max_in_flight {})",
            report[0].max_in_flight
        );
    }

    #[test]
    fn ordered_adapter_restores_partition_order() {
        let (c, ds) = dataset(9, 16, 3);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let order: Vec<usize> = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(3, 2))
            .into_ordered()
            .map(|i| i.unwrap().partition)
            .collect();
        assert_eq!(order, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_partition_surfaces_error_and_stops_producers_promptly() {
        let (c, ds) = dataset(8, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        // Truncate partition 2's blob mid-file.
        let bytes = partitions[2].blob.as_bytes().to_vec();
        partitions[2].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 3].to_vec());
        // One worker: claims run 0, 1, 2, ... deterministically.
        let config = FleetConfig::new(1, 1);
        let mut stream = BatchStream::spawn(&plan, &partitions, &config);
        let mut ok = 0usize;
        let mut errors = 0usize;
        for item in stream.by_ref() {
            match item {
                Ok(b) => {
                    assert!(b.partition < 2, "nothing after the corrupt partition");
                    ok += 1;
                }
                Err(e) => {
                    assert!(matches!(e.root(), PreprocessError::Extract(_)), "{e}");
                    assert_eq!(e.partition(), Some(2), "error carries the failing partition");
                    assert_eq!(e.device(), Some(partitions[2].device), "and its device");
                    errors += 1;
                }
            }
        }
        assert_eq!((ok, errors), (2, 1), "batches before the error, then the error, then end");
        assert_eq!(
            stream.stats().completed,
            2,
            "the stop flag must halt the producer within one partition"
        );
    }

    #[test]
    fn error_send_does_not_deadlock_on_a_full_channel() {
        let (c, ds) = dataset(6, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        let bytes = partitions[3].blob.as_bytes().to_vec();
        partitions[3].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        // Capacity-1 channel that the consumer never drains past the first
        // item: the error producer must not wedge the run.
        let config = FleetConfig::new(2, 1);
        let mut stream = BatchStream::spawn(&plan, &partitions, &config);
        let _first = stream.next().unwrap();
        drop(stream); // joins workers; a deadlock would hang the test here
    }

    #[test]
    fn capacity_one_applies_back_pressure() {
        let (c, ds) = dataset(8, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let config = FleetConfig::new(1, 1);
        let mut stream = BatchStream::spawn(&plan, ds.partitions(), &config);
        let mut taken = 0usize;
        while let Some(item) = stream.next() {
            item.unwrap();
            taken += 1;
            // With one producer and capacity 1, the pipeline can never run
            // more than (queued = 1) + (blocked in send = 1) ahead of the
            // consumer, no matter how slowly we drain.
            let completed = stream.stats().completed;
            assert!(
                completed <= taken + 2,
                "producer ran ahead: completed {completed} after {taken} taken"
            );
            std::thread::yield_now();
        }
        assert_eq!(taken, 8);
    }

    #[test]
    fn inter_arrival_helper_computes_gaps() {
        let stamps = [10u64, 15, 15, 40].map(Duration::from_millis);
        assert_eq!(inter_arrivals(&stamps), [5u64, 0, 25].map(Duration::from_millis).to_vec());
        assert!(inter_arrivals(&[]).is_empty());
        assert!(inter_arrivals(&stamps[..1]).is_empty());
    }

    #[test]
    fn dropping_a_full_stream_does_not_deadlock_or_leak_threads() {
        let (c, ds) = dataset(10, 16, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(2, 1));
        // Take one batch, then walk away with the capacity-1 channel full
        // and producers blocked mid-send.
        let _ = stream.next().unwrap().unwrap();
        drop(stream); // must join every worker without hanging
    }

    #[test]
    fn ordered_stream_after_midrun_error_delivers_prefix_then_error_once() {
        let (c, ds) = dataset(6, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        let bytes = partitions[3].blob.as_bytes().to_vec();
        partitions[3].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        // One worker, capacity 1 (the worst case for a deadlock): claims
        // run 0, 1, 2, 3 deterministically.
        let config = FleetConfig::new(1, 1);
        let mut delivered = Vec::new();
        let mut errors = 0usize;
        for item in BatchStream::spawn(&plan, &partitions, &config).into_ordered() {
            match item {
                Ok(b) => delivered.push(b.partition),
                Err(e) => {
                    errors += 1;
                    assert_eq!(e.partition(), Some(3));
                }
            }
        }
        assert_eq!(delivered, vec![0, 1, 2], "prefix delivered in order");
        assert_eq!(errors, 1, "error surfaced exactly once");
    }

    /// Positioned reads one fault-free attempt at a partition of `ds`
    /// issues, counted through a `CountingBlob`: the unit the fault
    /// schedules below are sized in.
    fn reads_per_partition(plan: &PreprocessPlan, ds: &Dataset) -> u64 {
        let counting = presto_columnar::CountingBlob::new(ds.partitions()[0].blob.clone());
        crate::executor::preprocess_partition(plan, &counting).expect("fault-free probe");
        counting.read_calls()
    }

    #[test]
    fn transient_faults_are_retried_to_a_bit_identical_stream() {
        let (c, ds) = dataset(6, 24, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| crate::executor::preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        // Arm every partition with a per-read transient fault rate low
        // enough that a whole-partition attempt clears within the generous
        // attempt budget — each retry consumes fresh read indices, so
        // faults eventually miss. An attempt costs the few reads the probe
        // counts (the open plus one per run of adjacent projected columns),
        // so the rate gives about one fault per attempt. Quarantine off:
        // host-fleet faults here are random across devices, not a dying
        // device.
        let rate = 1.0 / reads_per_partition(&plan, &ds) as f64;
        let injector = presto_columnar::FaultPlan::new(1234).with_transient_rate(rate).arm();
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
            })
            .collect();
        let recovery = RetryPolicy::recover()
            .with_max_attempts(2000)
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .with_quarantine_after(0);
        let config = FleetConfig::new(3, 2).with_recovery(recovery);
        let mut s = BatchStream::spawn(&plan, &partitions, &config).into_ordered();
        let streamed: Vec<MiniBatch> = s.by_ref().map(|i| i.unwrap().batch).collect();
        let report = s.run_report();
        assert_eq!(streamed, serial, "recovered stream must be bit-identical");
        assert!(injector.stats().transient > 0, "the plan must actually have injected faults");
        assert_eq!(report.retries, report.faults, "every fault was retried");
        assert!(report.retries > 0);
        assert!(report.failed_partitions.is_empty());
        assert_eq!(report.delivered, 6);
    }

    #[test]
    fn corrupt_pages_are_caught_by_crc_and_retried_from_pristine_media() {
        let (c, ds) = dataset(4, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        // About one corrupt read per partition attempt (see the probe).
        let rate = 1.0 / reads_per_partition(&plan, &ds) as f64;
        let injector = presto_columnar::FaultPlan::new(7).with_corrupt_rate(rate).arm();
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
            })
            .collect();
        let recovery = RetryPolicy::recover()
            .with_max_attempts(2000)
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .with_quarantine_after(0);
        let config = FleetConfig::new(2, 2).with_recovery(recovery);
        let ok = BatchStream::spawn(&plan, &partitions, &config).filter(|i| i.is_ok()).count();
        assert_eq!(ok, 4, "corruption is transient from pristine media: all must deliver");
        assert!(injector.stats().corrupt > 0, "corruption must actually have been injected");
    }

    #[test]
    fn dead_device_is_quarantined_and_its_partitions_fail_loudly() {
        let (c, ds) = dataset(8, 16, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        // Device 1 dies immediately; device 0 is healthy.
        let injector = presto_columnar::FaultPlan::new(5).with_device_death(1, 0).arm();
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
            })
            .collect();
        let on_dead: Vec<usize> =
            partitions.iter().filter(|p| p.device == 1).map(|p| p.index).collect();
        let recovery = RetryPolicy::recover()
            .with_max_attempts(2)
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .with_quarantine_after(2);
        let config = FleetConfig::new(2, 4).with_recovery(recovery);
        let mut stream = BatchStream::spawn(&plan, &partitions, &config);
        let mut ok = Vec::new();
        let mut failed = Vec::new();
        for item in stream.by_ref() {
            match item {
                Ok(b) => ok.push(b.partition),
                Err(e) => failed.push(e.partition().expect("provenance")),
            }
        }
        ok.sort_unstable();
        failed.sort_unstable();
        let healthy: Vec<usize> =
            partitions.iter().filter(|p| p.device == 0).map(|p| p.index).collect();
        assert_eq!(ok, healthy, "every healthy-device partition still delivers");
        assert_eq!(failed, on_dead, "every dead-device partition fails loudly");
        let report = stream.run_report();
        let dead_slot = 1; // devices sorted distinct: [0, 1]
        assert!(report.quarantined.contains(&dead_slot), "breaker must trip");
        assert!(report.device_health[dead_slot].quarantined);
        assert_eq!(
            report.delivered as usize + report.failed_partitions.len(),
            report.partitions,
            "nothing dropped silently"
        );
    }

    #[test]
    fn workers_and_capacity_are_clamped() {
        let (c, ds) = dataset(2, 8, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(64, 0));
        assert_eq!(stream.workers(), 2);
        assert_eq!(stream.capacity(), 1);
        assert_eq!(stream.count(), 2);
    }

    #[test]
    fn stats_consolidates_the_counters() {
        let (c, ds) = dataset(4, 16, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(2, 4));
        let n = stream.by_ref().filter(Result::is_ok).count();
        assert_eq!(n, 4);
        let stats = stream.stats();
        assert_eq!((stats.workers, stats.capacity, stats.completed), (2, 4, 4));
        assert_eq!((stats.p2p_bytes, stats.boundary_bytes), (0, 0));
        let recovery = stats.recovery.expect("host fleet tracks recovery");
        assert_eq!(recovery.delivered, 4);
        assert!(recovery.failed_partitions.is_empty());
    }

    #[test]
    fn fleet_config_split_knobs_mirror_the_shared_ones_by_default() {
        let config = FleetConfig::new(3, 5);
        assert_eq!(config.effective_host_workers(), 3);
        let config = config.with_host_workers(2);
        assert_eq!(config.effective_host_workers(), 2);
    }
}
