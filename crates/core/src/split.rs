//! Hybrid split-placement execution: each compiled stage runs on its
//! cheaper fleet, pipelined per partition.
//!
//! This materializes a [`PlacementPlan`](crate::placement::PlacementPlan)
//! as actual split execution. The plan is partitioned at the placement
//! boundary by [`PreprocessPlan::split`](presto_ops::PreprocessPlan::split);
//! `Fleet::Split(split)` ([`crate::fleet::Fleet`]) then runs
//! [`SplitPipeline`] on the streaming [engine](presto_ops::engine):
//!
//! * **Front segment, on ISP unit threads** — claim partitions in order
//!   (each unit owns its resident partitions in a real deployment),
//!   P2P-extract only the ISP-side raw columns, run the offloaded stage
//!   prefix through the chunked on-chip-buffer emulation
//!   ([`preprocess_split_isp`]), and hand the typed [`BoundaryBatch`] —
//!   only the stage outputs that cross the placement boundary — to a
//!   bounded link modelling the device link.
//! * **Back segment, on host worker threads** — extract the host-side raw
//!   columns (label included) through the host's own block-I/O path, resume
//!   the plan from the transferred intermediates
//!   ([`preprocess_split_host`]), and assemble the mini-batch.
//!
//! The ISP prefix of partition *i + 1* overlaps the host suffix of
//! partition *i*, so neither fleet idles while the other works — the
//! split's throughput win over either single-fleet run. Byte accounting is
//! split accordingly: [`StreamStats::p2p_bytes`](presto_ops::StreamStats)
//! counts the drive-side extraction the host never performs, and
//! `boundary_bytes` counts exactly the intermediate payload that crossed
//! the link — the quantity the placement cost model prices against the
//! device link rate.
//!
//! Both segments' storage reads run in the engine's attempt loop with
//! their own retry budget. A partition whose ISP prefix gives up fails
//! over: the host re-reads the intact media and runs the *full* plan,
//! bit-identical by construction and tagged `via_failover`.

use presto_columnar::FileReader;
use presto_datagen::RowBatch;
use presto_ops::engine::{Front, Produced, Run, Unit, UnitPipeline};
use presto_ops::executor::{
    extract_columns_for_plan, preprocess_split_host, preprocess_split_isp, projected_bytes,
    BoundaryBatch, PreprocessError, StageTimings,
};
use presto_ops::plan::SplitPlan;
use presto_ops::ScratchSpace;
use std::time::{Duration, Instant};

use crate::isp_worker::FEATURE_BUFFER_ELEMS;

/// The split fleet's unit pipeline: ISP stage prefix | host stage suffix.
#[derive(Debug, Clone)]
pub struct SplitPipeline {
    split: SplitPlan,
}

impl SplitPipeline {
    /// The pipeline running `split`'s two sides.
    #[must_use]
    pub fn new(split: SplitPlan) -> Self {
        SplitPipeline { split }
    }

    /// Opens the unit's partition and extracts `columns` of the plan.
    fn extract(
        run: &Run,
        unit: &Unit,
        columns: &[String],
        scratch: &mut ScratchSpace,
    ) -> Result<(FileReader<presto_columnar::MemBlob>, RowBatch, Duration), PreprocessError> {
        let t0 = Instant::now();
        let reader = FileReader::open(run.partition(unit).blob.clone())?;
        let batch = extract_columns_for_plan(run.plan(), &reader, columns, scratch.read_scratch())?;
        Ok((reader, batch, t0.elapsed()))
    }
}

impl UnitPipeline for SplitPipeline {
    type Mid = (BoundaryBatch, StageTimings);
    type Read = (RowBatch, Duration);

    fn front(
        &self,
        run: &Run,
        unit: &Unit,
        scratch: &mut ScratchSpace,
    ) -> Result<Front<Self::Mid>, PreprocessError> {
        // Nothing offloaded (host-only split): hand the partition straight
        // across — no device work, no P2P traffic.
        if self.split.isp_stages().is_empty() {
            return Ok(Front::Handoff((BoundaryBatch::default(), StageTimings::default())));
        }
        let (reader, batch, extract) = Self::extract(run, unit, self.split.isp_columns(), scratch)?;
        let p2p_bytes = projected_bytes(&reader, self.split.isp_columns())?;
        let (boundary, mut timings, _) =
            preprocess_split_isp(run.plan(), &self.split, batch, FEATURE_BUFFER_ELEMS)?;
        timings.extract = extract;
        run.add_traffic(p2p_bytes, boundary.byte_len());
        Ok(Front::Handoff((boundary, timings)))
    }

    fn back_read(
        &self,
        run: &Run,
        unit: &Unit,
        scratch: &mut ScratchSpace,
    ) -> Result<Self::Read, PreprocessError> {
        let (_, batch, extract) = Self::extract(run, unit, self.split.host_columns(), scratch)?;
        Ok((batch, extract))
    }

    fn back(
        &self,
        run: &Run,
        _: &Unit,
        (boundary, mut timings): Self::Mid,
        (batch, extract): Self::Read,
    ) -> Result<Produced, PreprocessError> {
        let (batch, mut host) = preprocess_split_host(run.plan(), &self.split, batch, boundary)?;
        host.extract = extract;
        timings.absorb(&host);
        Ok((batch, timings))
    }

    fn fails_over(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::fleet::Fleet as Executor;
    use presto_datagen::{Dataset, Partition, RmConfig};
    use presto_ops::minibatch::MiniBatch;
    use presto_ops::plan::{Fleet, PreprocessPlan};
    use presto_ops::{preprocess_partition, FleetConfig, RetryPolicy};

    fn setup(parts: usize, rows: usize) -> (PreprocessPlan, Dataset, Vec<MiniBatch>) {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        let plan = PreprocessPlan::from_config(&c, 11).expect("plan");
        let ds = Dataset::generate(&c, parts, rows, 2, 21).expect("dataset");
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        (plan, ds, serial)
    }

    fn alternating(n: usize) -> Vec<Fleet> {
        (0..n).map(|i| if i % 2 == 0 { Fleet::Isp } else { Fleet::Host }).collect()
    }

    #[test]
    fn split_stream_is_bit_identical_to_serial_path() {
        let (plan, ds, serial) = setup(6, 48);
        let split = plan.split(&alternating(plan.stages().len())).unwrap();
        assert!(!split.is_single_fleet());
        let mut stream =
            Executor::Split(split.clone()).stream(&plan, ds.partitions(), &FleetConfig::new(2, 2));
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("preprocesses");
            got.push((b.partition, b.batch));
        }
        assert_eq!(stream.stats().completed, 6);
        assert!(stream.stats().p2p_bytes > 0, "ISP side extracted over P2P");
        assert!(stream.stats().boundary_bytes > 0, "intermediates crossed the link");
        got.sort_by_key(|(p, _)| *p);
        assert_eq!(got.len(), 6);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
    }

    #[test]
    fn host_only_split_moves_no_device_bytes() {
        let (plan, ds, serial) = setup(4, 32);
        let split = plan.split(&vec![Fleet::Host; plan.stages().len()]).unwrap();
        let mut stream =
            Executor::Split(split.clone()).stream(&plan, ds.partitions(), &FleetConfig::new(2, 2));
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("preprocesses");
            got.push((b.partition, b.batch));
        }
        assert_eq!(stream.stats().p2p_bytes, 0);
        assert_eq!(stream.stats().boundary_bytes, 0);
        got.sort_by_key(|(p, _)| *p);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
    }

    #[test]
    fn all_isp_split_still_assembles_on_host() {
        let (plan, ds, serial) = setup(4, 32);
        let split = plan.split(&vec![Fleet::Isp; plan.stages().len()]).unwrap();
        let mut stream =
            Executor::Split(split.clone()).stream(&plan, ds.partitions(), &FleetConfig::new(2, 2));
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("preprocesses");
            got.push((b.partition, b.batch));
        }
        assert!(stream.stats().boundary_bytes > 0, "every emitted stage crossed");
        got.sort_by_key(|(p, _)| *p);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
    }

    #[test]
    fn placement_driven_split_matches_serial_path() {
        use crate::placement::{place_stages, OpCostModel};
        use presto_hwsim::fpga::IspModel;
        let (plan, ds, serial) = setup(4, 48);
        let model = OpCostModel::analytic(&IspModel::smartssd());
        let placement = place_stages(&plan, 48, &model);
        let split = plan.split(&placement.fleet_assignment()).unwrap();
        let mut stream =
            Executor::Split(split.clone()).stream(&plan, ds.partitions(), &FleetConfig::new(2, 2));
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("preprocesses");
            got.push((b.partition, b.batch));
        }
        got.sort_by_key(|(p, _)| *p);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
    }

    #[test]
    fn dead_isp_device_fails_over_to_full_host_plan() {
        let (plan, ds, serial) = setup(8, 32);
        let injector = presto_columnar::FaultPlan::new(3).with_device_death(1, 0).arm();
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
            .with_max_attempts(2)
            .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO)
            .with_quarantine_after(2);
        let split = plan.split(&alternating(plan.stages().len())).unwrap();
        let mut stream = Executor::Split(split.clone()).stream(
            &plan,
            &partitions,
            &FleetConfig::new(2, 4).with_recovery(recovery),
        );
        let mut got: Vec<(usize, MiniBatch, bool)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("failover covers the dead device");
            got.push((b.partition, b.batch, b.via_failover));
        }
        let report = stream.run_report();
        got.sort_by_key(|(p, _, _)| *p);
        assert_eq!(got.len(), 8, "no partition lost");
        for (pos, batch, _) in &got {
            assert_eq!(batch, &serial[*pos], "partition {pos} must be bit-identical");
        }
        assert!(got.iter().any(|(_, _, via)| *via), "failover delivered");
        assert!(report.failovers > 0);
        assert!(report.quarantined.contains(&1));
        assert!(report.failed_partitions.is_empty());
        assert_eq!(report.delivered, 8);
    }

    #[test]
    fn dropping_a_split_stream_joins_without_deadlock() {
        let (plan, ds, _) = setup(8, 32);
        let split = plan.split(&alternating(plan.stages().len())).unwrap();
        let mut stream =
            Executor::Split(split.clone()).stream(&plan, ds.partitions(), &FleetConfig::new(2, 1));
        let _ = stream.next().unwrap().unwrap();
        drop(stream); // full channels + live producers must not wedge
    }
}
