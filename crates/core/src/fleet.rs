//! The unified fleet API: one spec, one config, any streaming executor.
//!
//! [`Fleet`] names the executor and [`FleetConfig`] carries every knob, so
//! swapping fleets never rewrites a call site:
//!
//! ```
//! use presto_core::fleet::Fleet;
//! use presto_datagen::{Dataset, RmConfig};
//! use presto_ops::{FleetConfig, PreprocessPlan};
//!
//! let mut c = RmConfig::rm1();
//! c.batch_size = 32;
//! let plan = PreprocessPlan::from_config(&c, 7)?;
//! let ds = Dataset::generate(&c, 2, 32, 1, 7)?;
//! let config = FleetConfig::new(2, 4);
//! for fleet in [Fleet::Host, Fleet::Isp] {
//!     let mut source = fleet.spawn(&plan, ds.partitions(), &config);
//!     while let Some(item) = source.next_batch() {
//!         item?;
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every fleet is a constructor over the one streaming
//! [engine](presto_ops::engine): it picks a unit pipeline, a claim source,
//! a thread layout and a delivery order (the table in the engine docs).
//! [`Fleet::stream`] returns the engine's [`BatchStream`] for callers that
//! want its iterator and reports; [`Fleet::spawn`] erases it behind
//! [`BatchSource`] for callers — like the [`Trainer`](crate::pipeline::Trainer)
//! — that treat fleets interchangeably. Knobs that do not apply to a fleet
//! are ignored, so one config can drive an apples-to-apples comparison
//! across all of them.
//!
//! Note: [`presto_ops::plan::Fleet`] is the *per-stage placement tag*
//! (which side of the split boundary a compiled stage runs on); this
//! `Fleet` is the *executor spec* for a whole run. The split variant
//! carries the [`SplitPlan`] produced from a list of the former.

use presto_datagen::Partition;
use presto_ops::engine::{BatchStream, ClaimOrder, FleetConfig, Link, Run};
use presto_ops::plan::{PreprocessPlan, SplitPlan};
use presto_ops::shuffle::{ShuffleSpec, ShuffledStream};

use crate::isp_worker::IspWorker;
use crate::pipeline::BatchSource;
use crate::split::SplitPipeline;

/// Which streaming executor to spawn — the unified spec covering every
/// fleet of the reproduction.
#[derive(Debug, Clone, PartialEq)]
pub enum Fleet {
    /// Host CPU fleet ([`BatchStream::spawn`]): Extract | Transform +
    /// format with double-buffered Extract and device-affine work
    /// stealing.
    Host,
    /// In-storage fleet: one emulated ISP unit ([`IspWorker`]) per worker,
    /// claiming partitions in order, with a host failover thread for units
    /// the devices give up on.
    Isp,
    /// Hybrid split fleet ([`SplitPipeline`]): the carried [`SplitPlan`]'s
    /// stage prefix on ISP units and its suffix on host workers,
    /// pipelined over the device link.
    Split(SplitPlan),
    /// Shuffled-epoch fleet: [`ShuffledStream`] streaming every `PSTOCOL4`
    /// row group of the partitions in the carried spec's seeded
    /// permutation, delivered in permutation order regardless of worker
    /// count. Partitions written without row grouping degrade gracefully
    /// to a whole-partition shuffle (each file is one group).
    Shuffled(ShuffleSpec),
}

impl Fleet {
    /// Spawns this fleet over `partitions` with the shared `config`,
    /// type-erased behind [`BatchSource`] so a
    /// [`Trainer`](crate::pipeline::Trainer) consumes any fleet unchanged.
    #[must_use]
    pub fn spawn(
        &self,
        plan: &PreprocessPlan,
        partitions: &[Partition],
        config: &FleetConfig,
    ) -> Box<dyn BatchSource + Send> {
        Box::new(self.stream(plan, partitions, config))
    }

    /// Spawns this fleet and returns the engine's stream itself.
    ///
    /// `workers` is the front worker count (ISP units on the ISP and split
    /// fleets); the ISP fleet adds one failover thread, the split fleet
    /// [`FleetConfig::effective_host_workers`] host workers behind a
    /// `capacity`-deep device link. A shuffled fleet whose row-group
    /// footers cannot be enumerated yields that error as its only item, so
    /// this constructor stays infallible like every other fleet's.
    #[must_use]
    pub fn stream(
        &self,
        plan: &PreprocessPlan,
        partitions: &[Partition],
        config: &FleetConfig,
    ) -> BatchStream {
        let in_order = || {
            Run::new(
                plan.clone(),
                partitions.to_vec(),
                ClaimOrder::InOrder,
                config.recovery.clone(),
            )
        };
        match self {
            Fleet::Host => BatchStream::spawn(plan, partitions, config),
            Fleet::Isp => {
                // Each partition fails over at most once, so the failover
                // link can never block a unit.
                let link = Link::Shared { capacity: partitions.len(), back_workers: 1 };
                BatchStream::from_pipeline(in_order(), IspWorker::new(plan.clone()), config, link)
            }
            Fleet::Split(split) => {
                // The link models the bounded device link: ISP units stall
                // once `capacity` boundary payloads are in flight.
                let link = Link::Shared {
                    capacity: config.capacity,
                    back_workers: config.effective_host_workers(),
                };
                BatchStream::from_pipeline(
                    in_order(),
                    SplitPipeline::new(split.clone()),
                    config,
                    link,
                )
            }
            Fleet::Shuffled(spec) => ShuffledStream::spawn(plan, partitions, *spec, config)
                .map_or_else(|e| BatchStream::failed(plan, e), ShuffledStream::into_inner),
        }
    }

    /// Short human-readable fleet name for reports and logs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Fleet::Host => "host",
            Fleet::Isp => "isp",
            Fleet::Split(_) => "split",
            Fleet::Shuffled(_) => "shuffled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::{Dataset, RmConfig};
    use presto_ops::minibatch::MiniBatch;
    use presto_ops::preprocess_partition;

    #[test]
    fn every_fleet_spawns_and_matches_serial_output() {
        let mut c = RmConfig::rm1();
        c.batch_size = 32;
        let plan = PreprocessPlan::from_config(&c, 11).unwrap();
        let ds = Dataset::generate(&c, 4, 32, 2, 21).unwrap();
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        let stage_tags: Vec<presto_ops::plan::Fleet> = (0..plan.stages().len())
            .map(|i| {
                if i % 2 == 0 {
                    presto_ops::plan::Fleet::Isp
                } else {
                    presto_ops::plan::Fleet::Host
                }
            })
            .collect();
        let split = plan.split(&stage_tags).unwrap();
        let config = FleetConfig::new(2, 4);
        for fleet in [Fleet::Host, Fleet::Isp, Fleet::Split(split)] {
            let mut source = fleet.spawn(&plan, ds.partitions(), &config);
            let mut got: Vec<(usize, MiniBatch)> = Vec::new();
            while let Some(item) = source.next_batch() {
                let b = item.unwrap_or_else(|e| panic!("{} fleet failed: {e}", fleet.name()));
                got.push((b.partition, b.batch));
            }
            got.sort_by_key(|(p, _)| *p);
            assert_eq!(got.len(), 4, "{} fleet delivered all partitions", fleet.name());
            for (pos, batch) in got {
                assert_eq!(batch, serial[pos], "{} fleet partition {pos}", fleet.name());
            }
            let stats = source.stats();
            assert_eq!(stats.completed, 4);
            assert!(stats.recovery.is_some(), "all real fleets track recovery");
        }
    }

    #[test]
    fn shuffled_fleet_streams_all_groups_and_matches_serial() {
        let mut c = RmConfig::rm1();
        c.batch_size = 16;
        let plan = PreprocessPlan::from_config(&c, 11).unwrap();
        let ds = Dataset::generate_grouped(&c, 3, 32, 2, 21, 16).unwrap();
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        let fleet = Fleet::Shuffled(presto_ops::ShuffleSpec::new(42));
        let mut source = fleet.spawn(&plan, ds.partitions(), &FleetConfig::new(2, 4));
        let mut got = Vec::new();
        while let Some(item) = source.next_batch() {
            got.push(item.unwrap());
        }
        assert_eq!(got.len(), 6, "3 partitions x 2 groups of 16");
        assert_eq!(source.stats().completed, 6);
        got.sort_by_key(|b| (b.partition, b.group));
        for b in got {
            let want = serial[b.partition].slice_rows(b.group * 16, 16).unwrap();
            assert_eq!(b.batch, want, "partition {} group {}", b.partition, b.group);
        }
    }

    #[test]
    fn shuffled_fleet_surfaces_spawn_failure_on_the_stream() {
        let mut c = RmConfig::rm1();
        c.batch_size = 16;
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let ds = Dataset::generate(&c, 1, 16, 1, 5).unwrap();
        let mut partitions = ds.partitions().to_vec();
        // Destroy the footer so epoch enumeration itself fails.
        let bytes = partitions[0].blob.as_bytes().to_vec();
        partitions[0].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        let fleet = Fleet::Shuffled(presto_ops::ShuffleSpec::new(1));
        let mut source = fleet.spawn(&plan, &partitions, &FleetConfig::new(1, 1));
        assert_eq!(source.queued(), 1);
        let first = source.next_batch().expect("one item");
        assert!(first.is_err());
        assert!(source.next_batch().is_none(), "error ends the stream");
    }

    #[test]
    fn fleet_names_are_stable() {
        assert_eq!(Fleet::Host.name(), "host");
        assert_eq!(Fleet::Isp.name(), "isp");
        assert_eq!(Fleet::Shuffled(presto_ops::ShuffleSpec::new(0)).name(), "shuffled");
    }
}
