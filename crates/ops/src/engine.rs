//! The one streaming engine behind every fleet and the multi-tenant
//! service.
//!
//! PreSto's result is a like-for-like comparison: the same preprocessing
//! runs on host CPUs and on in-storage units, so outputs and throughput
//! compare directly. Every executor of this repo is therefore the same
//! machine, assembled from four parts:
//!
//! * a **unit** ([`Unit`]): one partition, or one `PSTOCOL4` row group of
//!   a partition;
//! * a **unit pipeline** ([`UnitPipeline`]): a *front* segment, a bounded
//!   *link*, and a *back* segment. The back segment also runs the
//!   ISP → host *fallback*, which re-reads pristine media and runs the full
//!   plan on the CPU;
//! * a **claim source** ([`ClaimOrder`]): device-affine queues with
//!   cross-device stealing, an in-order cursor, or a seeded permutation;
//! * a **delivery order**: arrival order, or sequence order through one
//!   reorder heap ([`BatchStream::into_ordered`]).
//!
//! Each fleet is a constructor that picks one of each:
//!
//! | Fleet | Claims | Front | Link | Back |
//! |---|---|---|---|---|
//! | host ([`BatchStream::spawn`]) | device-affine | Extract | one slot per worker | Transform + format |
//! | ISP (`presto_core::fleet::Fleet::Isp`) | in order | whole ISP unit | shared, one per unit | failover |
//! | split (`Fleet::Split`) | in order | ISP stage prefix | shared, `capacity` | host stage suffix |
//! | shuffled ([`ShuffledStream`](crate::ShuffledStream)) | permutation | one row group | none | — |
//!
//! The service (`presto_core::service`) keeps its own admission and
//! weighted-fair dispatch, and runs each claimed unit through the same
//! pipeline and attempt loop with [`run_unit`].
//!
//! # Failure semantics
//!
//! Every storage read — each segment's attempt — goes through one attempt
//! loop, governed by the [`RetryPolicy`] in [`FleetConfig::recovery`]:
//!
//! * **Fail-fast** (the default, [`RetryPolicy::fail_fast`]): one attempt;
//!   the first error is delivered into the stream and raises the run's
//!   stop flag, so workers stop claiming within one unit. Units already
//!   claimed still finish and are delivered.
//! * **Recovery** ([`RetryPolicy::recover`] or a custom policy): a failed
//!   attempt is retried with capped exponential backoff up to
//!   [`RetryPolicy::max_attempts`], but only when the error is *retryable*
//!   ([`PreprocessError::is_retryable`]: storage-side faults such as I/O
//!   errors, CRC mismatches from corrupt pages and truncated reads).
//!   Plan, schema and shape errors surface immediately. The front and back
//!   segments each get their own budget, and
//!   [`StreamedBatch::attempts`] counts the front's attempts plus any extra
//!   back attempts. Attempts slower than
//!   [`RetryPolicy::straggler_deadline`] are counted post-hoc.
//! * **Quarantine.** Each device carries a consecutive-failure circuit
//!   breaker ([`RetryPolicy::quarantine_after`]). Once it trips, front
//!   segments stop attempting units on the device. Back segments read
//!   through the host's own path: their faults count toward the breaker,
//!   but it does not cut their retries short.
//! * **Failover.** On pipelines with an ISP front ([`UnitPipeline::fails_over`])
//!   and with [`RetryPolicy::failover`] on, a unit whose front segment
//!   gave up on a retryable error, or whose device is quarantined, goes to
//!   the back segment's fallback instead: the host re-reads the intact
//!   media ([`presto_columnar::MemBlob::without_faults`]) and runs the
//!   whole plan. Output is bit-identical by construction and the batch is
//!   tagged [`StreamedBatch::via_failover`]. Host pipelines are the
//!   fallback path themselves, so their quarantined or exhausted units
//!   surface as errors.
//!
//! Every surfaced error carries its provenance ([`PreprocessError::At`]:
//! partition index and device id). With `fail_fast: false` every claimed
//! unit ends as exactly one `Ok` batch or one tagged `Err`, which the
//! [`RunReport`] accounting (`delivered + failed_partitions == partitions`,
//! counted in units) makes checkable. Dropping a stream, even with a full
//! channel, stops and joins every worker.

use crate::executor::{preprocess_partition_with, PreprocessError, ScratchSpace, StageTimings};
use crate::minibatch::MiniBatch;
use crate::plan::PreprocessPlan;
use crate::recovery::{RecoveryTracker, RetryPolicy, RunReport};
use crossbeam_channel::{bounded, Receiver, Sender};
use presto_columnar::ColumnarError;
use presto_datagen::Partition;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration shared by every fleet.
///
/// Every fleet defaults to **fail-fast** failure handling
/// ([`RetryPolicy::fail_fast`]); opt into retry, quarantine and failover
/// with [`FleetConfig::with_recovery`]. `workers` and `capacity` mean the
/// same thing on every fleet; `host_workers` only affects the split fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Front-segment worker count; clamped to `1..=units`. On the ISP and
    /// split fleets this is the ISP unit count.
    pub workers: usize,
    /// Output-channel capacity in mini-batches; producers block when full.
    /// The split fleet's ISP → host link has the same capacity.
    pub capacity: usize,
    /// Failure handling (retry, quarantine, straggler detection, ISP→host
    /// failover); defaults to [`RetryPolicy::fail_fast`] on every fleet.
    pub recovery: RetryPolicy,
    /// Split fleet only: host-side worker count. `None` mirrors `workers`.
    pub host_workers: Option<usize>,
}

impl FleetConfig {
    /// `workers` pipelines over a `capacity`-bounded channel, fail-fast
    /// failure handling.
    #[must_use]
    pub fn new(workers: usize, capacity: usize) -> Self {
        FleetConfig { workers, capacity, recovery: RetryPolicy::fail_fast(), host_workers: None }
    }

    /// Sets the failure-handling policy (all fleets).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RetryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the split fleet's host-side worker count.
    #[must_use]
    pub fn with_host_workers(mut self, host_workers: usize) -> Self {
        self.host_workers = Some(host_workers);
        self
    }

    /// Effective host-side worker count for the split fleet.
    #[must_use]
    pub fn effective_host_workers(&self) -> usize {
        self.host_workers.unwrap_or(self.workers)
    }
}

/// One snapshot of a stream's or a service job's counters: the one stats
/// surface behind [`BatchSource::stats`].
///
/// Counters that do not apply are zero (`p2p_bytes` on host fleets,
/// `boundary_bytes` everywhere but the split pipeline). `recovery` is
/// `None` only for sources that do not track recovery at all (e.g. ad-hoc
/// test sources using the trait's default implementation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Front-segment worker count (ISP units on the ISP and split fleets,
    /// pool workers for a service job).
    pub workers: usize,
    /// Output-channel capacity in mini-batches.
    pub capacity: usize,
    /// Mini-batches buffered ahead of the consumer right now (output
    /// channel plus reorder heap).
    pub queued: usize,
    /// Units fully preprocessed so far (producer-side counter).
    pub completed: usize,
    /// Bytes moved over the emulated P2P link by ISP front segments.
    pub p2p_bytes: u64,
    /// Bytes of typed boundary hand-offs crossing the split pipeline's
    /// ISP → host link.
    pub boundary_bytes: u64,
    /// Recovery-activity snapshot (retries, quarantines, per-device fault
    /// counts, delivery accounting), when the source tracks recovery.
    pub recovery: Option<RunReport>,
}

/// One mini-batch as it leaves the pipeline.
#[derive(Debug)]
pub struct StreamedBatch {
    /// Position of the source partition in the input slice.
    pub partition: usize,
    /// Row group within the partition this batch was decoded from. Fleets
    /// that preprocess whole partitions at a time report group `0`; the
    /// shuffled stream reports the actual `PSTOCOL4` row group index.
    pub group: usize,
    /// Storage device the partition lives on.
    pub device: usize,
    /// True when the unit was claimed off the producing worker's home
    /// device (cross-device steal).
    pub stolen: bool,
    /// The preprocessed mini-batch.
    pub batch: MiniBatch,
    /// Per-stage wall-clock timings for this unit.
    pub timings: StageTimings,
    /// Producer-side delivery time, measured from the start of the run:
    /// stamped when the finished batch is handed to the (possibly full)
    /// output channel — the *supply* process, before consumer
    /// back-pressure. Consecutive arrivals give the measured inter-arrival
    /// process that drives the pipeline simulation
    /// (`presto_core::pipeline::simulate_measured`, which applies queue
    /// back-pressure itself); stamping at the consumer instead would fold
    /// the consumer's own pacing into the trace and make the calibration
    /// tautological.
    pub arrived: Duration,
    /// Attempts this batch took: the front segment's attempts plus any
    /// extra back-segment attempts (1 = first try succeeded).
    pub attempts: u32,
    /// True when the batch was produced by the host fallback after its ISP
    /// front segment gave up.
    pub via_failover: bool,
}

/// Load observed on one storage device during a device-affine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLoad {
    /// Device id (`Partition::device`).
    pub device: usize,
    /// Partitions resident on the device.
    pub partitions: usize,
    /// Peak simultaneously in-flight front segments (claim until the
    /// projected reads + decode finish — the window the device is actually
    /// busy). Values above 1 mean workers contended for the device.
    pub max_in_flight: usize,
    /// Partitions taken from this device by workers homed elsewhere.
    pub stolen_from: usize,
}

/// A producer a trainer can consume: a blocking pull of preprocessed
/// mini-batches plus the channel introspection the occupancy histogram
/// needs. Implemented by [`BatchStream`] (every fleet), the
/// [`ShuffledStream`](crate::ShuffledStream) and the multi-tenant
/// service's per-job handle (`presto_core::service::JobHandle`), so a
/// `Trainer` plugs into any of them unchanged.
pub trait BatchSource {
    /// Pulls the next mini-batch, blocking until one is ready; `None` ends
    /// the stream.
    fn next_batch(&mut self) -> Option<Result<StreamedBatch, PreprocessError>>;

    /// Output-channel capacity (sizes the occupancy histogram).
    fn capacity(&self) -> usize;

    /// Mini-batches currently buffered in the output channel.
    fn queued(&self) -> usize;

    /// Consolidated counters ([`StreamStats`]): queue depth, completed
    /// units, emulated P2P / boundary link traffic, and the recovery
    /// snapshot. The default covers sources without instrumentation
    /// (capacity and live queue depth only; everything else zero /
    /// `None`).
    fn stats(&self) -> StreamStats {
        StreamStats { capacity: self.capacity(), queued: self.queued(), ..StreamStats::default() }
    }
}

impl<S: BatchSource + ?Sized> BatchSource for Box<S> {
    fn next_batch(&mut self) -> Option<Result<StreamedBatch, PreprocessError>> {
        (**self).next_batch()
    }

    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn queued(&self) -> usize {
        (**self).queued()
    }

    fn stats(&self) -> StreamStats {
        (**self).stats()
    }
}

/// Inter-arrival gaps computed from a drained stream's
/// [`StreamedBatch::arrived`] delivery stamps (receive order; producers
/// racing into the channel can invert neighboring stamps, which saturates
/// to a zero gap). This is the measured supply process
/// `presto_core::pipeline::simulate_measured` replays to calibrate the
/// trainer simulation against the real executor.
#[must_use]
pub fn inter_arrivals(arrivals: &[Duration]) -> Vec<Duration> {
    arrivals.windows(2).map(|w| w[1].saturating_sub(w[0])).collect()
}

/// One claimed unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Position in the run's delivery sequence: the partition index, or the
    /// permutation position on a shuffled run.
    pub seq: usize,
    /// Position of the source partition in the input slice.
    pub partition: usize,
    /// Row group within the partition (`0` for whole-partition units).
    pub group: usize,
    /// Storage device the partition lives on.
    pub device: usize,
    /// Claimed off the worker's home device (device-affine claims only).
    pub stolen: bool,
}

/// The order in which a run's workers claim units.
#[derive(Debug, Clone)]
pub enum ClaimOrder {
    /// Whole partitions from per-device queues: each worker drains its
    /// home device first and steals round-robin when it runs dry.
    Affine,
    /// Whole partitions in index order behind one cursor.
    InOrder,
    /// `(partition, group)` units in the given order behind one cursor,
    /// starting at position `start` (a seeded permutation, possibly
    /// resumed mid-epoch).
    Sequence {
        /// The units, in claim (and delivery) order.
        units: Vec<(usize, usize)>,
        /// First position to claim.
        start: usize,
    },
}

/// Per-device partition queues with affine claiming and cross-device
/// stealing.
#[derive(Debug)]
struct DeviceQueues {
    /// Sorted distinct device ids.
    devices: Vec<usize>,
    /// Slice positions per device slot, in partition order.
    queues: Vec<Vec<usize>>,
    /// Next unclaimed entry per device slot.
    cursors: Vec<AtomicUsize>,
    in_flight: Vec<AtomicUsize>,
    max_in_flight: Vec<AtomicUsize>,
    stolen_from: Vec<AtomicUsize>,
}

impl DeviceQueues {
    fn new(partitions: &[Partition]) -> Self {
        let mut devices: Vec<usize> = partitions.iter().map(|p| p.device).collect();
        devices.sort_unstable();
        devices.dedup();
        if devices.is_empty() {
            devices.push(0);
        }
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); devices.len()];
        for (pos, p) in partitions.iter().enumerate() {
            let slot = devices.binary_search(&p.device).expect("device listed");
            queues[slot].push(pos);
        }
        let counters = || (0..devices.len()).map(|_| AtomicUsize::new(0)).collect();
        DeviceQueues {
            cursors: counters(),
            in_flight: counters(),
            max_in_flight: counters(),
            stolen_from: counters(),
            devices,
            queues,
        }
    }

    /// Claims the next partition for a worker homed on `home`: the home
    /// queue first, then the other devices round-robin (a steal).
    fn claim(&self, home: usize) -> Option<(usize, bool)> {
        let n = self.devices.len();
        for k in 0..n {
            let slot = (home + k) % n;
            let idx = self.cursors[slot].fetch_add(1, Ordering::Relaxed);
            if let Some(&pos) = self.queues[slot].get(idx) {
                let now = self.in_flight[slot].fetch_add(1, Ordering::Relaxed) + 1;
                self.max_in_flight[slot].fetch_max(now, Ordering::Relaxed);
                if k != 0 {
                    self.stolen_from[slot].fetch_add(1, Ordering::Relaxed);
                }
                return Some((pos, k != 0));
            }
        }
        None
    }

    fn release(&self, device: usize) {
        if let Ok(slot) = self.devices.binary_search(&device) {
            self.in_flight[slot].fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn report(&self) -> Vec<DeviceLoad> {
        self.devices
            .iter()
            .enumerate()
            .map(|(slot, &device)| DeviceLoad {
                device,
                partitions: self.queues[slot].len(),
                max_in_flight: self.max_in_flight[slot].load(Ordering::Relaxed),
                stolen_from: self.stolen_from[slot].load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[derive(Debug)]
enum Claims {
    Affine(DeviceQueues),
    /// A cursor over `0..len`; position `seq` is unit `units[seq]`, or
    /// whole partition `seq` when there is no unit list.
    Cursor {
        next: AtomicUsize,
        len: usize,
        units: Option<Vec<(usize, usize)>>,
    },
}

/// Shared state of one run — a fleet's stream or one service job: the
/// inputs, the claim source, the recovery tracker, the stop flag and the
/// counters behind [`StreamStats`].
#[derive(Debug)]
pub struct Run {
    plan: PreprocessPlan,
    partitions: Vec<Partition>,
    claims: Claims,
    units: usize,
    tracker: RecoveryTracker,
    /// Raised on a fail-fast error (and on consumer drop); workers stop
    /// claiming and stop retrying.
    stop: AtomicBool,
    completed: AtomicUsize,
    rows: AtomicU64,
    p2p_bytes: AtomicU64,
    boundary_bytes: AtomicU64,
    /// Origin of every [`StreamedBatch::arrived`] stamp.
    started: Instant,
}

impl Run {
    /// A run of `plan` over `partitions`, claimed in `order`, under
    /// `recovery`.
    #[must_use]
    pub fn new(
        plan: PreprocessPlan,
        partitions: Vec<Partition>,
        order: ClaimOrder,
        recovery: RetryPolicy,
    ) -> Run {
        let (claims, units) = match order {
            ClaimOrder::Affine => {
                (Claims::Affine(DeviceQueues::new(&partitions)), partitions.len())
            }
            ClaimOrder::InOrder => {
                let len = partitions.len();
                (Claims::Cursor { next: AtomicUsize::new(0), len, units: None }, len)
            }
            ClaimOrder::Sequence { units, start } => {
                let len = units.len();
                (Claims::Cursor { next: AtomicUsize::new(start), len, units: Some(units) }, len)
            }
        };
        let devices: Vec<usize> = partitions.iter().map(|p| p.device).collect();
        Run {
            tracker: RecoveryTracker::new(recovery, &devices, units),
            plan,
            partitions,
            claims,
            units,
            stop: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
            rows: AtomicU64::new(0),
            p2p_bytes: AtomicU64::new(0),
            boundary_bytes: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The compiled plan every unit runs.
    #[must_use]
    pub fn plan(&self) -> &PreprocessPlan {
        &self.plan
    }

    /// The partition a unit belongs to.
    #[must_use]
    pub fn partition(&self, unit: &Unit) -> &Partition {
        &self.partitions[unit.partition]
    }

    /// Units in the run (partitions, or row groups on a shuffled run).
    #[must_use]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Adds emulated link traffic: bytes an ISP front pulled over P2P and
    /// boundary bytes it handed across the device link.
    pub fn add_traffic(&self, p2p_bytes: u64, boundary_bytes: u64) {
        self.p2p_bytes.fetch_add(p2p_bytes, Ordering::Relaxed);
        self.boundary_bytes.fetch_add(boundary_bytes, Ordering::Relaxed);
    }

    /// Claims the next unit for a worker homed on device slot `home`
    /// (ignored by cursor claims); `None` once every unit is claimed.
    pub fn claim(&self, home: usize) -> Option<Unit> {
        let (seq, partition, group, stolen) = match &self.claims {
            Claims::Affine(queues) => {
                let (pos, stolen) = queues.claim(home)?;
                (pos, pos, 0, stolen)
            }
            Claims::Cursor { next, len, units } => {
                let seq = next.fetch_add(1, Ordering::Relaxed);
                if seq >= *len {
                    return None;
                }
                let (partition, group) = units.as_ref().map_or((seq, 0), |units| units[seq]);
                (seq, partition, group, false)
            }
        };
        let device = self.partitions[partition].device;
        Some(Unit { seq, partition, group, device, stolen })
    }

    /// Whether every unit has been claimed.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        match &self.claims {
            Claims::Affine(queues) => queues
                .cursors
                .iter()
                .zip(&queues.queues)
                .all(|(cursor, queue)| cursor.load(Ordering::Relaxed) >= queue.len()),
            Claims::Cursor { next, len, .. } => next.load(Ordering::Relaxed) >= *len,
        }
    }

    /// Raises the stop flag: no further claims or retries.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether the stop flag is raised.
    #[must_use]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Recovery-activity snapshot ([`RunReport`]).
    #[must_use]
    pub fn report(&self) -> RunReport {
        self.tracker.report()
    }

    /// Rows delivered so far.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// The run's counters as a [`StreamStats`] for a consumer seeing
    /// `workers` producers, a `capacity`-deep channel and `queued`
    /// buffered batches.
    #[must_use]
    pub fn stats(&self, workers: usize, capacity: usize, queued: usize) -> StreamStats {
        StreamStats {
            workers,
            capacity,
            queued,
            completed: self.completed.load(Ordering::Relaxed),
            p2p_bytes: self.p2p_bytes.load(Ordering::Relaxed),
            boundary_bytes: self.boundary_bytes.load(Ordering::Relaxed),
            recovery: Some(self.tracker.report()),
        }
    }
}

/// What a front segment produced for one unit.
// Lopsided on purpose: boxing the mini-batch to appease
// `large_enum_variant` would add an allocation to every delivered unit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Front<M> {
    /// The unit is finished; deliver it.
    Done(MiniBatch, StageTimings),
    /// Hand this intermediate to the back segment over the link.
    Handoff(M),
}

/// A finished unit: the mini-batch and its per-stage timings.
pub type Produced = (MiniBatch, StageTimings);

/// One unit pipeline: front segment → bounded link → back segment.
///
/// `front` and `back_read` are the segments' storage reads; the engine
/// runs each of them inside the attempt loop, so both must be safe to
/// repeat. `back` is pure compute on what they produced and runs once.
pub trait UnitPipeline: Send + Sync + 'static {
    /// What the front segment hands across the link.
    type Mid: Send + 'static;
    /// What the back segment reads from storage itself.
    type Read;

    /// One attempt of the front segment.
    ///
    /// # Errors
    ///
    /// Storage, decode, plan or shape errors of the attempt.
    fn front(
        &self,
        run: &Run,
        unit: &Unit,
        scratch: &mut ScratchSpace,
    ) -> Result<Front<Self::Mid>, PreprocessError>;

    /// One attempt of the back segment's storage read.
    ///
    /// # Errors
    ///
    /// Storage and decode errors of the attempt.
    fn back_read(
        &self,
        run: &Run,
        unit: &Unit,
        scratch: &mut ScratchSpace,
    ) -> Result<Self::Read, PreprocessError>;

    /// Finishes a unit from the front's intermediate and the back's read.
    ///
    /// # Errors
    ///
    /// Plan or shape errors.
    fn back(
        &self,
        run: &Run,
        unit: &Unit,
        mid: Self::Mid,
        read: Self::Read,
    ) -> Result<Produced, PreprocessError>;

    /// Whether a unit this pipeline's front gives up on may fall back to
    /// the host path (true for ISP fronts; host pipelines *are* the
    /// fallback).
    fn fails_over(&self) -> bool {
        false
    }
}

/// What travels over the link.
enum Handoff<M> {
    /// The front segment's intermediate and the attempts it took.
    Mid(M, u32),
    /// The front gave up: run the whole plan from pristine media.
    Fallback,
}

/// A unit after its front segment: delivered as is, or continued by the
/// back segment.
#[allow(clippy::large_enum_variant)]
enum Next<M> {
    Deliver(Result<Produced, PreprocessError>, u32),
    Back(Handoff<M>),
}

/// The item type of every output channel: the unit's sequence number and
/// its outcome.
pub type SeqItem = (usize, Result<StreamedBatch, PreprocessError>);

/// The tagged error a unit gets when its device is already quarantined:
/// no attempt is made, but the unit is never dropped silently.
fn quarantined(device: usize) -> PreprocessError {
    PreprocessError::Extract(ColumnarError::Io {
        detail: format!("device {device} quarantined (circuit breaker open)"),
    })
}

/// The attempt loop: runs `once` with capped exponential backoff on
/// retryable errors, checks each attempt against the straggler deadline
/// and feeds the device's circuit breaker. Stops on success, a
/// non-retryable error, an exhausted budget or a stopping run — and, for a
/// `front` segment, a quarantined device. (The breaker guards the device
/// path front segments read through; a back segment reads through the
/// host's own block-I/O path, so its faults count toward the breaker but
/// the breaker does not cut its retries short.) Returns the outcome and
/// the attempts it took.
fn attempt<T>(
    run: &Run,
    unit: &Unit,
    front: bool,
    scratch: &mut ScratchSpace,
    mut once: impl FnMut(&mut ScratchSpace) -> Result<T, PreprocessError>,
) -> (Result<T, PreprocessError>, u32) {
    let tracker = &run.tracker;
    let slot = tracker.slot_of(unit.device);
    let mut attempt = 1u32;
    loop {
        let t0 = Instant::now();
        let result = once(scratch);
        tracker.check_straggler(slot, unit.partition, t0.elapsed());
        let e = match result {
            Ok(value) => return (Ok(value), attempt),
            Err(e) => e,
        };
        tracker.note_fault(slot, unit.partition);
        let retry = e.is_retryable()
            && attempt < tracker.policy().max_attempts
            && !(front && tracker.is_quarantined(slot))
            && !run.stopped();
        if !retry {
            return (Err(e), attempt);
        }
        attempt += 1;
        let backoff = tracker.note_retry(slot, unit.partition, attempt);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }
}

/// Runs a unit's front segment and decides where it goes next.
fn front_step<P: UnitPipeline>(
    run: &Run,
    pipeline: &P,
    unit: &Unit,
    scratch: &mut ScratchSpace,
) -> Next<P::Mid> {
    let slot = run.tracker.slot_of(unit.device);
    let (result, attempts) = if run.tracker.is_quarantined(slot) {
        (Err(quarantined(unit.device)), 0)
    } else {
        attempt(run, unit, true, scratch, |s| pipeline.front(run, unit, s))
    };
    match result {
        Ok(Front::Done(batch, timings)) => Next::Deliver(Ok((batch, timings)), attempts),
        Ok(Front::Handoff(mid)) => Next::Back(Handoff::Mid(mid, attempts)),
        // A retryable error that outlived the attempt loop means the
        // device (or its link) is gone for this unit; the media behind it
        // is intact, so the host path can still serve it.
        Err(e) if e.is_retryable() && pipeline.fails_over() && run.tracker.policy().failover => {
            run.tracker.note_failover(slot, unit.partition);
            Next::Back(Handoff::Fallback)
        }
        Err(e) => Next::Deliver(Err(e), attempts),
    }
}

/// Finishes a unit (running the back segment when it needs one) and
/// delivers it; returns false when the worker should stop.
fn finish<P: UnitPipeline>(
    run: &Run,
    pipeline: &P,
    unit: &Unit,
    next: Next<P::Mid>,
    scratch: &mut ScratchSpace,
    out: &Sender<SeqItem>,
) -> bool {
    let (result, attempts, via_failover) = match next {
        Next::Deliver(result, attempts) => (result, attempts, false),
        Next::Back(Handoff::Mid(mid, front_attempts)) => {
            let (read, attempts) =
                attempt(run, unit, false, scratch, |s| pipeline.back_read(run, unit, s));
            let result = read.and_then(|read| pipeline.back(run, unit, mid, read));
            (result, front_attempts + attempts - 1, false)
        }
        Next::Back(Handoff::Fallback) => {
            let blob = run.partition(unit).blob.without_faults();
            (preprocess_partition_with(&run.plan, blob, scratch), 1, true)
        }
    };
    deliver(run, out, unit, result, attempts, via_failover)
}

/// The delivery function: records the outcome, tags errors with their
/// failure site ([`PreprocessError::At`]) and sends the unit to the
/// consumer. Returns false when the worker should stop (fail-fast error or
/// consumer gone).
fn deliver(
    run: &Run,
    out: &Sender<SeqItem>,
    unit: &Unit,
    result: Result<Produced, PreprocessError>,
    attempts: u32,
    via_failover: bool,
) -> bool {
    let slot = run.tracker.slot_of(unit.device);
    match result {
        Ok((batch, timings)) => {
            run.completed.fetch_add(1, Ordering::Relaxed);
            run.rows.fetch_add(batch.rows() as u64, Ordering::Relaxed);
            run.tracker.note_delivered(slot, unit.partition, via_failover);
            let item = StreamedBatch {
                partition: unit.partition,
                group: unit.group,
                device: unit.device,
                stolen: unit.stolen,
                batch,
                timings,
                // Stamped before a possibly blocking send: the supply
                // process, unthrottled by the consumer.
                arrived: run.started.elapsed(),
                attempts: attempts.max(1),
                via_failover,
            };
            out.send((unit.seq, Ok(item))).is_ok()
        }
        Err(e) => {
            run.tracker.note_failed(slot, unit.partition);
            let e = e.with_location(unit.partition, unit.device);
            if run.tracker.policy().fail_fast {
                // Raise the stop flag before blocking on the (possibly
                // full) channel, so sibling workers halt within one unit
                // even if the consumer is slow.
                run.stop();
                let _ = out.send((unit.seq, Err(e)));
                false
            } else {
                out.send((unit.seq, Err(e))).is_ok()
            }
        }
    }
}

/// Runs one claimed unit through the whole pipeline on the calling thread
/// (front, back or fallback) and delivers it to `out` — the service's
/// serial execution of a dispatched unit. Returns false when the run
/// should stop.
pub fn run_unit<P: UnitPipeline>(
    run: &Run,
    pipeline: &P,
    unit: &Unit,
    scratch: &mut ScratchSpace,
    out: &Sender<SeqItem>,
) -> bool {
    let next = front_step(run, pipeline, unit, scratch);
    finish(run, pipeline, unit, next, scratch, out)
}

/// How a fleet lays its unit pipeline over threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// No link: each front worker also runs the back segment.
    Inline,
    /// Each front worker hands over to its own back worker through a
    /// one-slot link, so each worker pair holds two units in flight (the
    /// host fleet's double-buffered Extract).
    Paired,
    /// Every front worker feeds `back_workers` back workers through one
    /// link of `capacity` units (the ISP → host device link).
    Shared {
        /// Units the link holds before front workers block.
        capacity: usize,
        /// Back-segment worker count; clamped to `1..=units`.
        back_workers: usize,
    },
}

type LinkItem<M> = (Unit, Handoff<M>);

/// Front worker body: claim → front segment (attempt loop) → link, or
/// finish and deliver in place.
fn front_loop<P: UnitPipeline>(
    run: &Run,
    pipeline: &P,
    home: usize,
    link: Option<&Sender<LinkItem<P::Mid>>>,
    out: &Sender<SeqItem>,
) {
    let mut scratch = ScratchSpace::new();
    while !run.stopped() {
        let Some(unit) = run.claim(home) else { break };
        let next = front_step(run, pipeline, &unit, &mut scratch);
        // The device is done with this unit once the front returns.
        if let Claims::Affine(queues) = &run.claims {
            queues.release(unit.device);
        }
        let go_on = match (next, link) {
            (Next::Back(handoff), Some(link)) => link.send((unit, handoff)).is_ok(),
            (next, _) => finish(run, pipeline, &unit, next, &mut scratch, out),
        };
        if !go_on {
            break;
        }
    }
}

/// Back worker body: finish every handed-over unit and deliver it. Exits
/// when every front worker has dropped its link sender, or the consumer
/// is gone.
fn back_loop<P: UnitPipeline>(
    run: &Run,
    pipeline: &P,
    link: &Receiver<LinkItem<P::Mid>>,
    out: &Sender<SeqItem>,
) {
    let mut scratch = ScratchSpace::new();
    while let Ok((unit, handoff)) = link.recv() {
        if !finish(run, pipeline, &unit, Next::Back(handoff), &mut scratch, out) {
            break;
        }
    }
}

/// Min-heap entry ordered by sequence number.
#[derive(Debug)]
struct BySeq(SeqItem);

impl PartialEq for BySeq {
    fn eq(&self, other: &Self) -> bool {
        self.0 .0 == other.0 .0
    }
}
impl Eq for BySeq {}
impl PartialOrd for BySeq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BySeq {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0 .0.cmp(&other.0 .0)
    }
}

/// Sequence-order delivery: the next sequence number to yield and the
/// units that arrived ahead of it.
#[derive(Debug)]
struct Reorder {
    next: usize,
    pending: BinaryHeap<Reverse<BySeq>>,
}

/// The consumer's end of a run: an iterator of
/// `Result<StreamedBatch, PreprocessError>`, in arrival order unless
/// switched to sequence order ([`BatchStream::into_ordered`]).
///
/// Dropping the stream stops the producers (stop flag + channel
/// disconnect) and joins every worker thread; no batches leak and nothing
/// deadlocks even when the channel is full.
#[derive(Debug)]
pub struct BatchStream {
    rx: Option<Receiver<SeqItem>>,
    handles: Vec<JoinHandle<()>>,
    pub(crate) run: Arc<Run>,
    workers: usize,
    capacity: usize,
    reorder: Option<Reorder>,
}

/// The sequence-ordered view of a [`BatchStream`] (see
/// [`BatchStream::into_ordered`]).
pub type OrderedBatchStream = BatchStream;

impl BatchStream {
    /// Starts `pipeline` over `run`: `config.workers` front workers (clamped
    /// to the unit count) laid out per `link`, feeding a
    /// `config.capacity`-bounded output channel, in arrival order.
    #[must_use]
    pub fn from_pipeline<P: UnitPipeline>(
        run: Run,
        pipeline: P,
        config: &FleetConfig,
        link: Link,
    ) -> BatchStream {
        let units = run.units().max(1);
        let workers = config.workers.clamp(1, units);
        let capacity = config.capacity.max(1);
        let run = Arc::new(run);
        let pipeline = Arc::new(pipeline);
        let (tx, rx) = bounded::<SeqItem>(capacity);
        let mut fronts = Vec::with_capacity(workers);
        let mut backs = Vec::new();
        match link {
            Link::Inline => fronts.resize(workers, None),
            Link::Paired => {
                for _ in 0..workers {
                    let (link_tx, link_rx) = bounded(1);
                    fronts.push(Some(link_tx));
                    backs.push(link_rx);
                }
            }
            Link::Shared { capacity, back_workers } => {
                let (link_tx, link_rx) = bounded(capacity.max(1));
                fronts.resize(workers, Some(link_tx));
                backs.resize(back_workers.clamp(1, units), link_rx);
            }
        }
        let front = |worker: usize, link_tx: Option<Sender<LinkItem<P::Mid>>>| {
            let (run, pipeline, out) = (Arc::clone(&run), Arc::clone(&pipeline), tx.clone());
            spawn_named(format!("presto-front-{worker}"), move || {
                front_loop(&run, &*pipeline, worker, link_tx.as_ref(), &out);
            })
        };
        let back = |worker: usize, link_rx: Receiver<LinkItem<P::Mid>>| {
            let (run, pipeline, out) = (Arc::clone(&run), Arc::clone(&pipeline), tx.clone());
            spawn_named(format!("presto-back-{worker}"), move || {
                back_loop(&run, &*pipeline, &link_rx, &out);
            })
        };
        // Start order follows the data: each front before the back that
        // drains it (a paired back right after its own front).
        let mut handles = Vec::with_capacity(fronts.len() + backs.len());
        let mut backs = backs.into_iter().enumerate();
        for (worker, link_tx) in fronts.into_iter().enumerate() {
            handles.push(front(worker, link_tx));
            if link == Link::Paired {
                handles.extend(backs.next().map(|(worker, link_rx)| back(worker, link_rx)));
            }
        }
        handles.extend(backs.map(|(worker, link_rx)| back(worker, link_rx)));
        drop(tx); // the workers' clones are now the only senders
        BatchStream { rx: Some(rx), handles, run, workers, capacity, reorder: None }
    }

    /// A stream whose only item is `err`: how an infallible constructor
    /// reports a spawn-time failure (e.g. unreadable footers).
    #[must_use]
    pub fn failed(plan: &PreprocessPlan, err: PreprocessError) -> BatchStream {
        let (tx, rx) = bounded(1);
        tx.send((0, Err(err))).expect("a fresh channel has room");
        let run = Run::new(plan.clone(), Vec::new(), ClaimOrder::InOrder, RetryPolicy::fail_fast());
        BatchStream {
            rx: Some(rx),
            handles: Vec::new(),
            run: Arc::new(run),
            workers: 0,
            capacity: 1,
            reorder: None,
        }
    }

    /// Consolidated counters ([`StreamStats`]).
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.run.stats(self.workers, self.capacity, self.buffered())
    }

    /// Effective front-worker count (after clamping).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Effective channel capacity (after clamping).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-device load snapshot of a device-affine run (final after the
    /// stream is drained; empty for cursor-claimed runs).
    #[must_use]
    pub fn device_report(&self) -> Vec<DeviceLoad> {
        match &self.run.claims {
            Claims::Affine(queues) => queues.report(),
            Claims::Cursor { .. } => Vec::new(),
        }
    }

    /// Recovery-activity snapshot ([`RunReport`]: retries, failovers,
    /// quarantines, per-device fault counts, delivery timeline). Final once
    /// the stream is drained; callable mid-stream for live monitoring.
    #[must_use]
    pub fn run_report(&self) -> RunReport {
        self.run.report()
    }

    /// Switches the stream to sequence order — partition order on the
    /// partition fleets — buffering out-of-order arrivals in the reorder
    /// heap; output is bit-identical to serial execution.
    ///
    /// Errors are sequenced like batches: every claimed unit ends as
    /// exactly one item, so a unit's error is yielded in its turn. Under
    /// fail-fast, the units before the failed one that were claimed before
    /// the stop are delivered in order, the error surfaces exactly once,
    /// and the stream ends — even with a full (capacity-1) channel, since
    /// the consumer keeps draining while it waits. Under `fail_fast: false`
    /// the error is yielded inline and ordered iteration continues.
    #[must_use]
    pub fn into_ordered(self) -> OrderedBatchStream {
        self.in_sequence_from(0)
    }

    /// Sequence order starting at sequence number `next`.
    pub(crate) fn in_sequence_from(mut self, next: usize) -> BatchStream {
        self.reorder.get_or_insert(Reorder { next, pending: BinaryHeap::new() });
        self
    }

    /// The next sequence number a sequence-ordered stream yields.
    pub(crate) fn next_seq(&self) -> usize {
        self.reorder.as_ref().map_or(0, |r| r.next)
    }

    /// Batches buffered ahead of the consumer: the channel plus the
    /// reorder heap.
    fn buffered(&self) -> usize {
        self.rx.as_ref().map_or(0, Receiver::len)
            + self.reorder.as_ref().map_or(0, |r| r.pending.len())
    }

    fn join_workers(&mut self) {
        for handle in self.handles.drain(..) {
            if let Err(panic) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

fn spawn_named(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name).spawn(body).expect("spawn engine worker")
}

impl Iterator for BatchStream {
    type Item = Result<StreamedBatch, PreprocessError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(r) = &mut self.reorder {
                if r.pending.peek().is_some_and(|Reverse(head)| head.0 .0 == r.next) {
                    let Reverse(BySeq((_, item))) = r.pending.pop().expect("peeked entry exists");
                    r.next += 1;
                    return Some(item);
                }
            }
            let Some((seq, item)) = self.rx.as_ref().and_then(|rx| rx.recv().ok()) else {
                // All senders gone: the run is over. Reap the threads and
                // flush whatever is still buffered, in order.
                self.join_workers();
                let r = self.reorder.as_mut()?;
                let Reverse(BySeq((seq, item))) = r.pending.pop()?;
                r.next = seq + 1;
                return Some(item);
            };
            match &mut self.reorder {
                None => return Some(item),
                Some(r) => r.pending.push(Reverse(BySeq((seq, item)))),
            }
        }
    }
}

impl Drop for BatchStream {
    fn drop(&mut self) {
        self.run.stop();
        // Disconnect the channel so producers blocked on a full queue fail
        // their send and exit instead of deadlocking.
        self.rx = None;
        self.join_workers();
    }
}

impl BatchSource for BatchStream {
    fn next_batch(&mut self) -> Option<Result<StreamedBatch, PreprocessError>> {
        self.next()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn queued(&self) -> usize {
        self.buffered()
    }

    fn stats(&self) -> StreamStats {
        BatchStream::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::HostPipeline;
    use presto_datagen::{Dataset, RmConfig, RowBatch};
    use std::sync::atomic::AtomicU32;

    /// The host pipeline with a scripted number of retryable failures in
    /// each segment's storage read.
    struct Flaky {
        front_failures: AtomicU32,
        back_failures: AtomicU32,
    }

    fn take_failure(left: &AtomicU32) -> Result<(), PreprocessError> {
        match left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1)) {
            Ok(_) => Err(PreprocessError::Extract(ColumnarError::Io { detail: "scripted".into() })),
            Err(_) => Ok(()),
        }
    }

    impl UnitPipeline for Flaky {
        type Mid = (RowBatch, Duration);
        type Read = ();

        fn front(
            &self,
            run: &Run,
            unit: &Unit,
            scratch: &mut ScratchSpace,
        ) -> Result<Front<Self::Mid>, PreprocessError> {
            take_failure(&self.front_failures)?;
            HostPipeline.front(run, unit, scratch)
        }

        fn back_read(
            &self,
            _: &Run,
            _: &Unit,
            _: &mut ScratchSpace,
        ) -> Result<(), PreprocessError> {
            take_failure(&self.back_failures)
        }

        fn back(
            &self,
            run: &Run,
            unit: &Unit,
            mid: Self::Mid,
            read: (),
        ) -> Result<Produced, PreprocessError> {
            HostPipeline.back(run, unit, mid, read)
        }
    }

    fn one_partition_run(recovery: RetryPolicy) -> (PreprocessPlan, Run) {
        let mut c = RmConfig::rm1();
        c.batch_size = 16;
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let ds = Dataset::generate(&c, 1, 16, 1, 3).unwrap();
        let run = Run::new(plan.clone(), ds.partitions().to_vec(), ClaimOrder::InOrder, recovery);
        (plan, run)
    }

    #[test]
    fn each_segment_gets_its_own_attempt_budget() {
        // Three attempts per segment: the front needs all three, the back
        // read needs three more. A budget shared across the segments would
        // give the back read only one.
        let recovery = RetryPolicy::recover()
            .with_max_attempts(3)
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .with_quarantine_after(0);
        let (plan, run) = one_partition_run(recovery);
        let flaky = Flaky { front_failures: AtomicU32::new(2), back_failures: AtomicU32::new(2) };
        let mut stream =
            BatchStream::from_pipeline(run, flaky, &FleetConfig::new(1, 1), Link::Paired);
        let batch = stream.next().expect("one unit").expect("both budgets suffice");
        assert_eq!(batch.attempts, 5, "front attempts plus the back's extra attempts");
        assert!(stream.next().is_none());
        let report = stream.run_report();
        assert_eq!((report.faults, report.retries, report.delivered), (4, 4, 1));
        let serial =
            crate::executor::preprocess_partition(&plan, stream.run.partitions[0].blob.clone());
        assert_eq!(batch.batch, serial.unwrap().0);
    }

    #[test]
    fn an_exhausted_back_segment_surfaces_a_tagged_error() {
        let recovery = RetryPolicy::recover()
            .with_max_attempts(2)
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .with_quarantine_after(0);
        let (_, run) = one_partition_run(recovery);
        let flaky = Flaky { front_failures: AtomicU32::new(0), back_failures: AtomicU32::new(2) };
        let mut stream =
            BatchStream::from_pipeline(run, flaky, &FleetConfig::new(1, 1), Link::Inline);
        let err = stream.next().expect("one unit").expect_err("two back attempts both fail");
        assert_eq!((err.partition(), err.device()), (Some(0), Some(0)));
        let report = stream.run_report();
        assert_eq!(report.failed_partitions, vec![0]);
        assert_eq!(report.delivered, 0);
    }
}
