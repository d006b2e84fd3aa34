//! The four workloads: their inputs and set-up, the serial reference their
//! output is checked against, and the timed closed-loop run.
//!
//! Every consumer pulls its next batch as soon as the previous one arrived
//! (an instant trainer that only fingerprints what it receives). There is
//! one consumer thread per stream or per tenant, never more than two.

use crate::measure::{fingerprint, median, process_cpu};
use crate::trace::Spans;
use presto::columnar::{Device, DeviceModel, DeviceStats, FaultPlan, FileReader};
use presto::core::placement::{place_stages, OpCostModel};
use presto::core::{BatchSource, Fleet, JobSpec, PreprocessService, ServiceConfig, ServiceReport};
use presto::datagen::{
    generate_batch, write_partition, write_partition_grouped, Partition, RmConfig,
};
use presto::hwsim::fpga::IspModel;
use presto::ops::{
    epoch_order, epoch_units, preprocess_partition_with, FleetConfig, PlanGraph, PreprocessPlan,
    RetryPolicy, ScratchSpace, ShuffleSpec, SplitPlan,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["rm1_host", "longseq_shuffled", "rm1l_split_device", "service_mixed"];

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 5;
/// Seed of every preprocessing plan (bucket boundaries, hash salts): the
/// plan is part of the program under test, not of the generated input.
const PLAN_SEED: u64 = 1;
/// Emulated SmartSSD read service time and queue depth.
const DEVICE_READ: Duration = Duration::from_micros(500);
const DEVICE_QUEUE_DEPTH: usize = 1;
/// Transient fault probability per device read.
const TRANSIENT_RATE: f64 = 0.005;

/// A unit of output: (partition, row group) within one tenant.
pub type Key = (usize, usize);

/// What a tenant's stream runs on.
#[derive(Clone)]
pub enum Kind {
    Host,
    Isp,
    Split(SplitPlan),
    Shuffled,
}

/// One stream of units with its reference output.
pub struct Tenant {
    pub name: &'static str,
    pub plan: PreprocessPlan,
    pub partitions: Vec<Partition>,
    pub kind: Kind,
    pub config: FleetConfig,
    pub weight: f64,
    /// Reference fingerprint of every unit, from serial
    /// `preprocess_partition_with` sliced at the file's row groups.
    pub reference: HashMap<Key, u64>,
    /// Every unit of one pass, in file order.
    pub units: Vec<Key>,
    pub rows_per_unit: usize,
}

impl Tenant {
    fn fleet(&self, seed: u64, epoch: u64) -> Fleet {
        match &self.kind {
            Kind::Host => Fleet::Host,
            Kind::Isp => Fleet::Isp,
            Kind::Split(split) => Fleet::Split(split.clone()),
            Kind::Shuffled => Fleet::Shuffled(ShuffleSpec::new(seed).with_epoch(epoch)),
        }
    }

    pub fn grouped(&self) -> bool {
        matches!(self.kind, Kind::Shuffled)
    }
}

pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub tenants: Vec<Tenant>,
    /// Tenants share one `PreprocessService` instead of each spawning a
    /// fleet.
    pub service: bool,
    pub devices: Vec<Arc<Device>>,
    /// Median set-up time over `SETUP_REPS` repetitions.
    pub setup_s: f64,
    /// ISP stages of the split placement (split workload only).
    pub split_isp_stages: Option<(usize, usize)>,
}

/// Rows of one partition, generated from the workload seed.
fn raw_seed(seed: u64, set: u64, index: usize) -> u64 {
    seed ^ (index as u64) << 17 ^ set << 40
}

/// Generates and writes `count` partitions `reps` times each, round-robin
/// over `devices` devices. Returns the last set of partitions and the
/// summed write time of each repetition; raw-row generation is not timed.
fn write_set(
    config: &RmConfig,
    set: u64,
    count: usize,
    rows: usize,
    devices: usize,
    seed: u64,
    group_rows: Option<usize>,
) -> (Vec<Partition>, [Duration; SETUP_REPS]) {
    let mut times = [Duration::ZERO; SETUP_REPS];
    let mut partitions = Vec::with_capacity(count);
    for index in 0..count {
        let raw = generate_batch(config, rows, raw_seed(seed, set, index));
        let mut blob = None;
        for time in &mut times {
            let t0 = Instant::now();
            let written = match group_rows {
                Some(g) => write_partition_grouped(&raw, g),
                None => write_partition(&raw),
            }
            .expect("generated rows serialize");
            *time += t0.elapsed();
            blob = Some(written);
        }
        let blob = blob.expect("at least one repetition");
        partitions.push(Partition { index, device: index % devices, rows, blob });
    }
    (partitions, times)
}

/// Times `f` once per set-up repetition and keeps the last result.
fn timed_reps<T>(mut f: impl FnMut() -> T) -> (T, [Duration; SETUP_REPS]) {
    let mut times = [Duration::ZERO; SETUP_REPS];
    let mut out = None;
    for time in &mut times {
        let t0 = Instant::now();
        out = Some(f());
        *time = t0.elapsed();
    }
    (out.expect("at least one repetition"), times)
}

fn config_with_batch(mut config: RmConfig, rows: usize) -> RmConfig {
    config.batch_size = rows;
    config
}

fn tenant(
    name: &'static str,
    plan: PreprocessPlan,
    partitions: Vec<Partition>,
    kind: Kind,
    config: FleetConfig,
    rows_per_unit: usize,
) -> Tenant {
    Tenant {
        name,
        plan,
        partitions,
        kind,
        config,
        weight: 1.0,
        reference: HashMap::new(),
        units: Vec::new(),
        rows_per_unit,
    }
}

/// Builds a workload (`None` for an unknown name): writes its partitions,
/// compiles plans, places and splits, builds devices and the service (all
/// timed as set-up), then computes the serial reference (not timed).
pub fn prepare(name: &str, seed: u64) -> Option<Workload> {
    let mut setup = [Duration::ZERO; SETUP_REPS];
    let add = |setup: &mut [Duration; SETUP_REPS], t: [Duration; SETUP_REPS]| {
        for (s, t) in setup.iter_mut().zip(t) {
            *s += t;
        }
    };
    let mut devices = Vec::new();
    let mut split_isp_stages = None;
    let (name, service, tenants) = match name {
        // Transform-bound: ~0.5 MB files, Extract a third of the time.
        "rm1_host" => {
            let rows = 4096;
            let config = config_with_batch(RmConfig::rm1(), rows);
            let (partitions, t) = write_set(&config, 0, 32, rows, 2, seed, None);
            add(&mut setup, t);
            let (plan, t) =
                timed_reps(|| PreprocessPlan::from_config(&config, PLAN_SEED).expect("plan"));
            add(&mut setup, t);
            let fleet = FleetConfig::new(2, 4);
            ("rm1_host", false, vec![tenant("rm1", plan, partitions, Kind::Host, fleet, rows)])
        }
        // Extract-bound: ~10 MB files of 256-row groups read in a seeded
        // random order and delivered through the reorder heap.
        "longseq_shuffled" => {
            let rows = 2048;
            let config = config_with_batch(RmConfig::rm_longseq(), rows);
            let (partitions, t) = write_set(&config, 0, 8, rows, 2, seed, Some(256));
            add(&mut setup, t);
            let (plan, t) = timed_reps(|| {
                let graph = PlanGraph::long_history(&config, PLAN_SEED, 8).expect("graph");
                PreprocessPlan::compile(graph, &config).expect("plan")
            });
            add(&mut setup, t);
            let fleet = FleetConfig::new(2, 4);
            (
                "longseq_shuffled",
                false,
                vec![tenant("longseq", plan, partitions, Kind::Shuffled, fleet, 256)],
            )
        }
        // Device- and link-bound: two shared queue-depth-1 devices, seeded
        // transient faults, the plan split at the analytic placement.
        "rm1l_split_device" => {
            let rows = 2048;
            let config = config_with_batch(RmConfig::rm1_lists(), rows);
            let (mut partitions, t) = write_set(&config, 0, 16, rows, 2, seed, None);
            add(&mut setup, t);
            let ((plan, split, placed, devs), t) = timed_reps(|| {
                let plan = PreprocessPlan::from_config(&config, PLAN_SEED).expect("plan");
                let model = OpCostModel::analytic(&IspModel::smartssd());
                let placement = place_stages(&plan, rows, &model);
                let split = plan.split(&placement.fleet_assignment()).expect("splits");
                let devs: Vec<Arc<Device>> = (0..2)
                    .map(|_| {
                        Arc::new(Device::new(DeviceModel::new(DEVICE_READ, DEVICE_QUEUE_DEPTH)))
                    })
                    .collect();
                (plan, split, (placement.offloaded(), placement.stages.len()), devs)
            });
            add(&mut setup, t);
            let injector = FaultPlan::new(seed).with_transient_rate(TRANSIENT_RATE).arm();
            for p in &mut partitions {
                p.blob = p
                    .blob
                    .clone()
                    .with_faults(&injector, p.device, p.index)
                    .behind_device(Arc::clone(&devs[p.device]));
            }
            devices = devs;
            split_isp_stages = Some(placed);
            // `recover()` allows 4 attempts per partition, and the split
            // fleet's host side inherits the attempts its ISP side already
            // spent and cannot fail over; at this fault rate that surfaces
            // about one unit in several thousand as an error (seed 21 shows
            // it). Eight attempts keep every unit recoverable.
            let fleet = FleetConfig::new(2, 4)
                .with_host_workers(2)
                .with_recovery(RetryPolicy::recover().with_max_attempts(8));
            (
                "rm1l_split_device",
                false,
                vec![tenant("rm1l", plan, partitions, Kind::Split(split), fleet, rows)],
            )
        }
        // Two tenants through admission and weighted-fair dispatch on one
        // 2-worker pool: RM1 on the host path, RM1-L on the ISP path.
        "service_mixed" => {
            let ctr_config = config_with_batch(RmConfig::rm1(), 4096);
            let seq_config = config_with_batch(RmConfig::rm1_lists(), 2048);
            let (ctr_parts, t) = write_set(&ctr_config, 0, 8, 4096, 2, seed, None);
            add(&mut setup, t);
            let (seq_parts, t) = write_set(&seq_config, 1, 8, 2048, 2, seed, None);
            add(&mut setup, t);
            let ((ctr_plan, seq_plan), t) = timed_reps(|| {
                let ctr = PreprocessPlan::from_config(&ctr_config, PLAN_SEED).expect("plan");
                let seq = PreprocessPlan::from_config(&seq_config, PLAN_SEED).expect("plan");
                let _ = new_service().shutdown();
                (ctr, seq)
            });
            add(&mut setup, t);
            let fleet = FleetConfig::new(2, 4);
            let ctr = tenant("ctr", ctr_plan, ctr_parts, Kind::Host, fleet.clone(), 4096);
            let mut seq = tenant("seq", seq_plan, seq_parts, Kind::Isp, fleet, 2048);
            seq.weight = 2.0;
            ("service_mixed", true, vec![ctr, seq])
        }
        _ => return None,
    };
    let setup_s = median(&setup.map(|d| d.as_secs_f64()));
    let mut workload =
        Workload { name, seed, tenants, service, devices, setup_s, split_isp_stages };
    for t in &mut workload.tenants {
        compute_reference(t);
    }
    Some(workload)
}

pub fn new_service() -> PreprocessService {
    PreprocessService::new(ServiceConfig::new(2).with_max_active_jobs(2).with_job_capacity(4))
}

fn compute_reference(t: &mut Tenant) {
    let mut scratch = ScratchSpace::new();
    for (p, partition) in t.partitions.iter().enumerate() {
        let blob = partition.blob.without_faults();
        let groups: Vec<u64> = FileReader::open(blob.clone())
            .expect("reference opens")
            .meta()
            .row_groups
            .iter()
            .map(|g| g.rows)
            .collect();
        let (batch, _) =
            preprocess_partition_with(&t.plan, blob, &mut scratch).expect("reference preprocesses");
        if t.grouped() {
            let mut start = 0;
            for (g, &rows) in groups.iter().enumerate() {
                let rows = usize::try_from(rows).expect("group fits");
                let window = batch.slice_rows(start, rows).expect("group window");
                t.reference.insert((p, g), fingerprint(&window));
                t.units.push((p, g));
                start += rows;
            }
        } else {
            t.reference.insert((p, 0), fingerprint(&batch));
            t.units.push((p, 0));
        }
    }
}

/// What a timed run observed.
#[derive(Default)]
pub struct RunStats {
    pub wall: Duration,
    pub cpu: Duration,
    pub rows: u64,
    /// Units delivered or surfaced as errors.
    pub attempted: u64,
    /// Errors, units whose output differed from the reference, units a
    /// pass never delivered and deliveries out of the required order.
    pub failed: u64,
    /// The output checks alone: differing units, plus every unit of a pass
    /// that missed a unit or broke the required order.
    pub mismatched: u64,
    pub arrivals: Vec<Arrival>,
    /// Process CPU time at each window boundary.
    pub cpu_marks: Vec<Duration>,
    pub holds_ms: Vec<f64>,
    pub queued_sum: u64,
    pub stolen: u64,
    pub retries: u64,
    pub failovers: u64,
    pub p2p_bytes: u64,
    pub boundary_bytes: u64,
    pub passes: u64,
    pub tenants: usize,
    pub service: Option<ServiceReport>,
    pub device_delta: Vec<DeviceStats>,
    pub workers: usize,
}

impl RunStats {
    fn merge(&mut self, other: RunStats) {
        self.rows += other.rows;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.arrivals.extend(other.arrivals);
        self.holds_ms.extend(other.holds_ms);
        self.queued_sum += other.queued_sum;
        self.stolen += other.stolen;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.p2p_bytes += other.p2p_bytes;
        self.boundary_bytes += other.boundary_bytes;
    }

    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.wall.as_secs_f64()
    }

    /// The run cut into whole `WINDOW_S` windows; a run shorter than one
    /// window is one window.
    pub fn windows(&self) -> Vec<Window> {
        let n = self.cpu_marks.len().saturating_sub(1);
        if n == 0 {
            let mut whole = Window {
                seconds: self.wall.as_secs_f64(),
                cpu: self.cpu,
                tenant_rows: vec![0; self.tenants],
                ..Window::default()
            };
            for a in &self.arrivals {
                whole.add(a);
            }
            return vec![whole];
        }
        let mut windows: Vec<Window> = self
            .cpu_marks
            .windows(2)
            .map(|m| Window {
                seconds: WINDOW_S,
                cpu: m[1] - m[0],
                tenant_rows: vec![0; self.tenants],
                ..Window::default()
            })
            .collect();
        for a in &self.arrivals {
            if let Some(w) = windows.get_mut((a.at / WINDOW_S) as usize) {
                w.add(a);
            }
        }
        windows
    }
}

/// One delivered batch as the consumer saw it.
pub struct Arrival {
    /// Receive time, seconds since the run started.
    pub at: f64,
    pub rows: u64,
    /// Time the consumer blocked in `next_batch`.
    pub wait_ms: f64,
    pub tenant: usize,
}

/// Length of the windows a run is cut into. Every end-to-end figure is the
/// median over a run's windows, so that a burst of load from outside the
/// process moves a few windows rather than the figure.
pub const WINDOW_S: f64 = 1.0;

#[derive(Default)]
pub struct Window {
    pub seconds: f64,
    pub rows: u64,
    pub tenant_rows: Vec<u64>,
    pub waits_ms: Vec<f64>,
    pub cpu: Duration,
}

impl Window {
    fn add(&mut self, a: &Arrival) {
        self.rows += a.rows;
        self.tenant_rows[a.tenant] += a.rows;
        self.waits_ms.push(a.wait_ms);
    }
}

/// Who drains a source, and the clocks its observations are taken against.
#[derive(Clone, Copy)]
struct Consumer<'a> {
    tenant: &'a Tenant,
    tenant_index: usize,
    /// Source position -> partition index, when the source was spawned
    /// over a reordered copy of the tenant's partitions.
    order: Option<&'a [usize]>,
    /// When the source was spawned (the origin of `StreamedBatch::arrived`).
    spawned: Instant,
    /// When the run started (the origin of arrival times).
    started: Instant,
    deadline: Option<Instant>,
}

/// Drains `source` as an instant trainer until it ends or `deadline`
/// passes, checking every batch against the reference. Returns the keys
/// delivered, in order.
fn consume(
    source: &mut dyn BatchSource,
    c: &Consumer<'_>,
    stats: &mut RunStats,
    mut spans: Option<(&mut Spans, usize)>,
) -> Vec<Key> {
    let Consumer { tenant, tenant_index, order, spawned, started, deadline } = *c;
    let mut seen = Vec::new();
    let n = tenant.partitions.len();
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let queued = source.queued();
        let span =
            spans.as_mut().map(|(s, parent)| s.begin("consumer.next_batch", Some(*parent), None));
        let t0 = Instant::now();
        let item = source.next_batch();
        let received = Instant::now();
        let Some(item) = item else { break };
        stats.attempted += 1;
        match item {
            Ok(b) => {
                let partition = order.map_or(b.partition % n, |o| o[b.partition]);
                let key = (partition, b.group);
                if let (Some((s, _)), Some(id)) = (spans.as_mut(), span) {
                    s.end(id);
                    s.set_unit(id, &unit_name(tenant.name, key));
                }
                stats.arrivals.push(Arrival {
                    at: (received - started).as_secs_f64(),
                    rows: b.batch.rows() as u64,
                    wait_ms: (received - t0).as_secs_f64() * 1e3,
                    tenant: tenant_index,
                });
                let hold = (received - spawned).saturating_sub(b.arrived);
                stats.holds_ms.push(hold.as_secs_f64() * 1e3);
                stats.queued_sum += queued as u64;
                stats.stolen += u64::from(b.stolen);
                stats.rows += b.batch.rows() as u64;
                if tenant.reference.get(&key) != Some(&fingerprint(&b.batch)) {
                    stats.failed += 1;
                    stats.mismatched += 1;
                }
                seen.push(key);
            }
            Err(e) => {
                if let (Some((s, _)), Some(id)) = (spans.as_mut(), span) {
                    s.end(id);
                }
                eprintln!("{}: unit failed: {e}", tenant.name);
                stats.failed += 1;
            }
        }
    }
    seen
}

/// Span unit id of one unit of a tenant.
pub fn unit_name(tenant: &str, key: Key) -> String {
    format!("{tenant}/p{}/g{}", key.0, key.1)
}

fn device_snapshot(devices: &[Arc<Device>]) -> Vec<DeviceStats> {
    devices.iter().map(|d| d.stats()).collect()
}

/// Runs the workload for `seconds` of wall time (a fleet pass in progress
/// at the deadline is completed). With `spans`, records consumer-side
/// spans.
pub fn run(w: &Workload, seconds: f64, spans: Option<&mut Spans>) -> RunStats {
    let before = device_snapshot(&w.devices);
    let marks = (seconds / WINDOW_S).floor() as usize;
    let cpu0 = process_cpu();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut stats = std::thread::scope(|scope| {
        // Samples process CPU time at every window boundary. The last
        // boundary is at or before the deadline, which every run reaches.
        let sampler = scope.spawn(move || {
            let mut marks_taken = Vec::with_capacity(marks + 1);
            for k in 0..=marks {
                let at = start + Duration::from_secs_f64(k as f64 * WINDOW_S);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                marks_taken.push(process_cpu());
            }
            marks_taken
        });
        let mut stats = if w.service {
            run_service(w, start, deadline, spans)
        } else {
            run_fleet(w, start, deadline, spans)
        };
        stats.cpu_marks = sampler.join().expect("cpu sampler");
        stats
    });
    stats.wall = start.elapsed();
    stats.cpu = process_cpu() - cpu0;
    stats.tenants = w.tenants.len();
    stats.device_delta = device_snapshot(&w.devices)
        .iter()
        .zip(&before)
        .map(|(a, b)| DeviceStats {
            reads: a.reads - b.reads,
            busy: a.busy - b.busy,
            queue_wait: a.queue_wait - b.queue_wait,
            makespan: a.makespan.saturating_sub(b.makespan),
        })
        .collect();
    stats
}

fn run_fleet(
    w: &Workload,
    start: Instant,
    deadline: Instant,
    mut spans: Option<&mut Spans>,
) -> RunStats {
    let t = &w.tenants[0];
    let mut stats = RunStats { workers: t.config.workers, ..RunStats::default() };
    let mut epoch = 0;
    while stats.passes == 0 || Instant::now() < deadline {
        let fleet = t.fleet(w.seed, epoch);
        // Each pass is an epoch that visits the partitions in a seeded
        // order, as a trainer's epochs would; the shuffled fleet orders
        // its row groups itself.
        let order = epoch_order(t.partitions.len(), w.seed, epoch);
        let partitions: Vec<Partition> = if t.grouped() {
            t.partitions.clone()
        } else {
            order.iter().map(|&i| t.partitions[i].clone()).collect()
        };
        let pass = spans.as_mut().map(|s| s.begin("fleet.pass", None, None));
        let spawned = Instant::now();
        let mut source = fleet.spawn(&t.plan, &partitions, &t.config);
        let mut pass_stats = RunStats::default();
        let consumer = Consumer {
            tenant: t,
            tenant_index: 0,
            order: (!t.grouped()).then_some(order.as_slice()),
            spawned,
            started: start,
            deadline: None,
        };
        let seen =
            consume(source.as_mut(), &consumer, &mut pass_stats, spans.as_deref_mut().zip(pass));
        let s = source.stats();
        drop(source);
        if let (Some(s), Some(id)) = (spans.as_mut(), pass) {
            s.end(id);
        }
        if let Some(r) = &s.recovery {
            pass_stats.retries += r.retries;
            pass_stats.failovers += r.failovers;
        }
        pass_stats.p2p_bytes += s.p2p_bytes;
        pass_stats.boundary_bytes += s.boundary_bytes;
        // Every unit exactly once per pass; shuffled passes in the seeded
        // epoch permutation.
        let expected: Vec<Key> = if t.grouped() {
            let units = epoch_units(&t.partitions).expect("footers parse");
            epoch_order(units.len(), w.seed, epoch)
                .into_iter()
                .map(|i| (units[i].partition, units[i].group))
                .collect()
        } else {
            t.units.clone()
        };
        let complete = if t.grouped() {
            seen == expected
        } else {
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            sorted == expected
        };
        if !complete {
            pass_stats.failed += expected.len() as u64;
            pass_stats.mismatched += expected.len() as u64;
            pass_stats.attempted = pass_stats.attempted.max(expected.len() as u64);
        }
        stats.merge(pass_stats);
        stats.passes += 1;
        epoch += 1;
    }
    stats
}

/// Partitions of a service job: the tenant's partitions repeated so that
/// no job can finish within the run, which keeps both tenants active for
/// the whole window.
fn repeated(t: &Tenant, seconds: f64) -> Vec<Partition> {
    // Far above any rate this pipeline reaches (rows per second).
    const CEILING_ROWS_PER_S: f64 = 8e6;
    let units = (seconds * CEILING_ROWS_PER_S / t.rows_per_unit as f64).ceil() as usize;
    t.partitions.iter().cycle().take(units.max(t.partitions.len())).cloned().collect()
}

fn run_service(
    w: &Workload,
    start: Instant,
    deadline: Instant,
    spans: Option<&mut Spans>,
) -> RunStats {
    let seconds = (deadline - start).as_secs_f64();
    let service = new_service();
    let specs: Vec<JobSpec> = w
        .tenants
        .iter()
        .map(|t| {
            JobSpec::new(t.name, t.plan.clone(), repeated(t, seconds))
                .with_fleet(t.fleet(w.seed, 0))
                .with_weight(t.weight)
        })
        .collect();
    let origin = spans.as_ref().map(|s| s.origin());
    let handles: Vec<_> = specs
        .into_iter()
        .map(|s| service.submit(s).expect("an idle pool admits both tenants"))
        .collect();
    let results: Vec<_> = std::thread::scope(|scope| {
        let joins: Vec<_> = handles
            .into_iter()
            .zip(&w.tenants)
            .enumerate()
            .map(|(lane, (mut handle, t))| {
                scope.spawn(move || {
                    let mut stats = RunStats::default();
                    let mut lane_spans = origin.map(|o| Spans::new(o, lane + 1));
                    let root =
                        lane_spans.as_mut().map(|s| s.begin("service.tenant", None, Some(t.name)));
                    let consumer = Consumer {
                        tenant: t,
                        tenant_index: lane,
                        order: None,
                        spawned: start,
                        started: start,
                        deadline: Some(deadline),
                    };
                    consume(&mut handle, &consumer, &mut stats, lane_spans.as_mut().zip(root));
                    if let (Some(s), Some(id)) = (lane_spans.as_mut(), root) {
                        s.end(id);
                    }
                    let s = BatchSource::stats(&handle);
                    if let Some(r) = &s.recovery {
                        stats.retries += r.retries;
                        stats.failovers += r.failovers;
                    }
                    stats.p2p_bytes += s.p2p_bytes;
                    stats.boundary_bytes += s.boundary_bytes;
                    (stats, handle, lane_spans)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("consumer thread")).collect()
    });
    let mut stats = RunStats { workers: service.config().pool_workers, ..RunStats::default() };
    let mut handles = Vec::new();
    let mut spans = spans;
    for (tenant_stats, handle, lane_spans) in results {
        stats.merge(tenant_stats);
        handles.push(handle);
        if let (Some(s), Some(lane)) = (spans.as_mut(), lane_spans) {
            s.absorb(lane);
        }
    }
    stats.service = Some(service.report());
    drop(handles);
    let _ = service.shutdown();
    stats.passes = 1;
    stats
}
