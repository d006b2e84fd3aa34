//! Chaos properties for the fault-tolerant streaming executor, exercised
//! through the public facade exactly as a training job would use it.
//!
//! Every test pivots on the same invariant: recovery must be *invisible* in
//! the data. A run that retried transient faults, re-read corrupted pages
//! from pristine media, or failed a dead ISP device over to the host fleet
//! must produce mini-batches bit-identical to a fault-free serial pass —
//! and the [`RunReport`] must account for every partition (`delivered +
//! failed == partitions`; nothing dropped silently).
//!
//! The fault seed is taken from `PRESTO_FAULT_SEED` (default 42) so the CI
//! chaos job can sweep a seed matrix over the same properties.

use std::sync::Arc;
use std::time::Duration;

use presto::columnar::{CountingBlob, FaultInjector, FaultPlan};
use presto::core::{BatchSource, Fleet, Trainer, TrainerConfig};
use presto::datagen::{Dataset, Partition, RmConfig};
use presto::ops::{
    preprocess_partition, BatchStream, FleetConfig, MiniBatch, PreprocessPlan, RetryPolicy,
};

fn fault_seed() -> u64 {
    std::env::var("PRESTO_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42)
}

fn dataset(partitions: usize, rows: usize, devices: usize) -> (RmConfig, Dataset) {
    let mut c = RmConfig::rm1();
    c.batch_size = rows;
    let ds = Dataset::generate(&c, partitions, rows, devices, 7).expect("generate dataset");
    (c, ds)
}

/// Re-keys every partition's blob through `injector`, leaving the original
/// dataset (the fault-free reference) untouched.
fn armed(ds: &Dataset, injector: &Arc<FaultInjector>) -> Vec<Partition> {
    ds.partitions()
        .iter()
        .map(|p| Partition {
            index: p.index,
            device: p.device,
            rows: p.rows,
            blob: p.blob.clone().with_faults(injector, p.device, p.index),
        })
        .collect()
}

fn serial_reference(plan: &PreprocessPlan, ds: &Dataset) -> Vec<MiniBatch> {
    ds.partitions()
        .iter()
        .map(|p| preprocess_partition(plan, p.blob.clone()).expect("fault-free serial pass").0)
        .collect()
}

/// Positioned reads one fault-free attempt at a partition of `ds` issues
/// (file open plus coalesced column reads), counted through a
/// [`CountingBlob`]. The fault schedules below are sized from it, because a
/// per-read rate or a read budget means nothing without the reads a
/// partition costs. Every partition of a dataset has the same layout.
fn reads_per_partition(plan: &PreprocessPlan, ds: &Dataset) -> u64 {
    let counting = CountingBlob::new(ds.partitions()[0].blob.clone());
    preprocess_partition(plan, &counting).expect("fault-free probe");
    counting.read_calls()
}

/// A retry budget generous enough that per-read transient rates clear: one
/// whole-partition attempt issues `reads_per_partition` reads (a few: the
/// open plus one per run of adjacent projected columns), so each attempt
/// succeeds with probability (1 - rate)^reads and fresh read indices make
/// retries independent. Quarantine stays off — these faults are random
/// across the fleet, not a dying device.
fn transient_policy() -> RetryPolicy {
    RetryPolicy::recover()
        .with_max_attempts(2000)
        .with_backoff(Duration::ZERO, Duration::ZERO)
        .with_quarantine_after(0)
}

#[test]
fn host_fleet_transient_faults_stream_bit_identical() {
    let (c, ds) = dataset(6, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    let injector = FaultPlan::new(fault_seed()).with_transient_rate(0.08).arm();
    let partitions = armed(&ds, &injector);
    let config = FleetConfig::new(3, 2).with_recovery(transient_policy());
    let mut s = BatchStream::spawn(&plan, &partitions, &config).into_ordered();
    let streamed: Vec<MiniBatch> = s.by_ref().map(|i| i.unwrap().batch).collect();
    let report = s.run_report();

    assert_eq!(streamed, serial, "recovered host stream must be bit-identical");
    assert!(injector.stats().transient > 0, "the seed must actually inject faults");
    assert!(report.retries > 0, "faults imply retries under the recovery policy");
    assert!(report.failed_partitions.is_empty());
    assert_eq!(report.delivered as usize + report.failed_partitions.len(), report.partitions);
}

#[test]
fn isp_fleet_transient_faults_stream_bit_identical() {
    let (c, ds) = dataset(6, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    let injector = FaultPlan::new(fault_seed()).with_transient_rate(0.08).arm();
    let partitions = armed(&ds, &injector);
    let mut stream = Fleet::Isp.stream(
        &plan,
        &partitions,
        &FleetConfig::new(2, 2).with_recovery(transient_policy()),
    );
    let mut batches: Vec<(usize, MiniBatch)> =
        stream.by_ref().map(|i| i.unwrap()).map(|b| (b.partition, b.batch)).collect();
    batches.sort_by_key(|(pos, _)| *pos);
    let streamed: Vec<MiniBatch> = batches.into_iter().map(|(_, b)| b).collect();
    let report = stream.run_report();

    assert_eq!(streamed, serial, "recovered ISP stream must be bit-identical");
    assert!(injector.stats().transient > 0, "the seed must actually inject faults");
    assert!(report.failed_partitions.is_empty());
    assert_eq!(report.delivered as usize, report.partitions);
}

#[test]
fn corrupt_pages_recover_from_pristine_media() {
    let (c, ds) = dataset(4, 16, 1);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    // About one corrupt read per partition attempt: every seed corrupts,
    // and an attempt of two or more reads still clears with probability
    // (1 - 1/reads)^reads >= 1/4.
    let rate = 1.0 / reads_per_partition(&plan, &ds) as f64;
    let injector = FaultPlan::new(fault_seed()).with_corrupt_rate(rate).arm();
    let partitions = armed(&ds, &injector);
    let config = FleetConfig::new(2, 2).with_recovery(transient_policy());
    let streamed: Vec<MiniBatch> = BatchStream::spawn(&plan, &partitions, &config)
        .into_ordered()
        .map(|i| i.unwrap().batch)
        .collect();

    assert_eq!(streamed, serial, "re-reads from pristine media must heal corruption");
    assert!(injector.stats().corrupt > 0, "the seed must actually corrupt pages");
}

#[test]
fn dead_isp_device_fails_over_bit_identically_and_reports_it() {
    let (c, ds) = dataset(8, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    // Device 1 serves 1.5 partitions' worth of reads, then dies mid-run:
    // its in-flight partition fails, the breaker quarantines the device,
    // and every remaining device-1 partition routes to the host fleet.
    let budget = reads_per_partition(&plan, &ds) * 3 / 2;
    let injector = FaultPlan::new(fault_seed()).with_device_death(1, budget).arm();
    let partitions = armed(&ds, &injector);
    let policy = RetryPolicy::recover().with_max_attempts(2).with_quarantine_after(2);
    let mut stream =
        Fleet::Isp.stream(&plan, &partitions, &FleetConfig::new(2, 4).with_recovery(policy));
    let mut batches: Vec<(usize, bool, MiniBatch)> = stream
        .by_ref()
        .map(|i| i.unwrap())
        .map(|b| (b.partition, b.via_failover, b.batch))
        .collect();
    batches.sort_by_key(|(pos, ..)| *pos);
    let report = stream.run_report();

    let failovers = batches.iter().filter(|(_, via, _)| *via).count();
    let streamed: Vec<MiniBatch> = batches.into_iter().map(|(.., b)| b).collect();
    assert_eq!(streamed, serial, "failover output must be bit-identical to fault-free");
    assert!(failovers > 0, "device-1 partitions must arrive via the host path");
    assert!(report.failovers > 0);
    assert!(report.quarantined.contains(&1), "the dead device must be quarantined");
    assert!(report.failed_partitions.is_empty(), "failover leaves no partition behind");
    assert_eq!(report.delivered as usize, report.partitions);
}

#[test]
fn quarantine_without_failover_drops_nothing_silently() {
    let (c, ds) = dataset(6, 16, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();

    let injector = FaultPlan::new(fault_seed()).with_device_death(0, 0).arm();
    let partitions = armed(&ds, &injector);
    let on_dead = partitions.iter().filter(|p| p.device == 0).count();
    let policy =
        RetryPolicy::recover().with_max_attempts(2).with_quarantine_after(2).with_failover(false);
    let mut stream =
        Fleet::Isp.stream(&plan, &partitions, &FleetConfig::new(2, 4).with_recovery(policy));
    let mut ok = 0usize;
    let mut errors = Vec::new();
    for item in stream.by_ref() {
        match item {
            Ok(_) => ok += 1,
            Err(e) => errors.push(e),
        }
    }
    let report = stream.run_report();

    assert_eq!(ok, partitions.len() - on_dead, "healthy-device partitions all deliver");
    assert_eq!(errors.len(), on_dead, "every dead-device partition errors loudly");
    for e in &errors {
        assert_eq!(e.device(), Some(0), "errors carry the dead device's id: {e}");
    }
    assert_eq!(
        report.delivered as usize + report.failed_partitions.len(),
        report.partitions,
        "every claimed partition is accounted for"
    );
}

#[test]
fn trainer_surfaces_the_recovery_report() {
    let (c, ds) = dataset(6, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();

    // Fault-free run: the report is present and clean.
    let config = FleetConfig::new(2, 2).with_recovery(transient_policy());
    let stream = BatchStream::spawn(&plan, ds.partitions(), &config);
    let report = Trainer::new(TrainerConfig::instant()).run(stream).unwrap();
    let recovery = report.recovery().expect("BatchStream reports recovery");
    assert!(recovery.clean(), "no faults injected, so no recovery activity");

    // Faulty run: retries show up in the trainer-level report.
    let injector = FaultPlan::new(fault_seed()).with_transient_rate(0.08).arm();
    let partitions = armed(&ds, &injector);
    let stream = BatchStream::spawn(&plan, &partitions, &config);
    let report = Trainer::new(TrainerConfig::instant()).run(stream).unwrap();
    let recovery = report.recovery().expect("BatchStream reports recovery");
    assert!(injector.stats().transient > 0);
    assert!(recovery.retries > 0, "trainer report must surface producer retries");
    assert_eq!(report.batches, ds.partitions().len());
}

#[test]
fn multi_tenant_device_death_degrades_only_the_victim_job() {
    use presto::core::{Fleet, JobSpec, JobStatus, PreprocessService, ServiceConfig};

    let (c, ds) = dataset(8, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    // The victim job's device 1 dies mid-run, after 1.5 partitions' worth
    // of reads; the healthy job shares the same pool but reads pristine
    // media, so the quarantine must stay scoped to the victim.
    let budget = reads_per_partition(&plan, &ds) * 3 / 2;
    let injector = FaultPlan::new(fault_seed()).with_device_death(1, budget).arm();
    let victim_partitions = armed(&ds, &injector);
    let policy = RetryPolicy::recover().with_max_attempts(2).with_quarantine_after(2);

    let service = PreprocessService::new(
        ServiceConfig::new(2).with_max_active_jobs(2).with_job_capacity(ds.partitions().len()),
    );
    let victim = service
        .submit(
            JobSpec::new("victim", plan.clone(), victim_partitions)
                .with_fleet(Fleet::Isp)
                .with_recovery(policy),
        )
        .expect("pool admits the victim job");
    let healthy = service
        .submit(JobSpec::new("healthy", plan.clone(), ds.partitions().to_vec()))
        .expect("pool admits the healthy job");

    let (victim_batches, healthy_ok) = std::thread::scope(|scope| {
        let v = scope.spawn(|| {
            let mut batches: Vec<(usize, bool, MiniBatch)> = victim
                .map(|i| i.expect("victim partitions fail over, not error"))
                .map(|b| (b.partition, b.via_failover, b.batch))
                .collect();
            batches.sort_by_key(|(pos, ..)| *pos);
            batches
        });
        let h = scope.spawn(|| {
            healthy.inspect(|i| assert!(i.is_ok(), "healthy job sees no faults")).count()
        });
        (v.join().unwrap(), h.join().unwrap())
    });
    let report = service.shutdown();

    let failovers = victim_batches.iter().filter(|(_, via, _)| *via).count();
    let streamed: Vec<MiniBatch> = victim_batches.into_iter().map(|(.., b)| b).collect();
    assert_eq!(streamed, serial, "victim output must be bit-identical despite failover");
    assert!(failovers > 0, "dead-device partitions must arrive via the host path");

    let victim_report = report.jobs.iter().find(|j| j.name == "victim").unwrap();
    let healthy_report = report.jobs.iter().find(|j| j.name == "healthy").unwrap();
    assert_eq!(victim_report.status, JobStatus::Completed);
    assert!(victim_report.recovery.failovers > 0);
    assert!(victim_report.recovery.quarantined.contains(&1));
    assert_eq!(
        victim_report.recovery.delivered as usize + victim_report.recovery.failed_partitions.len(),
        victim_report.recovery.partitions,
        "every victim partition is accounted for"
    );

    assert_eq!(healthy_ok, ds.partitions().len());
    assert_eq!(healthy_report.status, JobStatus::Completed);
    assert!(healthy_report.recovery.clean(), "quarantine must not leak to the healthy job");
    assert_eq!(healthy_report.delivered as usize, ds.partitions().len());
    assert!(healthy_report.goodput_rows_per_sec > 0.0, "healthy goodput stays measurable");
}

/// Stage tags alternating ISP/host, starting on the ISP side: every split
/// boundary crosses the device link.
fn alternating_split(plan: &PreprocessPlan) -> presto::ops::SplitPlan {
    let tags: Vec<presto::ops::Fleet> = (0..plan.stages().len())
        .map(|i| if i % 2 == 0 { presto::ops::Fleet::Isp } else { presto::ops::Fleet::Host })
        .collect();
    plan.split(&tags).expect("alternating split")
}

#[test]
fn split_fleet_host_side_gets_its_own_retry_budget() {
    // A fixed fault schedule (seed 31, 5% transient faults per read) in
    // which some partitions spend many attempts on their ISP prefix and
    // then need several more for the host suffix's own reads. Each segment
    // has its own 16-attempt budget, so every partition recovers; a host
    // side that inherited the attempts its ISP side had already spent would
    // run out and surface two of them as errors on this schedule.
    let (c, ds) = dataset(8, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    let injector = FaultPlan::new(31).with_transient_rate(0.05).arm();
    let partitions = armed(&ds, &injector);
    let policy = RetryPolicy::recover()
        .with_max_attempts(16)
        .with_backoff(Duration::ZERO, Duration::ZERO)
        .with_quarantine_after(0)
        .with_failover(false);
    let fleet = Fleet::Split(alternating_split(&plan));
    let mut source = fleet.spawn(&plan, &partitions, &FleetConfig::new(2, 2).with_recovery(policy));
    let mut batches: Vec<(usize, MiniBatch)> = Vec::new();
    while let Some(item) = source.next_batch() {
        let b = item.expect("each segment's own budget recovers every partition");
        batches.push((b.partition, b.batch));
    }
    batches.sort_by_key(|(pos, _)| *pos);
    let streamed: Vec<MiniBatch> = batches.into_iter().map(|(_, b)| b).collect();
    let report = source.stats().recovery.expect("split fleet reports recovery");

    assert_eq!(streamed, serial, "recovered split stream must be bit-identical");
    assert!(injector.stats().transient > 0, "the schedule must actually inject faults");
    assert!(report.failed_partitions.is_empty());
    assert_eq!(report.delivered as usize, report.partitions);
    assert_eq!(report.retries, report.faults, "every fault was retried");
}

/// Runs `teardown` on a watchdog thread: it must stop and join every
/// worker, so it returns promptly instead of hanging the suite.
fn joins_promptly(label: &str, teardown: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        teardown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(60)).is_ok(),
        "{label}: tearing down after one batch must join every worker"
    );
}

/// Drains `source` and checks the streaming invariants every fleet and the
/// service share: each unit is delivered at most once, every delivered
/// batch equals the serial pass over its rows, and the recovery report
/// accounts for every unit (`delivered + failed == units`).
fn check_invariants(
    label: &str,
    source: &mut dyn BatchSource,
    serial: &[MiniBatch],
    group_rows: usize,
) {
    let mut seen = std::collections::HashSet::new();
    let (mut items, mut errors) = (0usize, 0usize);
    while let Some(item) = source.next_batch() {
        items += 1;
        let Ok(b) = item else {
            errors += 1;
            continue;
        };
        assert!(seen.insert((b.partition, b.group)), "{label}: unit delivered twice");
        let want = serial[b.partition].slice_rows(b.group * group_rows, b.batch.rows()).unwrap();
        assert_eq!(b.batch, want, "{label}: partition {} group {}", b.partition, b.group);
    }
    let report = source.stats().recovery.expect("every fleet and job reports recovery");
    if report.partitions == 0 {
        // A spawn-time failure — the shuffled fleet's row-group footers
        // unreadable — claims no unit and surfaces as exactly one error.
        assert_eq!((items, errors), (1, 1), "{label}: a failed spawn yields one error");
        return;
    }
    assert_eq!(
        report.delivered as usize + report.failed_partitions.len(),
        report.partitions,
        "{label}: delivered + failed == units"
    );
    assert_eq!(items, report.partitions, "{label}: every unit ends as exactly one item");
    assert_eq!(seen.len(), report.delivered as usize, "{label}");
}

#[test]
fn every_fleet_and_the_service_keep_the_streaming_invariants() {
    use presto::core::{JobSpec, PreprocessService, ServiceConfig};
    use presto::ops::ShuffleSpec;

    const GROUP_ROWS: usize = 8;
    let mut c = RmConfig::rm1();
    c.batch_size = 24;
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    // Row groups of 8 give the shuffled fleet three units per partition.
    let ds = Dataset::generate_grouped(&c, 6, 24, 2, 7, GROUP_ROWS).expect("grouped dataset");
    let serial = serial_reference(&plan, &ds);
    let fleets = [
        Fleet::Host,
        Fleet::Isp,
        Fleet::Split(alternating_split(&plan)),
        Fleet::Shuffled(ShuffleSpec::new(fault_seed())),
    ];
    let cases =
        [("fail-fast", RetryPolicy::fail_fast(), 0.0), ("recover", RetryPolicy::recover(), 0.01)];
    for (policy_name, policy, rate) in cases {
        // Each run reads a freshly armed copy, so its fault schedule does
        // not depend on how far an earlier run got.
        let partitions =
            || armed(&ds, &FaultPlan::new(fault_seed()).with_transient_rate(rate).arm());
        let config = FleetConfig::new(2, 2).with_recovery(policy.clone());
        for fleet in &fleets {
            let label = format!("{} fleet, {policy_name}", fleet.name());
            let mut source = fleet.spawn(&plan, &partitions(), &config);
            check_invariants(&label, &mut source, &serial, GROUP_ROWS);
            let one_slot = FleetConfig::new(2, 1).with_recovery(policy.clone());
            let mut source = fleet.spawn(&plan, &partitions(), &one_slot);
            let _ = source.next_batch().expect("at least one unit");
            joins_promptly(&label, move || drop(source));
        }

        let label = format!("service tenant, {policy_name}");
        let spec = || {
            JobSpec::new("tenant", plan.clone(), partitions())
                .with_fleet(Fleet::Isp)
                .with_recovery(policy.clone())
        };
        let service = PreprocessService::new(ServiceConfig::new(2));
        let mut handle = service.submit(spec()).expect("admitted");
        check_invariants(&label, &mut handle, &serial, GROUP_ROWS);
        drop(handle);
        let _ = service.shutdown();
        let service = PreprocessService::new(ServiceConfig::new(2).with_job_capacity(1));
        let mut handle = service.submit(spec()).expect("admitted");
        let _ = handle.next_batch().expect("at least one unit");
        joins_promptly(&label, move || {
            drop(handle);
            let _ = service.shutdown();
        });
    }
}
