//! End-to-end and per-layer benchmark of the preprocessing system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <all|rm1_host|longseq_shuffled|rm1l_split_device|service_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `all` runs the four workloads one after another in this process.
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload twice for half the time each, untraced and
//! with consumer-side spans, then replays every unit serially through the
//! layers' public calls, writes the spans under `.perfbench/trace/`, and
//! reports the per-layer metrics. Both modes check every delivered batch
//! against a serial reference. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/metrics.json` lists every metric with the end-to-end metric
//! each layer metric should move.

mod measure;
mod replay;
mod trace;
mod workloads;

use measure::{median, peak_rss_mb, percentile, reset_peak_rss, Machine};
use presto::core::placement::{place_stages, OpCostModel};
use presto::hwsim::fpga::IspModel;
use presto::ops::OpTag;
use replay::{op_name, replay, Layers};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::{json_str, Spans};
use workloads::{prepare, run, RunStats, Window, Workload, NAMES};

/// Op tags and encodings the workloads exercise; per-op and per-encoding
/// metrics are reported for these (the span files hold every one seen).
const LAYER_OPS: [OpTag; 4] = [OpTag::SigridHash, OpTag::Bucketize, OpTag::LogNorm, OpTag::FirstX];
const LAYER_ENCODINGS: [&str; 3] = ["plain", "dictionary", "delta_bitpack"];

/// Untimed run before measuring, so caches and allocator pools are warm.
const WARMUP_S: f64 = 0.5;
/// Where span files and the result history go, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Percentile of all the run's waits reported as `batch_wait_tail_ms`:
/// the highest one that has at least ten waits beyond it in a 20-second
/// run on every workload and is steady from run to run. p99 swung twice as
/// much on `longseq_shuffled` (reorder-heap head-of-line stalls) and
/// `service_mixed`.
const TAIL_PERCENTILE: f64 = 0.95;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    out.push(Metric { name: name.into(), value, unit });
}

/// Median over the run's windows of one per-window figure.
fn over_windows(windows: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    median(&windows.iter().map(f).filter(|v| v.is_finite()).collect::<Vec<_>>())
}

fn end_to_end(w: &Workload, s: &RunStats, rss_mb: f64) -> Vec<Metric> {
    let windows = s.windows();
    let waits: Vec<f64> = s.arrivals.iter().map(|a| a.wait_ms).collect();
    let mut m = Vec::new();
    metric(&mut m, "rows_per_s", rows_per_s(&windows), "rows/s");
    metric(&mut m, "batch_wait_p50_ms", over_windows(&windows, |win| median(&win.waits_ms)), "ms");
    metric(&mut m, "batch_wait_tail_ms", percentile(&waits, TAIL_PERCENTILE), "ms");
    metric(
        &mut m,
        "cpu_us_per_row",
        over_windows(&windows, |win| win.cpu.as_secs_f64() * 1e6 / win.rows as f64),
        "us",
    );
    metric(&mut m, "peak_rss_mb", rss_mb, "MiB");
    metric(&mut m, "setup_s", w.setup_s, "s");
    metric(
        &mut m,
        "tenant_min_rows_per_s",
        over_windows(&windows, |win| {
            win.tenant_rows.iter().copied().min().unwrap_or(0) as f64 / win.seconds
        }),
        "rows/s",
    );
    m
}

fn rows_per_s(windows: &[Window]) -> f64 {
    over_windows(windows, |win| win.rows as f64 / win.seconds)
}

fn per_layer(w: &Workload, untraced: &RunStats, traced: &RunStats, l: &Layers) -> Vec<Metric> {
    let mut m = Vec::new();
    let per_unit = |x: f64| x / l.units as f64;
    let per_row = |x: f64| x / l.rows as f64;
    let run_units = traced.attempted as f64;
    let run_rows = traced.rows as f64;
    let wall = traced.wall.as_secs_f64();

    metric(&mut m, "io.bytes_read_per_row", per_row(l.bytes_read as f64), "B");
    metric(&mut m, "io.reads_per_unit", per_unit(l.reads as f64), "count");
    metric(&mut m, "file.open_us_per_unit", per_unit(l.open.as_secs_f64() * 1e6), "us");

    let dev_wait: f64 = traced.device_delta.iter().map(|d| d.queue_wait.as_secs_f64()).sum();
    let dev_busy: f64 = traced.device_delta.iter().map(|d| d.busy.as_secs_f64()).sum();
    let devices = traced.device_delta.len().max(1) as f64;
    metric(&mut m, "device.queue_wait_ms_per_unit", dev_wait * 1e3 / run_units, "ms");
    metric(&mut m, "device.busy_share", dev_busy / (devices * wall), "share");

    metric(&mut m, "extract.us_per_unit", per_unit(l.extract.as_secs_f64() * 1e6), "us");
    metric(&mut m, "decode.values_per_row", per_row(l.decoded_values as f64), "count");
    for enc in LAYER_ENCODINGS {
        let (time, values) = l.decode.get(enc).copied().unwrap_or_default();
        let ns = if values == 0 { 0.0 } else { time.as_secs_f64() * 1e9 / values as f64 };
        metric(&mut m, format!("decode.{enc}.ns_per_value"), ns, "ns");
    }

    metric(&mut m, "transform.us_per_unit", per_unit(l.transform.as_secs_f64() * 1e6), "us");
    for tag in LAYER_OPS {
        let bucket = l.timings.ops.get(tag);
        let name = op_name(tag);
        metric(&mut m, format!("op.{name}.ns_per_elem"), bucket.ns_per_elem().unwrap_or(0.0), "ns");
        metric(&mut m, format!("op.{name}.elems_per_row"), per_row(bucket.elems as f64), "count");
    }
    metric(&mut m, "format.us_per_unit", per_unit(l.format.as_secs_f64() * 1e6), "us");

    metric(
        &mut m,
        "isp.transform_us_per_unit",
        per_unit(l.isp_transform.as_secs_f64() * 1e6),
        "us",
    );
    metric(&mut m, "link.boundary_bytes_per_row", traced.boundary_bytes as f64 / run_rows, "B");
    metric(&mut m, "link.p2p_bytes_per_row", traced.p2p_bytes as f64 / run_rows, "B");

    let serial_unit = l.whole.as_secs_f64() / l.units as f64;
    metric(
        &mut m,
        "fleet.busy_share",
        serial_unit * run_units / (traced.workers as f64 * wall),
        "share",
    );
    metric(&mut m, "fleet.scaling_vs_serial", traced.rows_per_s() / l.serial_rows_per_s(), "ratio");
    metric(&mut m, "stream.queued_mean", traced.queued_sum as f64 / run_units, "count");
    metric(&mut m, "stream.steal_share", traced.stolen as f64 / run_units, "share");
    metric(&mut m, "stream.hold_ms_p50", median(&traced.holds_ms), "ms");

    metric(&mut m, "recovery.retries_per_unit", traced.retries as f64 / run_units, "count");
    metric(&mut m, "recovery.failovers", traced.failovers as f64, "count");

    let (fairness, gap, stall) = traced.service.as_ref().map_or((0.0, 0.0, 0.0), |r| {
        let stall = r.jobs.iter().map(|j| j.stall_share).fold(0.0, f64::max);
        (r.fairness, r.max_starvation().as_secs_f64() * 1e3, stall)
    });
    metric(&mut m, "service.fairness", fairness, "index");
    metric(&mut m, "service.dispatch_gap_max_ms", gap, "ms");
    metric(&mut m, "service.tenant_stall_share", stall, "share");

    let (calibrated, analytic) = placements(w, l);
    metric(&mut m, "placement.isp_stages_calibrated", calibrated as f64, "count");
    metric(&mut m, "placement.isp_stages_analytic", analytic as f64, "count");

    let overhead = 1.0 - rows_per_s(&traced.windows()) / rows_per_s(&untraced.windows());
    metric(&mut m, "trace.overhead_share", overhead, "share");
    metric(&mut m, "trace.unattributed_share", l.unattributed_share(), "share");
    m
}

/// ISP stage counts of every tenant's plan under the calibrated (this
/// replay's measured op rates) and the analytic cost model, with one
/// scoreboard line per tenant.
fn placements(w: &Workload, l: &Layers) -> (usize, usize) {
    let isp = IspModel::smartssd();
    let (mut calibrated, mut analytic) = (0, 0);
    for (t, measured) in w.tenants.iter().zip(&l.tenant_timings) {
        let cal = place_stages(&t.plan, t.rows_per_unit, &OpCostModel::calibrated(measured, &isp));
        let ana = place_stages(&t.plan, t.rows_per_unit, &OpCostModel::analytic(&isp));
        let stages = cal.stages.len();
        let rates: Vec<String> = OpTag::ALL
            .iter()
            .filter_map(|&tag| {
                measured.ops.get(tag).ns_per_elem().map(|ns| format!("{} {ns:.2}", tag.name()))
            })
            .collect();
        println!(
            "scoreboard {}/{}: ISP stages calibrated {}/{stages}, analytic {}/{stages} at {} rows; \
             measured host ns/elem: {}",
            w.name,
            t.name,
            cal.offloaded(),
            ana.offloaded(),
            t.rows_per_unit,
            rates.join(", ")
        );
        if cal.offloaded() == 0 {
            println!(
                "scoreboard {}/{}: the calibrated model offloads nothing: with this machine's \
                 measured host rates no stage is cheaper on the modelled SmartSSD units \
                 (including their per-stage dispatch overhead)",
                w.name, t.name
            );
        }
        calibrated += cal.offloaded();
        analytic += ana.offloaded();
    }
    (calibrated, analytic)
}

/// Appends this result to `.perfbench/history.tsv` and compares it with the
/// median of earlier results of the same workload and mode, but only those
/// recorded on a machine with the same fingerprint.
fn compare_with_history(machine: &Machine, key: &str, metrics: &[Metric]) {
    let path = Path::new(OUT_DIR).join("history.tsv");
    let id = machine.id();
    let previous = std::fs::read_to_string(&path).unwrap_or_default();
    let mut same = Vec::new();
    let mut other = 0;
    for line in previous.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 3 || fields[1] != key {
            continue;
        }
        if fields[0] == id {
            same.push(fields[2].to_owned());
        } else {
            other += 1;
        }
    }
    if other > 0 {
        println!("history: {other} earlier result(s) come from another machine; not compared");
    }
    if !same.is_empty() {
        for m in metrics {
            let values: Vec<f64> = same
                .iter()
                .filter_map(|r| {
                    r.split(',').find_map(|kv| {
                        kv.strip_prefix(&format!("{}=", m.name)).and_then(|v| v.parse().ok())
                    })
                })
                .collect();
            let base = median(&values);
            if base != 0.0 {
                println!(
                    "history: {} {:.4} vs median {:.4} of {} earlier run(s) on this machine \
                     ({:+.1}%)",
                    m.name,
                    m.value,
                    base,
                    values.len(),
                    (m.value / base - 1.0) * 100.0
                );
            }
        }
    }
    let record: Vec<String> = metrics.iter().map(|m| format!("{}={}", m.name, m.value)).collect();
    let line = format!("{id}\t{key}\t{}\n", record.join(","));
    let appended = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(line.as_bytes())
    });
    if let Err(e) = appended {
        eprintln!("history not recorded: {e}");
    }
}

/// The result of one workload.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// Warms up, then measures one workload in the mode `args` asks for.
fn bench(w: &Workload, args: &Args) -> Outcome {
    if let Some((isp, stages)) = w.split_isp_stages {
        println!("split placement: {isp} of {stages} stages on ISP (analytic SmartSSD model)");
    }
    run(w, WARMUP_S, None);
    let rss_is_run_only = reset_peak_rss();
    let (metrics, attempted, failed, mismatched) = if args.trace {
        let untraced = run(w, args.seconds / 2.0, None);
        let mut spans = Spans::new(Instant::now(), 0);
        let traced = run(w, args.seconds / 2.0, Some(&mut spans));
        let layers = replay(w, &mut spans);
        let stem = format!("{}-seed{}", w.name, w.seed);
        match spans.write(&Path::new(OUT_DIR).join("trace"), &stem) {
            Ok(()) => println!(
                "trace: {} spans in {OUT_DIR}/trace/{stem}.spans.jsonl and {stem}.trace.json",
                spans.len()
            ),
            Err(e) => eprintln!("trace files not written: {e}"),
        }
        (
            per_layer(w, &untraced, &traced, &layers),
            untraced.attempted + traced.attempted + layers.units,
            untraced.failed + traced.failed + layers.mismatches,
            untraced.mismatched + traced.mismatched + layers.mismatches,
        )
    } else {
        let stats = run(w, args.seconds, None);
        println!(
            "run: {} passes, {} units, {} rows in {:.3} s; {} waits",
            stats.passes,
            stats.attempted,
            stats.rows,
            stats.wall.as_secs_f64(),
            stats.arrivals.len(),
        );
        if !rss_is_run_only {
            println!("peak_rss_mb covers set-up too: the kernel refused to reset the peak");
        }
        (end_to_end(w, &stats, peak_rss_mb()), stats.attempted, stats.failed, stats.mismatched)
    };
    let attempted = attempted.max(1);
    // Output that differs from the reference discredits the whole run.
    let failed = if mismatched > 0 { attempted } else { failed.min(attempted) };
    Outcome { metrics, attempted, failed }
}

fn result_line(o: &Outcome) -> String {
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(&m.name), m.value, json_str(m.unit))
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        body.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => NAMES.to_vec(),
        name if NAMES.contains(&name) => vec![name],
        name => {
            eprintln!("perfbench: unknown workload {name:?}; one of all, {}", NAMES.join(", "));
            return ExitCode::from(2);
        }
    };
    let machine = Machine::detect();
    println!(
        "machine {}: cpu {:?}, available_parallelism {}, {}, kernel {}",
        machine.id(),
        machine.cpu,
        machine.parallelism,
        machine.rustc,
        machine.kernel
    );
    // With several workloads, the result line carries `<workload>.<metric>`.
    let mut total = Outcome { metrics: Vec::new(), attempted: 0, failed: 0 };
    for name in &names {
        let w = prepare(name, args.seed).expect("known workload");
        println!("workload {name}, seed {}", args.seed);
        let mut out = bench(&w, &args);
        for m in &out.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        println!(
            "failed_share = {} (failed units / attempted units)",
            out.failed as f64 / out.attempted as f64
        );
        compare_with_history(
            &machine,
            &format!("{name}:trace{}", u8::from(args.trace)),
            &out.metrics,
        );
        if names.len() == 1 {
            total = out;
        } else {
            total.attempted += out.attempted;
            total.failed += out.failed;
            for m in &mut out.metrics {
                m.name = format!("{name}.{}", m.name);
            }
            total.metrics.append(&mut out.metrics);
        }
    }
    println!("{}", result_line(&total));
    ExitCode::SUCCESS
}
