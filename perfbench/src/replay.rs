//! The traced serial replay: every unit of one pass goes through the
//! program's public layer calls one at a time, each call inside a span:
//! file open, Extract, per-column decode, `transform_batch_into` with its
//! per-op kernels, the owned Transform with format, the split or ISP entry
//! points where the workload uses them, and the whole-unit call.

use crate::measure::{fingerprint, median};
use crate::trace::Spans;
use crate::workloads::{unit_name, Kind, Tenant, Workload};
use presto::columnar::{BlobRead, CountingBlob, FileReader, MemBlob, ReadScratch};
use presto::core::isp_worker::FEATURE_BUFFER_ELEMS;
use presto::core::IspWorker;
use presto::ops::{
    extract_columns_for_plan, extract_group_for_plan, preprocess_batch_owned,
    preprocess_batch_owned_chunked, preprocess_group_with, preprocess_partition_with,
    preprocess_split_host, preprocess_split_isp, transform_batch_into, ScratchSpace, StageTimings,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Encodings in page-header tag order.
pub const ENCODINGS: [&str; 4] = ["plain", "delta", "dictionary", "delta_bitpack"];

/// Layer totals over every replayed unit.
#[derive(Default)]
pub struct Layers {
    pub units: u64,
    pub rows: u64,
    pub open: Duration,
    pub extract: Duration,
    pub bytes_read: u64,
    pub reads: u64,
    pub decoded_values: u64,
    /// Per encoding: time and values of single-column decodes.
    pub decode: BTreeMap<&'static str, (Duration, u64)>,
    pub transform: Duration,
    /// `transform_batch_into` timings summed over units (per-op buckets).
    pub timings: StageTimings,
    /// Per tenant: the same sum, for that tenant's placement.
    pub tenant_timings: Vec<StageTimings>,
    pub format: Duration,
    pub isp_transform: Duration,
    pub boundary_bytes: u64,
    pub whole: Duration,
    /// Per unit: share of the whole-unit call the layer spans leave
    /// uncovered.
    pub unattributed: Vec<f64>,
    /// Units whose replayed output differed from the reference.
    pub mismatches: u64,
}

/// Replays every unit of every tenant once, serially.
pub fn replay(w: &Workload, spans: &mut Spans) -> Layers {
    let mut layers = Layers::default();
    for t in &w.tenants {
        let mut tenant_timings = StageTimings::default();
        for &key in &t.units {
            replay_unit(t, key, spans, &mut layers, &mut tenant_timings);
        }
        layers.tenant_timings.push(tenant_timings);
    }
    layers
}

fn replay_unit(
    t: &Tenant,
    (p, g): (usize, usize),
    spans: &mut Spans,
    layers: &mut Layers,
    tenant_timings: &mut StageTimings,
) {
    let plan = &t.plan;
    let unit = unit_name(t.name, (p, g));
    let u = Some(unit.as_str());
    let partition = &t.partitions[p];
    // The stored bytes through the fleet's own access path (an emulated
    // device where the workload has one), minus fault injection, which
    // would make the replay fail where the fleets retry.
    let blob = partition.blob.without_faults();
    // The same bytes as plain memory, for the layers that run on the
    // device's side of the link (decode, ISP Transform) or whose cost
    // should not include the emulated read latency.
    let memory = if blob.as_shared().is_some() {
        blob.clone()
    } else {
        MemBlob::new(blob.as_bytes().to_vec())
    };
    let expected = t.reference[&(p, g)];
    let check = |layers: &mut Layers, batch: &presto::ops::MiniBatch| {
        if fingerprint(batch) != expected {
            layers.mismatches += 1;
        }
    };
    let root = spans.begin("replay.unit", None, u);
    let mut read = ReadScratch::new();
    let mut scratch = ScratchSpace::new();

    // 1. File open and 2. Extract, counting the bytes and reads they cost.
    let counting = CountingBlob::new(blob.clone());
    let (reader, open) = spans
        .time("columnar.file_open", Some(root), u, || FileReader::open(&counting).expect("opens"));
    let (batch, extract) = spans.time("ops.extract", Some(root), u, || {
        if t.grouped() {
            extract_group_for_plan(plan, &reader, g, &mut read)
        } else {
            extract_columns_for_plan(plan, &reader, plan.required_columns(), &mut read)
        }
        .expect("extracts")
    });
    let open = spans.get(open).duration();
    let extract = spans.get(extract).duration();
    layers.open += open;
    layers.extract += extract;
    layers.bytes_read += counting.bytes_read();
    layers.reads += counting.read_calls();
    layers.rows += batch.rows() as u64;
    layers.decoded_values += batch.columns().iter().map(|a| a.element_count() as u64).sum::<u64>();
    drop(reader);

    // Each column read alone, grouped by the encoding its page header
    // records.
    let mem_reader = FileReader::open(memory.clone()).expect("opens");
    let decode = spans.begin("columnar.decode", Some(root), u);
    let groups = if t.grouped() { g..g + 1 } else { 0..mem_reader.row_group_count() };
    for name in plan.required_columns() {
        let column = mem_reader.schema().index_of(name).expect("projected column exists");
        let limit = plan.column_limit(name);
        for rg in groups.clone() {
            let offset = mem_reader.meta().row_groups[rg].columns[column].offset;
            let encoding = chunk_encoding(memory.as_bytes(), offset);
            let (array, id) =
                spans.time(&format!("columnar.decode.{encoding}"), Some(decode), u, || {
                    mem_reader
                        .read_column_limit_with(rg, column, limit, &mut read)
                        .expect("decodes")
                });
            let entry = layers.decode.entry(encoding).or_default();
            entry.0 += spans.get(id).duration();
            entry.1 += array.element_count() as u64;
        }
    }
    spans.end(decode);

    // 3. Transform through the borrowed-scratch driver, with its op kernels.
    let (timings, id) = spans.time("ops.transform_batch_into", Some(root), u, || {
        transform_batch_into(plan, &batch, &mut scratch).expect("transforms")
    });
    layers.transform += spans.get(id).duration();
    layout_ops(spans, id, u, &timings);
    layers.timings.absorb(&timings);
    tenant_timings.absorb(&timings);

    // 4. The owned Transform the fleets run, then format.
    let ((mini_batch, owned), id) = spans.time("ops.preprocess_batch_owned", Some(root), u, || {
        preprocess_batch_owned(plan, batch).expect("preprocesses")
    });
    let end = layout_ops(spans, id, u, &owned);
    spans.derived("ops.format", id, u, end, owned.format);
    layers.format += owned.format;
    check(layers, &mini_batch);

    // 5. The device-side entry points.
    match &t.kind {
        Kind::Split(split) => {
            let reader = FileReader::open(memory.clone()).expect("opens");
            let (isp_batch, _) = spans.time("ops.extract_isp_columns", Some(root), u, || {
                extract_columns_for_plan(plan, &reader, split.isp_columns(), &mut read)
                    .expect("extracts")
            });
            let ((boundary, _, _), id) =
                spans.time("ops.preprocess_split_isp", Some(root), u, || {
                    preprocess_split_isp(plan, split, isp_batch, FEATURE_BUFFER_ELEMS)
                        .expect("isp side")
                });
            layers.isp_transform += spans.get(id).duration();
            layers.boundary_bytes += boundary.byte_len();
            let (host_batch, _) = spans.time("ops.extract_host_columns", Some(root), u, || {
                extract_columns_for_plan(plan, &reader, split.host_columns(), &mut read)
                    .expect("extracts")
            });
            let ((mini_batch, _), _) =
                spans.time("ops.preprocess_split_host", Some(root), u, || {
                    preprocess_split_host(plan, split, host_batch, boundary).expect("host side")
                });
            check(layers, &mini_batch);
        }
        Kind::Isp => {
            let worker = IspWorker::new(plan.clone());
            let ((mini_batch, _), _) =
                spans.time("core.isp_worker.preprocess_with", Some(root), u, || {
                    worker.preprocess_with(memory.clone(), &mut scratch).expect("isp preprocesses")
                });
            check(layers, &mini_batch);
            let reader = FileReader::open(memory.clone()).expect("opens");
            let (batch, _) = spans.time("ops.extract", Some(root), u, || {
                extract_columns_for_plan(plan, &reader, plan.required_columns(), &mut read)
                    .expect("extracts")
            });
            let (_, id) = spans.time("ops.preprocess_batch_owned_chunked", Some(root), u, || {
                preprocess_batch_owned_chunked(plan, batch, FEATURE_BUFFER_ELEMS).expect("chunked")
            });
            layers.isp_transform += spans.get(id).duration();
        }
        Kind::Host | Kind::Shuffled => {}
    }

    // 6. The whole unit in one call, against which the layer spans above
    // are attributed.
    let ((mini_batch, _), id) = spans.time("ops.preprocess_unit", Some(root), u, || {
        if t.grouped() {
            let reader = FileReader::open(blob.clone()).expect("opens");
            preprocess_group_with(plan, &reader, g, &mut scratch)
        } else {
            preprocess_partition_with(plan, blob.clone(), &mut scratch)
        }
        .expect("preprocesses")
    });
    check(layers, &mini_batch);
    let whole = spans.get(id).duration();
    layers.whole += whole;
    let covered = open + extract + owned.ops.total() + owned.format;
    layers.unattributed.push(1.0 - covered.as_secs_f64() / whole.as_secs_f64());
    layers.units += 1;
    spans.end(root);
}

/// Encoding of a column chunk's first page. A chunk starts with its page
/// count as a LEB128 varint; a page starts with its encoding tag (see the
/// layouts in `presto_columnar::column` and `presto_columnar::page`).
fn chunk_encoding(file: &[u8], offset: u64) -> &'static str {
    let chunk = &file[usize::try_from(offset).expect("in memory")..];
    let varint_len = chunk.iter().position(|b| b & 0x80 == 0).expect("page count varint ends") + 1;
    ENCODINGS.get(usize::from(chunk[varint_len])).copied().unwrap_or("unknown")
}

/// Lays the op buckets of `timings` out as derived child spans of `parent`
/// from its start; returns where the last one ends.
fn layout_ops(spans: &mut Spans, parent: usize, unit: Option<&str>, timings: &StageTimings) -> u64 {
    let mut at = spans.get(parent).start;
    for (tag, bucket) in timings.ops.iter() {
        if bucket.elems > 0 {
            at = spans.derived(&format!("ops.op.{}", op_name(tag)), parent, unit, at, bucket.time);
        }
    }
    at
}

pub fn op_name(tag: presto::ops::OpTag) -> String {
    tag.name().to_ascii_lowercase()
}

impl Layers {
    pub fn unattributed_share(&self) -> f64 {
        median(&self.unattributed)
    }

    /// Rows per second of the serial whole-unit calls.
    pub fn serial_rows_per_s(&self) -> f64 {
        self.rows as f64 / self.whole.as_secs_f64()
    }
}
