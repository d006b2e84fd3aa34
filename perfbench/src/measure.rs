//! Process-level measurements (CPU time, peak RSS), order statistics, the
//! mini-batch content fingerprint and the machine fingerprint.

use presto::ops::MiniBatch;
use std::process::Command;
use std::time::Duration;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second on every architecture it exports.
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process so far: every thread,
/// including threads that already exited (the kernel folds their time into
/// the thread group's counters).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) is parenthesised and may hold spaces; the
    // fields after its closing parenthesis are space-separated, starting
    // with field 3 (state). utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Resets the process's peak-RSS high-water mark to its current RSS, so a
/// later [`peak_rss_mb`] covers only what follows. Returns false when the
/// kernel refuses (the peak then also covers set-up).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// FxHash-style word mixer: fast enough to fingerprint every delivered
/// batch on the consumer thread without becoming the bottleneck.
#[derive(Clone, Copy)]
pub struct Fx(u64);

impl Fx {
    pub fn new() -> Self {
        Fx(0)
    }

    #[inline]
    pub fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Content fingerprint of one mini-batch: labels, dense values (bit
/// patterns) and each sparse feature's name, per-row lengths and values.
/// Row lengths rather than raw offsets make a row window of a batch hash
/// like the same rows preprocessed on their own.
pub fn fingerprint(batch: &MiniBatch) -> u64 {
    let mut h = Fx::new();
    h.add(batch.rows() as u64);
    for &label in batch.labels() {
        h.add(label as u64);
    }
    let dense = batch.dense().data();
    h.add(dense.len() as u64);
    for pair in dense.chunks(2) {
        let hi = pair.get(1).map_or(0, |v| u64::from(v.to_bits()));
        h.add(u64::from(pair[0].to_bits()) | hi << 32);
    }
    for feature in batch.sparse() {
        h.bytes(feature.name.as_bytes());
        for w in feature.offsets.windows(2) {
            h.add(u64::from(w[1] - w[0]));
        }
        for &v in &feature.values {
            h.add(v as u64);
        }
    }
    h.finish()
}

/// What a result depends on besides the code: CPU model, usable cores,
/// compiler and kernel. Results with different fingerprints come from
/// another machine and are not compared.
pub struct Machine {
    pub cpu: String,
    pub parallelism: usize,
    pub rustc: String,
    pub kernel: String,
}

impl Machine {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into());
        Machine { cpu, parallelism, rustc, kernel }
    }

    /// Short stable identifier of the fingerprint.
    pub fn id(&self) -> String {
        let mut h = Fx::new();
        for part in [&self.cpu, &self.rustc, &self.kernel] {
            h.bytes(part.as_bytes());
        }
        h.add(self.parallelism as u64);
        format!("{:016x}", h.finish())
    }
}
