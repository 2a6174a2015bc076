//! Measurement arithmetic: the host-speed probe and normalisation,
//! percentiles, detection quality, and process memory.

use crate::gen::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Probe time, in milliseconds, that defines nominal host speed: about
/// the typical probe on the 2-vCPU x86-64 VM the benchmark was tuned on.
/// Normalised timings read "at nominal host speed"; the constant only sets
/// their scale.
pub const NOMINAL_PROBE_MS: f64 = 0.8;

/// The probe's table: far larger than any cache.
const PROBE_TABLE_BYTES: usize = 64 << 20;
const PROBE_UPDATES: usize = 32_768;

/// A host-speed probe: benchmark-owned work that calls nothing in the
/// repository. It makes random read-modify-writes into a 64 MiB table,
/// cache-missing work like the detector's synopsis probes, so its time
/// tracks how fast the host runs right now. A dependent floating-point
/// chain was tried as a second half and left out: it swung more than the
/// detector did, and over-corrected the normalised timings.
pub struct Probe {
    table: Vec<u64>,
    rng: Rng,
}

impl Probe {
    pub fn new() -> Self {
        let table: Vec<u64> = (0..PROBE_TABLE_BYTES / 8).map(|i| i as u64).collect();
        Probe {
            table,
            rng: Rng::new(0x9E0B_E5EE_D0F5),
        }
    }

    /// Runs the probe once and returns its time in milliseconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.table.len();
        for _ in 0..PROBE_UPDATES {
            let i = self.rng.below(n);
            self.table[i] = self.table[i].wrapping_mul(0x9E37_79B9).wrapping_add(1);
        }
        black_box(&self.table);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Factor by which the host runs slower than nominal, from the probes
/// taken just before and just after a timing.
pub fn speed_factor(probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    0.5 * (probe_before_ms + probe_after_ms) / NOMINAL_PROBE_MS
}

/// A timing at nominal host speed: raw × nominal probe ÷ adjacent probe
/// (the mean of the probes before and after). A host running slow makes
/// the probe slow too, so the ratio cancels the host's speed and keeps the
/// raw unit.
pub fn normalise(raw: f64, probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    raw / speed_factor(probe_before_ms, probe_after_ms)
}

/// The percentile ladder reports pick from.
pub const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile on [`LADDER`] that leaves at least ten samples
/// beyond it among `n` samples (the sample at the nearest rank excluded).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// small slack keeps `99.9 / 100 * 10_000` at rank 9990, not 9991.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (nearest rank; 0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// F1 of the `flagged` decisions against the planted labels.
pub fn f1(flagged: &[bool], labels: &[bool]) -> f64 {
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for (&f, &l) in flagged.iter().zip(labels) {
        match (f, l) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    if tp == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
}

/// ROC AUC of `scores` against the labels (Mann–Whitney, ties count
/// half).
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let positives = labels.iter().filter(|&&l| l).count() as f64;
    let negatives = labels.len() as f64 - positives;
    if positives == 0.0 || negatives == 0.0 {
        return 0.5;
    }
    // Sum of the positives' mid-ranks over tied groups.
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        rank_sum += mid * order[i..=j].iter().filter(|&&k| labels[k]).count() as f64;
        i = j + 1;
    }
    (rank_sum - positives * (positives + 1.0) / 2.0) / (positives * negatives)
}

/// Peak resident set of this process in bytes (`VmHWM`), where the
/// platform reports it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_leaves_ten_beyond() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn normalisation_arithmetic() {
        // A host at nominal speed leaves timings unchanged.
        assert_eq!(normalise(10.0, NOMINAL_PROBE_MS, NOMINAL_PROBE_MS), 10.0);
        // Twice as slow: probe and workload both take twice as long.
        let slow = 2.0 * NOMINAL_PROBE_MS;
        assert!((normalise(20.0, slow, slow) - 10.0).abs() < 1e-12);
        // The two adjacent probes are averaged.
        let f = speed_factor(NOMINAL_PROBE_MS, 3.0 * NOMINAL_PROBE_MS);
        assert!((f - 2.0).abs() < 1e-12);
        assert!((normalise(8.0, NOMINAL_PROBE_MS, 3.0 * NOMINAL_PROBE_MS) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn probe_takes_measurable_time() {
        let mut p = Probe::new();
        assert!(p.run() > 0.0);
    }

    #[test]
    fn quality_scores() {
        let labels = [true, false, true, false];
        assert_eq!(f1(&[true, false, true, false], &labels), 1.0);
        assert_eq!(f1(&[false; 4], &labels), 0.0);
        assert!((f1(&[true, true, false, false], &labels) - 0.5).abs() < 1e-12);
        assert_eq!(auc(&[0.9, 0.1, 0.8, 0.2], &labels), 1.0);
        assert_eq!(auc(&[0.1, 0.9, 0.2, 0.8], &labels), 0.0);
        assert_eq!(auc(&[0.5; 4], &labels), 0.5);
    }
}
