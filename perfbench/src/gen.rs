//! The benchmark's own inputs: a PRNG, a clustered-Gaussian stream with
//! planted projected outliers, an abrupt-drift variant, and a fingerprint
//! of what was generated.
//!
//! Nothing here calls into the repository, so a change to its data,
//! metrics or RNG crates cannot move the workloads or the score.

use spot::types::DataPoint;

/// SplitMix64: tiny, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.unit().max(f64::EPSILON);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Shape of a generated stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub phi: usize,
    pub clusters: usize,
    /// Dimensions in which each cluster is tight.
    pub tight_dims: usize,
    pub tight_sigma: f64,
    pub broad_sigma: f64,
    /// Share of stream points that are planted outliers.
    pub outlier_fraction: f64,
    /// Cardinality of each planted outlying subspace.
    pub outlier_dims: usize,
    /// Minimum distance of an outlying coordinate from every cluster
    /// centre, in multiples of `tight_sigma`.
    pub displacement: f64,
}

impl StreamSpec {
    pub fn new(phi: usize, outlier_fraction: f64, outlier_dims: usize) -> Self {
        StreamSpec {
            phi,
            clusters: 8,
            tight_dims: 4,
            tight_sigma: 0.02,
            broad_sigma: 0.06,
            outlier_fraction,
            outlier_dims,
            displacement: 10.0,
        }
    }
}

/// One cluster layout: centres, each cluster's tight dimensions, and the
/// pool of planted outlying subspaces.
#[derive(Debug, Clone)]
pub struct Layout {
    spec: StreamSpec,
    centers: Vec<Vec<f64>>,
    tight: Vec<Vec<bool>>,
    outlier_subspaces: Vec<Vec<usize>>,
}

fn distinct_dims(rng: &mut Rng, phi: usize, k: usize) -> Vec<usize> {
    let mut dims: Vec<usize> = Vec::with_capacity(k);
    while dims.len() < k {
        let d = rng.below(phi);
        if !dims.contains(&d) {
            dims.push(d);
        }
    }
    dims.sort_unstable();
    dims
}

impl Layout {
    pub fn new(spec: StreamSpec, rng: &mut Rng) -> Self {
        let mut centers = Vec::with_capacity(spec.clusters);
        let mut tight = Vec::with_capacity(spec.clusters);
        for _ in 0..spec.clusters {
            centers.push((0..spec.phi).map(|_| rng.range(0.25, 0.75)).collect());
            let mut mask = vec![false; spec.phi];
            for d in distinct_dims(rng, spec.phi, spec.tight_dims) {
                mask[d] = true;
            }
            tight.push(mask);
        }
        let pool = (spec.phi / spec.outlier_dims).clamp(1, 6);
        let mut outlier_subspaces: Vec<Vec<usize>> = Vec::with_capacity(pool);
        while outlier_subspaces.len() < pool {
            let s = distinct_dims(rng, spec.phi, spec.outlier_dims);
            if !outlier_subspaces.contains(&s) {
                outlier_subspaces.push(s);
            }
        }
        Layout {
            spec,
            centers,
            tight,
            outlier_subspaces,
        }
    }

    pub fn normal(&self, rng: &mut Rng) -> Vec<f64> {
        let c = rng.below(self.centers.len());
        (0..self.spec.phi)
            .map(|d| {
                let sigma = if self.tight[c][d] {
                    self.spec.tight_sigma
                } else {
                    self.spec.broad_sigma
                };
                (self.centers[c][d] + rng.gauss() * sigma).clamp(0.0, 1.0)
            })
            .collect()
    }

    /// A normal point whose coordinates in one pooled subspace are moved
    /// into territory no cluster occupies.
    pub fn outlier(&self, rng: &mut Rng) -> Vec<f64> {
        let mut v = self.normal(rng);
        let s = rng.below(self.outlier_subspaces.len());
        for &d in &self.outlier_subspaces[s] {
            v[d] = self.displaced(rng, d);
        }
        v
    }

    fn displaced(&self, rng: &mut Rng, d: usize) -> f64 {
        let gap = self.spec.displacement * self.spec.tight_sigma;
        for _ in 0..32 {
            let v = rng.unit();
            if self.centers.iter().all(|c| (v - c[d]).abs() >= gap) {
                return v;
            }
        }
        let extreme = self.centers.iter().map(|c| c[d]).fold(0.0, f64::max);
        (extreme + gap).min(1.0)
    }
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Normal-only training batch for the learning stage.
    pub train: Vec<DataPoint>,
    /// The detection stream.
    pub stream: Vec<DataPoint>,
    /// `true` where the stream point is a planted outlier.
    pub labels: Vec<bool>,
}

impl Inputs {
    /// FNV-1a over every coordinate's bit pattern and every label, so two
    /// runs can show they measured the same inputs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.train.len() as u64);
        for p in &self.train {
            p.values().iter().for_each(|v| h.word(v.to_bits()));
        }
        h.word(self.stream.len() as u64);
        for (p, &l) in self.stream.iter().zip(&self.labels) {
            p.values().iter().for_each(|v| h.word(v.to_bits()));
            h.word(l as u64);
        }
        h.0
    }

    pub fn outliers(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }
}

/// Generates `train` normal points and a `len`-point labelled stream. With
/// `drift_at = Some(k)`, points from index `k` on come from a second,
/// independently seeded layout (an abrupt concept drift).
pub fn generate(
    spec: StreamSpec,
    seed: u64,
    train: usize,
    len: usize,
    drift_at: Option<usize>,
) -> Inputs {
    let mut rng = Rng::new(seed);
    let before = Layout::new(spec, &mut rng);
    let after = drift_at.map(|_| Layout::new(spec, &mut Rng::new(seed ^ 0xD81F_7C0D_E5A1_3B29)));
    let train = (0..train)
        .map(|_| DataPoint::new(before.normal(&mut rng)))
        .collect();
    let mut stream = Vec::with_capacity(len);
    let mut labels = Vec::with_capacity(len);
    for i in 0..len {
        let layout = match (&after, drift_at) {
            (Some(after), Some(k)) if i >= k => after,
            _ => &before,
        };
        let outlier = rng.unit() < spec.outlier_fraction;
        let v = if outlier {
            layout.outlier(&mut rng)
        } else {
            layout.normal(&mut rng)
        };
        stream.push(DataPoint::new(v));
        labels.push(outlier);
    }
    Inputs {
        train,
        stream,
        labels,
    }
}

/// 64-bit FNV-1a over little-endian words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_values() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_differs() {
        let spec = StreamSpec::new(8, 0.03, 3);
        let a = generate(spec, 7, 100, 1000, Some(300));
        let b = generate(spec, 7, 100, 1000, Some(300));
        let c = generate(spec, 8, 100, 1000, Some(300));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn generator_fingerprints_are_pinned() {
        // Pinned so any edit to the generator shows up as a changed
        // workload rather than as a silent change of the measured inputs.
        let steady = generate(StreamSpec::new(16, 0.02, 2), 1, 200, 2000, None);
        let drift = generate(StreamSpec::new(16, 0.03, 3), 1, 200, 3000, Some(1000));
        assert_eq!(format!("{:016x}", steady.fingerprint()), "08175459aa30d911");
        assert_eq!(format!("{:016x}", drift.fingerprint()), "906e410508c9c17a");
    }

    #[test]
    fn drift_switches_layout_and_labels_track_outliers() {
        let spec = StreamSpec::new(16, 0.03, 3);
        let inputs = generate(spec, 3, 0, 30_000, Some(10_000));
        let share = inputs.outliers() as f64 / inputs.stream.len() as f64;
        assert!((0.025..0.035).contains(&share), "outlier share {share}");
        let mean = |r: std::ops::Range<usize>| {
            let n = r.len() as f64;
            inputs.stream[r].iter().map(|p| p.values()[0]).sum::<f64>() / n
        };
        let (a, b) = (mean(0..10_000), mean(10_000..30_000));
        assert!((a - b).abs() > 1e-3, "layouts should differ: {a} vs {b}");
        assert!(inputs
            .stream
            .iter()
            .all(|p| p.values().iter().all(|v| (0.0..=1.0).contains(v))));
    }
}
