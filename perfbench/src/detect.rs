//! The in-process workloads, `detect-steady` and `drift-evolve`: learn,
//! then feed `Spot::process_batch` 256-point batches, timing each call
//! and normalising it by the host-speed probes around its group.

use crate::gen::{generate, Fnv, Inputs, StreamSpec};
use crate::measure::{self, normalise, speed_factor, Probe};
use crate::report::Report;
use crate::served;
use crate::trace::{stats_delta, Tracer};
use spot::synopsis::{Grid, SynopsisManager};
use spot::types::{DataPoint, DomainBounds, Result};
use spot::{EvolutionConfig, LearningReport, Spot, SpotConfig, SpotStats, Verdict};
use std::time::{Duration, Instant};

/// Points per `process_batch` call.
pub const BATCH: usize = 256;
/// Batches between two host-speed probes.
pub const GROUP: usize = 5;
/// Timed samples a run needs so that ten lie beyond its p99.
pub const MIN_SAMPLES: usize = 1010;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Clone, Copy)]
pub enum Kind {
    Steady,
    Drift,
}

/// A workload's inputs and detector configuration.
pub struct Workload {
    pub inputs: Inputs,
    pub config: SpotConfig,
}

impl Kind {
    pub fn workload(self, seed: u64) -> Workload {
        let phi = 16;
        let mut config = SpotConfig::new(DomainBounds::unit(phi));
        let inputs = match self {
            Kind::Steady => generate(StreamSpec::new(phi, 0.02, 2), seed, 10_000, 120_000, None),
            Kind::Drift => {
                config.evolution = EvolutionConfig {
                    period: 250,
                    ..EvolutionConfig::default()
                };
                // 30k training points: the base store then reaches its
                // final table capacity while learning, on every seed. With
                // 10k, insert/prune churn after the drift made the table
                // grow mid-stream on some seeds only, so peak RSS split
                // into two modes ~5 MB apart.
                let len = 60_000;
                generate(
                    StreamSpec::new(phi, 0.03, 3),
                    seed,
                    30_000,
                    len,
                    Some(len / 3),
                )
            }
        };
        Workload { inputs, config }
    }
}

/// Accumulates the timed batches of one or more streams.
pub struct Runner {
    pub probe: Probe,
    pub tracer: Tracer,
    /// Normalised batch times.
    pub batch_ms: Vec<f64>,
    /// Normalised seconds and points of each probe group. In trace mode
    /// the odd groups are traced and the even ones not, so the tracing
    /// overhead is measured within one run.
    pub groups: Vec<(f64, u64)>,
    pub probes: Vec<f64>,
    pub points: u64,
    pub raw_s: f64,
    /// Wall time of the detection loops, probes included.
    pub wall: Duration,
    pub batches: u64,
    /// Batches that returned an error.
    pub errors: u64,
    /// Batches whose verdicts failed the caller's check.
    pub mismatches: u64,
}

/// One batch as the runner saw it: verdicts, or the error.
pub type Step = Result<(Vec<Verdict>, Option<SpotStats>)>;

impl Runner {
    pub fn new(trace: bool) -> Self {
        let mut probe = Probe::new();
        for _ in 0..3 {
            probe.run();
        }
        Runner {
            probe,
            tracer: Tracer::new(trace),
            batch_ms: Vec::new(),
            groups: Vec::new(),
            probes: Vec::new(),
            points: 0,
            raw_s: 0.0,
            wall: Duration::ZERO,
            batches: 0,
            errors: 0,
            mismatches: 0,
        }
    }

    /// Runs `step` over `points` in batches, a probe after every group.
    /// `step(batch, want_delta)` processes one batch. `check(offset,
    /// verdicts)` validates its output. Stops early once `stop` holds
    /// after a group.
    pub fn run(
        &mut self,
        points: &[DataPoint],
        parent: Option<usize>,
        mut step: impl FnMut(&[DataPoint], bool) -> Step,
        mut check: impl FnMut(usize, &[Verdict]) -> bool,
        stop: impl Fn(&Runner) -> bool,
    ) {
        let mut before = self.probe.run();
        let mut offset = 0;
        for group in points.chunks(BATCH * GROUP) {
            let group_start = Instant::now();
            self.tracer.enabled = self.tracer.active && self.groups.len() % 2 == 1;
            let mut timed = Vec::with_capacity(GROUP);
            for batch in group.chunks(BATCH) {
                let t0 = Instant::now();
                let result = step(batch, self.tracer.enabled);
                let t1 = Instant::now();
                self.batches += 1;
                match result {
                    Ok((verdicts, delta)) => {
                        if !check(offset, &verdicts) {
                            self.mismatches += 1;
                        }
                        timed.push((t0, t1, batch.len(), delta));
                    }
                    Err(e) => {
                        eprintln!("process_batch failed: {e}");
                        self.errors += 1;
                    }
                }
                offset += batch.len();
            }
            let after = self.probe.run();
            self.probes.push(after);
            let factor = speed_factor(before, after);
            let mut group_norm = 0.0;
            let mut group_points = 0;
            for (t0, t1, n, delta) in timed {
                let raw = (t1 - t0).as_secs_f64();
                let norm = normalise(raw, before, after);
                self.batch_ms.push(norm * 1e3);
                self.raw_s += raw;
                group_norm += norm;
                group_points += n as u64;
                if let Some(i) =
                    self.tracer
                        .record("process_batch", t0, t1, parent, n as u64, delta)
                {
                    self.tracer.spans[i].factor = factor;
                }
            }
            self.points += group_points;
            self.groups.push((group_norm, group_points));
            before = after;
            self.wall += group_start.elapsed();
            if stop(self) {
                return;
            }
        }
    }

    /// `true` once the loops ran `seconds` of wall time and timed enough
    /// batches for a p99 with ten samples beyond it.
    pub fn measured_enough(&self, seconds: f64) -> bool {
        self.wall.as_secs_f64() >= seconds && self.batch_ms.len() >= MIN_SAMPLES
    }

    /// Verdicts per second at nominal host speed, over the probe groups
    /// with the 5% fastest and 5% slowest time per point left out: a
    /// group the probe misread (a host stall in the batches but not in the
    /// probe, or the reverse) would otherwise move the whole run's rate.
    pub fn pts_s(&self) -> f64 {
        trimmed_rate(&self.groups, 0.05)
    }

    /// Tracing cost: traced (odd) groups' time per point over untraced
    /// (even) ones'.
    pub fn overhead_pct(&self) -> f64 {
        let per_point = |parity: usize| {
            let (s, n) = self
                .groups
                .iter()
                .skip(parity)
                .step_by(2)
                .fold((0.0, 0u64), |(s, n), g| (s + g.0, n + g.1));
            s / n.max(1) as f64
        };
        100.0 * (per_point(1) / per_point(0) - 1.0)
    }

    /// Times `f` with probes just before and after it; returns its
    /// result, raw and normalised seconds.
    pub fn probed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.probe.run();
        let t = Instant::now();
        let r = f();
        let raw = t.elapsed().as_secs_f64();
        let after = self.probe.run();
        (r, raw, normalise(raw, before, after))
    }
}

/// Points per second over `(seconds, points)` groups, leaving out the
/// `trim` share of groups at each end of the time-per-point order.
pub fn trimmed_rate(groups: &[(f64, u64)], trim: f64) -> f64 {
    let mut sorted = groups.to_vec();
    sorted.sort_by(|a, b| (a.0 / a.1 as f64).total_cmp(&(b.0 / b.1 as f64)));
    let cut = (sorted.len() as f64 * trim) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    let points: u64 = kept.iter().map(|g| g.1).sum();
    let seconds: f64 = kept.iter().map(|g| g.0).sum();
    points as f64 / seconds
}

/// Hash of everything a verdict carries, float fields by bit pattern.
pub fn verdict_hash(verdicts: &[Verdict]) -> u64 {
    let mut h = Fnv::new();
    for v in verdicts {
        h.word(v.tick);
        h.word(v.outlier as u64 | (v.drift as u64) << 1);
        h.word(v.score.to_bits());
        for f in &v.findings {
            h.word(f.subspace.mask());
            h.word(f.rd.to_bits());
            h.word(f.irsd.to_bits());
        }
    }
    h.0
}

/// `true` when `verdicts` answer `n` points with ticks `first, first+1, …`.
pub fn contiguous(verdicts: &[Verdict], n: usize, first: u64) -> bool {
    verdicts.len() == n
        && verdicts
            .iter()
            .enumerate()
            .all(|(i, v)| v.tick == first + i as u64)
}

/// Shard, sweep and commit time per point, normalised, from the spans of
/// `process_batch` calls; with the maintenance cost per self-evolution.
pub fn detector_layers(tracer: &Tracer, report: &mut Report) {
    let (mut shard, mut sweep, mut commit, mut points) = (0.0, 0.0, 0.0, 0u64);
    let (mut runs, mut overlapped) = (0u64, 0u64);
    // (evolutions, ms) per batch, for the per-evolution cost.
    let mut batches = Vec::new();
    for s in tracer.named("process_batch") {
        let Some(d) = &s.delta else { continue };
        let ns = s.nanos() as f64 / s.factor;
        let sw = d.sweep_nanos as f64 / s.factor;
        let cm = d.commit_nanos as f64 / s.factor;
        shard += (ns - sw - cm).max(0.0);
        sweep += sw;
        commit += cm;
        points += s.points;
        runs += d.batch_runs;
        overlapped += d.overlapped_runs;
        batches.push((d.evolutions as f64, ns / 1e6));
    }
    let pts = points.max(1) as f64;
    report.layer("synopsis.shard_ns_per_pt", shard / pts, "ns");
    report.layer("detector.sweep_ns_per_pt", sweep / pts, "ns");
    report.layer("detector.commit_ns_per_pt", commit / pts, "ns");
    report.layer(
        "detector.overlapped_run_ratio",
        overlapped as f64 / runs.max(1) as f64,
        "ratio",
    );
    report.layer(
        "maintenance.ms_per_evolution",
        least_squares_slope(&batches),
        "ms",
    );
}

/// Slope of the least-squares line through `(x, y)` points: here the
/// extra batch time per self-evolution in the batch. A fit, not "batches
/// with an evolution minus batches without", because with an evolution
/// period shorter than a batch every batch has one.
pub fn least_squares_slope(xy: &[(f64, f64)]) -> f64 {
    let n = xy.len() as f64;
    let mx = xy.iter().map(|p| p.0).sum::<f64>() / n;
    let my = xy.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = xy.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = xy.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// Replays `points` through a standalone `SynopsisManager` monitoring
/// `subspaces`: the shard phase alone, per point × store, normalised.
pub fn replay_ns_per_update(
    runner: &mut Runner,
    config: &SpotConfig,
    subspaces: &[spot::subspace::Subspace],
    points: &[DataPoint],
) -> Result<f64> {
    let grid = Grid::new(config.bounds.clone(), config.granularity)?;
    let mut manager = SynopsisManager::new(grid, config.time_model);
    for &s in subspaces {
        manager.add_subspace(s);
    }
    let stores = manager.subspace_count();
    let (mut sinks, mut outcomes) = (Vec::new(), Vec::new());
    let (result, _, norm) = runner.probed(|| -> Result<()> {
        let mut tick = 1;
        for batch in points.chunks(BATCH) {
            manager.update_and_query_batch(tick, batch, &mut sinks, &mut outcomes)?;
            tick += batch.len() as u64;
        }
        Ok(())
    });
    result?;
    Ok(norm * 1e9 / (points.len() * stores.max(1)) as f64)
}

pub fn run(kind: Kind, p: &Params, report: &mut Report) -> Result<()> {
    let Workload { inputs, config } = kind.workload(p.seed);
    report.meta(
        "inputs_fingerprint",
        format!("{:016x}", inputs.fingerprint()),
    );
    report.meta("stream_points", inputs.stream.len());
    report.meta("planted_outliers", inputs.outliers());
    let mut runner = Runner::new(p.trace);
    let base_rss = measure::peak_rss_bytes();
    let seconds = p.seconds;

    let mut setup_s = Vec::new();
    let mut learn_s = Vec::new();
    let mut first: Option<FirstPass> = None;
    let mut pass_hashes: Vec<u64> = Vec::new();
    let mut last_sst;
    let mut mismatched_passes = 0;
    let mut passes = 0;
    loop {
        let (mut spot, learned) = setup(
            &mut runner,
            &config,
            &inputs.train,
            &mut setup_s,
            &mut learn_s,
        )?;
        let pass_span = runner.tracer.open("detect_pass", Instant::now(), None);
        let points_before = runner.points;
        let mut tick = spot.now() + 1;
        let mut flags = Vec::new();
        let mut scores = Vec::new();
        let mut hashes = Vec::new();
        let is_first = first.is_none();
        let first_done = !is_first;
        runner.run(
            &inputs.stream,
            pass_span,
            |batch, want| {
                let before = want.then(|| *spot.stats());
                let verdicts = spot.process_batch(batch)?;
                let delta = before.map(|b| stats_delta(&b, spot.stats()));
                Ok((verdicts, delta))
            },
            |offset, verdicts| {
                let n = inputs.stream[offset..].len().min(BATCH);
                let ok = contiguous(verdicts, n, tick);
                tick += verdicts.len() as u64;
                hashes.push(verdict_hash(verdicts));
                if is_first {
                    flags.extend(verdicts.iter().map(|v| v.outlier));
                    scores.extend(verdicts.iter().map(|v| v.score));
                }
                ok
            },
            |r| first_done && r.measured_enough(seconds),
        );
        passes += 1;
        let pass_points = runner.points - points_before;
        runner.tracer.close(pass_span, Instant::now(), pass_points);
        if is_first {
            // The first pass's allocation sequence is fixed by the seed;
            // later passes would add the allocator's fragmentation noise.
            let peak_rss = measure::peak_rss_bytes();
            pass_hashes = hashes;
            let footprint = spot.footprint();
            first = Some(FirstPass {
                peak_rss,
                flags,
                scores,
                stats: *spot.stats(),
                learned,
                sst_len: spot.sst().len(),
                cells: footprint.base_cells + footprint.projected_cells,
                bytes: footprint.approx_bytes,
            });
        } else if hashes.iter().zip(&pass_hashes).any(|(a, b)| a != b) {
            mismatched_passes += 1;
        }
        last_sst = spot.sst().iter_all().collect::<Vec<_>>();
        if runner.measured_enough(seconds) {
            break;
        }
    }
    while setup_s.len() < SETUPS {
        setup(
            &mut runner,
            &config,
            &inputs.train,
            &mut setup_s,
            &mut learn_s,
        )?;
    }
    let first = first.expect("at least one pass ran");

    report.meta("passes", passes);
    report.meta("batches_timed", runner.batch_ms.len());
    report.ops = runner.batches;
    report.ops_failed = runner.errors;
    report.check(
        "every point one verdict, contiguous ticks",
        runner.mismatches == 0,
    );
    report.check("passes bitwise identical", mismatched_passes == 0);
    report.check(
        "first pass covered the stream",
        first.flags.len() == inputs.stream.len(),
    );

    end_to_end(report, &runner, &first, &inputs, &setup_s, base_rss);
    common_meta(report, &runner);

    if p.trace {
        detector_layers(&runner.tracer, report);
        let replay = &inputs.stream[..inputs.stream.len().min(30_000)];
        let ns = replay_ns_per_update(&mut runner, &config, &last_sst, replay)?;
        report.layer("synopsis.ns_per_update", ns, "ns");
        report.layer("synopsis.stores", first.sst_len as f64, "count");
        report.layer("synopsis.live_cells", first.cells as f64, "count");
        report.layer("synopsis.bytes", first.bytes as f64, "bytes");
        maintenance_layers(report, &first.stats);
        learning_layers(report, &learn_s, &first.learned);
        host_layers(report, &runner);
        // The service layers, measured on this workload's points through
        // a one-tenant durable server.
        let n = inputs.stream.len().min(40_000);
        let sidecar = Inputs {
            train: inputs.train.clone(),
            stream: inputs.stream[..n].to_vec(),
            labels: inputs.labels[..n].to_vec(),
        };
        served::service_layers(&config, &sidecar, kind_name(kind), p.seed, report)?;
        write_trace(&runner.tracer, kind_name(kind), p.seed);
    }
    Ok(())
}

pub fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Steady => "detect-steady",
        Kind::Drift => "drift-evolve",
    }
}

/// What the first (always complete) pass leaves for scoring and counts.
struct FirstPass {
    peak_rss: Option<u64>,
    flags: Vec<bool>,
    scores: Vec<f64>,
    stats: SpotStats,
    learned: LearningReport,
    sst_len: usize,
    cells: usize,
    bytes: usize,
}

/// Builds and teaches one detector, timing it between two probes.
fn setup(
    runner: &mut Runner,
    config: &SpotConfig,
    train: &[DataPoint],
    setup_s: &mut Vec<f64>,
    learn_s: &mut Vec<f64>,
) -> Result<(Spot, LearningReport)> {
    runner.tracer.enabled = runner.tracer.active;
    let before = runner.probe.run();
    let t0 = Instant::now();
    let mut spot = Spot::new(config.clone())?;
    let t1 = Instant::now();
    let learned = spot.learn(train)?;
    let t2 = Instant::now();
    let after = runner.probe.run();
    setup_s.push(normalise((t2 - t0).as_secs_f64(), before, after));
    learn_s.push(normalise((t2 - t1).as_secs_f64(), before, after));
    let parent = runner.tracer.record("setup", t0, t2, None, 0, None);
    runner.tracer.record("construct", t0, t1, parent, 0, None);
    runner
        .tracer
        .record("learn", t1, t2, parent, train.len() as u64, None);
    Ok((spot, learned))
}

fn end_to_end(
    report: &mut Report,
    runner: &Runner,
    first: &FirstPass,
    inputs: &Inputs,
    setup_s: &[f64],
    base_rss: Option<u64>,
) {
    let mut sorted = runner.batch_ms.clone();
    sorted.sort_by(f64::total_cmp);
    report.e2e("pts_s", runner.pts_s(), "1/s");
    report.e2e("verdict_p50_ms", measure::percentile(&sorted, 50.0), "ms");
    report.e2e("verdict_p99_ms", measure::percentile(&sorted, 99.0), "ms");
    let labels = &inputs.labels[..first.flags.len()];
    report.e2e("f1", measure::f1(&first.flags, labels), "ratio");
    report.e2e("auc", measure::auc(&first.scores, labels), "ratio");
    report.e2e("setup_s", measure::median(setup_s), "s");
    report.e2e("peak_rss_mb", rss_mb(base_rss, first.peak_rss), "MB");
    report.e2e("ok_ratio", report.ok_ratio(), "ratio");
    report.meta("latency_samples", sorted.len());
    if let Some(p) = measure::highest_supported_percentile(sorted.len()) {
        report.meta(
            "highest_supported_percentile",
            format!("p{p} = {:.4} ms", measure::percentile(&sorted, p)),
        );
    }
    report.meta(
        "raw_pts_s",
        format!("{:.1}", runner.points as f64 / runner.raw_s),
    );
}

/// Peak resident set above the baseline, in MiB.
pub fn rss_mb(base: Option<u64>, peak: Option<u64>) -> f64 {
    match (base, peak) {
        (Some(b), Some(p)) => p.saturating_sub(b) as f64 / (1u64 << 20) as f64,
        _ => 0.0,
    }
}

pub fn common_meta(report: &mut Report, runner: &Runner) {
    report.meta("nominal_probe_ms", measure::NOMINAL_PROBE_MS);
    report.meta(
        "measured_probe_ms",
        format!("{:.4}", measure::median(&runner.probes)),
    );
}

pub fn maintenance_layers(report: &mut Report, stats: &SpotStats) {
    report.layer("maintenance.evolutions", stats.evolutions as f64, "count");
    report.layer("maintenance.os_added", stats.os_added as f64, "count");
    report.layer(
        "maintenance.drift_events",
        stats.drift_events as f64,
        "count",
    );
    report.layer(
        "maintenance.cells_pruned",
        stats.cells_pruned as f64,
        "count",
    );
}

pub fn learning_layers(report: &mut Report, learn_s: &[f64], learned: &LearningReport) {
    report.layer("learning.learn_s", measure::median(learn_s), "s");
    report.layer(
        "learning.moga_evaluations",
        learned.moga_evaluations as f64,
        "count",
    );
    report.layer(
        "learning.od_candidates",
        learned.od_candidates as f64,
        "count",
    );
}

pub fn host_layers(report: &mut Report, runner: &Runner) {
    report.layer("host.probe_ms", measure::median(&runner.probes), "ms");
    report.layer("host.raw_pts_s", runner.points as f64 / runner.raw_s, "1/s");
    report.layer("trace.overhead_pct", runner.overhead_pct(), "%");
}

pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) {
    let path = crate::out_dir().join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_rate_drops_misread_groups() {
        // Twenty groups of 1000 points at 1 ms per point, one misread at
        // 10x: the trimmed rate ignores it, the plain rate would not.
        let mut groups = vec![(1.0, 1000); 20];
        groups[7] = (10.0, 1000);
        assert_eq!(trimmed_rate(&groups, 0.05), 1000.0);
        assert_eq!(trimmed_rate(&groups, 0.0), 20_000.0 / 29.0);
    }

    #[test]
    fn evolution_cost_is_the_fitted_slope() {
        // 2 ms per batch plus 3 ms per evolution, batches with 1 or 2.
        let batches = [(1.0, 5.0), (2.0, 8.0), (1.0, 5.0), (2.0, 8.0)];
        assert!((least_squares_slope(&batches) - 3.0).abs() < 1e-12);
        assert_eq!(least_squares_slope(&[(1.0, 5.0), (1.0, 6.0)]), 0.0);
    }
}
