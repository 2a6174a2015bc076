//! The served workload, `served-durable`: tenants behind `SpotServer`
//! with the ingestion WAL, a checkpoint store, a verdict sink that
//! archives, and delta checkpoints — driven by one closed-loop client.
//! Served timings wait on sockets, sleeps and threads, so they stay raw.

use crate::detect::{self, contiguous, Params, Runner, MIN_SAMPLES};
use crate::gen::{generate, Fnv, Inputs, StreamSpec};
use crate::measure::{self, percentile};
use crate::report::Report;
use crate::trace::stats_delta;
use spot::types::{DomainBounds, Result, TenantId};
use spot::{LearningReport, SpotConfig, SpotStats};
use spot_runtime::{CheckpointStore, FleetConfig, SpotFleet, VerdictArchive, WalTuning};
use spot_serve::{ServeClient, ServeConfig, SpotServer, VerdictSink};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const PHI: usize = 8;
const TRAIN: usize = 4_000;
/// Points per ingest request.
const REQUEST: usize = 64;
/// Requests between two delta checkpoints; also the block that gets one
/// host-speed probe and, in trace mode, alternates traced and untraced.
const CKPT_EVERY: u64 = 64;
/// In traced blocks, one `GET /tenants/{id}/stats` per this many requests.
const STATS_EVERY: u64 = 8;
/// Verdicts per tenant that F1/AUC score (a prefix every run reaches, so
/// the score does not depend on how far a run got).
const SCORE_PREFIX: usize = 20_000;
/// Stacks built per run; `setup_s` is the median of their set-up times.
const SETUPS: usize = 5;
/// How long the client waits for a request's verdicts before it counts
/// the request as failed.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(10);

/// One tenant: its id, detector configuration and generated inputs.
pub struct Tenant {
    pub id: TenantId,
    pub config: SpotConfig,
    pub inputs: Inputs,
}

/// What the verdict sink saw, per tenant.
struct Delivery {
    delivered: Vec<usize>,
    last_at: Vec<Option<Instant>>,
    next_tick: Vec<Option<u64>>,
    tick_breaks: u64,
    strangers: u64,
    archives: Vec<VerdictArchive>,
    archive_ns: u128,
    archived: u64,
    archive_errors: u64,
}

struct SinkShared {
    ids: Vec<TenantId>,
    state: Mutex<Delivery>,
    cv: Condvar,
}

impl SinkShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Delivery> {
        self.state.lock().expect("a sink thread panicked")
    }
}

/// The verdict sink: stamps arrival, checks tick contiguity, appends to
/// the tenant's archive, and wakes the client.
fn verdict_sink(shared: Arc<SinkShared>) -> VerdictSink {
    Arc::new(move |id, verdicts| {
        let at = Instant::now();
        let mut d = shared.lock();
        let Some(i) = shared.ids.iter().position(|x| x == id) else {
            d.strangers += 1;
            return;
        };
        if let (Some(first), Some(last)) = (verdicts.first(), verdicts.last()) {
            let expected = d.next_tick[i].unwrap_or(first.tick);
            if !contiguous(verdicts, verdicts.len(), expected) {
                d.tick_breaks += 1;
            }
            d.next_tick[i] = Some(last.tick + 1);
        }
        let t = Instant::now();
        if d.archives[i].append(verdicts).is_err() {
            d.archive_errors += 1;
        }
        d.archive_ns += t.elapsed().as_nanos();
        d.archived += verdicts.len() as u64;
        d.delivered[i] += verdicts.len();
        d.last_at[i] = Some(at);
        drop(d);
        shared.cv.notify_all();
    })
}

/// A running durable server over a learned fleet.
struct Stack {
    server: SpotServer,
    fleet: SpotFleet,
    sink: Arc<SinkShared>,
    learned: Vec<LearningReport>,
    learn_raw_s: f64,
}

fn build_stack(tenants: &[Tenant], dir: &Path) -> Result<Stack> {
    let fleet = SpotFleet::with_workers(FleetConfig::default(), Some(0));
    let mut learned = Vec::new();
    let mut learn_raw_s = 0.0;
    for t in tenants {
        fleet.register(t.id.clone(), t.config.clone())?;
        let start = Instant::now();
        learned.push(fleet.learn(&t.id, &t.inputs.train)?);
        learn_raw_s += start.elapsed().as_secs_f64();
    }
    let store = CheckpointStore::open(dir, 4)?;
    fleet.enable_wal(dir.join("wal"), WalTuning::default())?;
    let archives = (0..tenants.len())
        .map(|i| VerdictArchive::open(archive_dir(dir, i)))
        .collect::<Result<Vec<_>>>()?;
    let n = tenants.len();
    let sink = Arc::new(SinkShared {
        ids: tenants.iter().map(|t| t.id.clone()).collect(),
        state: Mutex::new(Delivery {
            delivered: vec![0; n],
            last_at: vec![None; n],
            next_tick: vec![None; n],
            tick_breaks: 0,
            strangers: 0,
            archives,
            archive_ns: 0,
            archived: 0,
            archive_errors: 0,
        }),
        cv: Condvar::new(),
    });
    let server = SpotServer::builder(fleet.clone())
        .config(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .verdict_sink(verdict_sink(Arc::clone(&sink)))
        .store(store)
        .bind("127.0.0.1:0")?;
    Ok(Stack {
        server,
        fleet,
        sink,
        learned,
        learn_raw_s,
    })
}

fn archive_dir(dir: &Path, tenant: usize) -> PathBuf {
    dir.join("archive").join(format!("t{tenant}"))
}

/// Everything one served session measured.
#[derive(Default)]
pub struct Session {
    pub latency_ms: Vec<f64>,
    pub rtt_ms: Vec<f64>,
    pub deliver_ms: Vec<f64>,
    pub ckpt_ms: Vec<f64>,
    pub stats_ms: Vec<f64>,
    pub wall_s: f64,
    pub delivered: u64,
    pub setup_s: Vec<f64>,
    pub learn_s: Vec<f64>,
    pub learned: Vec<LearningReport>,
    pub backpressure: u64,
    pub wal_bytes_per_pt: f64,
    pub ckpt_delta_bytes: f64,
    pub archive_us_per_verdict: f64,
    pub recover_ms: f64,
    pub rss_mb: f64,
    pub f1: f64,
    pub auc: f64,
    /// Logical counters summed over the live fleet's tenants.
    pub stats: SpotStats,
    pub stores: usize,
    pub cells: usize,
    pub bytes: usize,
    /// SST of the first tenant at the end of the run.
    pub sst: Vec<spot::subspace::Subspace>,
    /// Points served to the first tenant.
    pub served_first: usize,
    /// Wall seconds and points of traced / untraced request blocks.
    pub traced: (f64, u64),
    pub untraced: (f64, u64),
    pub wal_fs: String,
}

impl Session {
    pub fn pts_s(&self) -> f64 {
        self.delivered as f64 / self.wall_s
    }

    pub fn overhead_pct(&self) -> f64 {
        let per = |(s, n): (f64, u64)| s / n.max(1) as f64;
        100.0 * (per(self.traced) / per(self.untraced) - 1.0)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets up `setups` stacks (keeping the last), drives the closed loop for
/// `seconds`, shuts down, and checks the archive against an in-process
/// fleet and recovery against the live fleet.
pub fn session(
    tenants: &[Tenant],
    runner: &mut Runner,
    seconds: f64,
    setups: usize,
    report: &mut Report,
) -> Result<Session> {
    let mut s = Session::default();
    let root = crate::out_dir().join(format!("state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let base_rss = measure::peak_rss_bytes();

    // Set up `setups` times; each set-up retires the one before it.
    let mut stack: Option<Stack> = None;
    let mut dir = root.clone();
    for k in 0..setups {
        let next = root.join(format!("setup{k}"));
        let (built, raw, norm) = runner.probed(|| build_stack(tenants, &next));
        let built = built?;
        s.setup_s.push(norm);
        s.learn_s.push(built.learn_raw_s * norm / raw);
        if let Some(old) = stack.replace(built) {
            old.server.shutdown()?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = next;
    }
    let stack = stack.expect("at least one set-up");
    s.wal_fs = fs_type(&dir);
    s.learned = stack.learned.clone();

    let offsets = closed_loop(tenants, &stack, &dir, runner, seconds, report, &mut s);
    s.rss_mb = detect::rss_mb(base_rss, measure::peak_rss_bytes());

    // Shut down: the final drain and durable checkpoint.
    let live = stack.fleet.clone();
    let sink = Arc::clone(&stack.sink);
    let shutdown = stack.server.shutdown()?;
    report.check(
        "shutdown drained every tenant",
        shutdown.undrained.is_empty(),
    );
    {
        let mut d = sink.lock();
        let archives = std::mem::take(&mut d.archives);
        for mut archive in archives {
            d.archive_errors += u64::from(archive.sync().is_err());
        }
        let all_delivered = d.delivered.iter().zip(&offsets).all(|(a, b)| a == b);
        report.check(
            "served: every point one verdict, contiguous ticks",
            d.tick_breaks == 0 && d.strangers == 0 && all_delivered,
        );
        report.check("verdict archive appends", d.archive_errors == 0);
        s.archive_us_per_verdict = d.archive_ns as f64 / 1e3 / d.archived.max(1) as f64;
    }
    for (i, t) in tenants.iter().enumerate() {
        s.stats = add_stats(&s.stats, &live.tenant_stats(&t.id)?);
        let (stores, sst) = live.with_tenant(&t.id, |spot| {
            (spot.sst().len(), spot.sst().iter_all().collect::<Vec<_>>())
        })?;
        s.stores += stores;
        if i == 0 {
            s.sst = sst;
        }
    }
    let footprint = live.footprint();
    s.cells = footprint.base_cells + footprint.projected_cells;
    s.bytes = footprint.approx_bytes;
    s.served_first = offsets[0];
    s.ckpt_delta_bytes = mean_file_size(&dir, "dck");

    verify_archive(tenants, &offsets, &dir, runner, report, &mut s)?;

    let t = Instant::now();
    let recovered = SpotFleet::recover(&dir, FleetConfig::default());
    s.recover_ms = ms(t.elapsed());
    let recovered_ok = match recovered {
        Ok((fleet, _)) => tenants.iter().all(|t| {
            matches!((fleet.tenant_stats(&t.id), live.tenant_stats(&t.id)),
                (Ok(a), Ok(b)) if a == b)
        }),
        Err(e) => {
            eprintln!("recovery failed: {e}");
            false
        }
    };
    report.check("recovered fleet has the live fleet's stats", recovered_ok);
    let _ = std::fs::remove_dir_all(&root);
    Ok(s)
}

/// One connection, one 64-point request in flight, round-robin across
/// tenants; each request completes when the sink has its last verdict.
/// Returns the points served per tenant.
fn closed_loop(
    tenants: &[Tenant],
    stack: &Stack,
    dir: &Path,
    runner: &mut Runner,
    seconds: f64,
    report: &mut Report,
    s: &mut Session,
) -> Vec<usize> {
    let mut client = ServeClient::new(stack.server.local_addr());
    let mut offsets = vec![0usize; tenants.len()];
    let loop_span = runner.tracer.open("closed_loop", Instant::now(), None);
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut req: u64 = 0;
    loop {
        let t = (req % tenants.len() as u64) as usize;
        let tenant = &tenants[t];
        let off = offsets[t];
        if off + REQUEST > tenant.inputs.stream.len() {
            eprintln!("stream exhausted after {req} requests");
            break;
        }
        let traced = runner.tracer.active && (req / CKPT_EVERY) % 2 == 1;
        let mut probe_time = Duration::ZERO;
        runner.tracer.enabled = traced;
        let t_send = Instant::now();
        let result = client.ingest(&tenant.id, &tenant.inputs.stream[off..off + REQUEST]);
        let t_ack = Instant::now();
        report.ops += 1;
        match result {
            Ok(r) => {
                s.backpressure += u64::from(r.backpressure_hits);
                report.ops_failed += u64::from(r.backpressure_hits + r.unavailable_hits);
                if r.enqueued != REQUEST as u64 {
                    report.ops_failed += 1;
                    break;
                }
            }
            Err(e) => {
                eprintln!("ingest failed: {e}");
                report.ops_failed += 1;
                break;
            }
        }
        let target = off + REQUEST;
        let delivered_at = {
            let mut d = stack.sink.lock();
            while d.delivered[t] < target && t_ack.elapsed() < DELIVERY_TIMEOUT {
                d = stack
                    .sink
                    .cv
                    .wait_timeout(d, Duration::from_millis(100))
                    .expect("a sink thread panicked")
                    .0;
            }
            (d.delivered[t] >= target).then_some(d.last_at[t]).flatten()
        };
        let Some(at) = delivered_at else {
            eprintln!("verdicts for request {req} never reached the sink");
            report.ops_failed += 1;
            break;
        };
        s.latency_ms.push(ms(at.saturating_duration_since(t_send)));
        s.rtt_ms.push(ms(t_ack - t_send));
        s.deliver_ms.push(ms(at.saturating_duration_since(t_ack)));
        let ingest = runner
            .tracer
            .record("ingest", t_send, t_ack, loop_span, REQUEST as u64, None);
        runner.tracer.record(
            "deliver",
            t_ack,
            at.max(t_ack),
            ingest,
            REQUEST as u64,
            None,
        );
        offsets[t] = target;
        s.delivered += REQUEST as u64;
        req += 1;

        if traced && req.is_multiple_of(STATS_EVERY) {
            let t0 = Instant::now();
            let ok = client.tenant_stats(&tenant.id).is_ok();
            let t1 = Instant::now();
            report.ops += 1;
            report.ops_failed += u64::from(!ok);
            s.stats_ms.push(ms(t1 - t0));
            runner
                .tracer
                .record("stats_get", t0, t1, loop_span, 0, None);
        }
        if req.is_multiple_of(CKPT_EVERY) {
            // A host-speed probe per checkpoint period, for the record
            // only: served timings stay raw, and the probe's time is
            // excluded from the loop's wall time.
            let t0 = Instant::now();
            runner.probes.push(runner.probe.run());
            probe_time = t0.elapsed();
            excluded += probe_time;
            if s.ckpt_ms.is_empty() {
                // Before the first checkpoint nothing is pruned yet, so
                // the log holds every record written so far.
                s.wal_bytes_per_pt = dir_bytes(&dir.join("wal")) as f64 / s.delivered as f64;
            }
            let t0 = Instant::now();
            let ok = client.checkpoint_delta().is_ok();
            let t1 = Instant::now();
            report.ops += 1;
            report.ops_failed += u64::from(!ok);
            s.ckpt_ms.push(ms(t1 - t0));
            runner
                .tracer
                .record("ckpt_delta", t0, t1, loop_span, 0, None);
        }
        let side = if traced {
            &mut s.traced
        } else {
            &mut s.untraced
        };
        side.0 += (t_send.elapsed() - probe_time).as_secs_f64();
        side.1 += REQUEST as u64;
        if start.elapsed().as_secs_f64() >= seconds && s.latency_ms.len() >= MIN_SAMPLES {
            break;
        }
    }
    s.wall_s = (start.elapsed() - excluded).as_secs_f64();
    runner.tracer.close(loop_span, Instant::now(), s.delivered);
    offsets
}

/// Replays each tenant's archive and compares it, verdict by verdict, to
/// an in-process fleet run over the same points; scores the prefix.
fn verify_archive(
    tenants: &[Tenant],
    offsets: &[usize],
    dir: &Path,
    runner: &mut Runner,
    report: &mut Report,
    s: &mut Session,
) -> Result<()> {
    let reference = SpotFleet::with_workers(FleetConfig::default(), Some(0));
    let mismatches_before = runner.mismatches;
    let errors_before = runner.errors;
    let mut complete = true;
    let (mut flags, mut scores, mut labels) = (Vec::new(), Vec::new(), Vec::new());
    for (i, t) in tenants.iter().enumerate() {
        reference.register(t.id.clone(), t.config.clone())?;
        reference.learn(&t.id, &t.inputs.train)?;
        let archived = VerdictArchive::replay(archive_dir(dir, i))?.verdicts;
        let points = &t.inputs.stream[..offsets[i]];
        complete &= archived.len() == points.len();
        let span = runner.tracer.open("reference_replay", Instant::now(), None);
        runner.run(
            points,
            span,
            |batch, want| {
                let before = if want {
                    Some(reference.tenant_stats(&t.id)?)
                } else {
                    None
                };
                let verdicts = reference.process_batch(&t.id, batch)?;
                let delta = match before {
                    Some(b) => Some(stats_delta(&b, &reference.tenant_stats(&t.id)?)),
                    None => None,
                };
                Ok((verdicts, delta))
            },
            |offset, verdicts| {
                archived
                    .get(offset..offset + verdicts.len())
                    .is_some_and(|a| a.iter().zip(verdicts).all(|(a, b)| a.bitwise_eq(b)))
            },
            |_| false,
        );
        runner
            .tracer
            .close(span, Instant::now(), points.len() as u64);
        let n = archived.len().min(SCORE_PREFIX);
        flags.extend(archived[..n].iter().map(|v| v.outlier));
        scores.extend(archived[..n].iter().map(|v| v.score));
        labels.extend_from_slice(&t.inputs.labels[..n]);
    }
    report.check(
        "archived verdicts bitwise equal to an in-process fleet",
        complete && runner.mismatches == mismatches_before && runner.errors == errors_before,
    );
    report.check(
        "score prefix reached on every tenant",
        offsets.iter().all(|&o| o >= SCORE_PREFIX),
    );
    s.f1 = measure::f1(&flags, &labels);
    s.auc = measure::auc(&scores, &labels);
    Ok(())
}

fn add_stats(a: &SpotStats, b: &SpotStats) -> SpotStats {
    SpotStats {
        processed: a.processed + b.processed,
        outliers: a.outliers + b.outliers,
        evolutions: a.evolutions + b.evolutions,
        os_added: a.os_added + b.os_added,
        drift_events: a.drift_events + b.drift_events,
        cells_pruned: a.cells_pruned + b.cells_pruned,
        ..SpotStats::default()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn mean_file_size(dir: &Path, ext: &str) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == ext))
        .filter_map(|e| e.metadata().ok().map(|m| m.len()))
        .collect();
    sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn tenant_id(name: String) -> TenantId {
    TenantId::new(name).expect("benchmark tenant ids are valid")
}

/// The service-layer metrics of a session.
fn service_layers_of(report: &mut Report, s: &Session) {
    report.layer("runtime.ingest_rtt_ms", measure::median(&s.rtt_ms), "ms");
    report.layer("runtime.deliver_ms", measure::median(&s.deliver_ms), "ms");
    report.layer(
        "runtime.archive_us_per_verdict",
        s.archive_us_per_verdict,
        "us",
    );
    report.layer("runtime.ckpt_delta_ms", measure::median(&s.ckpt_ms), "ms");
    report.layer("runtime.ckpt_delta_bytes", s.ckpt_delta_bytes, "bytes");
    report.layer("runtime.wal_bytes_per_pt", s.wal_bytes_per_pt, "bytes");
    report.layer("runtime.recover_ms", s.recover_ms, "ms");
    report.layer("serve.floor_ms", measure::median(&s.stats_ms), "ms");
    report.layer("serve.backpressure_hits", s.backpressure as f64, "count");
}

/// Seconds of closed-loop load a traced in-process run spends measuring
/// the service layers on its own workload.
const SIDECAR_SECONDS: f64 = 1.5;

/// The service layers on an in-process workload's configuration and
/// points: a one-tenant durable server, traced, for a short session.
pub fn service_layers(
    config: &SpotConfig,
    inputs: &Inputs,
    workload: &str,
    seed: u64,
    report: &mut Report,
) -> Result<()> {
    let tenants = [Tenant {
        id: tenant_id("sidecar".to_string()),
        config: config.clone(),
        inputs: inputs.clone(),
    }];
    let mut runner = Runner::new(true);
    let mut scratch = Report::default();
    let s = session(&tenants, &mut runner, SIDECAR_SECONDS, 1, &mut scratch)?;
    report.ops += scratch.ops;
    report.ops_failed += scratch.ops_failed;
    for (name, ok) in scratch.checks {
        report.check(format!("service layers: {name}"), ok);
    }
    service_layers_of(report, &s);
    detect::write_trace(&runner.tracer, &format!("{workload}-service"), seed);
    Ok(())
}

pub fn run(p: &Params, report: &mut Report) -> Result<()> {
    let len = ((p.seconds * 12_500.0) as usize).clamp(SCORE_PREFIX + 5_000, 1_000_000);
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|i| {
            let mut config = SpotConfig::new(DomainBounds::unit(PHI));
            config.seed = 42 + i as u64;
            let seed = p
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            Tenant {
                id: tenant_id(format!("tenant-{i}")),
                config,
                inputs: generate(StreamSpec::new(PHI, 0.02, 2), seed, TRAIN, len, None),
            }
        })
        .collect();
    let mut fp = Fnv::new();
    tenants.iter().for_each(|t| fp.word(t.inputs.fingerprint()));
    report.meta("inputs_fingerprint", format!("{:016x}", fp.0));
    report.meta("tenants", TENANTS);
    report.meta("stream_points_per_tenant", len);

    let mut runner = Runner::new(p.trace);
    let s = session(&tenants, &mut runner, p.seconds, SETUPS, report)?;

    let mut sorted = s.latency_ms.clone();
    sorted.sort_by(f64::total_cmp);
    report.e2e("pts_s", s.pts_s(), "1/s");
    report.e2e("verdict_p50_ms", percentile(&sorted, 50.0), "ms");
    report.e2e("verdict_p99_ms", percentile(&sorted, 99.0), "ms");
    report.e2e("f1", s.f1, "ratio");
    report.e2e("auc", s.auc, "ratio");
    report.e2e("setup_s", measure::median(&s.setup_s), "s");
    report.e2e("peak_rss_mb", s.rss_mb, "MB");
    report.e2e("ok_ratio", report.ok_ratio(), "ratio");
    report.meta("latency_samples", sorted.len());
    if let Some(q) = measure::highest_supported_percentile(sorted.len()) {
        report.meta(
            "highest_supported_percentile",
            format!("p{q} = {:.4} ms", percentile(&sorted, q)),
        );
    }
    report.meta("wal_fs", &s.wal_fs);
    report.meta("requests", s.latency_ms.len());
    detect::common_meta(report, &runner);

    if p.trace {
        detect::detector_layers(&runner.tracer, report);
        let first = &tenants[0];
        let replay = &first.inputs.stream[..s.served_first.min(30_000)];
        let ns = detect::replay_ns_per_update(&mut runner, &first.config, &s.sst, replay)?;
        report.layer("synopsis.ns_per_update", ns, "ns");
        report.layer("synopsis.stores", s.stores as f64, "count");
        report.layer("synopsis.live_cells", s.cells as f64, "count");
        report.layer("synopsis.bytes", s.bytes as f64, "bytes");
        detect::maintenance_layers(report, &s.stats);
        let learned = LearningReport {
            training_points: s.learned.iter().map(|l| l.training_points).sum(),
            od_candidates: s.learned.iter().map(|l| l.od_candidates).sum(),
            cs: Vec::new(),
            os: Vec::new(),
            moga_evaluations: s.learned.iter().map(|l| l.moga_evaluations).sum(),
        };
        detect::learning_layers(report, &s.learn_s, &learned);
        service_layers_of(report, &s);
        report.layer("host.probe_ms", measure::median(&runner.probes), "ms");
        report.layer("host.raw_pts_s", s.pts_s(), "1/s");
        report.layer("trace.overhead_pct", s.overhead_pct(), "%");
        detect::write_trace(&runner.tracer, "served-durable", p.seed);
    }
    Ok(())
}
