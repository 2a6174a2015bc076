//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.

use spot::SpotStats;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, interval (ns since the tracer's epoch), parent
/// span, and the detector counters it moved.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Points the call handled (0 where not applicable).
    pub points: u64,
    /// `SpotStats` after minus before, where the call ran a detector.
    pub delta: Option<SpotStats>,
    /// Host speed factor of the probes around the call (1 = nominal).
    pub factor: f64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. While `enabled` is false, `record` is a no-op, so the
/// same code path runs traced and untraced. `active` marks a traced run:
/// its structural spans ([`Tracer::open`]) are kept even while call spans
/// are paused.
pub struct Tracer {
    epoch: Instant,
    pub active: bool,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            active: enabled,
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished call; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        points: u64,
        delta: Option<SpotStats>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            points,
            delta,
            factor: 1.0,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is set later by [`Tracer::close`], so that
    /// calls made inside it can name it as their parent.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        let enabled = std::mem::replace(&mut self.enabled, self.active);
        let span = self.record(name, start, start, parent, 0, None);
        self.enabled = enabled;
        span
    }

    pub fn close(&mut self, span: Option<usize>, end: Instant, points: u64) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(end);
            self.spans[i].points = points;
        }
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"points\":{},\"factor\":{:.4}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.points,
                s.factor
            )?;
            if let Some(d) = &s.delta {
                write!(
                    out,
                    ",\"delta\":{{\"processed\":{},\"outliers\":{},\"evolutions\":{},\"os_added\":{},\
                     \"drift_events\":{},\"cells_pruned\":{},\"batch_runs\":{},\"overlapped_runs\":{},\
                     \"sweep_nanos\":{},\"commit_nanos\":{}}}",
                    d.processed,
                    d.outliers,
                    d.evolutions,
                    d.os_added,
                    d.drift_events,
                    d.cells_pruned,
                    d.batch_runs,
                    d.overlapped_runs,
                    d.sweep_nanos,
                    d.commit_nanos
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Counter movement between two stats snapshots.
pub fn stats_delta(before: &SpotStats, after: &SpotStats) -> SpotStats {
    SpotStats {
        processed: after.processed - before.processed,
        outliers: after.outliers - before.outliers,
        evolutions: after.evolutions - before.evolutions,
        os_added: after.os_added - before.os_added,
        drift_events: after.drift_events - before.drift_events,
        cells_pruned: after.cells_pruned - before.cells_pruned,
        batch_points: after.batch_points - before.batch_points,
        batch_runs: after.batch_runs - before.batch_runs,
        overlapped_runs: after.overlapped_runs - before.overlapped_runs,
        sweep_nanos: after.sweep_nanos - before.sweep_nanos,
        commit_nanos: after.commit_nanos - before.commit_nanos,
    }
}
