//! What one run prints: metadata, every metric by name and unit, the
//! correctness checks, and the final JSON line.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub meta: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Correctness checks, by name: `true` when passed.
    pub checks: Vec<(String, bool)>,
    /// Operations the workload issued (batches or requests).
    pub ops: u64,
    /// Of those, failed or retried ones.
    pub ops_failed: u64,
}

impl Report {
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, name: impl ToString, passed: bool) {
        self.checks.push((name.to_string(), passed));
    }

    pub fn attempted(&self) -> u64 {
        self.ops + self.checks.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops_failed + self.checks.iter().filter(|(_, ok)| !ok).count() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// Share of attempted operations and checks that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Prints the human-readable lines, then the JSON result as the last
    /// line: end-to-end metrics untraced, per-layer metrics traced.
    pub fn print(&self, traced: bool) {
        for (k, v) in &self.meta {
            println!("meta  {k:<28} {v}");
        }
        for (name, ok) in &self.checks {
            println!("check {name:<40} {}", if *ok { "ok" } else { "FAILED" });
        }
        for m in &self.end_to_end {
            println!("e2e   {:<32} {:>14.6} {}", m.name, m.value, m.unit);
        }
        for m in &self.per_layer {
            println!("layer {:<32} {:>14.6} {}", m.name, m.value, m.unit);
        }
        let shown = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        );
    }
}

/// A finite number in JSON syntax with every digit Rust prints (non-finite
/// values, which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
