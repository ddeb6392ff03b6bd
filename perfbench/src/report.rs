//! The run's verdict and its one-line JSON result.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics `BENCHMARK.json` lists: printed and in the JSON result.
    pub metrics: Vec<Metric>,
    /// Further figures, printed by name but left out of the JSON result.
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed: the result is printed with
    /// `"correct": false` and the run exits non-zero.
    pub failures: Vec<String>,
    /// Validity conditions that failed: the measurement is not a
    /// measurement of the program, so no result is printed at all.
    pub rejections: Vec<String>,
}

impl Outcome {
    pub fn new(metrics: Vec<Metric>) -> Outcome {
        Outcome {
            metrics,
            ..Outcome::default()
        }
    }

    pub fn fail(&mut self, why: &str) {
        self.failures.push(why.to_string());
    }

    pub fn reject(&mut self, why: &str) {
        self.rejections.push(why.to_string());
    }

    /// Print every metric by name, then the verdict; returns the exit
    /// code (0 only for a correct, valid run).
    pub fn finish(mut self) -> i32 {
        for m in &self.metrics {
            println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            if !m.value.is_finite() {
                self.rejections
                    .push(format!("{} is not a finite measurement", m.name));
            }
        }
        for m in &self.extra {
            println!("{:<36} {:>16.6} {} (not gated)", m.name, m.value, m.unit);
        }
        for why in &self.failures {
            println!("CHECK FAILED: {why}");
        }
        if !self.rejections.is_empty() {
            for why in &self.rejections {
                println!("RUN REJECTED: {why}");
            }
            return 2;
        }
        println!("{}", self.json());
        if self.failures.is_empty() {
            0
        } else {
            1
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
