//! Operation tallies, metrics and the one-line JSON result.

use crate::stats::{median, quantile};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (submissions, transactions, checks).
    pub attempted: u64,
    /// Operations whose output missed its check.
    pub failed: u64,
    /// The part of `failed` due to a known fault of the program that
    /// fails the same operation in every round, whatever the seed.
    pub known: u64,
    /// The first failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why its check missed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    /// Records one operation that a known fault of the program fails
    /// every time; see [`Tally::known`].
    pub fn known_fault(&mut self, result: Result<(), String>) {
        if result.is_err() {
            self.known += 1;
        }
        self.check(result);
    }

    /// Records one operation that passes when `ok` holds.
    pub fn expect(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.check(if ok { Ok(()) } else { Err(reason()) });
    }

    /// Adds another tally's counts and reasons.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.known += other.known;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations and their checks.
    pub tally: Tally,
    /// End-to-end metrics (the untraced run reports these).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (only a traced run fills these).
    pub per_layer: Vec<Metric>,
    /// Checks the traced run's probes make after the timed window. They
    /// stay out of `attempted` and `failed`, so that the failed share is
    /// the same in every run however many rounds it held, but any miss
    /// other than a known fault makes the run incorrect.
    pub probes: Tally,
    /// Context lines printed ahead of the result.
    pub notes: Vec<String>,
}

/// Builds a workload's set-up `repeats` times, timing each build in
/// seconds, and keeps the last one.
///
/// # Errors
///
/// The first error a build returns.
pub fn repeated_setup<T>(
    repeats: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats {
        drop(kept.take());
        let start = crate::stats::now();
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(built);
    }
    kept.map(|k| (k, times))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// The end-to-end metrics every workload reports: the median set-up,
/// `operations` per busy second, the median and 90th percentile of the
/// latency samples, and the median recovery.
pub fn end_to_end(
    setup_s: &[f64],
    operations: f64,
    busy_s: f64,
    latencies_us: &[f64],
    recover_ms: &[f64],
) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric("throughput_per_s", "1/s", operations / busy_s),
        metric("latency_p50_us", "us", median(latencies_us)),
        metric("latency_p90_us", "us", quantile(latencies_us, 0.9)),
        metric("recover_ms", "ms", median(recover_ms)),
    ]
}

/// A context line with the quartiles of per-round figures, which shows
/// how much the host's speed moved during the run.
pub fn spread_note(what: &str, values: &[f64]) -> String {
    format!(
        "{what} over {} rounds: q1={:.1} median={:.1} q3={:.1}",
        values.len(),
        quantile(values, 0.25),
        median(values),
        quantile(values, 0.75)
    )
}

/// Renders the final result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`. `correct` speaks of the operations a known
/// fault does not fail, and needs every probe check (`probes`) to pass
/// but those a known fault fails.
/// A metric that is not a finite number makes the run incorrect and is
/// written as `null`.
pub fn result_json(tally: &Tally, probes: &Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == tally.known
        && tally.attempted > 0
        && probes.failed == probes.known
        && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut t = Tally::default();
        t.check(Ok(()));
        let line = result_json(&t, &Tally::default(), &[metric("setup_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_missed_check_or_a_non_finite_value_is_incorrect() {
        let mut t = Tally::default();
        t.check(Err("wrong".into()));
        assert!(result_json(&t, &Tally::default(), &[])
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        let mut ok = Tally::default();
        ok.check(Ok(()));
        let line = result_json(&ok, &Tally::default(), &[metric("x", "ms", f64::NAN)]);
        assert!(line.contains("\"correct\": false") && line.contains("null"));
    }

    #[test]
    fn a_known_fault_counts_as_failed_but_leaves_the_run_correct() {
        let mut t = Tally::default();
        t.check(Ok(()));
        t.known_fault(Err("known".into()));
        assert!(result_json(&t, &Tally::default(), &[])
            .starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 1"));
        let mut probes = Tally::default();
        probes.known_fault(Err("known probe".into()));
        assert!(result_json(&t, &probes, &[]).starts_with("{\"correct\": true, \"attempted\": 2"));
        probes.check(Err("probe".into()));
        assert!(result_json(&t, &probes, &[]).starts_with("{\"correct\": false, \"attempted\": 2"));
        t.check(Err("new".into()));
        assert!(result_json(&t, &Tally::default(), &[]).starts_with("{\"correct\": false"));
    }
}
