//! What one run found: host facts, per-phase operation counts, output
//! checks and metrics. Workloads file their findings here as they go; it
//! is written to a results file and summarised in the one-line JSON
//! verdict the run prints last.

use crate::common::{count, durations_ms};
use crate::stats::median;
use crate::trace::{self_times, Span};
use geo_bench::json::{get, quote, Parser, Value};
use geo_core::GeoError;

/// Results-file schema tag; bump when a field changes meaning.
pub const SCHEMA: &str = "geo-perfbench/1";

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value was taken from.
    pub n: usize,
    pub kind: Kind,
}

/// The end-to-end metrics: every workload's untraced verdict carries each
/// of them, and `BENCHMARK.json` lists the same names.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "peak_rss_mib",
    "infer_b1_ms_p50",
    "batch_img_per_s",
];

/// The modules whose share of a traced run's wall time is reported as
/// `<layer>.self_pct`.
pub const LAYERS: [&str; 6] = ["nn", "arch", "exec", "engine", "serve", "training"];

/// The per-layer metrics: every workload's traced verdict carries each of
/// them, and `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [&str; 35] = [
    "nn.build_ms",
    "arch.compile_ms",
    "arch.artifact_encode_ms",
    "arch.artifact_bytes",
    "exec.load_ms",
    "arch.sim_cycles",
    "arch.sim_uj_per_frame",
    "arch.host_ns_per_sim_cycle",
    "engine.prepare_cold_ms",
    "engine.prepare_warm_ms",
    "tables.build_ms",
    "engine.prepared_mib",
    "engine.forward_b1_ms",
    "engine.forward_b8_ms",
    "engine.ns_per_mac",
    "bench.setup_self_ms",
    "nn.self_pct",
    "arch.self_pct",
    "exec.self_pct",
    "engine.self_pct",
    "serve.self_pct",
    "training.self_pct",
    "traced.setup_s",
    "traced.peak_rss_mib",
    "traced.infer_b1_ms_p50",
    "traced.batch_img_per_s",
    "host.nproc",
    "host.threads",
    "host.load1_start",
    "host.load1_end",
    "host.calib_ms",
    "host.steal_pct",
    "trace.spans",
    "trace.span_ns",
    "trace.overhead_pct",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One of [`END_TO_END`], in the verdict of untraced runs.
    EndToEnd,
    /// One of [`PER_LAYER`], in the verdict of traced runs.
    Layer,
    /// A figure only some workloads have, or one too unsteady on a shared
    /// host to gate on: printed and stored, but in no verdict.
    Extra,
}

impl Kind {
    const ALL: [(Kind, &'static str); 3] = [
        (Kind::EndToEnd, "end_to_end"),
        (Kind::Layer, "layer"),
        (Kind::Extra, "extra"),
    ];

    fn name(self) -> &'static str {
        Kind::ALL
            .iter()
            .find(|(k, _)| *k == self)
            .map_or("", |(_, n)| n)
    }

    fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(k, _)| *k)
            .ok_or_else(|| format!("unknown metric kind {name:?}"))
    }
}

/// Operations one phase attempted and how many failed, by error kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<(String, u64)>,
}

impl Phase {
    pub fn new(name: &str) -> Self {
        Phase {
            name: name.to_string(),
            ..Phase::default()
        }
    }

    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, kind: &str) {
        self.attempted += 1;
        self.failed += 1;
        match self.errors.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => self.errors.push((kind.to_string(), 1)),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Results {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    /// `nproc`, compute threads, load average and calibration time.
    pub host: Vec<(String, f64)>,
    pub phases: Vec<Phase>,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
}

impl Results {
    pub fn close(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// Files `phase` with its one operation's outcome and passes the
    /// value on; a failure ends the run with `what` in the message.
    pub fn once<T>(
        &mut self,
        mut phase: Phase,
        what: &str,
        r: Result<T, GeoError>,
    ) -> Result<T, String> {
        let out = count(&mut phase, r);
        self.close(phase);
        out.ok_or_else(|| format!("{what} failed"))
    }

    /// Adds an end-to-end figure and, in a traced run, its traced twin as
    /// a per-layer one, so traced and untraced figures sit side by side.
    /// Figures outside [`END_TO_END`] are extras.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.layer(&format!("traced.{name}"), value, unit, n);
        let kind = match END_TO_END.contains(&name) {
            true => Kind::EndToEnd,
            false => Kind::Extra,
        };
        self.push(kind, name, value, unit, n);
    }

    /// Adds a per-layer figure; untraced runs report none. Figures outside
    /// [`PER_LAYER`] are extras.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        if self.trace {
            let kind = match PER_LAYER.contains(&name) {
                true => Kind::Layer,
                false => Kind::Extra,
            };
            self.push(kind, name, value, unit, n);
        }
    }

    /// The metrics this run kind must report that it has not.
    pub fn missing(&self) -> Vec<&'static str> {
        let (kind, names): (Kind, &[&'static str]) = match self.trace {
            true => (Kind::Layer, &PER_LAYER),
            false => (Kind::EndToEnd, &END_TO_END),
        };
        names
            .iter()
            .filter(|n| !self.metrics.iter().any(|m| m.kind == kind && m.name == **n))
            .copied()
            .collect()
    }

    /// Records and returns the median duration in ms of the spans called
    /// `span`.
    pub fn span_ms(&mut self, spans: &[Span], name: &str, span: &str) -> Option<f64> {
        let d = durations_ms(spans, span);
        let m = median(&d)?;
        self.layer(name, m, "ms", d.len());
        Some(m)
    }

    /// Records the median self time in ms of the spans called `span`.
    pub fn self_ms(&mut self, spans: &[Span], name: &str, span: &str) {
        let own = self_times(spans);
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| own[&s.id] as f64 / 1e6)
            .collect();
        if let Some(m) = median(&d) {
            self.layer(name, m, "ms", d.len());
        }
    }

    pub fn push(&mut self, kind: Kind, name: &str, value: f64, unit: &str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
            kind,
        });
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// The metrics this run's verdict reports: per-layer ones when traced,
    /// end-to-end ones otherwise.
    pub fn reported(&self) -> impl Iterator<Item = &Metric> {
        let kind = if self.trace {
            Kind::Layer
        } else {
            Kind::EndToEnd
        };
        self.metrics.iter().filter(move |m| m.kind == kind)
    }

    /// The single-line verdict: correctness, operation counts and the
    /// reported metrics.
    pub fn verdict(&self) -> String {
        let attempted: u64 = self.phases.iter().map(|p| p.attempted).sum();
        let failed: u64 = self.phases.iter().map(|p| p.failed).sum();
        let metrics: Vec<String> = self
            .reported()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            metrics.join(", ")
        )
    }

    pub fn to_json(&self) -> String {
        let host: Vec<String> = self
            .host
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                let errors: Vec<String> = p
                    .errors
                    .iter()
                    .map(|(k, n)| format!("{}: {n}", quote(k)))
                    .collect();
                format!(
                    "    {{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": {{{}}}}}",
                    quote(&p.name),
                    p.attempted,
                    p.failed,
                    errors.join(", ")
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                    quote(&c.name),
                    c.passed,
                    quote(&c.detail)
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"n\": {}, \"kind\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(&m.unit),
                    m.n,
                    quote(m.kind.name())
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": {},\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \
             \"seconds\": {},\n  \"host\": {{{}}},\n  \"phases\": [\n{}\n  ],\n  \
             \"checks\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}\n",
            quote(SCHEMA),
            quote(&self.workload),
            // A string keeps every u64 seed exact.
            quote(&self.seed.to_string()),
            self.trace,
            self.seconds,
            host.join(", "),
            phases.join(",\n"),
            checks.join(",\n"),
            metrics.join(",\n")
        )
    }

    pub fn parse(text: &str) -> Result<Results, String> {
        let doc = Parser::new(text).parse_document()?;
        let top = doc.as_object("results")?;
        let schema = get(top, "schema")?.as_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let seed = get(top, "seed")?.as_str("seed")?;
        let objects = |key: &str| -> Result<Vec<&[(String, Value)]>, String> {
            get(top, key)?
                .as_array(key)?
                .iter()
                .map(|v| v.as_object(key))
                .collect()
        };
        Ok(Results {
            workload: get(top, "workload")?.as_str("workload")?.to_string(),
            seed: seed.parse().map_err(|e| format!("seed {seed:?}: {e}"))?,
            trace: get(top, "trace")?.as_bool("trace")?,
            seconds: get(top, "seconds")?.as_u64("seconds")?,
            host: get(top, "host")?
                .as_object("host")?
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64(k)?)))
                .collect::<Result<_, String>>()?,
            phases: objects("phases")?
                .into_iter()
                .map(|p| {
                    Ok(Phase {
                        name: get(p, "name")?.as_str("name")?.to_string(),
                        attempted: get(p, "attempted")?.as_u64("attempted")?,
                        failed: get(p, "failed")?.as_u64("failed")?,
                        errors: get(p, "errors")?
                            .as_object("errors")?
                            .iter()
                            .map(|(k, v)| Ok((k.clone(), v.as_u64(k)?)))
                            .collect::<Result<_, String>>()?,
                    })
                })
                .collect::<Result<_, String>>()?,
            checks: objects("checks")?
                .into_iter()
                .map(|c| {
                    Ok(Check {
                        name: get(c, "name")?.as_str("name")?.to_string(),
                        passed: get(c, "passed")?.as_bool("passed")?,
                        detail: get(c, "detail")?.as_str("detail")?.to_string(),
                    })
                })
                .collect::<Result<_, String>>()?,
            metrics: objects("metrics")?
                .into_iter()
                .map(|m| {
                    Ok(Metric {
                        name: get(m, "name")?.as_str("name")?.to_string(),
                        value: get(m, "value")?.as_f64("value")?,
                        unit: get(m, "unit")?.as_str("unit")?.to_string(),
                        n: get(m, "n")?.as_usize("n")?,
                        kind: Kind::parse(get(m, "kind")?.as_str("kind")?)?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        let mut r = Results {
            workload: "cnn4-serve".into(),
            seed: u64::MAX - 1,
            trace: false,
            seconds: 24,
            host: vec![("nproc".into(), 2.0), ("load1".into(), 0.37)],
            ..Results::default()
        };
        let mut p = Phase::new("serve.heavy");
        p.ok();
        p.fail("ServeOverflow");
        p.fail("ServeOverflow");
        r.phases.push(p);
        r.check("served == unbatched", true, "240/240 bit-identical");
        r.check("quote \"escapes\"\\", true, "tab\there");
        r.push(
            Kind::EndToEnd,
            "infer_b1_ms_p50",
            41.234_567_890_123,
            "ms",
            240,
        );
        r.push(Kind::EndToEnd, "setup_s", 1e-7, "s", 3);
        r.push(Kind::Extra, "serve_heavy_p95_ms", 80.5, "ms", 240);
        r.push(Kind::Layer, "engine.forward_b1_ms", 1.0 / 3.0, "ms", 240);
        r
    }

    #[test]
    fn results_file_round_trips_exactly() {
        let r = sample();
        let back = Results::parse(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.phases[0].errors,
            vec![("ServeOverflow".to_string(), 2)]
        );
    }

    #[test]
    fn verdict_reports_the_metrics_of_the_run_kind() {
        let mut r = sample();
        let v = Parser::new(&r.verdict()).parse_document().unwrap();
        let top = v.as_object("verdict").unwrap();
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(get(top, "attempted").unwrap().as_u64("").unwrap(), 3);
        assert_eq!(get(top, "failed").unwrap().as_u64("").unwrap(), 2);
        let metrics = get(top, "metrics").unwrap().as_object("").unwrap();
        assert_eq!(metrics.len(), 2);
        let p50 = get(metrics, "infer_b1_ms_p50")
            .unwrap()
            .as_object("")
            .unwrap();
        assert_eq!(
            get(p50, "value").unwrap().as_f64("").unwrap(),
            41.234_567_890_123
        );
        assert_eq!(get(p50, "unit").unwrap().as_str("").unwrap(), "ms");
        assert!(
            get(metrics, "serve_heavy_p95_ms").is_err(),
            "an extra stays out of the verdict"
        );

        r.trace = true;
        let v = Parser::new(&r.verdict()).parse_document().unwrap();
        let metrics = get(v.as_object("").unwrap(), "metrics").unwrap();
        let names: Vec<&str> = metrics
            .as_object("")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["engine.forward_b1_ms"]);
    }

    #[test]
    fn a_failed_or_missing_check_makes_the_run_incorrect() {
        let mut r = sample();
        assert!(r.correct());
        r.check("digest", false, "mismatch");
        assert!(!r.correct());
        assert!(r.verdict().starts_with("{\"correct\": false"));
        assert!(!Results::default().correct());
    }

    #[test]
    fn a_results_file_of_another_schema_is_refused() {
        let text = sample().to_json().replace(SCHEMA, "geo-perfbench/0");
        assert!(Results::parse(&text).unwrap_err().contains("schema"));
    }

    #[test]
    fn figures_outside_the_manifest_lists_are_extras() {
        let mut r = Results::default();
        r.e2e("setup_s", 1.5, "s", 3);
        r.e2e("serve_heavy_p95_ms", 80.5, "ms", 240);
        r.layer("engine.forward_b1_ms", 20.0, "ms", 8);
        assert_eq!(r.metrics.len(), 2, "an untraced run keeps no layer figure");
        assert_eq!(r.metrics[0].kind, Kind::EndToEnd);
        assert_eq!(r.metrics[1].kind, Kind::Extra);

        r.trace = true;
        r.e2e("batch_img_per_s", 40.0, "img/s", 10);
        r.layer("nn.backward_ms", 600.0, "ms", 4);
        let kind = |name: &str| r.metrics.iter().find(|m| m.name == name).map(|m| m.kind);
        assert_eq!(kind("traced.batch_img_per_s"), Some(Kind::Layer));
        assert_eq!(kind("nn.backward_ms"), Some(Kind::Extra));
    }

    #[test]
    fn missing_names_every_manifest_metric_not_reported() {
        let mut r = Results::default();
        assert_eq!(r.missing(), END_TO_END);
        for name in END_TO_END {
            r.e2e(name, 1.0, "s", 1);
        }
        assert!(r.missing().is_empty());
        r.trace = true;
        assert_eq!(r.missing(), PER_LAYER, "traced twins alone are not all");
    }

    /// The verdict's metric names must be the ones `BENCHMARK.json` lists.
    #[test]
    fn manifest_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Parser::new(&text).parse_document().unwrap();
        let top = doc.as_object("manifest").unwrap();
        let names = |key: &str| -> Vec<String> {
            get(top, key)
                .unwrap()
                .as_array(key)
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_object(key).unwrap();
                    get(m, "name").unwrap().as_str("name").unwrap().to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
