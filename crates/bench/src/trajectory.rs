//! Machine-readable perf-trajectory artifacts.
//!
//! Every perf-sensitive PR needs a baseline it can be judged against, so
//! benchmark binaries emit JSON artifacts in one shared schema:
//! `BENCH_forward.json` at the repository root (the canonical forward
//! throughput trajectory, written by `bench_forward`) and
//! `results/thread_scaling.json` (written by `thread_scaling`). The
//! schema is deliberately tiny — an envelope plus a flat list of cells,
//! each with a *before* and *after* time — so any session or CI step can
//! diff two artifacts without bespoke tooling.
//!
//! Serialization goes through the shared hermetic JSON support in
//! [`crate::json`] (writer helpers plus a strict recursive-descent
//! reader). The reader exists so CI can prove the artifact round-trips
//! and covers every expected cell — schema drift fails the
//! `bench_forward --smoke` step rather than silently producing an
//! artifact later PRs cannot consume.

use crate::json::{get, num, quote, Parser};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Schema tag stamped into (and required of) every trajectory artifact.
pub const SCHEMA: &str = "geo-perf-trajectory-v1";

/// One measured configuration: a `(model, accumulation, progressive,
/// threads)` point with its before/after wall-clock times.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Workload name (`lenet5`, `cnn4`).
    pub model: String,
    /// Accumulation mode name (`Or`, `Pbw`, `Pbhw`, `Fxp`, `Apc`).
    pub accumulation: String,
    /// Progressive (true) vs normal (false) stream generation.
    pub progressive: bool,
    /// Worker threads the cell ran under.
    pub threads: usize,
    /// Baseline wall-clock per forward pass, milliseconds.
    pub ms_before: f64,
    /// Measured wall-clock per forward pass, milliseconds.
    pub ms_after: f64,
    /// `ms_before / ms_after`.
    pub speedup: f64,
    /// Whether both paths produced bit-identical outputs.
    pub identical: bool,
}

/// One archived run in the trajectory history: the envelope metadata a
/// run was taken under plus its full cell set, labeled by the
/// caller-supplied run id (a PR tag like `pr7`, not a wall-clock
/// timestamp, so re-running a benchmark is reproducible byte for byte).
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Caller-supplied label (`--run-id`), e.g. the PR tag.
    pub run_id: String,
    /// Worker-thread count the archived run observed.
    pub threads: usize,
    /// Scale the archived run measured at.
    pub scale: String,
    /// The archived run's cells.
    pub cells: Vec<Cell>,
}

/// A trajectory artifact: envelope metadata plus measured cells, plus the
/// append-only history of prior runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Emitting benchmark (`bench_forward`, `thread_scaling`).
    pub bench: String,
    /// Ambient worker-thread count the run observed.
    pub threads: usize,
    /// Run scale (`smoke`, `quick`, `full`).
    pub scale: String,
    /// Measured cells — the head snapshot, always the latest run.
    pub cells: Vec<Cell>,
    /// Run history, oldest first; the head snapshot is repeated as the
    /// last entry. Empty in legacy (pre-history) artifacts, and the
    /// parser accepts both shapes.
    pub runs: Vec<Run>,
}

fn write_cells(s: &mut String, cells: &[Cell], indent: &str) {
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "{indent}{{\"model\": {}, \"accumulation\": {}, \"progressive\": {}, \
             \"threads\": {}, \"ms_before\": {}, \"ms_after\": {}, \
             \"speedup\": {}, \"identical\": {}}}{sep}",
            quote(&c.model),
            quote(&c.accumulation),
            c.progressive,
            c.threads,
            num(c.ms_before),
            num(c.ms_after),
            num(c.speedup),
            c.identical,
        );
    }
}

fn parse_cells(v: &crate::json::Value) -> Result<Vec<Cell>, String> {
    v.as_array("cells")?
        .iter()
        .map(|v| {
            let c = v.as_object("cell")?;
            Ok(Cell {
                model: get(c, "model")?.as_str("model")?.to_string(),
                accumulation: get(c, "accumulation")?.as_str("accumulation")?.to_string(),
                progressive: get(c, "progressive")?.as_bool("progressive")?,
                threads: get(c, "threads")?.as_usize("threads")?,
                ms_before: get(c, "ms_before")?.as_f64("ms_before")?,
                ms_after: get(c, "ms_after")?.as_f64("ms_after")?,
                speedup: get(c, "speedup")?.as_f64("speedup")?,
                identical: get(c, "identical")?.as_bool("identical")?,
            })
        })
        .collect()
}

impl Report {
    /// Serializes the report in the stable field order the schema
    /// defines. Legacy artifacts (no run history) serialize without a
    /// `runs` key, so a report that round-trips through [`from_json`]
    /// re-serializes byte-identically.
    ///
    /// [`from_json`]: Report::from_json
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": {},", quote(SCHEMA));
        let _ = writeln!(s, "  \"bench\": {},", quote(&self.bench));
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"scale\": {},", quote(&self.scale));
        let trailer = if self.runs.is_empty() { "" } else { "," };
        let _ = writeln!(s, "  \"cells\": [");
        write_cells(&mut s, &self.cells, "    ");
        let _ = writeln!(s, "  ]{trailer}");
        if !self.runs.is_empty() {
            let _ = writeln!(s, "  \"runs\": [");
            for (i, r) in self.runs.iter().enumerate() {
                let sep = if i + 1 == self.runs.len() { "" } else { "," };
                let _ = writeln!(
                    s,
                    "    {{\"run_id\": {}, \"threads\": {}, \"scale\": {}, \"cells\": [",
                    quote(&r.run_id),
                    r.threads,
                    quote(&r.scale),
                );
                write_cells(&mut s, &r.cells, "      ");
                let _ = writeln!(s, "    ]}}{sep}");
            }
            let _ = writeln!(s, "  ]");
        }
        let _ = writeln!(s, "}}");
        s
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Parses an artifact, rejecting unknown schema tags.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = Parser::new(text).parse_document()?;
        let top = value.as_object("top level")?;
        let schema = get(top, "schema")?.as_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?} is not {SCHEMA:?}"));
        }
        let cells = parse_cells(get(top, "cells")?)?;
        // `runs` is absent in legacy artifacts; both shapes parse.
        let runs = match top.iter().find(|(k, _)| k == "runs") {
            None => Vec::new(),
            Some((_, v)) => v
                .as_array("runs")?
                .iter()
                .map(|v| {
                    let r = v.as_object("run")?;
                    Ok(Run {
                        run_id: get(r, "run_id")?.as_str("run_id")?.to_string(),
                        threads: get(r, "threads")?.as_usize("threads")?,
                        scale: get(r, "scale")?.as_str("scale")?.to_string(),
                        cells: parse_cells(get(r, "cells")?)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        Ok(Report {
            bench: get(top, "bench")?.as_str("bench")?.to_string(),
            threads: get(top, "threads")?.as_usize("threads")?,
            scale: get(top, "scale")?.as_str("scale")?.to_string(),
            cells,
            runs,
        })
    }

    /// Appends this run's head snapshot to the history carried by a
    /// prior artifact (if any), labeling it `run_id`. A legacy prior
    /// artifact (cells but no `runs` key) is migrated: its head snapshot
    /// becomes the first history entry, labeled `legacy-head`, so the
    /// pre-history baseline is preserved rather than dropped.
    ///
    /// A prior entry under the same label is replaced, not duplicated:
    /// labels name trajectory points (PR tags, CI lanes), so re-running
    /// a benchmark updates its point instead of growing the history —
    /// which is what keeps `run_experiments.sh` re-runs diffable.
    ///
    /// # Errors
    ///
    /// Returns a description of a malformed `run_id` (empty, or one that
    /// looks like a wall-clock timestamp — history entries must be
    /// stable labels so re-runs diff cleanly).
    pub fn append_history(&mut self, prior: Option<&Report>, run_id: &str) -> Result<(), String> {
        if run_id.is_empty() {
            return Err("run id must be non-empty".into());
        }
        if run_id.chars().filter(|c| c.is_ascii_digit()).count() >= 8 {
            return Err(format!(
                "run id {run_id:?} looks like a timestamp; use a stable PR tag"
            ));
        }
        let mut runs = match prior {
            Some(p) if p.runs.is_empty() && !p.cells.is_empty() => vec![Run {
                run_id: "legacy-head".to_string(),
                threads: p.threads,
                scale: p.scale.clone(),
                cells: p.cells.clone(),
            }],
            Some(p) => p.runs.clone(),
            None => Vec::new(),
        };
        runs.retain(|r| r.run_id != run_id);
        runs.push(Run {
            run_id: run_id.to_string(),
            threads: self.threads,
            scale: self.scale.clone(),
            cells: self.cells.clone(),
        });
        self.runs = runs;
        Ok(())
    }

    /// Validates that the artifact contains exactly one cell for every
    /// expected `(model, accumulation, progressive)` combination, all
    /// with positive finite timings and bit-identical outputs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing/duplicated cell or
    /// malformed measurement.
    pub fn validate_cells(&self, expected: &[(&str, &str, bool)]) -> Result<(), String> {
        for &(model, accumulation, progressive) in expected {
            let matches = self
                .cells
                .iter()
                .filter(|c| {
                    c.model == model
                        && c.accumulation == accumulation
                        && c.progressive == progressive
                })
                .count();
            if matches != 1 {
                return Err(format!(
                    "expected exactly one ({model}, {accumulation}, progressive={progressive}) \
                     cell, found {matches}"
                ));
            }
        }
        let finite_positive = |x: f64| x.is_finite() && x > 0.0;
        for c in &self.cells {
            let sound = finite_positive(c.ms_before)
                && finite_positive(c.ms_after)
                && c.speedup.is_finite();
            if !sound {
                return Err(format!(
                    "non-finite or non-positive timing in cell ({}, {}, progressive={})",
                    c.model, c.accumulation, c.progressive
                ));
            }
            if !c.identical {
                return Err(format!(
                    "cell ({}, {}, progressive={}) reports non-identical outputs",
                    c.model, c.accumulation, c.progressive
                ));
            }
        }
        for r in &self.runs {
            if r.run_id.is_empty() {
                return Err("history entry with empty run_id".into());
            }
            if r.cells.is_empty() {
                return Err(format!("history entry {:?} has no cells", r.run_id));
            }
            for c in &r.cells {
                if !(finite_positive(c.ms_before) && finite_positive(c.ms_after)) {
                    return Err(format!(
                        "history entry {:?}: non-finite or non-positive timing in cell \
                         ({}, {}, progressive={})",
                        r.run_id, c.model, c.accumulation, c.progressive
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            bench: "bench_forward".into(),
            threads: 1,
            scale: "smoke".into(),
            runs: Vec::new(),
            cells: vec![
                Cell {
                    model: "lenet5".into(),
                    accumulation: "Apc".into(),
                    progressive: true,
                    threads: 1,
                    ms_before: 12.5,
                    ms_after: 4.25,
                    speedup: 12.5 / 4.25,
                    identical: true,
                },
                Cell {
                    model: "cnn4".into(),
                    accumulation: "Or".into(),
                    progressive: false,
                    threads: 1,
                    ms_before: 3.0,
                    ms_after: 2.0,
                    speedup: 1.5,
                    identical: true,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips() {
        let report = sample();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.bench, report.bench);
        assert_eq!(parsed.threads, report.threads);
        assert_eq!(parsed.scale, report.scale);
        assert_eq!(parsed.cells.len(), report.cells.len());
        for (a, b) in parsed.cells.iter().zip(&report.cells) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.accumulation, b.accumulation);
            assert_eq!(a.progressive, b.progressive);
            assert!((a.ms_before - b.ms_before).abs() < 1e-9);
            assert!((a.ms_after - b.ms_after).abs() < 1e-9);
            assert_eq!(a.identical, b.identical);
        }
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let json = sample().to_json().replace(SCHEMA, "some-other-schema");
        let err = Report::from_json(&json).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn missing_cell_field_is_rejected() {
        let json = sample().to_json().replace("\"speedup\"", "\"sidewaysup\"");
        let err = Report::from_json(&json).unwrap_err();
        assert!(err.contains("speedup"), "{err}");
    }

    #[test]
    fn truncated_document_is_rejected() {
        let json = sample().to_json();
        assert!(Report::from_json(&json[..json.len() / 2]).is_err());
    }

    #[test]
    fn validate_cells_requires_exact_coverage() {
        let report = sample();
        report
            .validate_cells(&[("lenet5", "Apc", true), ("cnn4", "Or", false)])
            .unwrap();
        let err = report
            .validate_cells(&[("lenet5", "Fxp", true)])
            .unwrap_err();
        assert!(err.contains("Fxp"), "{err}");
    }

    #[test]
    fn validate_cells_rejects_bad_timings_and_divergence() {
        let mut report = sample();
        report.cells[0].ms_after = 0.0;
        assert!(report.validate_cells(&[]).is_err());
        let mut report = sample();
        report.cells[1].identical = false;
        assert!(report.validate_cells(&[]).is_err());
    }

    #[test]
    fn history_round_trips_and_legacy_shape_parses() {
        // With history: runs survive a serialize/parse cycle intact.
        let mut report = sample();
        report.append_history(None, "pr7").unwrap();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.runs.len(), 1);
        assert_eq!(parsed.runs[0].run_id, "pr7");
        for (a, b) in parsed.runs[0].cells.iter().zip(&report.cells) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.accumulation, b.accumulation);
            assert!((a.ms_after - b.ms_after).abs() < 1e-9);
        }
        // Without history: the legacy shape (no `runs` key) still parses
        // and re-serializes byte-identically.
        let legacy = sample();
        let json = legacy.to_json();
        assert!(!json.contains("\"runs\""));
        let parsed = Report::from_json(&json).unwrap();
        assert!(parsed.runs.is_empty());
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn append_history_migrates_legacy_head_and_replaces_same_label() {
        let prior = sample(); // legacy: cells, no runs
        let mut next = sample();
        next.append_history(Some(&prior), "pr7").unwrap();
        let labels: Vec<&str> = next.runs.iter().map(|r| r.run_id.as_str()).collect();
        assert_eq!(labels, ["legacy-head", "pr7"]);
        assert_eq!(next.runs[0].cells, prior.cells);
        // Re-running under the same label updates that point in place
        // instead of growing the history.
        let mut rerun = sample();
        rerun.cells[0].ms_after = 1.0;
        rerun.append_history(Some(&next), "pr7").unwrap();
        let labels: Vec<&str> = rerun.runs.iter().map(|r| r.run_id.as_str()).collect();
        assert_eq!(labels, ["legacy-head", "pr7"]);
        assert!((rerun.runs[1].cells[0].ms_after - 1.0).abs() < 1e-9);
    }

    #[test]
    fn append_history_rejects_empty_and_timestamp_like_labels() {
        let mut report = sample();
        assert!(report.append_history(None, "").is_err());
        let err = report
            .append_history(None, "run-20260807120000")
            .unwrap_err();
        assert!(err.contains("timestamp"), "{err}");
        // A PR tag with a few digits is fine.
        report.append_history(None, "pr7-swar-v2").unwrap();
    }

    #[test]
    fn committed_history_with_retired_fused_cells_still_validates() {
        // `<model>+fused` cells are no longer measured, but the recorded
        // runs that carry them must keep parsing and validating.
        let report = Report::from_json(include_str!("../../../BENCH_forward.json")).unwrap();
        report.validate_cells(&[]).unwrap();
        for id in ["pr9-fused", "pr10-vgg16"] {
            let run = report.runs.iter().find(|r| r.run_id == id);
            let cells = run.map_or(&[][..], |r| &r.cells[..]);
            assert!(
                cells.iter().any(|c| c.model.ends_with("+fused")),
                "{id}: missing or without +fused cells"
            );
        }
    }

    #[test]
    fn validate_cells_rejects_malformed_history() {
        let mut report = sample();
        report.append_history(None, "pr7").unwrap();
        report.runs[0].cells[0].ms_before = f64::NAN;
        let err = report.validate_cells(&[]).unwrap_err();
        assert!(err.contains("pr7"), "{err}");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null_and_fail_validation() {
        let mut report = sample();
        report.cells[0].speedup = f64::INFINITY;
        let parsed = Report::from_json(&report.to_json());
        // `null` where a number is required is a parse-level type error.
        assert!(parsed.is_err());
    }
}
