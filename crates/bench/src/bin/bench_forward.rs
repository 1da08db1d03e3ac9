//! Forward-pass perf trajectory: compacted kernels vs. the retained
//! pre-compaction reference path, across every accumulation mode and both
//! generation modes, on all three paper workloads — LeNet-5, CNN-4, and
//! the scaled VGG-16 thumbnail ([`workloads`] is the single source of
//! truth for the model list; every pass iterates it).
//!
//! Each cell times `ScEngine::forward_reference` (the verbatim
//! pre-compaction kernels kept in `geo_core::engine::reference`) against
//! `ScEngine::forward` (compacted lanes + interior/border split +
//! streaming APC), asserts the two outputs bit-identical, and records
//! both wall-clock numbers. The result is written to `BENCH_forward.json`
//! at the repository root in the `geo-perf-trajectory-v1` schema
//! (`geo_bench::trajectory`), then re-read and validated so schema drift
//! fails the run rather than producing an artifact later PRs cannot diff.
//! The re-read snapshot is then gated against per-accumulation-mode
//! speedup floors ([`speedup_floor`]) — loose at smoke/quick scale,
//! the real 2×-Apc/1.3×-rest bars at full scale — exiting non-zero if
//! any cell misses its floor or reports `identical: false`.
//!
//! Hermetic: std `Instant` timing only. Thread count is ambient
//! (`RAYON_NUM_THREADS` honored); `GEO_SKIP_HEAVY_TESTS=1` or `--smoke`
//! selects a minimal workload that still covers every cell.
//!
//! Passing `--telemetry` additionally captures one program-driven pass
//! per (workload × accumulation mode), prints a per-run attribution
//! table, and writes `results/telemetry_<scale>.json`
//! (`geo_bench::telemetry`, DESIGN.md §12).
//!
//! Passing `--serve` additionally measures the compile-once, serve-many
//! path (DESIGN.md §15): each workload is prepared once into an
//! immutable `PreparedModel` and single-image 8×8 thumbnail requests —
//! the online-serving workload, fixed across scales; `--smoke`/`--quick`
//! only shrink the measurement effort — are pushed
//! through an `ScServer` at target batch sizes 1, 8, and 64. The
//! per-inference wall clock, throughput (inf/sec), and p50/p99 request
//! latencies are printed, and the trajectory artifact gains `Serve8` /
//! `Serve64` throughput cells (`ms_before` = batch-1 per-inference cost,
//! `ms_after` = batched) plus `ServeLat*` latency cells (`ms_before` =
//! p50, `ms_after` = p99). The threshold gate requires the `Serve64`
//! cells' batched per-inference cost to be *strictly* below batch-1 —
//! batching that stops paying for itself fails the run.
//!
//! Run: `cargo run --release -p geo-bench --bin bench_forward [-- --smoke|--quick]`

use geo_arch::{AccelConfig, NetworkDesc};
use geo_bench::telemetry::Artifact;
use geo_bench::trajectory::{Cell, Report, SCHEMA};
use geo_core::{GeoConfig, PreparedModel, ProgramExecutor, ScEngine, ScServer, ServeConfig};
use geo_nn::{models, Sequential, Tensor};
use geo_sc::Accumulation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Workload sizing: `(batch, image size, timed reps)`.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    batch: usize,
    size: usize,
    reps: usize,
    scale: &'static str,
}

fn sizing_from_args() -> Sizing {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("GEO_SKIP_HEAVY_TESTS").is_ok_and(|v| !v.is_empty() && v != "0");
    let quick = std::env::args().any(|a| a == "--quick");
    if smoke {
        Sizing {
            batch: 1,
            size: 8,
            reps: 1,
            scale: "smoke",
        }
    } else if quick {
        Sizing {
            batch: 2,
            size: 8,
            reps: 2,
            scale: "quick",
        }
    } else {
        Sizing {
            batch: 12,
            size: 12,
            reps: 10,
            scale: "full",
        }
    }
}

/// VGG-16's thumbnail needs an image size that is a nonzero multiple of
/// 8 (three pooling stages), which the full-scale 12×12 sizing is not —
/// so the VGG workload pins its geometry to 8×8 at every scale and
/// bounds its batch/reps instead ([`workloads`]).
const VGG_SIZE: usize = 8;

/// The benched model list — the *only* place it is written down. Every
/// pass (timing, serve, artifact, telemetry) iterates this list
/// via [`workloads`] or [`model_for`], so adding a model here adds it to
/// all of them at once; a hand-maintained second table can no longer
/// silently skip one pass.
const MODELS: [&str; 3] = ["lenet5", "cnn4", "vgg16"];

/// Builds one named model at the requested image size, returning the
/// size actually used (VGG-16 pins its own).
fn model_for(name: &str, size: usize) -> (Sequential, usize) {
    match name {
        "lenet5" => (models::lenet5(1, size, 10, 7), size),
        "cnn4" => (models::cnn4(1, size, 10, 11), size),
        "vgg16" => (models::vgg16_small(1, VGG_SIZE, 10, 13), VGG_SIZE),
        other => unreachable!("model {other} is not in MODELS"),
    }
}

/// One benched workload: the model plus its own deterministic input and
/// effort knobs. Each input is drawn from a fresh `StdRng(0xF00D)`, so
/// the LeNet/CNN-4 tensors are bit-identical to the shared-input scheme
/// earlier runs in the history used.
struct Workload {
    name: &'static str,
    model: Sequential,
    size: usize,
    reps: usize,
    input: Tensor,
}

/// The three paper workloads at bench sizing. VGG-16's thirteen conv
/// layers at a full-size batch would dominate the run on the slow
/// reference path, so it bounds its measurement effort (batch ≤ 4,
/// reps ≤ 3) rather than its shape.
fn workloads(sizing: Sizing) -> Vec<Workload> {
    MODELS
        .iter()
        .map(|&name| {
            let (model, size) = model_for(name, sizing.size);
            let (batch, reps) = if name == "vgg16" {
                (sizing.batch.min(4), sizing.reps.min(3))
            } else {
                (sizing.batch, sizing.reps)
            };
            let mut rng = StdRng::seed_from_u64(0xF00D);
            let input =
                Tensor::kaiming(&[batch, 1, size, size], size, &mut rng).map(|v| v.abs().min(1.0));
            Workload {
                name,
                model,
                size,
                reps,
                input,
            }
        })
        .collect()
}

/// One benchmarked path: a warm engine plus its own model clone. Both
/// paths advance their RNG pass counters in lockstep, so outputs of the
/// same rep stay comparable bit-for-bit.
struct Path {
    engine: ScEngine,
    model: Sequential,
    reference: bool,
}

impl Path {
    fn new(model: &Sequential, config: GeoConfig, reference: bool) -> Path {
        Path {
            engine: ScEngine::new(config).expect("valid experiment config"),
            model: model.clone(),
            reference,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Vec<f32> {
        let out = if self.reference {
            self.engine.forward_reference(&mut self.model, x, false)
        } else {
            self.engine.forward(&mut self.model, x, false)
        };
        out.expect("forward succeeds").data().to_vec()
    }
}

/// Interleaved best-of-`reps` steady-state timing of both paths, in
/// milliseconds, asserting bit-identical outputs on every rep. Engines
/// stay warm across reps (stream tables cached), so the numbers measure
/// forward throughput — the quantity a training loop pays — rather than
/// one-off table construction.
fn time_cell(
    before: &mut Path,
    after: &mut Path,
    x: &Tensor,
    reps: usize,
    context: &str,
) -> (f64, f64) {
    let mut best_before = f64::INFINITY;
    let mut best_after = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out_before = before.forward(x);
        best_before = best_before.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let out_after = after.forward(x);
        best_after = best_after.min(t0.elapsed().as_secs_f64());
        assert_identical(&out_before, &out_after, context);
    }
    (best_before * 1e3, best_after * 1e3)
}

fn assert_identical(a: &[f32], b: &[f32], context: &str) {
    let same = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        same,
        "{context}: compacted output diverged from the reference kernels"
    );
}

/// Per-mode speedup floor for the head snapshot, split by scale.
///
/// Full runs enforce the real bars: the SWAR kernels must clear 2× on
/// the Apc cells and 1.3× everywhere else against the retained
/// reference path (observed full-scale margins are 6.5×+ and 1.6×+).
/// Smoke and quick workloads time single-digit-rep sub-millisecond
/// cells, so their floors are deliberately loose: the gate exists to
/// catch a kernel that stopped being faster than the reference *per
/// mode* — not to flake on scheduler noise in one marginal cell, which
/// is exactly how the old single "all cells ≥1.05×" line failed.
fn speedup_floor(model: &str, accumulation: &str, scale: &str) -> f64 {
    // The VGG-16 thumbnail spreads its compute over thirteen small conv
    // layers, so per-layer overheads the two paths share dilute the
    // SWAR margin relative to LeNet/CNN-4. It carries its own floors in
    // the runs history: tight enough to catch a kernel that stopped
    // being faster, loose enough not to flake on the thin 8×8 cells.
    if model == "vgg16" {
        return match (accumulation, scale) {
            ("Apc", "full") => 1.5,
            (_, "full") => 1.1,
            (_, _) => 0.8,
        };
    }
    match (accumulation, scale) {
        ("Apc", "full") => 2.0,
        (_, "full") => 1.3,
        ("Apc", _) => 1.3,
        (_, _) => 0.85,
    }
}

/// Gates the freshly re-read head snapshot against the per-mode floors:
/// every cell must report `identical: true` and clear
/// [`speedup_floor`] for its accumulation mode. Serve cells carry their
/// own gate: `Serve64` throughput cells must show batched per-inference
/// cost *strictly* below batch-1 (speedup > 1), `Serve8` and the
/// `ServeLat*` latency records are informational. Collects *all*
/// violations instead of stopping at the first, so one CI failure names
/// every regressed cell.
fn check_thresholds(report: &Report) -> Result<(), String> {
    let mut violations = Vec::new();
    for c in &report.cells {
        let generation = if c.progressive {
            "progressive"
        } else {
            "normal"
        };
        let cell = format!("{}/{}/{generation}", c.model, c.accumulation);
        if !c.identical {
            violations.push(format!("{cell}: identical=false"));
            continue;
        }
        if c.accumulation.starts_with("ServeLat") || c.accumulation == "Serve8" {
            continue; // latency/low-batch records: no floor
        }
        if c.accumulation == "Serve64" {
            if c.speedup <= 1.0 {
                violations.push(format!(
                    "{cell}: batch-64 per-inference cost {:.3}ms is not strictly below \
                     batch-1 cost {:.3}ms",
                    c.ms_after, c.ms_before
                ));
            }
            continue;
        }
        let floor = speedup_floor(&c.model, &c.accumulation, &report.scale);
        if c.speedup < floor {
            violations.push(format!(
                "{cell}: speedup {:.3}x is under the {} {} floor {floor:.2}x",
                c.speedup, report.scale, c.accumulation
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

/// One measured serve operating point: a target batch size pushed
/// through a live `ScServer` for several waves.
struct ServePoint {
    batch: usize,
    per_inf_ms: f64,
    inf_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    identical: bool,
}

/// Deterministic single-image request for queue slot `slot`.
fn serve_input(size: usize, slot: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(0xCAFE + slot as u64);
    Tensor::kaiming(&[1, 1, size, size], size, &mut rng).map(|v| v.abs().min(1.0))
}

/// Nearest-rank percentile of an ascending-sorted latency list.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// Measures one serve operating point: `waves` rounds of `batch`
/// single-image submissions against a server capped at `max_batch =
/// batch`, after one warm-up wave. Per-inference cost is the
/// lower-median wave's wall-clock over `batch` (robust to one-off
/// scheduler stalls without favoring any batch size); latency
/// percentiles pool every response across all timed waves. Every
/// response is checked bit-equal to an unbatched
/// `PreparedModel::forward` of the same input.
fn serve_point(
    prepared: &Arc<PreparedModel>,
    size: usize,
    batch: usize,
    waves: usize,
) -> Result<ServePoint, String> {
    let config = ServeConfig::default()
        .with_max_batch(batch)
        .with_queue_depth(batch);
    let server = ScServer::spawn(Arc::clone(prepared), config)
        .map_err(|e| format!("serve spawn (batch {batch}) failed: {e}"))?;
    let inputs: Vec<Tensor> = (0..batch).map(|s| serve_input(size, s)).collect();
    let direct: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| {
            prepared
                .forward(x)
                .map(|t| t.data().to_vec())
                .map_err(|e| format!("unbatched reference forward failed: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let run_wave = |latencies: Option<&mut Vec<f64>>| -> Result<bool, String> {
        let pendings: Vec<_> = inputs
            .iter()
            .map(|x| server.submit(x.clone()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("serve submit (batch {batch}) failed: {e}"))?;
        let mut identical = true;
        let mut wave_latencies = Vec::with_capacity(batch);
        for (slot, pending) in pendings.into_iter().enumerate() {
            let response = pending
                .wait()
                .map_err(|e| format!("serve request (batch {batch}) failed: {e}"))?;
            wave_latencies.push(response.latency.as_secs_f64() * 1e3);
            identical &= assert_close_bits(response.output.data(), &direct[slot]);
        }
        if let Some(all) = latencies {
            all.extend(wave_latencies);
        }
        Ok(identical)
    };

    let mut identical = run_wave(None)?; // warm-up: tables hot, threads up
    let mut latencies = Vec::with_capacity(batch * waves);
    // Per-inference cost comes from the lower-median wave: a one-off
    // scheduler stall on this single-core host would dominate a mean,
    // while a minimum would cherry-pick hardest for the smallest waves.
    let mut wave_times = Vec::with_capacity(waves);
    for _ in 0..waves {
        let t0 = Instant::now();
        identical &= run_wave(Some(&mut latencies))?;
        wave_times.push(t0.elapsed().as_secs_f64());
    }
    server
        .shutdown()
        .map_err(|e| format!("serve shutdown (batch {batch}) failed: {e}"))?;

    wave_times.sort_by(f64::total_cmp);
    let median_wave_s = wave_times[(wave_times.len() - 1) / 2];
    latencies.sort_by(f64::total_cmp);
    Ok(ServePoint {
        batch,
        per_inf_ms: median_wave_s * 1e3 / batch as f64,
        inf_per_sec: batch as f64 / median_wave_s,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        identical,
    })
}

fn assert_close_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The serve benchmark's fixed request geometry: single-image 8×8
/// thumbnails, the online-serving workload. Scales shrink measurement
/// effort (waves), never the request shape — per-request compute must
/// stay comparable across smoke/quick/full trajectory points.
const SERVE_SIZE: usize = 8;

/// `--serve`: the compile-once, serve-many benchmark. Prepares each
/// workload once, measures operating points at batch 1/8/64, prints the
/// throughput table, and appends `Serve*` cells to the trajectory
/// snapshot (see module docs for the encoding).
fn serve_bench(
    base: GeoConfig,
    sizing: Sizing,
    threads: usize,
    cells: &mut Vec<Cell>,
) -> Result<(), String> {
    let waves = match sizing.scale {
        "full" => 6,
        "quick" => 3,
        _ => 2,
    };
    println!(
        "\nserve throughput (prepared once, single-image {SERVE_SIZE}x{SERVE_SIZE} requests, \
         {waves} waves):"
    );
    println!(
        "{:>8} {:>6} {:>12} {:>10} {:>10} {:>10}",
        "model", "batch", "per-inf", "inf/sec", "p50", "p99"
    );
    for name in MODELS {
        let (mut model, _) = model_for(name, SERVE_SIZE);
        model.set_training(false);
        let mut engine =
            ScEngine::new(base).map_err(|e| format!("{name}: engine construction failed: {e}"))?;
        let prepared = Arc::new(
            engine
                .prepare(&model, &[1, 1, SERVE_SIZE, SERVE_SIZE])
                .map_err(|e| format!("{name}: prepare failed: {e}"))?,
        );
        let points: Vec<ServePoint> = [1usize, 8, 64]
            .iter()
            .map(|&batch| serve_point(&prepared, SERVE_SIZE, batch, waves))
            .collect::<Result<_, _>>()?;
        for p in &points {
            println!(
                "{name:>8} {:>6} {:>10.3}ms {:>10.1} {:>8.3}ms {:>8.3}ms",
                p.batch, p.per_inf_ms, p.inf_per_sec, p.p50_ms, p.p99_ms
            );
            cells.push(Cell {
                model: (*name).to_string(),
                accumulation: format!("ServeLat{}", p.batch),
                progressive: base.progressive,
                threads,
                ms_before: p.p50_ms,
                ms_after: p.p99_ms,
                speedup: p.p50_ms / p.p99_ms,
                identical: p.identical,
            });
        }
        let single = &points[0];
        for p in &points[1..] {
            cells.push(Cell {
                model: (*name).to_string(),
                accumulation: format!("Serve{}", p.batch),
                progressive: base.progressive,
                threads,
                ms_before: single.per_inf_ms,
                ms_after: p.per_inf_ms,
                speedup: single.per_inf_ms / p.per_inf_ms,
                identical: single.identical && p.identical,
            });
        }
    }
    Ok(())
}

fn repo_root_artifact() -> PathBuf {
    // crates/bench/../../ = repository root, independent of the cwd the
    // binary is launched from.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_forward.json")
}

fn telemetry_artifact(scale: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
        .join(format!("telemetry_{scale}.json"))
}

/// Captures one telemetry run per `(workload, accumulation)` pair: a
/// single program-driven forward pass through [`ProgramExecutor`], whose
/// report merges the engine's live counters with the compiled program's
/// static ping-pong traffic. Emits `results/telemetry_<scale>.json`,
/// re-reads it, and validates run coverage — mirroring the timing
/// artifact's self-validation.
///
/// Counter fields in the artifact are exact integer sums, bit-identical
/// at every `RAYON_NUM_THREADS`; only the `*_ms` wall-clock fields vary.
fn emit_telemetry(
    workloads: &[Workload],
    base: GeoConfig,
    sizing: Sizing,
    threads: usize,
) -> Result<(), String> {
    let mut runs = Vec::new();
    let mut expected = Vec::new();
    for w in workloads {
        let name = w.name;
        for mode in Accumulation::ALL {
            let source = format!("{name}/{mode:?}");
            let config = base.with_accumulation(mode);
            let mut model = w.model.clone();
            let mut exec = ProgramExecutor::compile(
                config,
                &AccelConfig::ulp_geo(32, 64),
                &model,
                (1, w.size, w.size),
                name,
            )
            .map_err(|e| format!("{source}: compile failed: {e}"))?;
            exec.forward(&mut model, &w.input, false)
                .map_err(|e| format!("{source}: forward failed: {e}"))?;
            let mut report = exec.telemetry_report();
            report.source.clone_from(&source);
            runs.push(report);
            expected.push(source);
        }
    }

    println!(
        "\ntelemetry attribution (per run totals, {} passes each):",
        runs.first().map_or(0, |r| r.passes)
    );
    println!(
        "{:>12} {:>10} {:>8} {:>8} {:>6} {:>6} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "run",
        "macs",
        "lanes",
        "skipped",
        "hits",
        "miss",
        "pingpong_B",
        "res_ms",
        "cvt_ms",
        "cmp_ms",
        "nm_ms"
    );
    for run in &runs {
        let t = run.total();
        println!(
            "{:>12} {:>10} {:>8} {:>8} {:>6} {:>6} {:>12} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            run.source,
            t.macs,
            t.compacted_lanes,
            t.skipped_zero_lanes,
            t.table_hits,
            t.table_misses,
            t.pingpong_bytes,
            t.phase_ns[0] as f64 / 1e6,
            t.phase_ns[1] as f64 / 1e6,
            t.phase_ns[2] as f64 / 1e6,
            t.phase_ns[3] as f64 / 1e6,
        );
    }

    let artifact = Artifact::new(sizing.scale, threads, runs);
    let path = telemetry_artifact(sizing.scale);
    artifact
        .write(&path)
        .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("failed to re-read {}: {e}", path.display()))?;
    let parsed = Artifact::from_json(&text)
        .map_err(|e| format!("emitted telemetry JSON does not parse: {e}"))?;
    let expected_refs: Vec<&str> = expected.iter().map(String::as_str).collect();
    parsed
        .validate(&expected_refs)
        .map_err(|e| format!("telemetry artifact failed validation: {e}"))?;
    println!(
        "wrote {} ({} runs, schema {SCHEMA}) — artifact validated",
        path.display(),
        parsed.runs.len()
    );
    Ok(())
}

/// `--artifact <dir>`: exercises the durable-artifact path end to end.
/// Each workload's compiled program is serialized to
/// `<dir>/<name>.geoa`, re-read from disk, loaded through the validating
/// [`ProgramExecutor::from_artifact`] boundary, and the reloaded
/// executor's forward outputs are asserted bit-identical to a fresh
/// in-memory executor's.
fn artifact_round_trip(workloads: &[Workload], base: GeoConfig, dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for w in workloads {
        let (name, model, x) = (w.name, &w.model, &w.input);
        let accel = AccelConfig::ulp_geo(32, 64);
        let input = (1, w.size, w.size);
        let compiled = ProgramExecutor::compile(base, &accel, model, input, name)
            .map_err(|e| format!("{name}: compile failed: {e}"))?;
        let bytes = compiled
            .to_artifact()
            .map_err(|e| format!("{name}: artifact serialization failed: {e}"))?;
        let path = PathBuf::from(dir).join(format!("{name}.geoa"));
        std::fs::write(&path, &bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let reread =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let net = NetworkDesc::from_model(name, model, input);
        let mut reloaded = ProgramExecutor::from_artifact(base, &net, &reread)
            .map_err(|e| format!("{}: artifact rejected on reload: {e}", path.display()))?;
        // Fresh executors on both sides: identical engine state, so the
        // outputs must match bit for bit.
        let mut fresh = ProgramExecutor::compile(base, &accel, model, input, name)
            .map_err(|e| format!("{name}: compile failed: {e}"))?;
        let mut model_a = model.clone();
        let mut model_b = model.clone();
        let direct = fresh
            .forward(&mut model_a, x, false)
            .map_err(|e| format!("{name}: in-memory forward failed: {e}"))?;
        let via_artifact = reloaded
            .forward(&mut model_b, x, false)
            .map_err(|e| format!("{name}: reloaded forward failed: {e}"))?;
        assert_identical(direct.data(), via_artifact.data(), name);
        println!(
            "artifact {}: {} bytes, reload bit-identical",
            path.display(),
            bytes.len()
        );
    }
    Ok(())
}

/// Pins the three execution paths bit-identical on every workload:
/// direct `ScEngine::forward`, compile-once `PreparedModel::forward`,
/// and the program-driven `ProgramExecutor::forward` of the compiled
/// GEOA program. Fresh engines on all three sides see identical RNG
/// pass counters, so any divergence is a real kernel/lowering bug —
/// exactly the class of scale bug a 13-conv network shakes out.
fn pin_tri_path_identity(workloads: &[Workload], base: GeoConfig) -> Result<(), String> {
    for w in workloads {
        let name = w.name;
        let mut model = w.model.clone();
        model.set_training(false);
        let mut engine =
            ScEngine::new(base).map_err(|e| format!("{name}: engine construction failed: {e}"))?;
        let direct = engine
            .forward(&mut model.clone(), &w.input, false)
            .map_err(|e| format!("{name}: direct forward failed: {e}"))?;
        let prepared = ScEngine::new(base)
            .map_err(|e| format!("{name}: engine construction failed: {e}"))?
            .prepare(&model, w.input.shape())
            .map_err(|e| format!("{name}: prepare failed: {e}"))?;
        let via_prepared = prepared
            .forward(&w.input)
            .map_err(|e| format!("{name}: prepared forward failed: {e}"))?;
        let mut exec = ProgramExecutor::compile(
            base,
            &AccelConfig::ulp_geo(32, 64),
            &model,
            (1, w.size, w.size),
            name,
        )
        .map_err(|e| format!("{name}: compile failed: {e}"))?;
        let via_program = exec
            .forward(&mut model.clone(), &w.input, false)
            .map_err(|e| format!("{name}: program-driven forward failed: {e}"))?;
        assert_identical(direct.data(), via_prepared.data(), name);
        assert_identical(direct.data(), via_program.data(), name);
        println!("{name}: direct = prepared = program-executed (bit-identical)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let sizing = sizing_from_args();
    let threads = rayon::current_num_threads();
    // Caller-supplied run label for the trajectory history — a stable PR
    // tag, not a timestamp, so identical re-runs produce diffable
    // artifacts. Defaults to "unlabeled" for ad-hoc runs.
    let run_id = match args.iter().position(|a| a == "--run-id") {
        Some(i) => match args.get(i + 1) {
            Some(v) => v.clone(),
            None => {
                eprintln!("bench_forward: --run-id requires a label argument");
                return ExitCode::FAILURE;
            }
        },
        None => "unlabeled".to_string(),
    };
    let base = GeoConfig::geo(32, 64);
    let workloads = workloads(sizing);

    println!(
        "bench_forward: scale={} batch={} size={} reps={} threads={threads} streams={}/{}",
        sizing.scale,
        sizing.batch,
        sizing.size,
        sizing.reps,
        base.stream_len_pooled,
        base.stream_len
    );

    // Tri-path identity pin: before any timing, every workload's direct
    // engine forward, compile-once prepared forward, and program-driven
    // executor forward must agree bit for bit.
    if let Err(e) = pin_tri_path_identity(&workloads, base) {
        eprintln!("bench_forward: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>9}",
        "model", "mode", "generation", "before", "after", "speedup"
    );

    let mut cells = Vec::new();
    let mut expected = Vec::new();
    for w in &workloads {
        let (name, x) = (w.name, &w.input);
        for mode in Accumulation::ALL {
            for progressive in [false, true] {
                let config = base.with_accumulation(mode).with_progressive(progressive);
                let context = format!("{name} {mode:?} progressive={progressive}");
                let mut before = Path::new(&w.model, config, true);
                let mut after = Path::new(&w.model, config, false);
                // Warm-up both paths (table construction, page faults) and
                // pin bit-identity before any timing is trusted.
                let before_out = before.forward(x);
                let after_out = after.forward(x);
                assert_identical(&before_out, &after_out, &context);
                let (ms_before, ms_after) = time_cell(&mut before, &mut after, x, w.reps, &context);
                let speedup = ms_before / ms_after;
                let generation = if progressive { "progressive" } else { "normal" };
                println!(
                    "{name:>8} {:>6} {generation:>12} {ms_before:>10.2}ms {ms_after:>10.2}ms {speedup:>8.2}x",
                    format!("{mode:?}"),
                );
                cells.push(Cell {
                    model: name.to_string(),
                    accumulation: format!("{mode:?}"),
                    progressive,
                    threads,
                    ms_before,
                    ms_after,
                    speedup,
                    identical: true,
                });
            }
        }
    }
    for w in &workloads {
        for mode in Accumulation::ALL {
            for progressive in [false, true] {
                expected.push((w.name.to_string(), format!("{mode:?}"), progressive));
            }
        }
    }

    // Compile-once, serve-many measurement: appended to the same head
    // snapshot so the serve trajectory rides the run history.
    if args.iter().any(|a| a == "--serve") {
        if let Err(e) = serve_bench(base, sizing, threads, &mut cells) {
            eprintln!("bench_forward: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut report = Report {
        bench: "bench_forward".to_string(),
        threads,
        scale: sizing.scale.to_string(),
        cells,
        runs: Vec::new(),
    };
    let path = repo_root_artifact();
    // Carry forward the run history from the prior artifact (migrating a
    // legacy history-less file), then append this run's snapshot under
    // the caller's label. The head `cells` stay the latest run.
    let prior = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Report::from_json(&t).ok());
    if let Err(e) = report.append_history(prior.as_ref(), &run_id) {
        eprintln!("bench_forward: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = report.write(&path) {
        eprintln!("bench_forward: failed to write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    // Self-validation: re-read what was written and require full coverage,
    // so the CI smoke step catches schema drift at the source.
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_forward: failed to re-read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let parsed = match Report::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_forward: emitted JSON does not parse as {SCHEMA}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected_refs: Vec<(&str, &str, bool)> = expected
        .iter()
        .map(|(m, a, p)| (m.as_str(), a.as_str(), *p))
        .collect();
    if let Err(e) = parsed.validate_cells(&expected_refs) {
        eprintln!("bench_forward: artifact failed cell validation: {e}");
        return ExitCode::FAILURE;
    }

    // Per-mode threshold gate (DESIGN.md §14): the smoke CI lane relies
    // on this exiting non-zero, so it runs on every invocation rather
    // than behind a flag.
    if let Err(e) = check_thresholds(&parsed) {
        eprintln!("bench_forward: per-mode threshold gate failed:\n{e}");
        return ExitCode::FAILURE;
    }

    println!(
        "wrote {} ({} cells, {} history runs, schema {SCHEMA}) — artifact validated, \
         per-mode {} floors cleared",
        path.display(),
        parsed.cells.len(),
        parsed.runs.len(),
        parsed.scale
    );

    // Durable-artifact round trip: save every compiled program, reload it
    // through the validating boundary, and require bit-identical outputs.
    if let Some(i) = args.iter().position(|a| a == "--artifact") {
        let Some(dir) = args.get(i + 1) else {
            eprintln!("bench_forward: --artifact requires a directory argument");
            return ExitCode::FAILURE;
        };
        if let Err(e) = artifact_round_trip(&workloads, base, dir) {
            eprintln!("bench_forward: {e}");
            return ExitCode::FAILURE;
        }
    }

    if args.iter().any(|a| a == "--telemetry") {
        if let Err(e) = emit_telemetry(&workloads, base, sizing, threads) {
            eprintln!("bench_forward: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!("BIT_IDENTICAL_ACROSS_ALL_CELLS");
    ExitCode::SUCCESS
}
