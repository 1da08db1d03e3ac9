//! `vgg16-cold`: paper-scale VGG-16 (3×16×16, 78.8M MACs) from model
//! build to first request through the GEOA artifact path, a warm
//! re-prepare, and batch-1 and batch-8 prepared forwards.
//!
//! Prepare (resolve, compaction and table build) does nearly all the work
//! here, so this is where prepare speed and the memory a prepared model
//! holds show.

use crate::common::{
    bits, check_sim, check_stored, count, digest, forward_layers, images, ms, prepare_layers,
    stack, SimFigures, BATCH,
};
use crate::host;
use crate::results::{Phase, Results};
use crate::stats::median;
use crate::trace::Tracer;
use geo_arch::{compiler, perfsim, AccelConfig, NetworkDesc, ProgramArtifact};
use geo_core::{GeoConfig, PreparedModel, ProgramExecutor};
use geo_nn::models::spec;
use geo_nn::Tensor;
use std::time::{Duration, Instant};

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct inputs the forwards cycle through; batch-8 forwards take them
/// all at once.
const INPUTS: usize = BATCH;
/// Batch-1 forwards per chunk at the least: one per input. A chunk
/// follows each cold set-up and the warm re-prepare, so forwards are timed
/// across the whole run: batch-1 forwards for half of it, then batch-8
/// ones, one at least.
const MIN_FORWARDS: usize = INPUTS;

/// Probe-output digest for [`crate::common::DEFAULT_SEED`].
const PROBE_DIGEST: u64 = 0x40d6_9e0c_f0f6_5c45;
/// perfsim's figures for the compiled program at the ULP design point.
/// They depend on no seed: only a change to the compiler or perfsim
/// moves them.
const SIM: SimFigures = (113_275, 0x3ef5_3180_d4c5_9a71);

pub fn run(res: &mut Results, tr: &Tracer) -> Result<(), String> {
    let cfg = GeoConfig::geo(32, 64);
    let accel = AccelConfig::ulp_geo(32, 64);
    let model_spec = spec::vgg16_scaled_cifar();
    let (c, h, w) = model_spec.input;
    let shape = [1, c, h, w];
    let inputs = images(res.seed, 1, INPUTS, model_spec.input);
    let probe = inputs[0].clone();
    let seed = res.seed;
    let chunk = Duration::from_secs_f64(res.seconds as f64 / 2.0 / (SETUPS + 1) as f64);
    let mut fwd = Forwards {
        batch: stack(&inputs),
        inputs,
        b1: Phase::new("forward_b1"),
        b8: Phase::new("forward_b8"),
        b1_ms: Vec::new(),
        b8_ms: Vec::new(),
        singles: vec![None; INPUTS],
        rows_ok: true,
    };

    // Cold set-ups, each from a fresh executor and so a cold table cache.
    // Each prepared model is dropped before the next is built, so one is
    // resident at a time; the last executor is kept for the re-prepare.
    let mut setup = Phase::new("setup");
    let mut setup_s = Vec::new();
    let mut probe_digests = Vec::new();
    let mut kept = None;
    let net = NetworkDesc::from_spec(&model_spec);
    for k in 0..SETUPS {
        let mut rss = (0.0, 0.0);
        let (built, took) = tr.time("bench.setup", None, |root| -> Result<Option<_>, String> {
            let (model, _) = tr.time("nn.build", root, |_| model_spec.build(seed));
            let mut model = model.map_err(|e| format!("VGG-16 spec does not build: {e}"))?;
            model.set_training(false);
            let (program, _) = tr.time("arch.compile", root, |_| compiler::compile(&net, &accel));
            let (bytes, _) = tr.time("arch.artifact_encode", root, |_| {
                ProgramArtifact::new(program, &net).to_bytes()
            });
            let bytes = bytes.map_err(|e| format!("artifact encode: {e}"))?;
            let (exec, _) = tr.time("exec.load", root, |_| {
                ProgramExecutor::from_artifact(cfg, &net, &bytes)
            });
            let Some(mut exec) = count(&mut setup, exec) else {
                return Ok(None);
            };
            rss.0 = host::rss_mib()?;
            let (prepared, _) = tr.time("exec.prepare", root, |_| exec.prepare(&mut model, &shape));
            rss.1 = host::rss_mib()?;
            Ok(count(&mut setup, prepared).map(|p| (model, exec, bytes.len(), p)))
        });
        let Some((model, exec, artifact_bytes, prepared)) = built? else {
            continue;
        };
        setup_s.push(took.as_secs_f64());
        if k == 0 {
            res.layer("engine.prepared_mib", rss.1 - rss.0, "MiB", 1);
            res.layer("arch.artifact_bytes", artifact_bytes as f64, "B", 1);
        }
        let mut probe_phase = Phase::new("forward_probe");
        if let Some(out) = count(&mut probe_phase, prepared.forward(&probe)) {
            probe_digests.push(digest(out.data().iter().copied()));
        }
        res.close(probe_phase);
        fwd.chunk(tr, &prepared, chunk);
        kept = Some((model, exec));
    }
    res.close(setup);
    let (mut model, mut exec) = kept.ok_or("no cold set-up succeeded")?;
    let setup_med = median(&setup_s).ok_or("no set-up time")?;
    res.e2e("setup_s", setup_med, "s", setup_s.len());

    // Warm re-prepare: same executor, so the table cache is warm.
    let (warm, _) = tr.time("exec.prepare_warm", None, |_| {
        exec.prepare(&mut model, &shape)
    });
    let warm = res.once(Phase::new("prepare_warm"), "warm re-prepare", warm)?;
    let warm_probe = digest(
        warm.forward(&probe)
            .map_err(|e| format!("warm probe forward: {e}"))?
            .data()
            .iter()
            .copied(),
    );
    res.check(
        "vgg16 cold == warm re-prepare (probe, bits)",
        probe_digests.len() == SETUPS && probe_digests.iter().all(|&d| d == warm_probe),
        format!("cold {probe_digests:x?}, warm {warm_probe:#018x}"),
    );
    if let Some(&d) = probe_digests.first() {
        check_stored(res, "vgg16 probe digest (stored)", d, PROBE_DIGEST);
    }
    fwd.chunk(tr, &warm, chunk);
    drop(warm);
    res.close(fwd.b1);
    res.close(fwd.b8);
    res.check("vgg16 batch-8 rows == batch-1 (bits)", fwd.rows_ok, "");
    let b1 = median(&fwd.b1_ms).ok_or("no batch-1 forward")?;
    res.e2e("infer_b1_ms_p50", b1, "ms", fwd.b1_ms.len());
    let b8 = median(&fwd.b8_ms).ok_or("no batch-8 forward")?;
    res.e2e(
        "batch_img_per_s",
        BATCH as f64 * 1e3 / b8,
        "img/s",
        fwd.b8_ms.len(),
    );

    // perfsim at the ULP design point, for the same compiled program.
    let (sim, _) = tr.time("arch.simulate", None, |_| {
        perfsim::simulate(&accel, exec.program())
    });
    res.close(Phase {
        attempted: 1,
        ..Phase::new("simulate")
    });
    check_sim(res, "vgg16 perfsim counts (stored)", &sim, SIM);
    res.e2e("peak_rss_mib", host::peak_rss_mib()?, "MiB", 1);

    let spans = tr.spans();
    res.span_ms(&spans, "nn.build_ms", "nn.build");
    res.span_ms(&spans, "arch.compile_ms", "arch.compile");
    res.span_ms(&spans, "arch.artifact_encode_ms", "arch.artifact_encode");
    res.span_ms(&spans, "exec.load_ms", "exec.load");
    prepare_layers(res, &spans, "exec.prepare", "exec.prepare_warm");
    res.self_ms(&spans, "bench.setup_self_ms", "bench.setup");
    forward_layers(res, &spans, net.total_macs(), sim.cycles);
    Ok(())
}

/// The forward phases that follow each prepare, and what they found.
struct Forwards {
    inputs: Vec<Tensor>,
    /// All of `inputs` in one batch.
    batch: Tensor,
    b1: Phase,
    b8: Phase,
    b1_ms: Vec<f64>,
    b8_ms: Vec<f64>,
    /// Each input's batch-1 output bits, from its first forward.
    singles: Vec<Option<Vec<u32>>>,
    /// Whether every batch-8 row matched the batch-1 forward of its input.
    rows_ok: bool,
}

impl Forwards {
    /// Times batch-1 forwards for half of `budget` (and at least
    /// [`MIN_FORWARDS`]), then batch-8 forwards for the rest (at least
    /// one), checking each batch-8 row against a batch-1 forward.
    fn chunk(&mut self, tr: &Tracer, prepared: &PreparedModel, budget: Duration) {
        let start = Instant::now();
        let mut done = 0;
        while done < MIN_FORWARDS || start.elapsed() < budget / 2 {
            let k = self.b1.attempted as usize % self.inputs.len();
            let (out, took) = tr.time("engine.forward_b1", None, |_| {
                prepared.forward(&self.inputs[k])
            });
            if let Some(out) = count(&mut self.b1, out) {
                self.b1_ms.push(ms(took));
                self.singles[k].get_or_insert_with(|| bits(&out));
            }
            done += 1;
        }
        done = 0;
        while done < 1 || start.elapsed() < budget {
            let (out, took) = tr.time("engine.forward_b8", None, |_| prepared.forward(&self.batch));
            if let Some(out) = count(&mut self.b8, out) {
                self.b8_ms.push(ms(took));
                let b = bits(&out);
                let row = b.len() / self.inputs.len();
                self.rows_ok &= b
                    .chunks(row)
                    .zip(&self.singles)
                    .all(|(got, want)| want.as_deref() == Some(got));
            }
            done += 1;
        }
    }
}
