//! `cnn4-train`: SC-in-the-loop training (`train_sc`) of paper-scale
//! CNN-4 on synthetic CIFAR-like images (3×32×32), batch 16.
//!
//! Same conv datapath as `cnn4-serve`, used differently: the weights
//! change every step, so every step re-resolves every layer against a
//! warm table cache, and the float backward pass costs about as much as
//! the SC forward. A prepare speed-up that costs per-step re-resolve
//! shows here.
//!
//! After each round the trained weights are deployed: prepared afresh,
//! re-prepared warm, and run as batch-1 and batch-8 forwards. Beside that
//! the network is compiled, encoded, reloaded and simulated, for the
//! accelerator's figures.
//!
//! A traced run also replays `train_sc`'s step loop through the same
//! public calls (SC forward, loss, backward, optimizer step) from the same
//! starting state and times each call; the replay's losses and weights
//! must equal `train_sc`'s bit for bit.

use crate::common::{
    bits, check_sim, check_stored, compile_and_simulate, count, digest, forward_layers, ms,
    prepare_layers, BATCH,
};
use crate::host;
use crate::results::{Phase, Results};
use crate::stats::median;
use crate::trace::Tracer;
use geo_arch::{AccelConfig, NetworkDesc};
use geo_core::{train_sc, GeoConfig, GeoError, ScEngine};
use geo_nn::datasets::{generate, Dataset, DatasetSpec};
use geo_nn::loss::softmax_cross_entropy;
use geo_nn::models::spec;
use geo_nn::optim::Optimizer;
use geo_nn::train::TrainConfig;
use geo_nn::{Sequential, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Set-ups timed before training and again before each round, so that
/// `setup_s`, their median, samples the host across the run: one set-up
/// takes under a millisecond.
const SETUP_CHUNK: usize = 20;
/// Images per `train_sc` call (one epoch each): one batch, so that a
/// round is one step and the median over rounds has many samples.
const IMAGES: usize = 16;
const BATCH_SIZE: usize = 16;
/// Rounds of training and deployment at the least; more start while the
/// run's seconds last.
const MIN_ROUNDS: usize = 3;
/// Batch-8 forwards of the trained model per deployment.
const DEPLOY_BATCHES: usize = 1;

/// Digest of the losses and weights after the first [`MIN_ROUNDS`]
/// rounds for [`crate::common::DEFAULT_SEED`].
const TRAIN_DIGEST: u64 = 0x49a4_95c8_6d28_9ce2;

pub fn run(res: &mut Results, tr: &Tracer) -> Result<(), String> {
    let started = Instant::now();
    let cfg = GeoConfig::geo(32, 64);
    let model_spec = spec::cnn4_cifar();
    let (channels, size, _) = model_spec.input;
    let mut data_spec = DatasetSpec::cifar_like(res.seed).with_samples(IMAGES, 1);
    data_spec.channels = channels;
    data_spec.size = size;
    let (images, _) = generate(&data_spec);
    let seed = res.seed;
    let mut deploy = Deploy {
        inputs: (0..BATCH).map(|i| images.batch(i, 1).0).collect(),
        batch: images.batch(0, BATCH).0,
        prepares: Phase::new("deploy_prepare"),
        b1: Phase::new("forward_b1"),
        b8: Phase::new("forward_b8"),
        b1_ms: Vec::new(),
        b8_ms: Vec::new(),
        prepared_mib: None,
        ok: true,
    };

    let mut setup = Phase::new("setup");
    let mut setup_s = Vec::new();
    let mut timed_setups = || {
        let mut last = None;
        for _ in 0..SETUP_CHUNK {
            let (built, took) = tr.time("bench.setup", None, |root| {
                let (model, _) = tr.time("nn.build", root, |_| model_spec.build(seed));
                let model = model.map_err(|e| format!("CNN-4 spec does not build: {e}"))?;
                Ok::<_, String>(count(&mut setup, ScEngine::new(cfg)).map(|e| (model, e)))
            });
            if let Some(state) = built? {
                setup_s.push(took.as_secs_f64());
                last = Some(state);
            }
        }
        last.ok_or_else(|| "no set-up succeeded".to_string())
    };
    let (mut model, mut engine) = timed_setups()?;
    let mut optimizer = Optimizer::paper_default();
    // A traced run follows each `train_sc` round with its replay, on a
    // separate model, optimizer and engine that start where `train_sc`'s
    // did.
    let mut replay = match tr.on() {
        true => Some(Replay {
            engine: ScEngine::new(cfg).map_err(|e| format!("replay engine: {e}"))?,
            model: model.clone(),
            optimizer: optimizer.clone(),
            losses: Vec::new(),
            steps: Phase::new("replay_step"),
        }),
        false => None,
    };

    let mut train = Phase::new("train_sc");
    let mut losses = Vec::new();
    let mut img_per_s = Vec::new();
    let mut stored_point = None;
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed() < Duration::from_secs(res.seconds) {
        if round > 0 {
            timed_setups()?;
        }
        let round_cfg = round_config(seed, round);
        let (hist, took) = tr.time("training.train_sc", None, |_| {
            train_sc(&mut engine, &mut model, &images, &mut optimizer, &round_cfg)
        });
        let hist = count(&mut train, hist).ok_or("train_sc failed")?;
        losses.push(hist.final_loss().ok_or("train_sc ran no epoch")?);
        img_per_s.push(IMAGES as f64 / took.as_secs_f64());
        if round + 1 == MIN_ROUNDS {
            stored_point = Some(weights_digest(&mut model, &losses));
        }
        if let Some(r) = &mut replay {
            r.epoch(tr, &images, &round_cfg)
                .ok_or("replayed step failed")?;
        }
        deploy.round(tr, cfg, &model)?;
        round += 1;
    }
    timed_setups()?;
    res.close(setup);
    res.e2e(
        "setup_s",
        median(&setup_s).ok_or("no set-up time")?,
        "s",
        setup_s.len(),
    );
    res.close(train);
    let rate = median(&img_per_s).ok_or("no training round")?;
    res.e2e("batch_img_per_s", rate, "img/s", img_per_s.len());
    res.close(deploy.prepares);
    res.close(deploy.b1);
    res.close(deploy.b8);
    res.check(
        "cnn4 trained: cold == warm re-prepare, batch-8 rows == batch-1 (bits)",
        deploy.ok,
        "",
    );
    let b1 = median(&deploy.b1_ms).ok_or("no batch-1 forward")?;
    res.e2e("infer_b1_ms_p50", b1, "ms", deploy.b1_ms.len());
    if let Some(mib) = deploy.prepared_mib {
        res.layer("engine.prepared_mib", mib, "MiB", 1);
    }

    if let Some(mut r) = replay {
        let same = losses
            .iter()
            .map(|l| l.to_bits())
            .eq(r.losses.iter().map(|l| l.to_bits()))
            && weights_digest(&mut model, &losses) == weights_digest(&mut r.model, &r.losses);
        res.check(
            "cnn4 training replay == train_sc (loss and weight bits)",
            same,
            format!("train_sc losses {losses:?}, replayed {:?}", r.losses),
        );
        res.close(r.steps);
    }
    if let Some(d) = stored_point {
        check_stored(res, "cnn4 training digest (stored)", d, TRAIN_DIGEST);
    }

    // The trained weights, prepared afresh, must infer exactly as the
    // training engine's own inference forward does.
    let (probe, _) = images.batch(0, BATCH_SIZE);
    let mut deploy = Phase::new("deploy");
    let direct = count(&mut deploy, engine.forward(&mut model, &probe, false));
    let prepared = count(
        &mut deploy,
        ScEngine::new(cfg).and_then(|mut e| e.prepare(&model, probe.shape())),
    );
    let served = prepared.and_then(|p| count(&mut deploy, p.forward(&probe)));
    res.close(deploy);
    let (direct, served) = direct.zip(served).ok_or("deploy check failed")?;
    res.check(
        "cnn4 trained: fresh prepare == engine inference (bits)",
        bits(&direct) == bits(&served),
        "",
    );
    res.e2e("peak_rss_mib", host::peak_rss_mib()?, "MiB", 1);

    let net = NetworkDesc::from_spec(&model_spec);
    let sim = compile_and_simulate(res, tr, cfg, &AccelConfig::ulp_geo(32, 64), &net)?;
    check_sim(
        res,
        "cnn4 perfsim counts (stored)",
        &sim,
        crate::cnn4_serve::SIM,
    );

    let spans = tr.spans();
    res.span_ms(&spans, "nn.build_ms", "nn.build");
    res.span_ms(&spans, "arch.compile_ms", "arch.compile");
    res.span_ms(&spans, "arch.artifact_encode_ms", "arch.artifact_encode");
    res.span_ms(&spans, "exec.load_ms", "exec.load");
    prepare_layers(res, &spans, "engine.prepare", "engine.prepare_warm");
    forward_layers(res, &spans, net.total_macs(), sim.cycles);
    res.self_ms(&spans, "bench.setup_self_ms", "bench.setup");
    res.span_ms(&spans, "training.step_ms", "training.step");
    res.span_ms(&spans, "engine.train_forward_ms", "engine.train_forward");
    res.span_ms(&spans, "nn.loss_ms", "nn.loss");
    res.span_ms(&spans, "nn.backward_ms", "nn.backward");
    res.span_ms(&spans, "nn.optim_ms", "nn.optim");
    res.self_ms(&spans, "training.step_self_ms", "training.step");
    Ok(())
}

/// Round `round` trains one epoch over the images with its own shuffle.
fn round_config(seed: u64, round: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: BATCH_SIZE,
        seed: seed.wrapping_add(round as u64),
    }
}

/// The trained model's deployments and what they found.
struct Deploy {
    /// The first [`BATCH`] images, one batch-1 tensor each.
    inputs: Vec<Tensor>,
    /// The same images in one batch.
    batch: Tensor,
    prepares: Phase,
    b1: Phase,
    b8: Phase,
    b1_ms: Vec<f64>,
    b8_ms: Vec<f64>,
    /// RSS growth across the first cold prepare.
    prepared_mib: Option<f64>,
    /// Whether the warm re-prepare and the batch-8 rows matched the cold
    /// prepare's batch-1 outputs, in every deployment.
    ok: bool,
}

impl Deploy {
    /// Prepares `model` on a fresh engine (a cold table cache), re-prepares
    /// it warm, and times a batch-1 forward of every input and
    /// [`DEPLOY_BATCHES`] batch-8 forwards.
    fn round(&mut self, tr: &Tracer, cfg: GeoConfig, model: &Sequential) -> Result<(), String> {
        let shape = self.inputs[0].shape().to_vec();
        let mut engine =
            count(&mut self.prepares, ScEngine::new(cfg)).ok_or("deploy engine failed")?;
        let rss0 = host::rss_mib()?;
        let (cold, _) = tr.time("engine.prepare", None, |_| engine.prepare(model, &shape));
        let rss1 = host::rss_mib()?;
        let cold = count(&mut self.prepares, cold).ok_or("trained-model prepare failed")?;
        self.prepared_mib.get_or_insert(rss1 - rss0);
        let (warm, _) = tr.time("engine.prepare_warm", None, |_| {
            engine.prepare(model, &shape)
        });
        let warm = count(&mut self.prepares, warm).ok_or("warm re-prepare failed")?;

        let mut singles = Vec::with_capacity(self.inputs.len());
        for x in &self.inputs {
            let (out, took) = tr.time("engine.forward_b1", None, |_| cold.forward(x));
            let out = count(&mut self.b1, out).ok_or("trained batch-1 forward failed")?;
            self.b1_ms.push(ms(took));
            singles.push(bits(&out));
        }
        let warm_out = count(&mut self.b1, warm.forward(&self.inputs[0]));
        self.ok &= warm_out.is_some_and(|o| bits(&o) == singles[0]);
        for _ in 0..DEPLOY_BATCHES {
            let (out, took) = tr.time("engine.forward_b8", None, |_| cold.forward(&self.batch));
            let out = count(&mut self.b8, out).ok_or("trained batch-8 forward failed")?;
            self.b8_ms.push(ms(took));
            let b = bits(&out);
            self.ok &= b
                .chunks(b.len() / singles.len())
                .zip(&singles)
                .all(|(got, want)| got == want.as_slice());
        }
        Ok(())
    }
}

/// The replay of `train_sc`'s step loop and the state it trains.
struct Replay {
    engine: ScEngine,
    model: Sequential,
    optimizer: Optimizer,
    /// Mean loss of each replayed epoch.
    losses: Vec<f32>,
    steps: Phase,
}

impl Replay {
    /// One epoch of `train_sc`'s loop, call for call, with a span per
    /// step and per call.
    fn epoch(&mut self, tr: &Tracer, data: &Dataset, cfg: &TrainConfig) -> Option<()> {
        // `train_sc` decays the rate only for runs of 8 or more epochs.
        debug_assert!(cfg.epochs == 1);
        let Replay {
            engine,
            model,
            optimizer,
            ..
        } = self;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(&mut rng);
        let mut total = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let (x, labels) = gather(data, chunk);
            let (loss, _) = tr.time("training.step", None, |root| -> Result<f32, GeoError> {
                let (logits, _) = tr.time("engine.train_forward", root, |_| {
                    engine.forward(model, &x, true)
                });
                let logits = logits?;
                let (out, _) =
                    tr.time("nn.loss", root, |_| softmax_cross_entropy(&logits, &labels));
                let out = out?;
                let (back, _) = tr.time("nn.backward", root, |_| model.backward(&out.grad));
                back?;
                tr.time("nn.optim", root, |_| {
                    optimizer.step(&mut model.params_mut())
                });
                Ok(out.loss)
            });
            total += count(&mut self.steps, loss)?;
            batches += 1;
        }
        self.losses.push(total / batches.max(1) as f32);
        Some(())
    }
}

/// The images at `idx`, stacked in that order, with their labels.
fn gather(data: &Dataset, idx: &[usize]) -> (Tensor, Vec<usize>) {
    let (c, h, w) = data.image_shape();
    let sz = c * h * w;
    let pixels = idx
        .iter()
        .flat_map(|&i| data.images.data()[i * sz..(i + 1) * sz].iter().copied())
        .collect();
    let labels = idx.iter().map(|&i| data.labels[i]).collect();
    let x =
        Tensor::from_vec(vec![idx.len(), c, h, w], pixels).expect("gathered images fill the batch");
    (x, labels)
}

fn weights_digest(model: &mut Sequential, losses: &[f32]) -> u64 {
    let params = model.params_mut();
    let weights = params.iter().flat_map(|p| p.value.data().iter().copied());
    digest(losses.iter().copied().chain(weights))
}
