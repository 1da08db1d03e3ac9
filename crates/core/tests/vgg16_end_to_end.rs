//! VGG-16 (scaled) end-to-end: the third paper workload through every
//! subsystem. The thumbnail spec (`models::vgg16_small`) runs in tier-1:
//! direct `ScEngine::forward`, compile-once `PreparedModel::forward`,
//! program-driven `ProgramExecutor::forward`, and
//! `ProgramExecutor::prepare` must agree bit for bit at 1–8 threads,
//! with the avg pools or with max pools in their place; serving and the
//! GEOA artifact round trip must stay on the same bit pattern. The
//! paper-scale `vgg16_scaled_cifar` spec (78.8M MACs) runs the same
//! gauntlet as a heavy release-only case behind `GEO_SKIP_HEAVY_TESTS`.

use geo_arch::{compiler, AccelConfig, NetworkDesc};
use geo_core::{GeoConfig, ProgramExecutor, ScEngine, ScServer, ServeConfig};
use geo_nn::models::{self, spec};
use geo_nn::{Layer, MaxPool2d, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

fn skip_heavy() -> bool {
    std::env::var("GEO_SKIP_HEAVY_TESTS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The 3-channel 8×8 VGG-16 thumbnail: five conv blocks (2-2-3-3-3),
/// avg pools after the first three.
fn thumbnail() -> Sequential {
    models::vgg16_small(3, 8, 10, 5)
}

fn input(batch: usize, channels: usize, size: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x =
        Tensor::kaiming(&[batch, channels, size, size], size, &mut rng).map(|v| v.abs().min(1.0));
    // Keep one exact full-scale element so the all-ones stream path is
    // under test at depth.
    x.data_mut()[0] = 1.0;
    x
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs all four execution paths on a fresh model/engine under
/// `threads` workers and asserts them mutually bit-identical; returns
/// one representative bit pattern for cross-thread-count comparison.
fn four_path_bits(
    threads: usize,
    cfg: GeoConfig,
    accel: &AccelConfig,
    model: &Sequential,
    x: &Tensor,
) -> Vec<u32> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction never fails");
    pool.install(|| {
        let mut model = model.clone();
        model.set_training(false);
        let input = (x.shape()[1], x.shape()[2], x.shape()[3]);

        let mut engine = ScEngine::new(cfg).expect("valid test config");
        let direct = engine
            .forward(&mut model.clone(), x, false)
            .expect("direct forward");

        let prepared = ScEngine::new(cfg)
            .expect("valid test config")
            .prepare(&model, x.shape())
            .expect("prepare");
        let via_prepared = prepared.forward(x).expect("prepared forward");

        let mut exec = ProgramExecutor::compile(cfg, accel, &model, input, "vgg16")
            .expect("thumbnail program compiles");
        let via_program = exec
            .forward(&mut model.clone(), x, false)
            .expect("program-driven forward");

        let mut exec2 = ProgramExecutor::compile(cfg, accel, &model, input, "vgg16")
            .expect("thumbnail program compiles");
        let via_exec_prepared = exec2
            .prepare(&mut model.clone(), x.shape())
            .expect("executor prepare")
            .forward(x)
            .expect("executor-prepared forward");

        assert_eq!(bits(&direct), bits(&via_prepared), "direct vs prepared");
        assert_eq!(bits(&direct), bits(&via_program), "direct vs program");
        assert_eq!(
            bits(&direct),
            bits(&via_exec_prepared),
            "direct vs executor-prepared"
        );
        bits(&direct)
    })
}

/// Tentpole pin: all four execution paths on the VGG thumbnail agree
/// bit for bit with the serial direct path at 1–8 threads — as built,
/// and with every avg pool replaced by a max pool.
#[test]
fn thumbnail_four_paths_bit_identical_at_1_to_8_threads() {
    let cfg = GeoConfig::geo(16, 32);
    let accel = AccelConfig::ulp_geo(16, 32);
    let mut max_pooled = thumbnail();
    for layer in max_pooled.layers_mut() {
        if matches!(layer, Layer::AvgPool2d(_)) {
            *layer = Layer::MaxPool2d(MaxPool2d::new());
        }
    }
    let x = input(2, 3, 8, 0xA11CE);
    for model in [thumbnail(), max_pooled] {
        let oracle = four_path_bits(1, cfg, &accel, &model, &x);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                oracle,
                four_path_bits(threads, cfg, &accel, &model, &x),
                "thread count {threads} moved a bit"
            );
        }
    }
}

/// Serve path: batched requests through `ScServer` against the prepared
/// VGG thumbnail reproduce the unbatched `PreparedModel::forward` bits.
#[test]
fn serve_matches_prepared_forward() {
    let cfg = GeoConfig::geo(16, 32);
    let mut model = thumbnail();
    model.set_training(false);
    let prepared = Arc::new(
        ScEngine::new(cfg)
            .expect("valid test config")
            .prepare(&model, &[1, 3, 8, 8])
            .expect("prepare"),
    );
    let server = ScServer::spawn(
        Arc::clone(&prepared),
        ServeConfig::default().with_max_batch(4).with_queue_depth(4),
    )
    .expect("serve spawn");
    let inputs: Vec<Tensor> = (0..4).map(|s| input(1, 3, 8, 0xBEEF + s as u64)).collect();
    let pendings: Vec<_> = inputs
        .iter()
        .map(|x| server.submit(x.clone()).expect("submit"))
        .collect();
    for (x, pending) in inputs.iter().zip(pendings) {
        let response = pending.wait().expect("serve response");
        let direct = prepared.forward(x).expect("unbatched forward");
        assert_eq!(bits(&response.output), bits(&direct), "serve moved a bit");
    }
    server.shutdown().expect("serve shutdown");
}

/// GEOA artifact round trip on the thumbnail: serialize the compiled
/// program, reload it through the validating boundary, and require the
/// reloaded executor's forward to match the in-memory one bit for bit.
#[test]
fn artifact_round_trip_is_bit_identical() {
    let cfg = GeoConfig::geo(16, 32);
    let accel = AccelConfig::ulp_geo(16, 32);
    let model = thumbnail();
    let x = input(1, 3, 8, 3);
    let mut fresh =
        ProgramExecutor::compile(cfg, &accel, &model, (3, 8, 8), "vgg16").expect("compile");
    let bytes = fresh.to_artifact().expect("artifact serialization");
    let net = NetworkDesc::from_model("vgg16", &model, (3, 8, 8));
    let mut reloaded = ProgramExecutor::from_artifact(cfg, &net, &bytes).expect("artifact reloads");
    let direct = fresh
        .forward(&mut model.clone(), &x, false)
        .expect("in-memory forward");
    let via_artifact = reloaded
        .forward(&mut model.clone(), &x, false)
        .expect("reloaded forward");
    assert_eq!(bits(&direct), bits(&via_artifact));
}

/// The paper-scale gauntlet: `spec::vgg16_scaled_cifar` (13 convs,
/// 78.8M MACs, 3×16×16 input) built into a model, lowered through
/// `NetworkDesc::from_spec` → `compiler::compile` → GEOA bytes →
/// `ProgramExecutor`, and pinned bit-identical across direct, prepared,
/// program-driven, and serial-vs-2-thread execution. Release-only: a
/// debug engine pass over 78.8M MACs is minutes, not seconds.
#[test]
fn paper_scale_vgg16_end_to_end() {
    if skip_heavy() || cfg!(debug_assertions) {
        eprintln!("skipped: GEO_SKIP_HEAVY_TESTS set or debug build (paper-scale VGG is heavy)");
        return;
    }
    let cfg = GeoConfig::geo(16, 32);
    let accel = AccelConfig::ulp_geo(16, 32);
    let model_spec = spec::vgg16_scaled_cifar();
    let mut model = model_spec.build(3).expect("paper-scale spec builds");
    model.set_training(false);
    let x = input(1, 3, 16, 0x5CA1E);

    // Spec-lowered network and compiled program, via the GEOA artifact.
    let net = NetworkDesc::from_spec(&model_spec);
    let program = compiler::compile(&net, &accel);
    let exec = ProgramExecutor::new(cfg, &net, program).expect("program matches spec net");
    let artifact = exec.to_artifact().expect("artifact serialization");
    let mut reloaded =
        ProgramExecutor::from_artifact(cfg, &net, &artifact).expect("artifact reloads");

    let run_at = |threads: usize, f: &mut dyn FnMut() -> Vec<u32>| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool construction never fails");
        pool.install(f)
    };

    let direct = run_at(1, &mut || {
        let mut engine = ScEngine::new(cfg).expect("valid test config");
        bits(
            &engine
                .forward(&mut model.clone(), &x, false)
                .expect("direct forward"),
        )
    });
    let prepared = run_at(1, &mut || {
        let prepared = ScEngine::new(cfg)
            .expect("valid test config")
            .prepare(&model, x.shape())
            .expect("prepare");
        bits(&prepared.forward(&x).expect("prepared forward"))
    });
    let via_program = run_at(1, &mut || {
        bits(
            &reloaded
                .forward(&mut model.clone(), &x, false)
                .expect("program-driven forward"),
        )
    });
    let threaded = run_at(2, &mut || {
        let mut engine = ScEngine::new(cfg).expect("valid test config");
        bits(
            &engine
                .forward(&mut model.clone(), &x, false)
                .expect("threaded forward"),
        )
    });

    assert_eq!(direct, prepared, "direct vs prepared");
    assert_eq!(direct, via_program, "direct vs program-from-artifact");
    assert_eq!(direct, threaded, "1 vs 2 threads");
}
