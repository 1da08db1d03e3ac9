//! The prepare/compute split must be *bit-identical* to the interleaved
//! forward loop — not merely close. `ScEngine::prepare` performs every
//! stateful draw (table construction, fault injection) in the same order
//! the direct forward's resolve phase does, and `PreparedModel::forward`
//! is pure, so a fresh engine's first direct forward and a fresh engine's
//! prepare-then-compute must agree to the bit at every thread count.
//! These tests pin that contract across both paper models, every
//! accumulation mode, both generation modes, and 1–8 compute threads —
//! and pin that concurrent *serving* (batched, multi-client) returns the
//! same bits and telemetry totals as unbatched single requests.

use geo_core::{Accumulation, GeoConfig, ScEngine, ScServer, ServeConfig};
use geo_nn::{
    models, AvgPool2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, Relu, Sequential, Tensor,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

/// The two paper models at thumbnail scale: LeNet-5 (1×8×8 input) and
/// CNN-4 (3×8×8 input). Cases 2 and 3 stack a second pool behind a
/// conv's average pool — `Conv → AvgPool → {AvgPool, MaxPool} → Flatten
/// → Linear` — so a pool can also consume an already-pooled tensor.
fn paper_model(which: usize, seed: u64) -> (Sequential, Vec<usize>) {
    match which {
        0 => (models::lenet5(1, 8, 10, seed), vec![2, 1, 8, 8]),
        1 => (models::cnn4(3, 8, 10, seed), vec![2, 3, 8, 8]),
        _ => {
            let mut rng = StdRng::seed_from_u64(seed);
            let second_pool = if which == 2 {
                Layer::AvgPool2d(AvgPool2d::new())
            } else {
                Layer::MaxPool2d(MaxPool2d::new())
            };
            let model = Sequential::new(vec![
                Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 1, false, &mut rng)),
                Layer::AvgPool2d(AvgPool2d::new()),
                second_pool,
                Layer::Flatten(Flatten::new()),
                Layer::Linear(Linear::new(12, 4, &mut rng)),
            ]);
            (model, vec![2, 1, 8, 8])
        }
    }
}

fn input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let fan_in: usize = shape[1..].iter().product();
    let mut x = Tensor::kaiming(shape, fan_in, &mut rng).map(|v| v.abs().min(1.0));
    x.data_mut()[0] = 1.0;
    x
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Direct forward on a fresh engine under a pool of `threads` workers.
fn direct_bits(threads: usize, cfg: GeoConfig, which: usize, seed: u64) -> Vec<u32> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction never fails");
    pool.install(|| {
        let (mut model, shape) = paper_model(which, seed);
        let x = input(&shape, seed ^ 0x5eed);
        let mut engine = ScEngine::new(cfg).expect("valid config");
        let y = engine.forward(&mut model, &x, false).expect("forward");
        bits(&y)
    })
}

/// Prepare-then-compute on a fresh engine under the same pool size.
fn prepared_bits(threads: usize, cfg: GeoConfig, which: usize, seed: u64) -> Vec<u32> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction never fails");
    pool.install(|| {
        let (mut model, shape) = paper_model(which, seed);
        let x = input(&shape, seed ^ 0x5eed);
        model.set_training(false);
        let mut engine = ScEngine::new(cfg).expect("valid config");
        let prepared = engine.prepare(&model, &shape).expect("prepare");
        let y = prepared.forward(&x).expect("compute");
        bits(&y)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fresh engine's prepare-then-compute agrees to the bit with a
    /// fresh engine's direct forward for every model × accumulation mode
    /// × generation mode × thread count.
    #[test]
    fn prepared_path_is_bit_identical_to_direct_forward(
        seed in 0u64..500,
        which in 0usize..2,
        mode_idx in 0usize..5,
        progressive in any::<bool>(),
        threads in 1usize..9,
    ) {
        let cfg = GeoConfig::geo(32, 64)
            .with_accumulation(Accumulation::ALL[mode_idx])
            .with_progressive(progressive);
        let direct = direct_bits(threads, cfg, which, seed);
        let prepared = prepared_bits(threads, cfg, which, seed);
        prop_assert_eq!(direct, prepared,
            "prepared path diverged from direct forward at {} threads", threads);
    }
}

/// Exhaustive sweep at fixed thread counts: both models and both
/// stacked-pool topologies under all five accumulation modes and both
/// generation modes, prepared vs. direct at 1 and 4 workers.
#[test]
fn every_mode_matches_direct_at_fixed_thread_counts() {
    for which in 0..4 {
        for mode in Accumulation::ALL {
            for progressive in [false, true] {
                let cfg = GeoConfig::geo(32, 64)
                    .with_accumulation(mode)
                    .with_progressive(progressive);
                for threads in [1, 4] {
                    assert_eq!(
                        direct_bits(threads, cfg, which, 42),
                        prepared_bits(threads, cfg, which, 42),
                        "model {which} {mode:?} progressive={progressive} \
                         diverged at {threads} threads"
                    );
                }
            }
        }
    }
}

/// A no-pad 3×3 conv turns a 5×5 input into a 3×3 map, which the 2×2
/// average pool rejects: the direct forward and the prepare both fail
/// with the same error, naming the even-size requirement.
#[test]
fn odd_pool_input_errors_identically_direct_and_prepared() {
    let model = || {
        let mut rng = StdRng::seed_from_u64(3);
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 0, false, &mut rng)),
            Layer::AvgPool2d(AvgPool2d::new()),
        ])
    };
    let x = Tensor::full(&[1, 1, 5, 5], 0.5);
    let cfg = GeoConfig::geo(16, 32);
    let direct = ScEngine::new(cfg)
        .expect("valid config")
        .forward(&mut model(), &x, false)
        .expect_err("odd pool input must fail")
        .to_string();
    let prepared = ScEngine::new(cfg)
        .expect("valid config")
        .prepare(&model(), x.shape())
        .err()
        .expect("odd pool input must fail to prepare")
        .to_string();
    assert_eq!(direct, prepared, "direct and prepared errors diverged");
    assert!(direct.contains("even"), "unexpected error: {direct}");
}

/// Training passes run each SC layer through the same prepare and step
/// code as inference, so on a network whose float layers agree between
/// the two modes (no batch norm) a training forward is bit-identical to
/// an inference forward, for every accumulation mode at 1 and 4
/// workers.
#[test]
fn training_forward_is_bit_identical_to_inference() {
    let forward = |threads: usize, cfg: GeoConfig, training: bool| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool construction never fails");
        pool.install(|| {
            let mut rng = StdRng::seed_from_u64(21);
            let mut model = Sequential::new(vec![
                Layer::Conv2d(Conv2d::new(2, 4, 3, 1, 1, false, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::AvgPool2d(AvgPool2d::new()),
                Layer::Flatten(Flatten::new()),
                Layer::Linear(Linear::new(64, 5, &mut rng)),
            ]);
            let x = input(&[3, 2, 8, 8], 0xD1CE);
            let mut engine = ScEngine::new(cfg).expect("valid config");
            bits(&engine.forward(&mut model, &x, training).expect("forward"))
        })
    };
    for mode in Accumulation::ALL {
        let cfg = GeoConfig::geo(16, 32).with_accumulation(mode);
        for threads in [1, 4] {
            assert_eq!(
                forward(threads, cfg, true),
                forward(threads, cfg, false),
                "{mode:?}: training diverged from inference at {threads} threads"
            );
        }
    }
}

/// One serve run: `clients` threads each submit `per_client` distinct
/// requests through a shared server and collect (input id, output bits).
/// Returns the sorted transcript plus the prepared model's telemetry
/// counter totals after the run.
fn serve_run(
    prepared: &Arc<geo_core::PreparedModel>,
    serve_cfg: ServeConfig,
    clients: usize,
    per_client: usize,
    shape: &[usize],
) -> (Vec<(usize, Vec<u32>)>, [u64; 7]) {
    let server = Arc::new(ScServer::spawn(Arc::clone(prepared), serve_cfg).expect("spawn"));
    let mut transcript: Vec<(usize, Vec<u32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = Arc::clone(&server);
                let shape = shape.to_vec();
                scope.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            let id = c * per_client + i;
                            let x = input(&shape, 1000 + id as u64);
                            let response = loop {
                                match server.infer(x.clone()) {
                                    Ok(r) => break r,
                                    Err(geo_core::GeoError::ServeOverflow { .. }) => {
                                        std::thread::yield_now();
                                    }
                                    Err(e) => panic!("serve failed: {e}"),
                                }
                            };
                            (id, bits(&response.output))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    transcript.sort_by_key(|(id, _)| *id);
    let report = prepared.telemetry_report();
    let mut totals = [0u64; 7];
    for layer in &report.layers {
        for (t, c) in totals.iter_mut().zip(layer.counters()) {
            *t += c;
        }
    }
    let server = Arc::into_inner(server).expect("all client clones dropped");
    server.shutdown().expect("shutdown");
    (transcript, totals)
}

/// Concurrent batched serving is deterministic: every client's response
/// is bit-identical to an unbatched `PreparedModel::forward` of the same
/// input, and two independent serve runs over identically prepared
/// models produce identical transcripts and identical telemetry counter
/// totals (pass counts may differ — batch fusion is load-dependent; the
/// work counters may not).
#[test]
fn concurrent_serve_is_deterministic_and_matches_unbatched() {
    let cfg = GeoConfig::geo(32, 64);
    let (clients, per_client) = (4, 6);
    let shape = vec![1, 1, 8, 8];
    let fresh_prepared = || {
        let mut model = models::lenet5(1, 8, 10, 0);
        model.set_training(false);
        let mut engine = ScEngine::new(cfg).expect("valid config");
        Arc::new(engine.prepare(&model, &shape).expect("prepare"))
    };
    let serve_cfg = ServeConfig::default().with_max_batch(4).with_queue_depth(8);

    let reference = fresh_prepared();
    let (run_a, totals_a) = serve_run(&fresh_prepared(), serve_cfg, clients, per_client, &shape);
    let (run_b, totals_b) = serve_run(&fresh_prepared(), serve_cfg, clients, per_client, &shape);

    assert_eq!(run_a.len(), clients * per_client);
    for (id, served) in &run_a {
        let x = input(&shape, 1000 + *id as u64);
        let direct = reference.forward(&x).expect("direct");
        assert_eq!(
            served,
            &bits(&direct),
            "request {id} diverged from unbatched"
        );
    }
    assert_eq!(run_a, run_b, "serve transcripts diverged across runs");
    assert_eq!(totals_a, totals_b, "telemetry totals diverged across runs");
}
