//! Telemetry determinism contract (DESIGN.md §12): every counter in a
//! [`TelemetryReport`](geo_core::telemetry::TelemetryReport) is an exact
//! integer sum, so the counter projection must be **bit-identical at
//! every thread count**, and the MAC/lane totals must agree between the
//! compacted kernels (`forward`) and the retained reference kernels
//! (`forward_reference`) — both count one MAC per lane·pixel that
//! survives the identical set of skip tests (padding bounds, zero
//! activation level, zero weight lane).
//!
//! Only the counter projection ([`LayerTelemetry::counters`]) is under
//! contract; the wall-clock `phase_ns` fields are explicitly excluded.
#![cfg(feature = "telemetry")]

use geo_core::telemetry::LayerTelemetry;
use geo_core::{Accumulation, GeoConfig, ScEngine};
use geo_nn::{models, Sequential, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;

#[derive(Debug, Clone, Copy)]
enum Net {
    Lenet5,
    Cnn4,
    /// The scaled VGG-16 thumbnail: 13 convs in five blocks, avg pools
    /// after the first three — the depth case for counter pre-sizing.
    Vgg16,
}

const NETS: [Net; 3] = [Net::Lenet5, Net::Cnn4, Net::Vgg16];

impl Net {
    fn model(self, seed: u64) -> Sequential {
        match self {
            Net::Lenet5 => models::lenet5(1, 8, 10, seed),
            Net::Cnn4 => models::cnn4(3, 8, 10, seed),
            Net::Vgg16 => models::vgg16_small(3, 8, 10, seed),
        }
    }

    fn input(self, seed: u64) -> Tensor {
        let c = match self {
            Net::Lenet5 => 1,
            Net::Cnn4 | Net::Vgg16 => 3,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::kaiming(&[2, c, 8, 8], c * 64, &mut rng).map(|v| v.abs().min(1.0));
        x.data_mut()[0] = 1.0;
        x
    }
}

/// One forward pass under a pool of `threads` workers, returning the
/// per-layer telemetry snapshots.
fn layer_telemetry(
    threads: usize,
    cfg: GeoConfig,
    net: Net,
    seed: u64,
    reference: bool,
) -> Vec<LayerTelemetry> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction never fails");
    pool.install(|| {
        let mut model = net.model(seed);
        let x = net.input(seed ^ 0x5eed);
        let mut engine = ScEngine::new(cfg).expect("valid test config");
        let out = if reference {
            engine.forward_reference(&mut model, &x, false)
        } else {
            engine.forward(&mut model, &x, false)
        };
        out.expect("forward succeeds");
        engine.telemetry_report().layers
    })
}

fn counters(layers: &[LayerTelemetry]) -> Vec<[u64; 7]> {
    layers.iter().map(LayerTelemetry::counters).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The counter projection is bit-identical across 1..=8 worker
    /// threads, for every accumulation mode and both workloads.
    #[test]
    fn counters_are_bit_identical_across_thread_counts(
        mode in prop::sample::select(Accumulation::ALL.to_vec()),
        net in prop::sample::select(NETS.to_vec()),
        threads in 2usize..=8,
        seed in 0u64..4,
    ) {
        let cfg = GeoConfig::geo(16, 32).with_accumulation(mode);
        let serial = counters(&layer_telemetry(1, cfg, net, seed, false));
        let parallel = counters(&layer_telemetry(threads, cfg, net, seed, false));
        prop_assert_eq!(serial, parallel, "{net:?} {mode:?} threads={threads}");
    }
}

/// MAC and lane totals agree between `forward` and `forward_reference`
/// on both workloads across all five accumulation modes.
#[test]
fn mac_and_lane_totals_match_reference_kernels() {
    for net in NETS {
        for mode in Accumulation::ALL {
            let cfg = GeoConfig::geo(16, 32).with_accumulation(mode);
            let compacted = layer_telemetry(1, cfg, net, 7, false);
            let reference = layer_telemetry(1, cfg, net, 7, true);
            assert_eq!(
                compacted.len(),
                reference.len(),
                "{net:?} {mode:?}: layer count"
            );
            // Individual deep layers can legitimately count zero MACs at
            // thumbnail scale (every activation level quantizes to zero),
            // but the network as a whole must do work.
            let total: u64 = compacted.iter().map(|l| l.macs).sum();
            assert!(total > 0, "{net:?} {mode:?}: no MACs counted");
            for (i, (c, r)) in compacted.iter().zip(&reference).enumerate() {
                assert_eq!(c.macs, r.macs, "{net:?} {mode:?} layer {i}: macs");
                // Lane compaction happens at resolve time on both paths,
                // so kept/skipped lane counts match too.
                assert_eq!(
                    (c.compacted_lanes, c.skipped_zero_lanes),
                    (r.compacted_lanes, r.skipped_zero_lanes),
                    "{net:?} {mode:?} layer {i}: lanes"
                );
            }
        }
    }
}
