//! The sparsity-compacted kernels (compacted lane lists, interior/border
//! row decomposition, streaming APC, chunked linear parallelism — see
//! DESIGN.md §11) must be *bit-identical* to the retained pre-compaction
//! reference kernels (`ScEngine::forward_reference`), not merely close.
//! Compaction only reorganizes resolve-time metadata; the sequence of
//! accumulate operations per output position is provably unchanged, and
//! these tests pin that across every accumulation mode, sharing level,
//! generation mode, RNG kind, kernel geometry (including `pad >= k`),
//! and 1–8 worker threads — plus staircase-sparsity models whose rows
//! compact to exactly 0..=9 lanes, exercising every remainder path of
//! the SWAR multi-lane kernels (DESIGN.md §14). Every case also pins the
//! per-layer `macs`, `compacted_lanes` and `skipped_zero_lanes` counters
//! equal between the two paths: the compacted kernels count MACs once
//! per row, the reference kernels once per accumulate (DESIGN.md §12).
//!
//! Both engines are built fresh *inside* the same thread-pool scope so
//! TRNG tables (re-seeded per forward pass) see identical pass counters
//! on both sides of each comparison.

use geo_core::{Accumulation, GeoConfig, ScEngine};
use geo_nn::{Conv2d, Flatten, Layer, Linear, Relu, Sequential, Tensor};
use geo_sc::{RngKind, SharingLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;

const RNGS: [RngKind; 3] = [RngKind::Lfsr, RngKind::Trng, RngKind::Sobol];

/// Non-square conv → ReLU → FC model over a `(2, 2, 4, 5)` input, with
/// the conv geometry under test. Every third weight is zeroed so the
/// compacted lane lists demonstrably drop lanes (on top of the small
/// weights that already quantize to zero).
fn conv_model(seed: u64, k: usize, stride: usize, pad: usize) -> (Sequential, Tensor) {
    let (h, w) = (4usize, 5usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv = Conv2d::new(2, 3, k, stride, pad, false, &mut rng);
    conv.weight.value = sparsify(&conv.weight.value);
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut linear = Linear::new(3 * oh * ow, 5, &mut rng);
    linear.weight.value = sparsify(&linear.weight.value);
    let model = Sequential::new(vec![
        Layer::Conv2d(conv),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(linear),
    ]);
    let mut x = Tensor::kaiming(&[2, 2, h, w], 4, &mut rng).map(|v| v.abs().min(1.0));
    // Pin one activation to exact full scale to keep the all-ones stream
    // path under test.
    x.data_mut()[0] = 1.0;
    (model, x)
}

/// Zeroes a deterministic ~half of the values (mantissa-parity choice, so
/// the pattern is irregular but reproducible).
fn sparsify(t: &Tensor) -> Tensor {
    t.map(|v| if v.to_bits() & 1 == 0 { 0.0 } else { v })
}

/// Rewrites weights so output row `r` keeps exactly `r % 10` nonzero
/// taps, magnitudes clamped into `[0.25, 1.0]` so none quantize back to
/// zero. With ten output rows this walks compacted group sizes 0..=9,
/// covering every SWAR remainder path in one forward pass: the 4-wide
/// popcount quads at remainders 0..=3, the APC pair stage at both
/// parities, and the all-zero row whose compacted lane list is empty.
fn staircase(t: &Tensor, row_len: usize) -> Tensor {
    let mut out = t.clone();
    for (i, v) in out.data_mut().iter_mut().enumerate() {
        let (row, lane) = (i / row_len, i % row_len);
        *v = if lane < row % 10 {
            v.abs().clamp(0.25, 1.0).copysign(*v)
        } else {
            0.0
        };
    }
    out
}

/// One engine's forward pass: the raw output bit patterns and, per
/// parametrized layer, its `[macs, compacted_lanes, skipped_zero_lanes]`
/// telemetry counters.
struct Run {
    bits: Vec<u32>,
    counts: Vec<[u64; 3]>,
}

impl Run {
    fn of(engine: &ScEngine, out: &Tensor) -> Run {
        Run {
            bits: out.data().iter().map(|v| v.to_bits()).collect(),
            counts: engine
                .telemetry_report()
                .layers
                .iter()
                .map(|l| [l.macs, l.compacted_lanes, l.skipped_zero_lanes])
                .collect(),
        }
    }
}

/// Runs the compacted path and the pre-compaction reference path on fresh
/// engines under a pool of `threads` workers, returning both runs.
fn forward_both(threads: usize, cfg: GeoConfig, model: &Sequential, x: &Tensor) -> (Run, Run) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool construction never fails");
    pool.install(|| {
        let mut ref_model = model.clone();
        let mut ref_engine = ScEngine::new(cfg).expect("valid config");
        let reference = ref_engine
            .forward_reference(&mut ref_model, x, false)
            .expect("reference forward");
        let mut new_model = model.clone();
        let mut new_engine = ScEngine::new(cfg).expect("valid config");
        let compacted = new_engine
            .forward(&mut new_model, x, false)
            .expect("compacted forward");
        (
            Run::of(&ref_engine, &reference),
            Run::of(&new_engine, &compacted),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compacted kernels agree with the reference kernels to the bit for
    /// every accumulation mode × sharing level × generation mode × RNG
    /// kind × conv geometry (stride 1–2, padding 0–4 against k 1–3, so
    /// `pad >= k` border-only geometries are drawn) × 1–8 threads.
    #[test]
    fn compacted_kernels_match_reference_bit_for_bit(
        seed in 0u64..500,
        mode_idx in 0usize..5,
        rng_idx in 0usize..3,
        sharing_idx in 0usize..3,
        progressive in any::<bool>(),
        threads in 1usize..9,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..5,
    ) {
        let cfg = GeoConfig::geo(32, 32)
            .with_accumulation(Accumulation::ALL[mode_idx])
            .with_rng(RNGS[rng_idx])
            .with_sharing(SharingLevel::ALL[sharing_idx])
            .with_progressive(progressive);
        let (model, x) = conv_model(seed, k, stride, pad);
        let (reference, compacted) = forward_both(threads, cfg, &model, &x);
        prop_assert_eq!(
            reference.bits, compacted.bits,
            "k={} stride={} pad={} threads={} diverged", k, stride, pad, threads
        );
        prop_assert_eq!(
            reference.counts, compacted.counts,
            "k={} stride={} pad={} threads={} counters diverged", k, stride, pad, threads
        );
    }

    /// Every SWAR remainder path × every accumulation mode: both the
    /// conv and the linear layer get [`staircase`] weights, so their ten
    /// output rows compact to exactly 0..=9 surviving lanes — the empty
    /// row included — and the whole model must stay bit-identical to the
    /// reference at one and two stream words per operand.
    #[test]
    fn swar_remainder_group_sizes_match_reference_bit_for_bit(
        seed in 0u64..500,
        mode_idx in 0usize..5,
        progressive in any::<bool>(),
        threads in 1usize..9,
        two_words in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(3, 10, 2, 1, 1, false, &mut rng);
        conv.weight.value = staircase(&conv.weight.value, 3 * 2 * 2);
        let mut linear = Linear::new(10 * 5 * 5, 10, &mut rng);
        linear.weight.value = staircase(&linear.weight.value, 10 * 5 * 5);
        let model = Sequential::new(vec![
            Layer::Conv2d(conv),
            Layer::Relu(Relu::new()),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(linear),
        ]);
        let mut x = Tensor::kaiming(&[2, 3, 4, 4], 4, &mut rng).map(|v| v.abs().min(1.0));
        x.data_mut()[0] = 1.0;
        let (pooled, full) = if two_words { (64, 128) } else { (32, 32) };
        let cfg = GeoConfig::geo(pooled, full)
            .with_accumulation(Accumulation::ALL[mode_idx])
            .with_progressive(progressive);
        let (reference, compacted) = forward_both(threads, cfg, &model, &x);
        prop_assert_eq!(
            reference.bits, compacted.bits,
            "mode={:?} threads={} two_words={} diverged",
            Accumulation::ALL[mode_idx], threads, two_words
        );
        prop_assert_eq!(
            reference.counts, compacted.counts,
            "mode={:?} threads={} two_words={} counters diverged",
            Accumulation::ALL[mode_idx], threads, two_words
        );
    }

    /// Linear layers wide enough to split across several per-worker row
    /// chunks stay bit-identical under the chunked parallel sweep.
    #[test]
    fn chunked_linear_matches_reference_bit_for_bit(
        seed in 0u64..500,
        mode_idx in 0usize..5,
        progressive in any::<bool>(),
        threads in 1usize..9,
        outf in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut linear = Linear::new(30, outf, &mut rng);
        linear.weight.value = sparsify(&linear.weight.value);
        let model = Sequential::new(vec![Layer::Linear(linear)]);
        let x = Tensor::kaiming(&[3, 30], 30, &mut rng).map(|v| v.abs().min(1.0));
        let cfg = GeoConfig::geo(32, 32)
            .with_accumulation(Accumulation::ALL[mode_idx])
            .with_progressive(progressive);
        let (reference, compacted) = forward_both(threads, cfg, &model, &x);
        prop_assert_eq!(
            reference.bits, compacted.bits,
            "outf={} threads={} diverged", outf, threads
        );
        prop_assert_eq!(
            reference.counts, compacted.counts,
            "outf={} threads={} counters diverged", outf, threads
        );
    }
}

/// Exhaustive sweep of the `pad >= k` border-only geometry: with padding
/// 3 against a 3×3 kernel, interior spans are empty (or nearly so) and
/// every output pixel takes the border path. All five accumulation modes
/// under both generation modes must match the reference at serial,
/// uneven-split, and oversubscribed thread counts.
#[test]
fn pad_exceeding_kernel_matches_reference_for_every_mode() {
    for mode in Accumulation::ALL {
        for progressive in [false, true] {
            let cfg = GeoConfig::geo(32, 32)
                .with_accumulation(mode)
                .with_progressive(progressive);
            let (model, x) = conv_model(7, 3, 1, 3);
            for threads in [1, 2, 8] {
                let (reference, compacted) = forward_both(threads, cfg, &model, &x);
                assert_eq!(
                    reference.bits, compacted.bits,
                    "{mode:?} progressive={progressive} diverged at {threads} threads"
                );
                assert_eq!(
                    reference.counts, compacted.counts,
                    "{mode:?} progressive={progressive} counters diverged at {threads} threads"
                );
            }
        }
    }
}

/// A kernel larger than the input (valid output only thanks to padding)
/// exercises rows whose lane lists are partially out of bounds in both
/// y directions.
#[test]
fn kernel_larger_than_input_matches_reference() {
    for mode in [Accumulation::Or, Accumulation::Apc] {
        let cfg = GeoConfig::geo(32, 32).with_accumulation(mode);
        let mut rng = StdRng::seed_from_u64(11);
        let conv = Conv2d::new(1, 2, 5, 1, 2, false, &mut rng);
        let model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let x = Tensor::kaiming(&[1, 1, 3, 3], 3, &mut rng).map(|v| v.abs().min(1.0));
        for threads in [1, 4] {
            let (reference, compacted) = forward_both(threads, cfg, &model, &x);
            assert_eq!(
                reference.bits, compacted.bits,
                "{mode:?} diverged at {threads} threads"
            );
            assert_eq!(
                reference.counts, compacted.counts,
                "{mode:?} counters diverged at {threads} threads"
            );
        }
    }
}
