//! Pieces every workload shares: operation counting, seeded inputs, output
//! digests, span durations, the compile-and-simulate pass and the engine's
//! per-layer figures.

use crate::results::{Phase, Results};
use crate::trace::{Span, Tracer};
use geo_arch::perfsim::{self, SimReport};
use geo_arch::{compiler, AccelConfig, NetworkDesc, ProgramArtifact};
use geo_core::{GeoConfig, GeoError, ProgramExecutor};
use geo_nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The seed whose output digests the workloads store.
pub const DEFAULT_SEED: u64 = 0;

/// Counts one operation's outcome in `phase`.
pub fn count<T>(phase: &mut Phase, r: Result<T, GeoError>) -> Option<T> {
    match r {
        Ok(v) => {
            phase.ok();
            Some(v)
        }
        Err(e) => {
            eprintln!("{}: {e}", phase.name);
            phase.fail(error_kind(&e));
            None
        }
    }
}

/// The error's variant name, for failure counts.
pub fn error_kind(e: &GeoError) -> &'static str {
    match e {
        GeoError::Sc(_) => "Sc",
        GeoError::Nn(_) => "Nn",
        GeoError::Artifact(_) => "Artifact",
        GeoError::InvalidConfig(_) => "InvalidConfig",
        GeoError::Internal(_) => "Internal",
        GeoError::ServeShutdown => "ServeShutdown",
        GeoError::ServeOverflow { .. } => "ServeOverflow",
        _ => "Other",
    }
}

/// `n` seeded images of `(c, h, w)` with uniform pixels in `[0, 1)`, one
/// tensor of batch 1 each. `stream` separates the input streams one seed
/// feeds.
pub fn images(seed: u64, stream: u64, n: usize, (c, h, w): (usize, usize, usize)) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n)
        .map(|_| {
            let pixels = (0..c * h * w).map(|_| rng.gen::<f32>()).collect();
            Tensor::from_vec(vec![1, c, h, w], pixels).expect("pixel count matches shape")
        })
        .collect()
}

/// Stacks batch-1 tensors into one batch.
pub fn stack(xs: &[Tensor]) -> Tensor {
    let mut shape = xs[0].shape().to_vec();
    shape[0] = xs.len();
    let data = xs.iter().flat_map(|x| x.data().iter().copied()).collect();
    Tensor::from_vec(shape, data).expect("stacked images of one shape")
}

/// FNV-1a over the bit patterns of `values`: equal digests mean
/// bit-identical outputs.
pub fn digest(values: impl IntoIterator<Item = f32>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

pub fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Durations in ms of the spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Checks a stored digest, but only for the seed it was stored for.
pub fn check_stored(res: &mut Results, name: &str, got: u64, stored: u64) {
    if res.seed == DEFAULT_SEED {
        res.check(
            name,
            got == stored,
            format!("{got:#018x}, stored {stored:#018x}"),
        );
    }
}

/// Batch size of the batched inference phases.
pub const BATCH: usize = 8;

/// perfsim's cycles and energy bits for one compiled program. They depend
/// on no seed: only a change to the compiler or perfsim moves them.
pub type SimFigures = (u64, u64);

/// Checks perfsim's report against the stored figures, for every seed.
pub fn check_sim(res: &mut Results, name: &str, sim: &SimReport, (cycles, energy): SimFigures) {
    res.check(
        name,
        sim.cycles == cycles && sim.energy_j.to_bits() == energy,
        format!(
            "cycles {} (stored {cycles}), energy bits {:#018x} (stored {energy:#018x})",
            sim.cycles,
            sim.energy_j.to_bits()
        ),
    );
    res.layer("arch.sim_cycles", sim.cycles as f64, "cycles", 1);
    res.layer("arch.sim_uj_per_frame", sim.energy_j * 1e6, "uJ", 1);
}

/// The accelerator path beside a workload that prepares through the
/// engine: compiles `net` for `accel`, encodes the GEOA artifact, loads it
/// back into a `ProgramExecutor` and runs perfsim on the loaded program.
pub fn compile_and_simulate(
    res: &mut Results,
    tr: &Tracer,
    cfg: GeoConfig,
    accel: &AccelConfig,
    net: &NetworkDesc,
) -> Result<SimReport, String> {
    let (program, _) = tr.time("arch.compile", None, |_| compiler::compile(net, accel));
    let (bytes, _) = tr.time("arch.artifact_encode", None, |_| {
        ProgramArtifact::new(program, net).to_bytes()
    });
    let bytes = bytes.map_err(|e| format!("artifact encode: {e}"))?;
    res.layer("arch.artifact_bytes", bytes.len() as f64, "B", 1);
    let (exec, _) = tr.time("exec.load", None, |_| {
        ProgramExecutor::from_artifact(cfg, net, &bytes)
    });
    let exec = res.once(Phase::new("artifact_load"), "artifact load", exec)?;
    let (sim, _) = tr.time("arch.simulate", None, |_| {
        perfsim::simulate(accel, exec.program())
    });
    Ok(sim)
}

/// Cold and warm prepare times from their spans, and the table build
/// they differ by.
pub fn prepare_layers(res: &mut Results, spans: &[Span], cold: &str, warm: &str) {
    let cold = res.span_ms(spans, "engine.prepare_cold_ms", cold);
    let warm = res.span_ms(spans, "engine.prepare_warm_ms", warm);
    if let (Some(cold), Some(warm)) = (cold, warm) {
        res.layer("tables.build_ms", cold - warm, "ms", 1);
    }
}

/// Batch-1 and batch-8 forward times from their spans, priced per MAC
/// and per cycle perfsim models for the same network.
pub fn forward_layers(res: &mut Results, spans: &[Span], macs: u64, sim_cycles: u64) {
    if let Some(b1) = res.span_ms(spans, "engine.forward_b1_ms", "engine.forward_b1") {
        res.layer(
            "arch.host_ns_per_sim_cycle",
            b1 * 1e6 / sim_cycles as f64,
            "ns",
            1,
        );
    }
    if let Some(b8) = res.span_ms(spans, "engine.forward_b8_ms", "engine.forward_b8") {
        res.layer(
            "engine.ns_per_mac",
            b8 * 1e6 / (BATCH as f64 * macs as f64),
            "ns",
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_tells_bit_patterns_apart() {
        assert_eq!(digest([1.0, 2.0]), digest([1.0, 2.0]));
        assert_ne!(digest([1.0, 2.0]), digest([2.0, 1.0]));
        assert_ne!(digest([0.0]), digest([-0.0]));
    }

    #[test]
    fn images_repeat_per_seed_and_differ_per_stream() {
        let a = images(5, 1, 2, (3, 4, 4));
        assert_eq!(bits(&a[1]), bits(&images(5, 1, 2, (3, 4, 4))[1]));
        assert_ne!(bits(&a[0]), bits(&images(5, 2, 1, (3, 4, 4))[0]));
        assert!(a[0].data().iter().all(|v| (0.0..=1.0).contains(v)));
        assert_eq!(stack(&a).shape(), &[2, 3, 4, 4]);
    }
}
