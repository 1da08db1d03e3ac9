//! Per-layer telemetry for the SC pipeline: counters, phase timers, and
//! the hierarchical [`TelemetryReport`] they snapshot into.
//!
//! The primitives ([`Counter`], [`Stopwatch`]) live in
//! [`geo_sc::telemetry`] and are always live; this module adds the
//! engine-level structure on top:
//!
//! * [`LayerCounters`] — one live counter block per parametrized
//!   (conv/linear) layer, updated by [`ScEngine`](crate::ScEngine) as it
//!   resolves and computes that layer;
//! * [`EngineTelemetry`] — the engine's accumulated per-layer blocks;
//! * [`TelemetryReport`] / [`LayerTelemetry`] — an owned snapshot with
//!   plain integers, serializable into the `geo-perf-trajectory-v1`
//!   JSON envelope (`"bench": "telemetry"`), the artifact
//!   `bench_forward` writes to `results/telemetry_*.json`.
//!
//! # Counter semantics (DESIGN.md §12)
//!
//! | counter | incremented when |
//! |---|---|
//! | `macs` | one multiply-accumulate is folded into an accumulator (a lane survived every skip test: padding bounds, zero activation, zero weight). Equal between the compacted and reference kernels by construction. |
//! | `compacted_lanes` | a nonzero weight lane is kept by resolve-time compaction |
//! | `skipped_zero_lanes` | a zero-split weight lane is dropped by compaction |
//! | `table_hits` / `table_misses` | a stream-table lookup is served from / misses the [`TableCache`](crate::TableCache) |
//! | `fault_events` | a fault is injected while the layer's tables are built |
//! | `pingpong_bytes` | bytes the compiled program moves through the ping-pong (double-buffered) weight/activation banks for the layer — filled in from `geo_arch::perfsim::memory_traffic` by [`ProgramExecutor`](crate::ProgramExecutor) |
//!
//! All counters are exact integer sums and therefore **bit-identical at
//! every thread count** (`crates/core/tests/telemetry_determinism.rs`).
//! Phase times (resolve / convert / compute / near-mem) are wall-clock
//! and excluded from that contract.

use geo_sc::telemetry::Counter;
use std::fmt;

pub use geo_sc::telemetry::Stopwatch;

/// Pipeline phases a layer's wall-clock time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Serial resolve: table construction/fetch, weight quantization,
    /// lane compaction.
    Resolve,
    /// Binary→stream operand conversion: quantizing the input tensor
    /// into table levels.
    Convert,
    /// The parallel compute phase (stream generation + MAC + count).
    Compute,
    /// Near-memory work between SC layers: quantized batch norm and the
    /// pooling/elementwise layers that run on converted counts.
    NearMem,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 4] = [
        Phase::Resolve,
        Phase::Convert,
        Phase::Compute,
        Phase::NearMem,
    ];

    /// Stable index into per-phase arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Phase::Resolve => 0,
            Phase::Convert => 1,
            Phase::Compute => 2,
            Phase::NearMem => 3,
        }
    }

    /// Snake-case name used in the JSON artifact (`<name>_ms`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Resolve => "resolve",
            Phase::Convert => "convert",
            Phase::Compute => "compute",
            Phase::NearMem => "near_mem",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Live telemetry counters of one parametrized layer (see the module
/// docs for per-counter semantics). Shared by reference with the
/// parallel compute workers, hence atomic.
#[derive(Debug, Default)]
pub struct LayerCounters {
    /// Multiply-accumulates executed.
    pub macs: Counter,
    /// Nonzero weight lanes kept by compaction.
    pub compacted_lanes: Counter,
    /// Zero weight lanes dropped by compaction.
    pub skipped_zero_lanes: Counter,
    /// Stream-table cache hits while resolving this layer.
    pub table_hits: Counter,
    /// Stream-table cache misses (tables built) while resolving.
    pub table_misses: Counter,
    /// Fault events injected while this layer's tables were built.
    pub fault_events: Counter,
    /// Bytes moved through ping-pong buffers for this layer (program
    /// execution only; zero for direct engine runs).
    pub pingpong_bytes: Counter,
    /// Accumulated wall-clock nanoseconds per [`Phase`].
    pub phase_ns: [Counter; 4],
}

impl LayerCounters {
    /// Adds `ns` wall-clock nanoseconds to `phase`.
    #[inline]
    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase.index()].add(ns);
    }

    fn snapshot(&self) -> LayerTelemetry {
        LayerTelemetry {
            macs: self.macs.get(),
            compacted_lanes: self.compacted_lanes.get(),
            skipped_zero_lanes: self.skipped_zero_lanes.get(),
            table_hits: self.table_hits.get(),
            table_misses: self.table_misses.get(),
            fault_events: self.fault_events.get(),
            pingpong_bytes: self.pingpong_bytes.get(),
            phase_ns: [
                self.phase_ns[0].get(),
                self.phase_ns[1].get(),
                self.phase_ns[2].get(),
                self.phase_ns[3].get(),
            ],
        }
    }
}

/// The engine's accumulated telemetry: one [`LayerCounters`] block per
/// parametrized layer, in network order, plus a forward-pass count.
#[derive(Debug, Default)]
pub struct EngineTelemetry {
    layers: Vec<LayerCounters>,
    /// Forward passes recorded since creation / the last reset.
    pub passes: Counter,
}

impl EngineTelemetry {
    /// The counter block of parametrized layer `idx`, growing the table
    /// on first touch (serial resolve phase only).
    pub(crate) fn layer(&mut self, idx: usize) -> &LayerCounters {
        if self.layers.len() <= idx {
            self.layers.resize_with(idx + 1, LayerCounters::default);
        }
        &self.layers[idx]
    }

    /// Pre-sizes the per-layer table to at least `n` blocks so the
    /// shared-reference accessor [`EngineTelemetry::layer_shared`] can
    /// serve concurrent readers without growth.
    pub(crate) fn ensure_layers(&mut self, n: usize) {
        if self.layers.len() < n {
            self.layers.resize_with(n, LayerCounters::default);
        }
    }

    /// The counter block of parametrized layer `idx` through a shared
    /// reference — the per-request compute path of a prepared model,
    /// where the table was pre-sized at prepare time and must not grow.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not covered by
    /// [`EngineTelemetry::ensure_layers`]; prepared models size the table
    /// from the traced layer count, so an out-of-range index is a bug.
    pub(crate) fn layer_shared(&self, idx: usize) -> &LayerCounters {
        &self.layers[idx]
    }

    /// Folds another telemetry block into this one, layer by layer
    /// (growing as needed) — how a prepared model's locally accumulated
    /// counters flow back into the engine that prepared it.
    pub(crate) fn absorb(&mut self, other: &EngineTelemetry) {
        for (idx, src) in other.layers.iter().enumerate() {
            let dst = self.layer(idx);
            dst.macs.add(src.macs.get());
            dst.compacted_lanes.add(src.compacted_lanes.get());
            dst.skipped_zero_lanes.add(src.skipped_zero_lanes.get());
            dst.table_hits.add(src.table_hits.get());
            dst.table_misses.add(src.table_misses.get());
            dst.fault_events.add(src.fault_events.get());
            dst.pingpong_bytes.add(src.pingpong_bytes.get());
            for (d, s) in dst.phase_ns.iter().zip(&src.phase_ns) {
                d.add(s.get());
            }
        }
        self.passes.add(other.passes.get());
    }

    /// Clears every counter and forgets all layers.
    pub fn reset(&mut self) {
        self.layers.clear();
        self.passes.reset();
    }

    /// Snapshots the live counters into an owned report.
    #[must_use]
    pub fn report(&self, source: &str) -> TelemetryReport {
        TelemetryReport {
            source: source.to_string(),
            threads: rayon::current_num_threads(),
            passes: self.passes.get(),
            layers: self.layers.iter().map(LayerCounters::snapshot).collect(),
        }
    }
}

/// One layer's snapshot inside a [`TelemetryReport`]: plain integers,
/// safe to compare bit-for-bit across runs and thread counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTelemetry {
    /// Multiply-accumulates executed.
    pub macs: u64,
    /// Nonzero weight lanes kept by compaction.
    pub compacted_lanes: u64,
    /// Zero weight lanes dropped by compaction.
    pub skipped_zero_lanes: u64,
    /// Stream-table cache hits.
    pub table_hits: u64,
    /// Stream-table cache misses.
    pub table_misses: u64,
    /// Fault events injected.
    pub fault_events: u64,
    /// Bytes moved through ping-pong buffers.
    pub pingpong_bytes: u64,
    /// Wall-clock nanoseconds per [`Phase`] (indexed by
    /// [`Phase::index`]).
    pub phase_ns: [u64; 4],
}

impl LayerTelemetry {
    /// Adds `other` into `self`, field by field.
    pub fn accumulate(&mut self, other: &LayerTelemetry) {
        self.macs += other.macs;
        self.compacted_lanes += other.compacted_lanes;
        self.skipped_zero_lanes += other.skipped_zero_lanes;
        self.table_hits += other.table_hits;
        self.table_misses += other.table_misses;
        self.fault_events += other.fault_events;
        self.pingpong_bytes += other.pingpong_bytes;
        for (a, b) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            *a += b;
        }
    }

    /// The deterministic (counter-only) projection used by the
    /// determinism tests: every field except the wall-clock phase times.
    #[must_use]
    pub fn counters(&self) -> [u64; 7] {
        [
            self.macs,
            self.compacted_lanes,
            self.skipped_zero_lanes,
            self.table_hits,
            self.table_misses,
            self.fault_events,
            self.pingpong_bytes,
        ]
    }

    fn json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "\"macs\": {}, \"compacted_lanes\": {}, \"skipped_zero_lanes\": {}, \
             \"table_hits\": {}, \"table_misses\": {}, \"fault_events\": {}, \
             \"pingpong_bytes\": {}",
            self.macs,
            self.compacted_lanes,
            self.skipped_zero_lanes,
            self.table_hits,
            self.table_misses,
            self.fault_events,
            self.pingpong_bytes,
        );
        for phase in Phase::ALL {
            let ms = self.phase_ns[phase.index()] as f64 / 1e6;
            let _ = write!(out, ", \"{}_ms\": {ms:.6}", phase.name());
        }
    }
}

/// A hierarchical telemetry snapshot: per-layer blocks plus their sum,
/// tagged with the run that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryReport {
    /// What produced the counters (`"sc-engine"`, `"program:<name>"`, or
    /// a workload name assigned by a bench harness).
    pub source: String,
    /// Ambient worker-thread count when the snapshot was taken.
    pub threads: usize,
    /// Forward passes accumulated into the counters.
    pub passes: u64,
    /// Per-parametrized-layer snapshots, in network order.
    pub layers: Vec<LayerTelemetry>,
}

impl TelemetryReport {
    /// Sum of every layer's counters and phase times.
    #[must_use]
    pub fn total(&self) -> LayerTelemetry {
        let mut total = LayerTelemetry::default();
        for l in &self.layers {
            total.accumulate(l);
        }
        total
    }

    /// The report as one JSON object (a "run" inside the artifact
    /// envelope): `source`, `passes`, per-layer blocks, and the computed
    /// total.
    #[must_use]
    pub fn json_fragment(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"source\": \"{}\", \"passes\": {}, \"layers\": [",
            self.source, self.passes
        );
        for (i, l) in self.layers.iter().enumerate() {
            let sep = if i + 1 == self.layers.len() { "" } else { ", " };
            let _ = write!(s, "{{\"layer\": {i}, ");
            l.json_fields(&mut s);
            let _ = write!(s, "}}{sep}");
        }
        let _ = write!(s, "], \"total\": {{");
        self.total().json_fields(&mut s);
        let _ = write!(s, "}}}}");
        s
    }

    /// Serializes a standalone single-run artifact in the
    /// `geo-perf-trajectory-v1` envelope (`schema`/`bench`/`threads`/
    /// `scale` followed by a one-element `runs` array). Bench harnesses
    /// that capture several runs compose the same envelope around many
    /// [`TelemetryReport::json_fragment`]s.
    #[must_use]
    pub fn to_json(&self, scale: &str) -> String {
        format!(
            "{{\n  \"schema\": \"geo-perf-trajectory-v1\",\n  \"bench\": \"telemetry\",\n  \
             \"threads\": {},\n  \"scale\": \"{scale}\",\n  \"runs\": [\n    {}\n  ]\n}}\n",
            self.threads,
            self.json_fragment()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetryReport {
        TelemetryReport {
            source: "unit".into(),
            threads: 1,
            passes: 2,
            layers: vec![
                LayerTelemetry {
                    macs: 10,
                    compacted_lanes: 4,
                    skipped_zero_lanes: 1,
                    table_hits: 3,
                    table_misses: 5,
                    fault_events: 0,
                    pingpong_bytes: 128,
                    phase_ns: [1_000_000, 0, 2_000_000, 0],
                },
                LayerTelemetry {
                    macs: 7,
                    compacted_lanes: 2,
                    skipped_zero_lanes: 3,
                    table_hits: 9,
                    table_misses: 1,
                    fault_events: 2,
                    pingpong_bytes: 64,
                    phase_ns: [0, 500_000, 0, 250_000],
                },
            ],
        }
    }

    #[test]
    fn totals_sum_layer_fields() {
        let t = sample().total();
        assert_eq!(t.macs, 17);
        assert_eq!(t.compacted_lanes, 6);
        assert_eq!(t.skipped_zero_lanes, 4);
        assert_eq!(t.table_hits, 12);
        assert_eq!(t.table_misses, 6);
        assert_eq!(t.fault_events, 2);
        assert_eq!(t.pingpong_bytes, 192);
        assert_eq!(t.phase_ns, [1_000_000, 500_000, 2_000_000, 250_000]);
    }

    #[test]
    fn json_has_envelope_and_all_counter_fields() {
        let json = sample().to_json("smoke");
        for key in [
            "\"schema\": \"geo-perf-trajectory-v1\"",
            "\"bench\": \"telemetry\"",
            "\"scale\": \"smoke\"",
            "\"runs\"",
            "\"macs\"",
            "\"compacted_lanes\"",
            "\"skipped_zero_lanes\"",
            "\"table_hits\"",
            "\"table_misses\"",
            "\"fault_events\"",
            "\"pingpong_bytes\"",
            "\"resolve_ms\"",
            "\"convert_ms\"",
            "\"compute_ms\"",
            "\"near_mem_ms\"",
            "\"total\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn engine_telemetry_grows_and_resets() {
        let mut t = EngineTelemetry::default();
        t.layer(1).macs.add(5);
        t.layer(0).compacted_lanes.add(2);
        let report = t.report("unit");
        assert_eq!(report.layers.len(), 2);
        assert_eq!(report.layers[1].macs, 5);
        assert_eq!(report.layers[0].compacted_lanes, 2);
        t.reset();
        assert!(t.report("unit").layers.is_empty());
    }

    #[test]
    fn absorb_folds_layers_and_passes() {
        let mut src = EngineTelemetry::default();
        src.layer(0).macs.add(3);
        src.layer(1).table_hits.add(2);
        src.layer(1).add_phase_ns(Phase::Compute, 7);
        src.passes.add(1);
        let mut dst = EngineTelemetry::default();
        dst.layer(0).macs.add(4);
        dst.passes.add(2);
        dst.absorb(&src);
        let report = dst.report("unit");
        assert_eq!(report.layers.len(), 2);
        assert_eq!(report.passes, 3);
        assert_eq!(report.layers[0].macs, 7);
        assert_eq!(report.layers[1].table_hits, 2);
        assert_eq!(report.layers[1].phase_ns[Phase::Compute.index()], 7);
    }

    #[test]
    fn ensure_layers_presizes_for_shared_access() {
        let mut t = EngineTelemetry::default();
        t.ensure_layers(3);
        t.layer_shared(2).macs.add(1);
        assert_eq!(t.report("unit").layers.len(), 3);
    }

    #[test]
    fn phase_names_and_indices_are_stable() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::NearMem.to_string(), "near_mem");
    }
}
