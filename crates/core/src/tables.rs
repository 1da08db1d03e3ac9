//! Stream-table caching.
//!
//! Because GEO's generators are deterministic and shared, the stream for a
//! given (generator, value) pair is fixed — so the engine precomputes
//! value-indexed tables per generator and turns stream generation into
//! lookups. This mirrors the paper's "heavily optimized stream-based
//! training" and is what makes SC-in-the-loop training tractable.
//!
//! TRNG-backed tables are deliberately invalidated every pass
//! ([`TableCache::begin_pass`]): true randomness has no reusable table,
//! which is exactly why networks cannot train for it.
//!
//! The cache is also the injection point for the fault model
//! ([`geo_sc::fault`]): static generator faults (seed corruption, stuck
//! taps) are applied when an RNG is built, and transient faults (stream /
//! SRAM bit errors) corrupt table contents — each table doubles as the
//! model of that generator's stream-buffer SRAM. Tables with transient
//! faults are invalidated every pass so each pass draws fresh upsets.
//!
//! **Frozen-pass semantics under prepare/serve:** one
//! [`ScEngine::prepare`](crate::ScEngine::prepare) is one pass — it calls
//! [`TableCache::begin_pass`] once, draws TRNG tables and transient
//! faults then, and bakes the resulting streams into the immutable
//! [`PreparedModel`](crate::PreparedModel). Every request served against
//! that prepared model sees those same frozen draws; TRNG tables are not
//! redrawn and transient upsets do not recur per request. Repeated
//! *direct* forwards, by contrast, redraw per pass — so under
//! `RngKind::Trng` or a transient fault model, serve-path outputs are
//! bit-identical to the *first* direct forward after the same engine
//! state, not to a fresh pass each time.

use crate::error::GeoError;
use geo_sc::fault::{self, FaultCounters, FaultInjector};
use geo_sc::{
    progressive, quantize_unipolar, Bitstream, ProgressiveSng, RngKind, RngSpec, StreamRng,
    StreamTable, StuckAtRng,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of one cached generator table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TableKey {
    kind: RngKind,
    width: u8,
    spec: RngSpec,
}

/// Stable per-kind tag mixed into fault domains.
fn kind_tag(kind: RngKind) -> u64 {
    match kind {
        RngKind::Lfsr => 1,
        RngKind::Trng => 2,
        RngKind::Sobol => 3,
    }
}

/// Fault domain of one generator: a pure function of its identity, so the
/// same generator always draws the same static faults.
fn generator_domain(kind: RngKind, width: u8, spec: RngSpec) -> u64 {
    fault::domain(&[
        kind_tag(kind),
        u64::from(width),
        u64::from(spec.seed),
        spec.poly as u64,
    ])
}

/// A value-indexed table of *progressively generated* streams: entry `v`
/// holds the stream an SNG produces for the 8-bit operand `v` under the
/// 2-bits-then-2-per-2-cycles fill schedule.
#[derive(Debug, Clone)]
pub struct ProgressiveTable {
    streams: Vec<Bitstream>,
}

// Like `StreamTable`, progressive tables are resolved serially and then
// read concurrently through `Arc` handles by the parallel compute phase.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProgressiveTable>();
};

impl ProgressiveTable {
    fn new(len: usize, rng: &mut dyn StreamRng) -> Self {
        let streams = (0..=255u8)
            .map(|v| ProgressiveSng::new(v).generate(len, rng))
            .collect();
        ProgressiveTable { streams }
    }

    /// Stream for the 8-bit operand `value`.
    pub fn stream(&self, value: u8) -> &Bitstream {
        &self.streams[value as usize]
    }

    /// The packed 64-bit words of the stream for `value` — the direct
    /// form hot accumulation loops consume, skipping the [`Bitstream`]
    /// wrapper.
    #[inline]
    pub fn words(&self, value: u8) -> &[u64] {
        self.streams[value as usize].as_words()
    }

    /// Stream for a real value `x ∈ [0, 1]` (quantized to 8 bits,
    /// saturating at 255 — progressive buffers hold 8-bit operands).
    pub fn stream_for(&self, x: f32) -> &Bitstream {
        let level = quantize_unipolar(x, progressive::OPERAND_BITS).min(255);
        self.stream(level as u8)
    }
}

/// Cache of normal and progressive stream tables, keyed by generator
/// identity.
#[derive(Debug, Default)]
pub struct TableCache {
    regular: HashMap<TableKey, Arc<StreamTable>>,
    progressive: HashMap<TableKey, Arc<ProgressiveTable>>,
    pass: u64,
    faults: Option<FaultInjector>,
    hits: u64,
    misses: u64,
}

impl TableCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault injector (or removes it with `None`). Cached tables
    /// are dropped so subsequent lookups rebuild under the new model.
    pub fn set_faults(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
        self.regular.clear();
        self.progressive.clear();
    }

    /// The installed injector's model, if any.
    pub fn fault_model(&self) -> Option<&geo_sc::FaultModel> {
        self.faults.as_ref().map(|f| f.model())
    }

    /// Counts of every fault injected so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(|f| f.counters())
            .unwrap_or_default()
    }

    /// Starts a new generation pass: TRNG-backed tables are dropped so the
    /// next lookups draw fresh entropy, modeling non-repeatable hardware
    /// TRNGs. With transient faults active, *all* tables are dropped — the
    /// stream buffers are rewritten each pass and draw fresh upsets.
    pub fn begin_pass(&mut self) {
        self.pass = self.pass.wrapping_add(1);
        let transient = self
            .faults
            .as_mut()
            .map(|f| {
                f.begin_pass();
                f.model().has_transient()
            })
            .unwrap_or(false);
        if transient {
            self.regular.clear();
            self.progressive.clear();
        } else {
            self.regular.retain(|k, _| k.kind != RngKind::Trng);
            self.progressive.retain(|k, _| k.kind != RngKind::Trng);
        }
    }

    fn build_rng(
        &mut self,
        kind: RngKind,
        width: u8,
        spec: RngSpec,
    ) -> Result<Box<dyn StreamRng>, GeoError> {
        let spec = match kind {
            // Mix the pass counter into TRNG entropy so every pass differs.
            RngKind::Trng => RngSpec {
                seed: spec.seed ^ (self.pass as u32).rotate_left(16),
                poly: spec.poly,
            },
            _ => spec,
        };
        let rng = kind.build(width, spec).map_err(GeoError::Sc)?;
        Ok(rng)
    }

    /// Builds the (possibly faulty) RNG for a generator: static seed
    /// corruption is applied to the spec, and stuck-at lanes get wrapped.
    fn build_faulty_rng(
        &mut self,
        kind: RngKind,
        width: u8,
        spec: RngSpec,
    ) -> Result<Box<dyn StreamRng>, GeoError> {
        let Some(mut inj) = self.faults.take() else {
            return self.build_rng(kind, width, spec);
        };
        // Static faults key on the *healthy* generator identity so they are
        // stable across rebuilds and independent of the TRNG pass mixing.
        let dom = generator_domain(kind, width, spec);
        let spec = inj.corrupt_spec(dom, spec);
        let stuck = inj.stuck_mask(dom, width);
        let result = self.build_rng(kind, width, spec);
        self.faults = Some(inj);
        let rng = result?;
        Ok(if stuck != 0 {
            Box::new(StuckAtRng::new(rng, stuck))
        } else {
            rng
        })
    }

    /// The normal (fully loaded) stream table for a generator, building it
    /// on first use. Streams have length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::Sc`] if the generator cannot be built at `width`
    /// (the engine validates widths up front, but the cache is public API).
    pub fn regular(
        &mut self,
        kind: RngKind,
        width: u8,
        len: usize,
        spec: RngSpec,
    ) -> Result<Arc<StreamTable>, GeoError> {
        let key = TableKey { kind, width, spec };
        if let Some(t) = self.regular.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(t));
        }
        self.misses += 1;
        let mut rng = self.build_faulty_rng(kind, width, spec)?;
        let mut table = StreamTable::new(len, rng.as_mut());
        if let Some(inj) = self.faults.as_mut() {
            inj.corrupt_table(generator_domain(kind, width, spec), &mut table);
        }
        let table = Arc::new(table);
        self.regular.insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// The progressive stream table for a generator, building it on first
    /// use.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::Sc`] if the generator cannot be built at `width`.
    pub fn progressive(
        &mut self,
        kind: RngKind,
        width: u8,
        len: usize,
        spec: RngSpec,
    ) -> Result<Arc<ProgressiveTable>, GeoError> {
        let key = TableKey { kind, width, spec };
        if let Some(t) = self.progressive.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(t));
        }
        self.misses += 1;
        let mut rng = self.build_faulty_rng(kind, width, spec)?;
        let mut table = ProgressiveTable::new(len, rng.as_mut());
        if let Some(inj) = self.faults.as_mut() {
            let dom = generator_domain(kind, width, spec);
            for (level, bs) in table.streams.iter_mut().enumerate() {
                inj.corrupt_level(dom, level as u32, bs);
            }
        }
        let table = Arc::new(table);
        self.progressive.insert(key, Arc::clone(&table));
        Ok(table)
    }

    /// Cumulative `(hits, misses)` of table lookups since creation. A
    /// hit serves a cached table; a miss builds one.
    pub fn lookup_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of cached tables (both kinds).
    pub fn len(&self) -> usize {
        self.regular.len() + self.progressive.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.regular.is_empty() && self.progressive.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_sc::FaultModel;

    const SPEC: RngSpec = RngSpec { seed: 5, poly: 0 };

    #[test]
    fn regular_tables_are_cached() {
        let mut cache = TableCache::new();
        let a = cache.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let b = cache.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        let c = cache
            .regular(RngKind::Lfsr, 6, 64, RngSpec { seed: 6, poly: 0 })
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lookup_counts_track_hits_and_misses() {
        let mut cache = TableCache::new();
        let _ = cache.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let _ = cache.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let _ = cache.progressive(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        assert_eq!(cache.lookup_counts(), (1, 2));
    }

    #[test]
    fn lfsr_tables_survive_passes_trng_tables_do_not() {
        let mut cache = TableCache::new();
        let lfsr1 = cache.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let trng1 = cache.regular(RngKind::Trng, 6, 64, SPEC).unwrap();
        cache.begin_pass();
        let lfsr2 = cache.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let trng2 = cache.regular(RngKind::Trng, 6, 64, SPEC).unwrap();
        assert!(Arc::ptr_eq(&lfsr1, &lfsr2), "deterministic tables persist");
        assert!(!Arc::ptr_eq(&trng1, &trng2), "TRNG tables are rebuilt");
        // And the rebuilt TRNG table contains different streams.
        assert_ne!(trng1.stream(32), trng2.stream(32));
    }

    #[test]
    fn progressive_table_matches_direct_generation() {
        let mut cache = TableCache::new();
        let table = cache.progressive(RngKind::Lfsr, 7, 128, SPEC).unwrap();
        let mut rng = RngKind::Lfsr.build(7, SPEC).unwrap();
        let direct = ProgressiveSng::new(200).generate(128, rng.as_mut());
        assert_eq!(table.stream(200), &direct);
        assert!(!cache.is_empty());
    }

    #[test]
    fn progressive_stream_for_quantizes_and_saturates() {
        let mut cache = TableCache::new();
        let table = cache.progressive(RngKind::Lfsr, 7, 128, SPEC).unwrap();
        assert_eq!(table.stream_for(1.0), table.stream(255));
        assert_eq!(table.stream_for(0.0), table.stream(0));
        assert_eq!(table.stream_for(0.5), table.stream(128));
    }

    #[test]
    fn invalid_width_surfaces_as_error_not_panic() {
        let mut cache = TableCache::new();
        assert!(cache.regular(RngKind::Lfsr, 2, 4, SPEC).is_err());
        assert!(cache.progressive(RngKind::Lfsr, 40, 16, SPEC).is_err());
    }

    #[test]
    fn none_fault_model_leaves_tables_identical() {
        let mut clean = TableCache::new();
        let mut nulled = TableCache::new();
        nulled.set_faults(Some(FaultInjector::new(FaultModel::none()).unwrap()));
        let a = clean.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let b = nulled.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        for level in 0..=64u32 {
            assert_eq!(a.stream(level), b.stream(level));
        }
        let pa = clean.progressive(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let pb = nulled.progressive(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        for level in 0..=255u8 {
            assert_eq!(pa.stream(level), pb.stream(level));
        }
        assert!(!nulled.fault_counters().any());
    }

    #[test]
    fn stream_ber_corrupts_and_invalidates_per_pass() {
        let mut clean = TableCache::new();
        let mut faulty = TableCache::new();
        faulty.set_faults(Some(
            FaultInjector::new(FaultModel::with_stream_ber(0.05, 11)).unwrap(),
        ));
        let a = clean.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let b1 = faulty.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        assert_ne!(a.stream(32), b1.stream(32));
        assert!(faulty.fault_counters().stream_bits_flipped > 0);
        // New pass → table invalidated and re-corrupted differently.
        faulty.begin_pass();
        let b2 = faulty.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        assert!(!Arc::ptr_eq(&b1, &b2), "transient faults rebuild tables");
        assert_ne!(b1.stream(32), b2.stream(32));
    }

    #[test]
    fn static_faults_are_stable_across_passes() {
        let model = FaultModel {
            seed_corruption_rate: 1.0,
            seed: 3,
            ..FaultModel::none()
        };
        let mut faulty = TableCache::new();
        faulty.set_faults(Some(FaultInjector::new(model).unwrap()));
        let t1 = faulty.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        faulty.begin_pass();
        let t2 = faulty.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        // No transient faults → cached Arc survives; and the corrupted seed
        // differs from the healthy table.
        assert!(Arc::ptr_eq(&t1, &t2));
        let mut clean = TableCache::new();
        let healthy = clean.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        assert_ne!(healthy.stream(32), t1.stream(32));
    }

    #[test]
    fn stuck_lane_biases_streams_low() {
        // A stuck-at-one tap raises comparator inputs, so ones densities
        // drop (rng() < level fires less often).
        let model = FaultModel {
            lfsr_stuck_rate: 1.0,
            seed: 1,
            ..FaultModel::none()
        };
        let mut faulty = TableCache::new();
        faulty.set_faults(Some(FaultInjector::new(model).unwrap()));
        let mut clean = TableCache::new();
        let f = faulty.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let h = clean.regular(RngKind::Lfsr, 6, 64, SPEC).unwrap();
        let f_ones: u32 = (0..=64).map(|l| f.stream(l).count_ones()).sum();
        let h_ones: u32 = (0..=64).map(|l| h.stream(l).count_ones()).sum();
        assert!(
            f_ones < h_ones,
            "stuck tap loses ones: {f_ones} vs {h_ones}"
        );
        assert_eq!(faulty.fault_counters().stuck_lanes, 1);
    }
}
