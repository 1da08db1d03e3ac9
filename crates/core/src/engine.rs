//! The GEO stochastic-computing inference engine.
//!
//! Executes a `geo-nn` network with a simulated SC datapath: activations
//! and split-unipolar weights become LFSR/TRNG-generated bitstreams (via
//! cached value-indexed tables), multiplications are ANDs, and
//! accumulation follows the configured SC/fixed-point split (§III-B).
//! Batch normalization runs as the quantized near-memory affine transform
//! at inference, and pooling operates on converted counts (computation
//! skipping).
//!
//! In training mode the float layers still run forward to cache their
//! inputs, but each parametrized layer's *output* is replaced by the SC
//! result — the paper's "simulated SC computes output values while the
//! floating-point forward pass guides back propagation".
//!
//! # Prepare/compute pipeline (DESIGN.md §15)
//!
//! Each parametrized layer executes in two phases with a hard
//! immutability boundary between them:
//!
//! 1. **Prepare** (serial, `&mut self`): every lane table is built or
//!    fetched through the [`TableCache`] and every *weight-side* operand
//!    is quantized into a [`PreparedConv`]/[`PreparedLinear`]. Table
//!    construction is the injection point for the fault model, so running
//!    it serially in a fixed order keeps fault draws and counters
//!    deterministic and call-order independent. Prepare also performs
//!    every computation that is invariant across requests and output
//!    positions: zero-weight lanes are compacted away into
//!    per-output-channel [`CompactKernel`] lists, activation tables are
//!    flattened into the gather slab, and per-worker [`Scratch`] sizing
//!    is fixed. Nothing in a prepared layer depends on the activations.
//! 2. **Compute** (pure, `&self`): the request's activations are
//!    quantized and range-validated ([`ActBatch`]), then output positions
//!    `(b, co, oy, ox)` are computed over disjoint output slices, in
//!    parallel across `rayon` workers. Each position's accumulators are
//!    position-local and the prepared state is immutable, so the result
//!    is **bit-identical to the serial engine at every thread count** —
//!    the correctness contract `crates/core/tests/parallel_equivalence.rs`
//!    enforces.
//!
//! [`ScEngine::prepare`] hoists phase 1 for a whole network into an
//! immutable, `Send + Sync`, `Arc`-shareable [`PreparedModel`] whose
//! [`PreparedModel::forward`] borrows `&self` — the compile-once,
//! serve-many entry point `geo_core::serve` batches requests against.
//! [`ScEngine::forward`] itself is prepare-then-compute at inference,
//! which is what pins the prepared path bit-identical to every historical
//! output. Training passes and [`ScEngine::forward_single_layer`] run each
//! SC layer through the same per-layer prepare and step code, so there is
//! one compute path for every pass.
//!
//! # Sparsity-compacted kernels (DESIGN.md §11)
//!
//! The compute phase walks dense arrays built at resolve time instead of
//! re-deriving per-lane facts per pixel: compacted nonzero-lane lists
//! with their stream words contiguous in memory, a once-per-row `iy`
//! resolution, an interior/border split of each output row, and a
//! streaming one-level APC accumulator that replaces per-MAC heap
//! allocations. The pre-compaction kernels are retained verbatim (the
//! [`reference`] module, reachable via [`ScEngine::forward_reference`])
//! as the bit-identity oracle for
//! `crates/core/tests/compaction_equivalence.rs` and as the "before"
//! side of the `bench_forward` perf trajectory.
//!
//! Thread count follows `RAYON_NUM_THREADS` (or an installed
//! `rayon::ThreadPool`), defaulting to the machine's parallelism.

use crate::config::{Accumulation, GeoConfig};
use crate::error::GeoError;
use crate::tables::{ProgressiveTable, TableCache};
use crate::telemetry::{EngineTelemetry, LayerCounters, Phase, Stopwatch, TelemetryReport};
use geo_nn::{Conv2d, Layer, Linear, Sequential, Tensor};
use geo_sc::fault::{FaultCounters, FaultInjector, FaultModel};
use geo_sc::{quantize_unipolar, Bitstream, KernelDims, SeedPlan, StreamTable};
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

/// Array width assumed when mapping fully-connected layers onto the MAC
/// fabric: features fill a pseudo-kernel of this W dimension, so partial
/// binary accumulation applies to FC layers too (with the underutilization
/// the paper notes in §III-A).
pub const FC_BINARY_WIDTH: usize = 8;

/// Per-layer-index seed stride, keeping layer seed plans disjoint.
const LAYER_SEED_STRIDE: u32 = 0x1009;

/// A value-indexed stream source: normal or progressive.
enum LaneTable {
    Normal(Arc<StreamTable>),
    Progressive(Arc<ProgressiveTable>),
}

impl LaneTable {
    /// Stream lookup for a quantized operand level.
    ///
    /// [`act_level`] / [`ScEngine::weight_levels`] quantize every
    /// operand into the table's range, so an out-of-range level here means
    /// an engine bug — it surfaces as [`GeoError::Internal`] rather than a
    /// silent clamp (which would alias distinct operands) or a panic.
    fn stream(&self, level: u32) -> Result<&Bitstream, GeoError> {
        match self {
            LaneTable::Normal(t) => {
                if level > (1u32 << t.width()) {
                    return Err(GeoError::Internal(format!(
                        "operand level {level} exceeds stream-table range 0..={}",
                        1u32 << t.width()
                    )));
                }
                Ok(t.stream(level))
            }
            LaneTable::Progressive(t) => {
                if level > 255 {
                    return Err(GeoError::Internal(format!(
                        "operand level {level} exceeds the 8-bit progressive buffer"
                    )));
                }
                Ok(t.stream(level as u8))
            }
        }
    }

    /// Packed stream words for a *resolve-validated* operand level — the
    /// hot-loop form of [`Self::stream`], with the range check and
    /// `Result` plumbing hoisted out: the resolve phase validates the
    /// layer's maximum activation level once ([`validate_act_levels`]),
    /// so per-pixel lookups index straight into the table.
    #[inline]
    fn words(&self, level: u32) -> &[u64] {
        match self {
            LaneTable::Normal(t) => t.words(level),
            LaneTable::Progressive(t) => t.words(level as u8),
        }
    }

    /// Identity key for flat-table deduplication: lanes sharing one cached
    /// table (the sharing levels of §II-C) share one flat slab.
    fn ptr_key(&self) -> usize {
        match self {
            LaneTable::Normal(t) => Arc::as_ptr(t) as usize,
            LaneTable::Progressive(t) => Arc::as_ptr(t) as usize,
        }
    }

    /// Number of quantized levels the table carries (max level + 1).
    fn level_count(&self) -> usize {
        match self {
            LaneTable::Normal(t) => (1usize << t.width()) + 1,
            LaneTable::Progressive(_) => 256,
        }
    }
}

/// Copies every activation table's streams into one flat, level-indexed
/// slab: lane `i`'s stream for level `lv` occupies
/// `act_flat[act_off[i] + lv·words ..][..words]`. The hoisted row gather
/// then reads packed words with one indexed load — no `LaneTable` enum
/// match, no `Arc` dereference, no per-level slice lookup — which is
/// what licenses the branchless level-0 masking in
/// [`PreparedConv::gather_row`] and [`PreparedLinear::gather_batch`].
/// Tables shared between lanes are deduplicated by pointer identity, so
/// the slab size tracks the layer's *distinct* tables.
fn flatten_act_tables(
    tables: &[LaneTable],
    words: usize,
) -> Result<(Vec<u64>, Vec<u32>), GeoError> {
    let mut flat: Vec<u64> = Vec::new();
    let mut offs: Vec<u32> = Vec::with_capacity(tables.len());
    let mut seen: Vec<(usize, u32)> = Vec::new();
    for t in tables {
        let key = t.ptr_key();
        if let Some(&(_, off)) = seen.iter().find(|&&(p, _)| p == key) {
            offs.push(off);
            continue;
        }
        let off = u32::try_from(flat.len()).map_err(|_| {
            GeoError::Internal("flat activation table exceeds u32 indexing".to_string())
        })?;
        let levels = t.level_count();
        flat.reserve(levels * words);
        for level in 0..levels {
            flat.extend_from_slice(t.words(level as u32));
        }
        seen.push((key, off));
        offs.push(off);
    }
    Ok((flat, offs))
}

/// Validates once, at resolve time, that every quantized activation level
/// is inside the lane tables' range, licensing the infallible
/// [`LaneTable::words`] lookups the compute phase performs. All of a
/// layer's activation tables share one width/length, so checking the
/// maximum level against the first table covers them all.
fn validate_act_levels(tables: &[LaneTable], levels: &[u32]) -> Result<(), GeoError> {
    if let (Some(table), Some(&max)) = (tables.first(), levels.iter().max()) {
        table.stream(max)?;
    }
    Ok(())
}

/// Per-layer and total fault-injection counts observed by an engine built
/// with [`ScEngine::with_faults`].
///
/// Counters attribute each injected fault to the parametrized layer whose
/// stream tables were being built when it happened; because deterministic
/// tables are cached, a layer's static faults are counted on the pass that
/// first builds its tables, while transient faults recur every pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Forward passes executed with fault injection active.
    pub passes: u64,
    /// Fault counts per parametrized (conv/linear) layer, in network order.
    pub layers: Vec<FaultCounters>,
    /// Fault counts across all layers.
    pub total: FaultCounters,
}

impl ResilienceReport {
    fn record(&mut self, param_layer: u32, delta: FaultCounters) {
        let idx = param_layer as usize;
        if self.layers.len() <= idx {
            self.layers.resize(idx + 1, FaultCounters::default());
        }
        self.layers[idx].accumulate(&delta);
        self.total.accumulate(&delta);
    }

    /// Folds another report into this one — how a prepared pass's locally
    /// accumulated fault counts flow back into the engine's report.
    fn absorb(&mut self, other: &ResilienceReport) {
        self.passes += other.passes;
        for (i, layer) in other.layers.iter().enumerate() {
            if self.layers.len() <= i {
                self.layers.resize(i + 1, FaultCounters::default());
            }
            self.layers[i].accumulate(layer);
        }
        self.total.accumulate(&other.total);
    }
}

/// A weight operand resolved for the compute phase: quantized split
/// levels, the accumulator group its lane feeds, and the packed words of
/// its positive/negative streams. The words are copied out of the lane
/// table once per resolve so the per-position hot loop reads flat local
/// data instead of chasing table pointers; tables are immutable for the
/// duration of a pass, so the copy is exact.
struct WeightRef {
    pos: u32,
    neg: u32,
    group: usize,
    pos_words: Vec<u64>,
    neg_words: Vec<u64>,
}

impl WeightRef {
    /// Resolves one weight lane. `copy_words` controls whether the stream
    /// words are copied into the per-lane `Vec`s: the reference kernels
    /// read them, so [`ScEngine::forward_reference`] resolves with the
    /// copies (keeping the "before" timing honest), while the compacted
    /// path skips the two heap copies per lane and reads its words
    /// straight out of the lane table when [`CompactKernel::build`] packs
    /// the position-major buffer. Levels are range-validated either way.
    fn resolve(
        table: &LaneTable,
        (pos, neg): (u32, u32),
        group: usize,
        copy_words: bool,
    ) -> Result<WeightRef, GeoError> {
        let words_of = |level: u32| -> Result<Vec<u64>, GeoError> {
            if level == 0 {
                return Ok(Vec::new());
            }
            let stream = table.stream(level)?;
            Ok(if copy_words {
                stream.as_words().to_vec()
            } else {
                Vec::new()
            })
        };
        Ok(WeightRef {
            pos,
            neg,
            group,
            pos_words: words_of(pos)?,
            neg_words: words_of(neg)?,
        })
    }

    /// Whether both split halves are zero (the lane contributes nothing).
    fn is_zero(&self) -> bool {
        self.pos == 0 && self.neg == 0
    }
}

/// Sparsity-compacted weight lanes for a whole layer, in
/// structure-of-arrays form with **position-major** stream words
/// (DESIGN.md §14): per output channel/neuron, a contiguous run of its
/// *nonzero* lanes, and per row a weight-word segment laid out so that for
/// each stream-word position `j` the words of all `n` row lanes are
/// adjacent (`row_pos(r)[j·n + i]`). The per-pixel hot loop streams
/// through these dense arrays 4 lanes per iteration instead of re-testing
/// `WeightRef::is_zero` per lane per pixel and hopping between per-lane
/// word pairs.
///
/// Lane order within a row matches the resolve order (`ci`, `ky`, `kx`
/// ascending), so the sequence of accumulate calls — and therefore APC
/// compressor pairing — is exactly the pre-compaction sequence. Absent
/// split halves are stored as zero words: ANDing/ORing them is the
/// identity for every popcount mode, and the APC gather gates on
/// [`CompactKernel::flags`] so its push order never sees them.
#[derive(Debug)]
struct CompactKernel {
    /// Activation index of each lane (conv: `(ci·k + ky)·k + kx`; linear:
    /// the feature index).
    lane: Vec<usize>,
    /// Per-lane offset into the shared gathered-activation row buffer
    /// ([`ActBuf`]): `lane · act_stride`, where `act_stride` is `ow` for
    /// conv (one gathered word run per output column) and 1 for linear.
    /// A pixel's activation word lives at `acts[(aoff + ox)·words + j]`,
    /// its nonzero flag at `nz[aoff + ox]`.
    aoff: Vec<u32>,
    /// Accumulator group each lane feeds.
    group: Vec<u32>,
    /// Split-half liveness per lane: bit 0 = nonzero positive half,
    /// bit 1 = nonzero negative half (gates APC push order only).
    flags: Vec<u8>,
    /// Row `r`'s lanes are SoA indices `offsets[r]..offsets[r + 1]`.
    offsets: Vec<usize>,
    /// Rows that keep lane index `l` (`lanes_per_row` entries) — the
    /// per-row MAC count weighs each lane index's live activations by
    /// this (DESIGN.md §12).
    users: Vec<u64>,
    /// Per-row position-major stream words: row `r` starts at
    /// `offsets[r]·2·words` and holds `n·words` positive words
    /// (`[j·n + i]`) followed by `n·words` negative words.
    words_buf: Vec<u64>,
    /// Words per stream (`len.div_ceil(64)`).
    words: usize,
    /// Per-row positive-half lane list (APC kernels): the gather offsets
    /// of the lanes whose positive split half is nonzero, in lane
    /// (arrival) order; row `r` spans `pos_offsets[r]..pos_offsets[r+1]`.
    /// Most lanes carry exactly one live half, so walking these lists
    /// halves the APC product loop relative to walking every lane twice.
    pos_aoff: Vec<u32>,
    /// The listed lanes' stream words, lane-major (`words` per entry).
    pos_w: Vec<u64>,
    pos_offsets: Vec<usize>,
    /// Negative-half counterparts of the `pos_*` lists.
    neg_aoff: Vec<u32>,
    neg_w: Vec<u64>,
    neg_offsets: Vec<usize>,
}

impl CompactKernel {
    /// Compacts `wrefs` (laid out `rows × lanes_per_row`, resolve order)
    /// into per-row nonzero lane lists, reading each lane's stream words
    /// from its table in `wtables` (parallel to `wrefs`). `act_stride`
    /// is the gathered-activation stride per lane index (conv: `ow`,
    /// linear: 1); callers guarantee `lanes_per_row · act_stride` fits
    /// `u32`.
    fn build(
        wrefs: &[WeightRef],
        wtables: &[LaneTable],
        rows: usize,
        lanes_per_row: usize,
        words: usize,
        act_stride: usize,
    ) -> CompactKernel {
        let nonzero = wrefs.iter().filter(|w| !w.is_zero()).count();
        let mut k = CompactKernel {
            lane: Vec::with_capacity(nonzero),
            aoff: Vec::with_capacity(nonzero),
            group: Vec::with_capacity(nonzero),
            flags: Vec::with_capacity(nonzero),
            offsets: Vec::with_capacity(rows + 1),
            users: vec![0; lanes_per_row],
            words_buf: Vec::with_capacity(nonzero * 2 * words),
            words,
            pos_aoff: Vec::new(),
            pos_w: Vec::new(),
            pos_offsets: Vec::with_capacity(rows + 1),
            neg_aoff: Vec::new(),
            neg_w: Vec::new(),
            neg_offsets: Vec::with_capacity(rows + 1),
        };
        k.offsets.push(0);
        k.pos_offsets.push(0);
        k.neg_offsets.push(0);
        let empty: &[u64] = &[];
        let mut row_streams: Vec<(&[u64], &[u64])> = Vec::with_capacity(lanes_per_row);
        for r in 0..rows {
            row_streams.clear();
            for l in 0..lanes_per_row {
                let i = r * lanes_per_row + l;
                let wref = &wrefs[i];
                if wref.is_zero() {
                    continue;
                }
                let aoff = (l * act_stride) as u32;
                let table = &wtables[i];
                let pw = if wref.pos > 0 {
                    table.words(wref.pos)
                } else {
                    empty
                };
                let nw = if wref.neg > 0 {
                    table.words(wref.neg)
                } else {
                    empty
                };
                if !pw.is_empty() {
                    k.pos_aoff.push(aoff);
                    k.pos_w.extend_from_slice(pw);
                }
                if !nw.is_empty() {
                    k.neg_aoff.push(aoff);
                    k.neg_w.extend_from_slice(nw);
                }
                row_streams.push((pw, nw));
                k.users[l] += 1;
                k.lane.push(l);
                k.aoff.push(aoff);
                k.group.push(wref.group as u32);
                k.flags
                    .push(u8::from(wref.pos > 0) | (u8::from(wref.neg > 0) << 1));
            }
            for half in 0..2 {
                for j in 0..words {
                    for &(pw, nw) in &row_streams {
                        let src = if half == 0 { pw } else { nw };
                        k.words_buf.push(if src.is_empty() { 0 } else { src[j] });
                    }
                }
            }
            k.offsets.push(k.lane.len());
            k.pos_offsets.push(k.pos_aoff.len());
            k.neg_offsets.push(k.neg_aoff.len());
        }
        k
    }

    /// The SoA index range of output row/channel `r`.
    #[inline]
    fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.offsets[r]..self.offsets[r + 1]
    }

    /// Position-major positive stream words of row `r`: word `j` of row
    /// lane `i` at `[j·n + i]`.
    #[inline]
    fn row_pos(&self, r: usize) -> &[u64] {
        let (lo, hi) = (self.offsets[r], self.offsets[r + 1]);
        let base = lo * 2 * self.words;
        &self.words_buf[base..base + (hi - lo) * self.words]
    }

    /// Position-major negative stream words of row `r`.
    #[inline]
    fn row_neg(&self, r: usize) -> &[u64] {
        let (lo, hi) = (self.offsets[r], self.offsets[r + 1]);
        let n = hi - lo;
        let base = lo * 2 * self.words + n * self.words;
        &self.words_buf[base..base + n * self.words]
    }

    /// Row `r`'s positive-half lane list: gather offsets and their
    /// lane-major stream words (`words` per entry), arrival order.
    #[inline]
    fn row_pos_list(&self, r: usize) -> (&[u32], &[u64]) {
        let (lo, hi) = (self.pos_offsets[r], self.pos_offsets[r + 1]);
        (
            &self.pos_aoff[lo..hi],
            &self.pos_w[lo * self.words..hi * self.words],
        )
    }

    /// Row `r`'s negative-half lane list.
    #[inline]
    fn row_neg_list(&self, r: usize) -> (&[u32], &[u64]) {
        let (lo, hi) = (self.neg_offsets[r], self.neg_offsets[r + 1]);
        (
            &self.neg_aoff[lo..hi],
            &self.neg_w[lo * self.words..hi * self.words],
        )
    }

    /// Largest nonzero-lane count of any row — the layer's effective max
    /// fan-in, which sizes per-worker row scratch exactly once.
    fn max_row_lanes(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// Everything input-independent that the pure compute phase needs for one
/// convolution layer, produced serially by [`ScEngine::prepare_conv`] once
/// per (model × config × fault-model). Shared as `&self` across worker
/// threads and across requests (see the compile-time assertions below);
/// per-request activations arrive separately as an [`ActBatch`].
struct PreparedConv {
    mode: Accumulation,
    len: usize,
    words: usize,
    groups: usize,
    /// Quantization width (`log2 len`) for per-request activation levels.
    width: u8,
    /// Progressive generation flag, fixed at prepare time.
    progressive: bool,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    volume: usize,
    act_tables: Vec<LaneTable>,
    /// Uncompacted lanes, kept for the pre-compaction reference kernels
    /// (the equivalence oracle and the `bench_forward` baseline).
    wrefs: Vec<WeightRef>,
    /// Level-indexed flat copy of the activation tables
    /// ([`flatten_act_tables`]); empty when resolving for the reference
    /// kernels.
    act_flat: Vec<u64>,
    /// Per-output-channel compacted nonzero lanes (the hot-path layout).
    compact: CompactKernel,
    /// Input channel per kernel position (`lane / k²`) — conv activation
    /// tables are per position, shared by every output channel, so the
    /// spatial gather walks these instead of per-compacted-lane copies.
    pos_ci: Vec<u32>,
    /// Kernel row offset per kernel position (`(lane % k²) / k`).
    pos_ky: Vec<u32>,
    /// Kernel column offset per kernel position (`lane % k`).
    pos_kx: Vec<u32>,
    /// Flat activation-table offset per kernel position
    /// ([`flatten_act_tables`]); zeros when resolving for the reference
    /// kernels, which never read it.
    pos_ao: Vec<u32>,
    /// Per-worker scratch buffers, pooled across requests (serve path).
    scratch: ScratchPool,
}

/// Everything input-independent that the pure compute phase needs for one
/// fully-connected layer, produced serially by
/// [`ScEngine::prepare_linear`].
struct PreparedLinear {
    mode: Accumulation,
    len: usize,
    words: usize,
    groups: usize,
    /// Quantization width (`log2 len`) for per-request activation levels.
    width: u8,
    /// Progressive generation flag, fixed at prepare time.
    progressive: bool,
    features: usize,
    outf: usize,
    act_tables: Vec<LaneTable>,
    /// Uncompacted lanes, kept for the pre-compaction reference kernels.
    wrefs: Vec<WeightRef>,
    /// Level-indexed flat copy of the activation tables
    /// ([`flatten_act_tables`]); empty when resolving for the reference
    /// kernels.
    act_flat: Vec<u64>,
    /// Per-output-neuron compacted nonzero lanes (the hot-path layout).
    compact: CompactKernel,
    /// Flat activation-table offset per input feature; zeros when
    /// resolving for the reference kernels.
    pos_ao: Vec<u32>,
    /// Per-worker scratch buffers, pooled across requests (serve path).
    scratch: ScratchPool,
}

/// One request's quantized activations: the only input-dependent state a
/// prepared layer's compute phase reads. Produced by
/// [`PreparedConv::quantize_acts`] / [`PreparedLinear::quantize_acts`],
/// which also range-validate the levels so compute-phase table lookups
/// stay infallible.
struct ActBatch {
    /// Batch dimension of the request.
    n: usize,
    /// Quantized activation levels, input-tensor order.
    levels: Vec<u32>,
}

/// Quantized activation level for table lookup.
///
/// Operands live in memory as 8-bit values; matching the LFSR width to
/// the stream length *truncates* them to the top `width` bits (§II-B).
/// A full-scale operand (`x = 1.0`) quantizes to level 256 — the
/// documented all-ones encoding of [`quantize_unipolar`] — and
/// `256 >> shift` is exactly `2^width`, the all-ones entry a normal
/// [`StreamTable`] explicitly carries. The progressive path instead
/// saturates at 255: its stream buffer holds 8-bit operands, a
/// deliberate hardware limit and the one place the two generation
/// modes encode operands differently.
fn act_level(progressive: bool, x: f32, width: u8) -> u32 {
    let q = quantize_unipolar(x.clamp(0.0, 1.0), 8);
    if progressive {
        q.min(255)
    } else {
        q >> (8 - width.min(8))
    }
}

// The compute phase hands these to scoped worker threads by shared
// reference, and `PreparedModel` is additionally shared across requests
// (`Arc`, the serve path); pin the auto-trait obligations at compile time
// so a future non-Sync field (e.g. a Cell or Rc in a table) fails here,
// not at a distant use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LaneTable>();
    assert_send_sync::<WeightRef>();
    assert_send_sync::<CompactKernel>();
    assert_send_sync::<PreparedConv>();
    assert_send_sync::<PreparedLinear>();
    assert_send_sync::<PreparedModel>();
};

/// A borrowed, gather-ready view of one output row's compacted lanes.
/// Every slice aliases the [`CompactKernel`] SoA arrays directly — there
/// is no per-row repacking; lanes whose input row falls outside the image
/// read zero words from the shared [`ActBuf`] instead (see
/// [`PreparedConv::gather_row`]).
struct RowView<'a> {
    n: usize,
    /// Per-lane base offsets into the gathered activations: lane `i` of
    /// pixel `ox` reads `acts[(aoff[i] + ox)·words ..]` and
    /// `nz[aoff[i] + ox]`.
    aoff: &'a [u32],
    /// Per-lane accumulator groups.
    group: &'a [u32],
    /// Per-lane split-half flags (bit 0 pos, bit 1 neg) — APC gating.
    flags: &'a [u8],
    /// Position-major positive stream words (`wp[j·n + i]`).
    wp: &'a [u64],
    /// Position-major negative stream words.
    wn: &'a [u64],
    /// Positive-half lane list ([`CompactKernel::row_pos_list`]) — the
    /// APC kernels walk this instead of testing every lane's flags.
    pos_aoff: &'a [u32],
    pos_w: &'a [u64],
    /// Negative-half lane list.
    neg_aoff: &'a [u32],
    neg_w: &'a [u64],
}

/// Per-worker gathered-activation buffers, shared across every output
/// channel of a spatial row (conv) or every output neuron of a batch
/// element (linear). Conv activation tables are per kernel position —
/// identical for all `cout` channels — so hoisting the gather out of the
/// channel loop amortizes it `cout`× (respectively `outf`× for linear).
struct ActBuf {
    /// Gathered activation words, `units · words`, lane-major within a
    /// unit (`acts[u·words + j]`), zeroed for skipped (level-0 or
    /// out-of-bounds) units.
    acts: Vec<u64>,
    /// Per-unit nonzero-activation flags (0/1) — APC gating.
    nz: Vec<u8>,
    /// Per-output-column count of zero (level-0 or out-of-bounds) units
    /// across every kernel position (conv: `ow` entries; linear: one).
    /// `zeros[ox] == 0` proves every lane of every row is live at that
    /// column, licensing the APC kernels' statically-paired fast path.
    zeros: Vec<u32>,
}

impl ActBuf {
    fn new(units: usize, words: usize, cols: usize) -> Self {
        ActBuf {
            acts: vec![0u64; units * words],
            nz: vec![0u8; units],
            zeros: vec![0u32; cols],
        }
    }
}

/// Per-worker pixel buffers: the APC product gather and the grouped
/// accumulators. All sized once at construction from resolve-time
/// constants — the hot loop performs no heap allocation in any mode.
struct PixelBuf {
    /// APC product gather, lane-major (`words` adjacent words per kept
    /// product, arrival order preserved).
    prod_pos: Vec<u64>,
    prod_neg: Vec<u64>,
    /// Grouped accumulators (`groups·words`), Pbw/Pbhw (and multiword Or).
    acc_pos: Vec<u64>,
    acc_neg: Vec<u64>,
}

impl PixelBuf {
    fn new(groups: usize, words: usize, max_row_lanes: usize) -> Self {
        PixelBuf {
            prod_pos: vec![0u64; max_row_lanes * words],
            prod_neg: vec![0u64; max_row_lanes * words],
            acc_pos: vec![0u64; groups * words],
            acc_neg: vec![0u64; groups * words],
        }
    }
}

/// Per-worker scratch for the compacted kernels, allocated once per
/// worker (`for_each_init`). Split into activation and pixel halves so
/// the pixel kernels can read the gathered activations while mutating
/// their accumulators.
struct Scratch {
    act: ActBuf,
    pix: PixelBuf,
}

impl Scratch {
    fn new(
        groups: usize,
        words: usize,
        max_row_lanes: usize,
        gather_units: usize,
        gather_cols: usize,
    ) -> Self {
        Scratch {
            act: ActBuf::new(gather_units, words, gather_cols),
            pix: PixelBuf::new(groups, words, max_row_lanes),
        }
    }

    /// Debug-build invariant: no scratch buffer reallocated after
    /// construction — the sizing contract of the compacted kernels.
    #[inline]
    fn debug_check(&self) {
        debug_assert_eq!(
            self.act.acts.len(),
            self.act.nz.len() * self.words_per_unit()
        );
        debug_assert_eq!(self.pix.prod_pos.len(), self.pix.prod_neg.len());
    }

    #[inline]
    fn words_per_unit(&self) -> usize {
        if self.act.nz.is_empty() {
            1
        } else {
            self.act.acts.len() / self.act.nz.len()
        }
    }
}

/// A pool of per-worker [`Scratch`] buffers owned by a prepared layer, so
/// repeated requests through one `PreparedModel` reuse the same
/// allocations instead of paying a fresh `Scratch::new` per worker per
/// forward. Sizing is fixed at prepare time (it depends only on layer
/// geometry), and returning workers debug-assert their buffers kept those
/// sizes — the cross-request analogue of [`Scratch::debug_check`].
struct ScratchPool {
    groups: usize,
    words: usize,
    max_row_lanes: usize,
    gather_units: usize,
    gather_cols: usize,
    pool: Mutex<Vec<Scratch>>,
}

impl ScratchPool {
    fn new(
        groups: usize,
        words: usize,
        max_row_lanes: usize,
        gather_units: usize,
        gather_cols: usize,
    ) -> Self {
        ScratchPool {
            groups,
            words,
            max_row_lanes,
            gather_units,
            gather_cols,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled scratch, or allocates one to the layer's fixed
    /// dimensions if every buffer is checked out. The guard returns it on
    /// drop.
    fn take(&self) -> PooledScratch<'_> {
        let reused = self.lock().pop();
        let scratch = reused.unwrap_or_else(|| {
            Scratch::new(
                self.groups,
                self.words,
                self.max_row_lanes,
                self.gather_units,
                self.gather_cols,
            )
        });
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Scratch>> {
        // A panicking worker cannot leave a Scratch half-valid: buffers
        // are plain overwrite-before-read arrays, so recover the poison.
        self.pool.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// RAII guard over a pooled [`Scratch`]: derefs to the buffer and returns
/// it to the pool on drop, debug-asserting it was not reallocated while
/// checked out (the non-reallocation contract of the serve path).
struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    scratch: Option<Scratch>,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            debug_assert_eq!(s.act.acts.len(), self.pool.gather_units * self.pool.words);
            debug_assert_eq!(s.act.nz.len(), self.pool.gather_units);
            debug_assert_eq!(s.act.zeros.len(), self.pool.gather_cols);
            debug_assert_eq!(s.pix.acc_pos.len(), self.pool.groups * self.pool.words);
            debug_assert_eq!(
                s.pix.prod_pos.len(),
                self.pool.max_row_lanes * self.pool.words
            );
            self.pool.lock().push(s);
        }
    }
}

/// Row-level monomorphized accumulation kernels (DESIGN.md §14): the row
/// loop dispatches on the layer's accumulation mode once, and each mode's
/// pixel body is a straight-line SWAR reduction over the gathered
/// activation words — 4 lanes per inner-loop iteration, popcounts
/// combined by pairwise adds — with no per-MAC mode or liveness branch.
trait ModeKernel {
    /// The signed accumulated count of one pixel: lane `i` reads its
    /// activation words at `act.acts[(aoff[i] + ox)·words ..]`.
    fn pixel(pix: &mut PixelBuf, view: &RowView, act: &ActBuf, ox: usize, words: usize) -> i64;
}

/// 4-wide OR/AND reduction of one single-word pixel across all lanes:
/// the OR accumulation of a whole pixel collapses into four independent
/// register accumulators folded by a pairwise tree. OR is associative and
/// commutative, so any reduction shape is bit-identical to the reference
/// kernels' sequential fold.
#[inline]
fn or_fold(aoff: &[u32], ox: usize, acts: &[u64], wp: &[u64], wn: &[u64]) -> (u64, u64) {
    let (mut p0, mut p1, mut p2, mut p3) = (0u64, 0u64, 0u64, 0u64);
    let (mut q0, mut q1, mut q2, mut q3) = (0u64, 0u64, 0u64, 0u64);
    let mut o4 = aoff.chunks_exact(4);
    let mut p4 = wp.chunks_exact(4);
    let mut n4 = wn.chunks_exact(4);
    for ((o, p), q) in (&mut o4).zip(&mut p4).zip(&mut n4) {
        let a0 = acts[o[0] as usize + ox];
        let a1 = acts[o[1] as usize + ox];
        let a2 = acts[o[2] as usize + ox];
        let a3 = acts[o[3] as usize + ox];
        p0 |= a0 & p[0];
        p1 |= a1 & p[1];
        p2 |= a2 & p[2];
        p3 |= a3 & p[3];
        q0 |= a0 & q[0];
        q1 |= a1 & q[1];
        q2 |= a2 & q[2];
        q3 |= a3 & q[3];
    }
    for ((&o, &p), &q) in o4
        .remainder()
        .iter()
        .zip(p4.remainder())
        .zip(n4.remainder())
    {
        let a = acts[o as usize + ox];
        p0 |= a & p;
        q0 |= a & q;
    }
    ((p0 | p1) | (p2 | p3), (q0 | q1) | (q2 | q3))
}

/// OR accumulation (`groups == 1`): register accumulators, no memory
/// traffic at all in the single-word case.
struct OrKernel;

impl ModeKernel for OrKernel {
    #[inline]
    fn pixel(_pix: &mut PixelBuf, view: &RowView, act: &ActBuf, ox: usize, words: usize) -> i64 {
        let n = view.n;
        if words == 1 {
            let (p, q) = or_fold(&view.aoff[..n], ox, &act.acts, &view.wp[..n], &view.wn[..n]);
            return i64::from(p.count_ones()) - i64::from(q.count_ones());
        }
        let mut pos = 0i64;
        let mut neg = 0i64;
        for j in 0..words {
            let (mut p, mut q) = (0u64, 0u64);
            for i in 0..n {
                let a = act.acts[(view.aoff[i] as usize + ox) * words + j];
                p |= a & view.wp[j * n + i];
                q |= a & view.wn[j * n + i];
            }
            pos += i64::from(p.count_ones());
            neg += i64::from(q.count_ones());
        }
        pos - neg
    }
}

/// Partial-binary accumulation (Pbw/Pbhw): per-lane group-indexed OR
/// accumulators, 4 lanes per iteration.
struct GroupedKernel;

impl ModeKernel for GroupedKernel {
    #[inline]
    fn pixel(pix: &mut PixelBuf, view: &RowView, act: &ActBuf, ox: usize, words: usize) -> i64 {
        let n = view.n;
        let PixelBuf {
            acc_pos, acc_neg, ..
        } = pix;
        acc_pos.fill(0);
        acc_neg.fill(0);
        if words == 1 {
            let acts = &act.acts;
            let wp = &view.wp[..n];
            let wn = &view.wn[..n];
            let gr = &view.group[..n];
            let mut o4 = view.aoff[..n].chunks_exact(4);
            let mut p4 = wp.chunks_exact(4);
            let mut n4 = wn.chunks_exact(4);
            let mut g4 = gr.chunks_exact(4);
            for (((o, p), q), g) in (&mut o4).zip(&mut p4).zip(&mut n4).zip(&mut g4) {
                let a0 = acts[o[0] as usize + ox];
                let a1 = acts[o[1] as usize + ox];
                let a2 = acts[o[2] as usize + ox];
                let a3 = acts[o[3] as usize + ox];
                acc_pos[g[0] as usize] |= a0 & p[0];
                acc_neg[g[0] as usize] |= a0 & q[0];
                acc_pos[g[1] as usize] |= a1 & p[1];
                acc_neg[g[1] as usize] |= a1 & q[1];
                acc_pos[g[2] as usize] |= a2 & p[2];
                acc_neg[g[2] as usize] |= a2 & q[2];
                acc_pos[g[3] as usize] |= a3 & p[3];
                acc_neg[g[3] as usize] |= a3 & q[3];
            }
            for (((&o, &p), &q), &g) in o4
                .remainder()
                .iter()
                .zip(p4.remainder())
                .zip(n4.remainder())
                .zip(g4.remainder())
            {
                let a = acts[o as usize + ox];
                acc_pos[g as usize] |= a & p;
                acc_neg[g as usize] |= a & q;
            }
        } else {
            for j in 0..words {
                let wpj = &view.wp[j * n..(j + 1) * n];
                let wnj = &view.wn[j * n..(j + 1) * n];
                for i in 0..n {
                    let a = act.acts[(view.aoff[i] as usize + ox) * words + j];
                    let g = view.group[i] as usize * words + j;
                    acc_pos[g] |= a & wpj[i];
                    acc_neg[g] |= a & wnj[i];
                }
            }
        }
        let pos: i64 = acc_pos.iter().map(|w| i64::from(w.count_ones())).sum();
        let neg: i64 = acc_neg.iter().map(|w| i64::from(w.count_ones())).sum();
        pos - neg
    }
}

/// 4-wide signed popcount reduction of one stream-word position: four
/// independent counters, combined by pairwise adds. Exact integer
/// arithmetic, so any association is bit-identical to the reference
/// fold's `pos − neg`.
#[inline]
fn fxp_fold(aoff: &[u32], ox: usize, acts: &[u64], wp: &[u64], wn: &[u64]) -> i64 {
    let (mut c0, mut c1, mut c2, mut c3) = (0i64, 0i64, 0i64, 0i64);
    let mut o4 = aoff.chunks_exact(4);
    let mut p4 = wp.chunks_exact(4);
    let mut n4 = wn.chunks_exact(4);
    for ((o, p), q) in (&mut o4).zip(&mut p4).zip(&mut n4) {
        let a0 = acts[o[0] as usize + ox];
        let a1 = acts[o[1] as usize + ox];
        let a2 = acts[o[2] as usize + ox];
        let a3 = acts[o[3] as usize + ox];
        c0 += i64::from((a0 & p[0]).count_ones()) - i64::from((a0 & q[0]).count_ones());
        c1 += i64::from((a1 & p[1]).count_ones()) - i64::from((a1 & q[1]).count_ones());
        c2 += i64::from((a2 & p[2]).count_ones()) - i64::from((a2 & q[2]).count_ones());
        c3 += i64::from((a3 & p[3]).count_ones()) - i64::from((a3 & q[3]).count_ones());
    }
    for ((&o, &p), &q) in o4
        .remainder()
        .iter()
        .zip(p4.remainder())
        .zip(n4.remainder())
    {
        let a = acts[o as usize + ox];
        c0 += i64::from((a & p).count_ones()) - i64::from((a & q).count_ones());
    }
    (c0 + c1) + (c2 + c3)
}

/// Exact fixed-point accumulation: SWAR popcount tree per stream-word
/// position.
struct FxpKernel;

impl ModeKernel for FxpKernel {
    #[inline]
    fn pixel(_pix: &mut PixelBuf, view: &RowView, act: &ActBuf, ox: usize, words: usize) -> i64 {
        let n = view.n;
        if words == 1 {
            return fxp_fold(&view.aoff[..n], ox, &act.acts, &view.wp[..n], &view.wn[..n]);
        }
        let mut total = 0i64;
        for j in 0..words {
            for i in 0..n {
                let a = act.acts[(view.aoff[i] as usize + ox) * words + j];
                total += i64::from((a & view.wp[j * n + i]).count_ones())
                    - i64::from((a & view.wn[j * n + i]).count_ones());
            }
        }
        total
    }
}

/// The one-level APC count of a statically-paired product run: every
/// listed lane is known live, so pair `t` is list entries `2t, 2t+1` and
/// the reference reduction's `Σ_pairs (2·ones(a∧b) + ones(a∨b)) +
/// ones(tail)` collapses — by the inclusion–exclusion identity
/// `ones(a∨b) = ones(a) + ones(b) − ones(a∧b)` — to
/// `Σ ones(product) + Σ_pairs ones(a∧b)`, computed here with no product
/// staging and full ILP. Integer-exact, so bit-identical to
/// [`geo_sc::apc::apc_reduce`] by construction.
#[inline]
fn apc_static(aoff: &[u32], w: &[u64], ox: usize, acts: &[u64]) -> i64 {
    let mut sum = 0i64;
    let mut o2 = aoff.chunks_exact(2);
    let mut w2 = w.chunks_exact(2);
    for (o, ww) in (&mut o2).zip(&mut w2) {
        let a = acts[o[0] as usize + ox] & ww[0];
        let b = acts[o[1] as usize + ox] & ww[1];
        sum += i64::from(a.count_ones()) + i64::from(b.count_ones());
        sum += i64::from((a & b).count_ones());
    }
    if let (Some(&o), Some(&ww)) = (o2.remainder().first(), w2.remainder().first()) {
        sum += i64::from((acts[o as usize + ox] & ww).count_ones());
    }
    sum
}

/// One-level APC accumulation over the per-polarity static lane lists
/// (most lanes carry one live half, so the two list walks touch ~half
/// the words of a both-halves-per-lane loop). Columns with no zero
/// activation anywhere (`ActBuf::zeros`) — the overwhelming majority on
/// interior pixels — take [`apc_static`]; columns with level-0 or
/// padding units compact each polarity's live products into scratch
/// (write always, advance by the unit's nonzero flag — branchless, and
/// the cursor never outruns the entry index) preserving the reference
/// kernels' push order exactly, then reduce with the 4-wide input stage
/// [`geo_sc::apc::apc_reduce`].
struct ApcKernel;

impl ModeKernel for ApcKernel {
    #[inline]
    fn pixel(pix: &mut PixelBuf, view: &RowView, act: &ActBuf, ox: usize, words: usize) -> i64 {
        let n = view.n;
        let PixelBuf {
            prod_pos, prod_neg, ..
        } = pix;
        let mut np = 0usize;
        let mut nn = 0usize;
        if words == 1 {
            if act.zeros[ox] == 0 {
                return apc_static(view.pos_aoff, view.pos_w, ox, &act.acts)
                    - apc_static(view.neg_aoff, view.neg_w, ox, &act.acts);
            }
            for (&o, &w) in view.pos_aoff.iter().zip(view.pos_w) {
                let u = o as usize + ox;
                prod_pos[np] = act.acts[u] & w;
                np += usize::from(act.nz[u]);
            }
            for (&o, &w) in view.neg_aoff.iter().zip(view.neg_w) {
                let u = o as usize + ox;
                prod_neg[nn] = act.acts[u] & w;
                nn += usize::from(act.nz[u]);
            }
            return geo_sc::apc::apc_reduce(&prod_pos[..np], 1)
                - geo_sc::apc::apc_reduce(&prod_neg[..nn], 1);
        }
        for i in 0..n {
            let u = view.aoff[i] as usize + ox;
            let live = view.flags[i] * act.nz[u];
            for j in 0..words {
                let a = act.acts[u * words + j];
                prod_pos[np * words + j] = a & view.wp[j * n + i];
                prod_neg[nn * words + j] = a & view.wn[j * n + i];
            }
            np += usize::from(live & 1);
            nn += usize::from((live >> 1) & 1);
        }
        geo_sc::apc::apc_reduce(&prod_pos[..np * words], words)
            - geo_sc::apc::apc_reduce(&prod_neg[..nn * words], words)
    }
}

/// Stores the first error any worker produced (later ones are dropped —
/// one failure already fails the whole layer).
fn record_error(slot: &Mutex<Option<GeoError>>, err: GeoError) {
    let mut guard = match slot.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if guard.is_none() {
        *guard = Some(err);
    }
}

impl PreparedConv {
    /// Quantizes one request's activations into compute-ready levels,
    /// validating the batch's shape against the prepared geometry and its
    /// maximum level against the lane tables (keeping compute-phase
    /// lookups infallible). Pure per-element work — safe to run
    /// concurrently from any number of requests.
    fn quantize_acts(&self, input: &Tensor) -> Result<ActBatch, GeoError> {
        let s = input.shape();
        if s.len() != 4 || s[1] != self.cin {
            return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
                expected: format!("(N, {}, H, W)", self.cin),
                actual: s.to_vec(),
            }));
        }
        if s[2] != self.h || s[3] != self.w {
            return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
                expected: format!("(N, {}, {}, {})", self.cin, self.h, self.w),
                actual: s.to_vec(),
            }));
        }
        let levels: Vec<u32> = input
            .data()
            .iter()
            .map(|&x| act_level(self.progressive, x, self.width))
            .collect();
        validate_act_levels(&self.act_tables, &levels)?;
        Ok(ActBatch { n: s[0], levels })
    }

    /// Phase 2: computes the whole output tensor, parallelizing over
    /// spatial rows `(b, oy)` so one activation gather is shared by every
    /// output channel (DESIGN.md §14). Workers write a `[n, oh, cout, ow]`
    /// staging buffer that a serial pass transposes to the `[n, cout, oh,
    /// ow]` output layout. Bit-identical at every thread count: each
    /// staging row is written by exactly one worker from shared immutable
    /// state, and each pixel is a pure function of its indices.
    /// Infallible — every lookup the compacted kernels perform was
    /// validated at prepare/quantize time.
    fn compute(&self, batch: &ActBatch, tel: &LayerCounters) -> Tensor {
        let row_elems = self.cout * self.ow;
        let mut tmp = vec![0f32; batch.n * self.oh * row_elems];
        tmp.par_chunks_mut(row_elems.max(1))
            .enumerate()
            .for_each_init(
                || self.scratch.take(),
                |scratch, (row, chunk)| match self.mode {
                    Accumulation::Or => {
                        self.compute_spatial::<OrKernel>(row, chunk, batch, scratch, tel)
                    }
                    Accumulation::Pbw | Accumulation::Pbhw => {
                        self.compute_spatial::<GroupedKernel>(row, chunk, batch, scratch, tel)
                    }
                    Accumulation::Fxp => {
                        self.compute_spatial::<FxpKernel>(row, chunk, batch, scratch, tel)
                    }
                    Accumulation::Apc => {
                        self.compute_spatial::<ApcKernel>(row, chunk, batch, scratch, tel)
                    }
                },
            );
        self.transpose_stage(&tmp, batch.n)
    }

    /// Serial transpose of the `[n, oh, cout, ow]` staging buffer into the
    /// `[n, cout, oh, ow]` output tensor.
    fn transpose_stage(&self, tmp: &[f32], n: usize) -> Tensor {
        let row_elems = self.cout * self.ow;
        let mut out = Tensor::zeros(&[n, self.cout, self.oh, self.ow]);
        let data = out.data_mut();
        for b in 0..n {
            for oy in 0..self.oh {
                let src = &tmp[(b * self.oh + oy) * row_elems..][..row_elems];
                for co in 0..self.cout {
                    let dst = ((b * self.cout + co) * self.oh + oy) * self.ow;
                    data[dst..dst + self.ow].copy_from_slice(&src[co * self.ow..][..self.ow]);
                }
            }
        }
        out
    }

    /// Gathers the activation words of every (kernel position, output
    /// column) unit of spatial row `(b, oy)` into `act`, zeroing
    /// out-of-bounds and level-0 units with a branchless mask and
    /// recording per-unit nonzero flags. Zero activation words are
    /// accumulation identities in every mode (OR, popcount, and the
    /// flags·nz-gated APC push), so dropped lanes need no repacking —
    /// and masking, rather than skipping the level-0 table read, matches
    /// the reference kernels' skip semantics exactly even when fault
    /// injection corrupts a table's level-0 stream.
    ///
    /// Returns the row's MAC count: kernel position `l` has `live` kept
    /// columns, each read by the [`CompactKernel::users`]`[l]` channels
    /// that keep lane `l`.
    fn gather_row(&self, b: usize, oy: usize, levels: &[u32], act: &mut ActBuf) -> u64 {
        let words = self.words;
        let ActBuf { acts, nz, zeros } = act;
        zeros.fill(0);
        let mut macs = 0u64;
        for l in 0..self.volume {
            let dst_a = &mut acts[l * self.ow * words..][..self.ow * words];
            let dst_n = &mut nz[l * self.ow..][..self.ow];
            let iy = (oy * self.stride + self.pos_ky[l] as usize) as isize - self.pad as isize;
            if iy < 0 || iy >= self.h as isize {
                dst_a.fill(0);
                dst_n.fill(0);
                for z in zeros.iter_mut() {
                    *z += 1;
                }
                continue;
            }
            let rbase = ((b * self.cin + self.pos_ci[l] as usize) * self.h + iy as usize) * self.w;
            let ao = self.pos_ao[l] as usize;
            let kx = self.pos_kx[l] as isize - self.pad as isize;
            let mut live = 0u64;
            if words == 1 {
                for (ox, ((a, z), zc)) in dst_a
                    .iter_mut()
                    .zip(dst_n.iter_mut())
                    .zip(zeros.iter_mut())
                    .enumerate()
                {
                    let ix = (ox * self.stride) as isize + kx;
                    let lv = if ix >= 0 && ix < self.w as isize {
                        levels[rbase + ix as usize] as usize
                    } else {
                        0
                    };
                    let keep = u64::from(lv != 0);
                    *a = self.act_flat[ao + lv] & keep.wrapping_neg();
                    *z = keep as u8;
                    *zc += 1 - keep as u32;
                    live += keep;
                }
            } else {
                for ox in 0..self.ow {
                    let ix = (ox * self.stride) as isize + kx;
                    let lv = if ix >= 0 && ix < self.w as isize {
                        levels[rbase + ix as usize] as usize
                    } else {
                        0
                    };
                    let keep = u64::from(lv != 0);
                    let mask = keep.wrapping_neg();
                    let src = ao + lv * words;
                    for j in 0..words {
                        dst_a[ox * words + j] = self.act_flat[src + j] & mask;
                    }
                    dst_n[ox] = keep as u8;
                    zeros[ox] += 1 - keep as u32;
                    live += keep;
                }
            }
            macs += self.compact.users[l] * live;
        }
        macs
    }

    /// Computes one spatial output row (`b`, `oy` fixed; all `co`, `ox`),
    /// monomorphized over the accumulation-mode kernel: one shared
    /// activation gather, then each output channel's pixels read the
    /// kernel's static SoA arrays — no per-row repacking at all.
    fn compute_spatial<M: ModeKernel>(
        &self,
        row: usize,
        chunk: &mut [f32],
        batch: &ActBatch,
        scratch: &mut Scratch,
        tel: &LayerCounters,
    ) {
        let oy = row % self.oh.max(1);
        let b = row / self.oh.max(1);
        let ck = &self.compact;
        let Scratch { act, pix } = scratch;
        tel.macs.add(self.gather_row(b, oy, &batch.levels, act));
        for (co, out_row) in chunk.chunks_mut(self.ow.max(1)).enumerate() {
            let range = ck.row_range(co);
            let (pos_aoff, pos_w) = ck.row_pos_list(co);
            let (neg_aoff, neg_w) = ck.row_neg_list(co);
            let view = RowView {
                n: range.len(),
                aoff: &ck.aoff[range.clone()],
                group: &ck.group[range.clone()],
                flags: &ck.flags[range],
                wp: ck.row_pos(co),
                wn: ck.row_neg(co),
                pos_aoff,
                pos_w,
                neg_aoff,
                neg_w,
            };
            for (ox, out_v) in out_row.iter_mut().enumerate() {
                *out_v = M::pixel(pix, &view, act, ox, self.words) as f32 / self.len as f32;
            }
        }
        scratch.debug_check();
    }
}

impl PreparedLinear {
    /// Quantizes one request's activations (see
    /// [`PreparedConv::quantize_acts`]).
    fn quantize_acts(&self, input: &Tensor) -> Result<ActBatch, GeoError> {
        let s = input.shape();
        if s.len() != 2 || s[1] != self.features {
            return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
                expected: format!("(N, {})", self.features),
                actual: s.to_vec(),
            }));
        }
        let n = s[0];
        let levels: Vec<u32> = (0..n)
            .flat_map(|b| (0..self.features).map(move |i| (b, i)))
            .map(|(b, i)| act_level(self.progressive, input.at2(b, i), self.width))
            .collect();
        validate_act_levels(&self.act_tables, &levels)?;
        Ok(ActBatch { n, levels })
    }

    /// Phase 2: computes the whole output tensor. Output neurons
    /// `(b, o)` are split into one contiguous run per worker (rather
    /// than scheduling each neuron as its own chunk), so per-chunk
    /// dispatch overhead is paid once per worker. Chunk geometry cannot
    /// affect the numerics — each neuron is a pure function of its row
    /// index — so this stays bit-identical at every thread count.
    ///
    /// MACs are counted serially up front: each nonzero activation is
    /// read by the [`CompactKernel::users`] neurons that keep its lane.
    fn compute(&self, batch: &ActBatch, tel: &LayerCounters) -> Tensor {
        let users = &self.compact.users;
        tel.macs.add(
            batch
                .levels
                .chunks(self.features.max(1))
                .flat_map(|row| row.iter().zip(users))
                .filter(|(&lv, _)| lv != 0)
                .map(|(_, &u)| u)
                .sum(),
        );
        let mut out = Tensor::zeros(&[batch.n, self.outf]);
        let total = batch.n * self.outf;
        let chunk_rows = total.div_ceil(rayon::current_num_threads().max(1)).max(1);
        out.data_mut()
            .par_chunks_mut(chunk_rows)
            .enumerate()
            .for_each_init(
                || self.scratch.take(),
                |scratch, (ci, chunk)| {
                    let start = ci * chunk_rows;
                    match self.mode {
                        Accumulation::Or => {
                            self.compute_chunk::<OrKernel>(start, chunk, batch, scratch)
                        }
                        Accumulation::Pbw | Accumulation::Pbhw => {
                            self.compute_chunk::<GroupedKernel>(start, chunk, batch, scratch)
                        }
                        Accumulation::Fxp => {
                            self.compute_chunk::<FxpKernel>(start, chunk, batch, scratch)
                        }
                        Accumulation::Apc => {
                            self.compute_chunk::<ApcKernel>(start, chunk, batch, scratch)
                        }
                    }
                    scratch.debug_check();
                },
            );
        out
    }

    /// Gathers batch element `b`'s activation words — one unit per input
    /// feature — into `act`, zeroing level-0 units with a branchless
    /// mask (identical semantics to [`PreparedConv::gather_row`]).
    fn gather_batch(&self, b: usize, levels: &[u32], act: &mut ActBuf) {
        let words = self.words;
        let base = b * self.features;
        let mut zero_units = 0u32;
        for f in 0..self.features {
            let lv = levels[base + f] as usize;
            let keep = u64::from(lv != 0);
            let mask = keep.wrapping_neg();
            let src = self.pos_ao[f] as usize + lv * words;
            for j in 0..words {
                act.acts[f * words + j] = self.act_flat[src + j] & mask;
            }
            act.nz[f] = keep as u8;
            zero_units += 1 - keep as u32;
        }
        act.zeros[0] = zero_units;
    }

    /// Computes one worker's run of output neurons (`row = b·outf + o`),
    /// monomorphized over the accumulation-mode kernel. A worker's run is
    /// contiguous in `(b, o)` order, so the batch element's activation
    /// gather is performed once per `b` and shared by its `outf` neurons;
    /// a neuron's [`RowView`] borrows the kernel SoA arrays directly.
    fn compute_chunk<M: ModeKernel>(
        &self,
        start: usize,
        chunk: &mut [f32],
        batch: &ActBatch,
        scratch: &mut Scratch,
    ) {
        let ck = &self.compact;
        let Scratch { act, pix } = scratch;
        let mut cur_b = usize::MAX;
        for (j, out_v) in chunk.iter_mut().enumerate() {
            let row = start + j;
            let o = row % self.outf;
            let b = row / self.outf;
            if b != cur_b {
                self.gather_batch(b, &batch.levels, act);
                cur_b = b;
            }
            let range = ck.row_range(o);
            let (pos_aoff, pos_w) = ck.row_pos_list(o);
            let (neg_aoff, neg_w) = ck.row_neg_list(o);
            let view = RowView {
                n: range.len(),
                aoff: &ck.aoff[range.clone()],
                group: &ck.group[range.clone()],
                flags: &ck.flags[range],
                wp: ck.row_pos(o),
                wn: ck.row_neg(o),
                pos_aoff,
                pos_w,
                neg_aoff,
                neg_w,
            };
            *out_v = M::pixel(pix, &view, act, 0, self.words) as f32 / self.len as f32;
        }
    }
}

/// The stochastic inference engine.
///
/// # Examples
///
/// ```
/// use geo_core::{GeoConfig, ScEngine};
/// use geo_nn::{models, Tensor};
///
/// # fn main() -> Result<(), geo_core::GeoError> {
/// let mut engine = ScEngine::new(GeoConfig::geo(32, 64))?;
/// let mut model = models::lenet5(1, 8, 10, 0);
/// let logits = engine.forward(&mut model, &Tensor::full(&[1, 1, 8, 8], 0.5), false)?;
/// assert_eq!(logits.shape(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
pub struct ScEngine {
    config: GeoConfig,
    cache: TableCache,
    resilience: ResilienceReport,
    telemetry: EngineTelemetry,
    /// When set, compute phases run the pre-compaction reference kernels
    /// instead of the compacted ones (see [`ScEngine::forward_reference`]).
    reference_kernels: bool,
}

impl ScEngine {
    /// Creates an engine for a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] for unrealizable configurations.
    pub fn new(config: GeoConfig) -> Result<Self, GeoError> {
        Self::with_faults(config, FaultModel::none())
    }

    /// Creates an engine whose datapath injects the given fault model
    /// (see [`geo_sc::fault`]).
    ///
    /// [`FaultModel::none`] is guaranteed to take the exact fault-free code
    /// path, so its outputs are bit-for-bit identical to
    /// [`ScEngine::new`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] for unrealizable configurations
    /// and [`GeoError::Sc`] for fault rates outside `[0, 1]`.
    pub fn with_faults(config: GeoConfig, faults: FaultModel) -> Result<Self, GeoError> {
        config.validate()?;
        faults.validate().map_err(GeoError::Sc)?;
        let mut cache = TableCache::new();
        if !faults.is_none() {
            cache.set_faults(Some(FaultInjector::new(faults).map_err(GeoError::Sc)?));
        }
        Ok(ScEngine {
            config,
            cache,
            resilience: ResilienceReport::default(),
            telemetry: EngineTelemetry::default(),
            reference_kernels: false,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GeoConfig {
        &self.config
    }

    /// The fault model injected into this engine's datapath, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.cache.fault_model()
    }

    /// Per-layer fault counts accumulated since creation (or the last
    /// [`ScEngine::reset_resilience_report`]). Empty for fault-free
    /// engines.
    pub fn resilience_report(&self) -> &ResilienceReport {
        &self.resilience
    }

    /// Clears the accumulated resilience report.
    pub fn reset_resilience_report(&mut self) {
        self.resilience = ResilienceReport::default();
    }

    /// Snapshot of the per-layer telemetry counters and phase times
    /// accumulated since creation (or the last
    /// [`ScEngine::reset_telemetry`]).
    ///
    /// Counters cover both the compacted and reference compute paths,
    /// which count the identical MAC set (DESIGN.md §12).
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.telemetry.report("sc-engine")
    }

    /// Clears the accumulated telemetry counters and phase times.
    pub fn reset_telemetry(&mut self) {
        self.telemetry.reset();
    }

    /// Stream length assigned to each parametrized (conv/linear) layer:
    /// `sp` if the layer feeds a pooling stage, the output length for the
    /// last layer, `s` otherwise. Indexed by position in `model.layers()`.
    pub fn stream_plan(&self, model: &Sequential) -> Vec<Option<usize>> {
        let layers = model.layers();
        let param_idx: Vec<usize> = layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, Layer::Conv2d(_) | Layer::Linear(_)))
            .map(|(i, _)| i)
            .collect();
        let mut plan = vec![None; layers.len()];
        for (k, &i) in param_idx.iter().enumerate() {
            let next = param_idx.get(k + 1).copied().unwrap_or(layers.len());
            let pooled = layers[i..next]
                .iter()
                .any(|l| matches!(l, Layer::AvgPool2d(_) | Layer::MaxPool2d(_)));
            let len = if k + 1 == param_idx.len() {
                self.config.output_stream_len
            } else if pooled {
                self.config.stream_len_pooled
            } else {
                self.config.stream_len
            };
            plan[i] = Some(len);
        }
        plan
    }

    /// Runs the network with the SC datapath.
    ///
    /// With `training = true`, float layers run forward first (caching
    /// inputs for backward) and SC outputs replace their results; batch
    /// norm uses batch statistics. With `training = false`, only the SC
    /// path runs and batch norm applies its quantized folded affine.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors and shape mismatches.
    pub fn forward(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        training: bool,
    ) -> Result<Tensor, GeoError> {
        self.forward_with_lens(model, input, training, |_, len| Ok(len))
    }

    /// Runs the network through the *pre-compaction reference kernels*:
    /// the per-pixel loops that test padding bounds and `WeightRef`
    /// zeroness on every lane and materialize APC products as heap
    /// bitstreams.
    ///
    /// The reference path is retained for two jobs: it is the oracle the
    /// compacted kernels are proven bit-identical against
    /// (`crates/core/tests/compaction_equivalence.rs`), and it is the
    /// "before" side of the `bench_forward` perf trajectory. Outputs are
    /// bit-for-bit equal to [`ScEngine::forward`] at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors and shape mismatches, exactly as
    /// [`ScEngine::forward`] does.
    pub fn forward_reference(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        training: bool,
    ) -> Result<Tensor, GeoError> {
        self.reference_kernels = true;
        let out = self.forward_with_lens(model, input, training, |_, len| Ok(len));
        self.reference_kernels = false;
        out
    }

    /// The forward loop, parameterized over the per-layer stream-length
    /// source: `len_for(param_layer, planned_len)` returns the length each
    /// parametrized layer runs at. [`ScEngine::forward`] passes the stream
    /// plan through unchanged; [`crate::exec::ProgramExecutor`] supplies
    /// lengths decoded from a compiled ISA program (cross-checked against
    /// the plan), so both paths share one datapath and stay bit-identical
    /// by construction.
    ///
    /// Inference runs as prepare-then-compute through a one-shot
    /// [`PreparedModel`] — the same code the serve path reuses across
    /// requests, which is what pins that path bit-identical to every
    /// historical `forward` output. Training interleaves the float layers'
    /// `&mut` forwards (which cache inputs for backward) with the same
    /// per-layer prepare and [`PreparedStep::forward`] the prepared path
    /// runs, so each SC layer's output is the inference output for the
    /// same activations.
    pub(crate) fn forward_with_lens<F>(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        training: bool,
        mut len_for: F,
    ) -> Result<Tensor, GeoError>
    where
        F: FnMut(u32, usize) -> Result<usize, GeoError>,
    {
        if !training {
            model.set_training(false);
            let prepared = self.prepare_with_lens(model, input.shape(), &mut len_for)?;
            let out = prepared.forward(input);
            // Fold the pass's locally accumulated counters back into the
            // engine's reports.
            self.telemetry.absorb(&prepared.telemetry);
            self.resilience.absorb(&prepared.resilience);
            return out;
        }
        let mut telemetry = EngineTelemetry::default();
        let mut resilience = ResilienceReport::default();
        let out = self.train_pass(model, input, &mut len_for, &mut telemetry, &mut resilience);
        self.telemetry.absorb(&telemetry);
        self.resilience.absorb(&resilience);
        out
    }

    /// The training arm of [`ScEngine::forward_with_lens`], accumulating
    /// counters into caller-supplied reports: float layers run forward to
    /// cache their inputs, batch norm uses batch statistics, and each
    /// parametrized layer's output is replaced by its SC result.
    fn train_pass<F>(
        &mut self,
        model: &mut Sequential,
        input: &Tensor,
        len_for: &mut F,
        telemetry: &mut EngineTelemetry,
        resilience: &mut ResilienceReport,
    ) -> Result<Tensor, GeoError>
    where
        F: FnMut(u32, usize) -> Result<usize, GeoError>,
    {
        self.cache.begin_pass();
        telemetry.passes.incr();
        if self.fault_model().is_some() {
            resilience.passes = 1;
        }
        model.set_training(true);
        let plan = self.stream_plan(model);
        let mut x = input.clone();
        let mut param_layer = 0u32;
        for (i, layer) in model.layers_mut().iter_mut().enumerate() {
            match layer {
                Layer::Conv2d(_) | Layer::Linear(_) => {
                    let len = len_for(param_layer, planned_len(&plan, i)?)?;
                    let _ = layer.forward(&x)?; // cache input for backward
                    let (step, _) = self.prepare_param_step(
                        layer,
                        x.shape(),
                        len,
                        param_layer,
                        telemetry,
                        resilience,
                    )?;
                    x = step.forward(x, telemetry, self.reference_kernels)?;
                    param_layer += 1;
                }
                Layer::BatchNorm2d(bn) => {
                    x = bn.forward(&x)?;
                }
                Layer::Relu(r) => {
                    // ReLU, then saturate at 1.0: unipolar streams cannot
                    // carry more (the straight-through clamp SC training
                    // learns around).
                    x = r.forward(&x).map(|v| v.min(1.0));
                }
                other => {
                    let sw = Stopwatch::start();
                    x = other.forward(&x)?;
                    telemetry
                        .layer(param_layer.saturating_sub(1) as usize)
                        .add_phase_ns(Phase::NearMem, sw.elapsed_ns());
                }
            }
        }
        Ok(x)
    }

    /// Compiles `model` for inputs of `input_shape` (the batch dimension
    /// is free — any `N` may be served) into an immutable, `Send + Sync`,
    /// `Arc`-shareable [`PreparedModel`]: one serial pass over the network
    /// builds every lane table, weight stream, compacted kernel, and
    /// near-memory affine exactly as a direct [`ScEngine::forward`] would,
    /// after which any number of requests can run
    /// [`PreparedModel::forward`] concurrently against the shared state.
    ///
    /// Table and fault-draw order matches a training pass (compute
    /// never touches the cache or RNG), so prepared outputs are
    /// bit-identical to direct forwards. One prepare consumes one cache
    /// pass: TRNG tables and transient faults are drawn here and then
    /// *frozen* for every request served from this `PreparedModel` (see
    /// [`TableCache::begin_pass`]).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors and shape mismatches, exactly as
    /// [`ScEngine::forward`] does.
    pub fn prepare(
        &mut self,
        model: &Sequential,
        input_shape: &[usize],
    ) -> Result<PreparedModel, GeoError> {
        self.prepare_with_lens(model, input_shape, &mut |_, len| Ok(len))
    }

    /// The prepare loop behind [`ScEngine::prepare`] and the inference arm
    /// of [`ScEngine::forward_with_lens`]: traces shapes through the
    /// network (replicating the forward loop's shape errors) and hoists
    /// every input-independent step into a [`PreparedStep`] sequence.
    pub(crate) fn prepare_with_lens<F>(
        &mut self,
        model: &Sequential,
        input_shape: &[usize],
        len_for: &mut F,
    ) -> Result<PreparedModel, GeoError>
    where
        F: FnMut(u32, usize) -> Result<usize, GeoError>,
    {
        self.cache.begin_pass();
        let plan = self.stream_plan(model);
        let mut telemetry = EngineTelemetry::default();
        let mut resilience = ResilienceReport::default();
        if self.fault_model().is_some() {
            resilience.passes = 1;
        }
        let layers = model.layers();
        let mut steps = Vec::with_capacity(layers.len());
        let mut shape: Vec<usize> = input_shape.to_vec();
        let mut param_layer = 0u32;
        for (i, layer) in layers.iter().enumerate() {
            // Near-memory steps are attributed to the parametrized layer
            // whose outputs they transform, as in the training loop.
            let tel_layer = param_layer.saturating_sub(1) as usize;
            match layer {
                Layer::Conv2d(_) | Layer::Linear(_) => {
                    let len = len_for(param_layer, planned_len(&plan, i)?)?;
                    let (step, out_shape) = self.prepare_param_step(
                        layer,
                        &shape,
                        len,
                        param_layer,
                        &mut telemetry,
                        &mut resilience,
                    )?;
                    steps.push(step);
                    shape = out_shape;
                    param_layer += 1;
                }
                Layer::BatchNorm2d(bn) => {
                    let affine = BnAffine::prepare(bn, self.config.bn_bits)?;
                    if shape.len() != 4 || shape[1] != affine.scales.len() {
                        return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
                            expected: format!("(N, {}, H, W)", affine.scales.len()),
                            actual: shape.clone(),
                        }));
                    }
                    steps.push(PreparedStep::BatchNorm { affine, tel_layer });
                }
                Layer::Relu(_) => steps.push(PreparedStep::Relu),
                Layer::AvgPool2d(_) | Layer::MaxPool2d(_) => {
                    let (n, c, h, w) = pool_shape(&shape)?;
                    shape = vec![n, c, h / 2, w / 2];
                    steps.push(if matches!(layer, Layer::AvgPool2d(_)) {
                        PreparedStep::AvgPool { tel_layer }
                    } else {
                        PreparedStep::MaxPool { tel_layer }
                    });
                }
                Layer::Flatten(_) => {
                    if shape.len() < 2 {
                        return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
                            expected: "at least 2-d".into(),
                            actual: shape.clone(),
                        }));
                    }
                    let rest: usize = shape[1..].iter().product();
                    shape = vec![shape[0], rest];
                    steps.push(PreparedStep::Flatten { tel_layer });
                }
            }
        }
        // Pre-size the per-layer counters: `PreparedModel::forward` only
        // holds `&self`, so it cannot grow the vector on first use. Near-
        // memory steps attribute to `tel_layer`, which can reach index 0
        // even in a network with no parametrized layers.
        let near_mem = steps
            .iter()
            .filter_map(|s| match s {
                PreparedStep::BatchNorm { tel_layer, .. }
                | PreparedStep::AvgPool { tel_layer }
                | PreparedStep::MaxPool { tel_layer }
                | PreparedStep::Flatten { tel_layer } => Some(*tel_layer + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        telemetry.ensure_layers(near_mem.max(param_layer as usize));
        Ok(PreparedModel {
            config: self.config,
            input_shape: input_shape.to_vec(),
            steps,
            telemetry,
            resilience,
            reference: self.reference_kernels,
        })
    }

    /// Runs the SC datapath of the single parametrized layer at
    /// `layer_index` on the given activations — the building block of
    /// per-layer error analysis ([`crate::analyze`]).
    ///
    /// Uses the same stream plan, seeds, tables, and per-layer prepare →
    /// step code as a full forward, so the result is bit-identical to
    /// that layer's contribution in [`ScEngine::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidConfig`] if `layer_index` is not a
    /// conv/linear layer; propagates substrate errors.
    pub fn forward_single_layer(
        &mut self,
        model: &Sequential,
        layer_index: usize,
        input: &Tensor,
    ) -> Result<Tensor, GeoError> {
        self.cache.begin_pass();
        let plan = self.stream_plan(model);
        let len = plan.get(layer_index).copied().flatten().ok_or_else(|| {
            GeoError::InvalidConfig(format!(
                "layer {layer_index} is not a parametrized (conv/linear) layer"
            ))
        })?;
        let param_layer = model.layers()[..layer_index]
            .iter()
            .filter(|l| matches!(l, Layer::Conv2d(_) | Layer::Linear(_)))
            .count() as u32;
        let mut telemetry = EngineTelemetry::default();
        let mut resilience = ResilienceReport::default();
        let out = self
            .prepare_param_step(
                &model.layers()[layer_index],
                input.shape(),
                len,
                param_layer,
                &mut telemetry,
                &mut resilience,
            )
            .and_then(|(step, _)| step.forward(input.clone(), &telemetry, self.reference_kernels));
        self.telemetry.absorb(&telemetry);
        self.resilience.absorb(&resilience);
        out
    }

    /// Phase 1 for the parametrized layer `layer` fed activations of
    /// `shape` — the one prepare path of prepared, training and
    /// single-layer passes: checks the shape, prepares the layer into a
    /// [`PreparedStep`], and folds its resolve counters and fault draws
    /// into `telemetry`/`resilience`. Returns the step and its output
    /// shape.
    fn prepare_param_step(
        &mut self,
        layer: &Layer,
        shape: &[usize],
        len: usize,
        param_layer: u32,
        telemetry: &mut EngineTelemetry,
        resilience: &mut ResilienceReport,
    ) -> Result<(PreparedStep, Vec<usize>), GeoError> {
        let before = self.cache.fault_counters();
        let (step, out_shape, stats) = match layer {
            Layer::Conv2d(conv) => {
                if shape.len() != 4 || shape[1] != conv.cin() {
                    return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
                        expected: format!("(N, {}, H, W)", conv.cin()),
                        actual: shape.to_vec(),
                    }));
                }
                let (prep, stats) =
                    self.prepare_conv(conv, (shape[2], shape[3]), len, param_layer)?;
                let out_shape = vec![shape[0], prep.cout, prep.oh, prep.ow];
                let step = PreparedStep::Conv {
                    layer: prep,
                    param_layer,
                };
                (step, out_shape, stats)
            }
            Layer::Linear(lin) => {
                if shape.len() != 2 || shape[1] != lin.input_features() {
                    return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
                        expected: format!("(N, {})", lin.input_features()),
                        actual: shape.to_vec(),
                    }));
                }
                let (prep, stats) = self.prepare_linear(lin, len, param_layer)?;
                let out_shape = vec![shape[0], prep.outf];
                let step = PreparedStep::Linear {
                    layer: prep,
                    param_layer,
                };
                (step, out_shape, stats)
            }
            other => {
                return Err(GeoError::Internal(format!(
                    "stream plan assigned a length to non-parametrized layer {}",
                    other.kind()
                )))
            }
        };
        stats.apply(telemetry.layer(param_layer as usize));
        record_prepare_faults(&self.cache, param_layer, before, telemetry, resilience);
        Ok((step, out_shape))
    }

    fn layer_seed(&self, param_layer: u32) -> u32 {
        self.config
            .base_seed
            .wrapping_add(param_layer.wrapping_mul(LAYER_SEED_STRIDE))
    }

    fn lane_table(
        &mut self,
        width: u8,
        len: usize,
        spec: geo_sc::RngSpec,
    ) -> Result<LaneTable, GeoError> {
        Ok(if self.config.progressive {
            LaneTable::Progressive(self.cache.progressive(self.config.rng, width, len, spec)?)
        } else {
            LaneTable::Normal(self.cache.regular(self.config.rng, width, len, spec)?)
        })
    }

    /// Quantized split-weight levels for table lookup (same truncation and
    /// full-scale semantics as [`act_level`], so `|w| = 1.0` keeps
    /// the all-ones stream in normal mode).
    fn weight_levels(&self, w: f32, width: u8) -> (u32, u32) {
        let w = w.clamp(-1.0, 1.0);
        let pos = quantize_unipolar(w.max(0.0), 8);
        let neg = quantize_unipolar((-w).max(0.0), 8);
        if self.config.progressive {
            (pos.min(255), neg.min(255))
        } else {
            let shift = 8 - width.min(8);
            (pos >> shift, neg >> shift)
        }
    }

    /// Phase 1 for a convolution: builds/fetches every lane table through
    /// the serial [`TableCache`] (in a fixed order, so fault injection is
    /// deterministic) and quantizes every *weight* operand. Nothing here
    /// reads the activations — the produced [`PreparedConv`] is reusable
    /// across requests at the traced `(h, w)` geometry.
    fn prepare_conv(
        &mut self,
        conv: &Conv2d,
        (h, w): (usize, usize),
        len: usize,
        param_layer: u32,
    ) -> Result<(PreparedConv, ResolveStats), GeoError> {
        let sw_resolve = Stopwatch::start();
        let (hits0, misses0) = self.cache.lookup_counts();
        let cin = conv.cin();
        let (cout, k) = (conv.cout(), conv.kernel());
        let (stride, pad) = (conv.stride(), conv.padding());
        let (oh, ow) = conv.output_size(h, w);
        let width = GeoConfig::width_for(len);
        let dims = KernelDims::new(cout, cin, k, k);
        let plan = SeedPlan::new(
            self.config.sharing,
            width,
            self.layer_seed(param_layer),
            dims,
        );
        let volume = dims.kernel_volume();
        let mode = self.config.accumulation;

        // Activation lane tables: one generator per kernel position,
        // broadcast across all rows (kernels).
        let act_tables: Vec<LaneTable> = (0..volume)
            .map(|lane| {
                let spec = plan.activation_spec(lane);
                self.lane_table(width, len, spec)
            })
            .collect::<Result<_, _>>()?;

        // Weight references: per (kernel, position), with the accumulator
        // group each lane feeds precomputed from its kernel coordinates.
        // The tables are retained (cheap `Arc` clones) so the compacted
        // build can read stream words without the per-lane heap copies
        // the reference resolve makes.
        let copy_words = self.reference_kernels;
        let mut wrefs = Vec::with_capacity(cout * volume);
        let mut wtables = Vec::with_capacity(cout * volume);
        for co in 0..cout {
            for ci in 0..cin {
                for ky in 0..k {
                    for kx in 0..k {
                        let spec = plan.weight_spec(co, ci, ky, kx);
                        let table = self.lane_table(width, len, spec)?;
                        let levels =
                            self.weight_levels(conv.weight.value.at4(co, ci, ky, kx), width);
                        let group = match mode {
                            Accumulation::Pbw => kx,
                            Accumulation::Pbhw => ky * k + kx,
                            Accumulation::Or | Accumulation::Fxp | Accumulation::Apc => 0,
                        };
                        wrefs.push(WeightRef::resolve(&table, levels, group, copy_words)?);
                        wtables.push(table);
                    }
                }
            }
        }
        let (hits, misses) = self.cache.lookup_counts();

        let groups = match mode {
            Accumulation::Or => 1,
            Accumulation::Pbw => k,
            Accumulation::Pbhw => k * k,
            Accumulation::Fxp | Accumulation::Apc => 1, // handled separately
        };
        let words = len.div_ceil(64);
        // The flat activation slab only serves the compacted gather; the
        // reference path keeps its per-MAC table lookups (and their cost).
        let (act_flat, act_off) = if self.reference_kernels {
            (Vec::new(), vec![0u32; act_tables.len()])
        } else {
            flatten_act_tables(&act_tables, words)?
        };
        // The per-lane gather offsets (`lane · ow`) are stored as u32.
        if u32::try_from(volume.saturating_mul(ow.max(1))).is_err() {
            return Err(GeoError::Internal(format!(
                "conv gather index space {volume}·{ow} exceeds u32"
            )));
        }
        let compact = CompactKernel::build(&wrefs, &wtables, cout, volume, words, ow);
        drop(wtables);
        let mut pos_ci = Vec::with_capacity(volume);
        let mut pos_ky = Vec::with_capacity(volume);
        let mut pos_kx = Vec::with_capacity(volume);
        for lane in 0..volume {
            let rem = lane % (k * k);
            pos_ci.push((lane / (k * k)) as u32);
            pos_ky.push((rem / k) as u32);
            pos_kx.push((rem % k) as u32);
        }
        let stats = ResolveStats {
            resolve_ns: sw_resolve.elapsed_ns(),
            table_hits: hits - hits0,
            table_misses: misses - misses0,
            compacted_lanes: compact.lane.len() as u64,
            skipped_zero_lanes: (wrefs.len() - compact.lane.len()) as u64,
        };
        let scratch = ScratchPool::new(groups, words, compact.max_row_lanes(), volume * ow, ow);
        Ok((
            PreparedConv {
                mode,
                len,
                words,
                groups,
                width,
                progressive: self.config.progressive,
                cin,
                h,
                w,
                cout,
                k,
                stride,
                pad,
                oh,
                ow,
                volume,
                act_tables,
                wrefs,
                act_flat,
                compact,
                pos_ci,
                pos_ky,
                pos_kx,
                pos_ao: act_off,
                scratch,
            },
            stats,
        ))
    }

    /// Phase 1 for a fully-connected layer (see [`Self::prepare_conv`]):
    /// features map onto a pseudo-kernel of width [`FC_BINARY_WIDTH`], so
    /// the accumulation split applies.
    fn prepare_linear(
        &mut self,
        lin: &Linear,
        len: usize,
        param_layer: u32,
    ) -> Result<(PreparedLinear, ResolveStats), GeoError> {
        let sw_resolve = Stopwatch::start();
        let (hits0, misses0) = self.cache.lookup_counts();
        let features = lin.input_features();
        let outf = lin.output_features();
        let width = GeoConfig::width_for(len);
        let wdim = FC_BINARY_WIDTH.min(features);
        let cdim = features.div_ceil(wdim);
        let dims = KernelDims::new(outf, cdim, 1, wdim);
        let plan = SeedPlan::new(
            self.config.sharing,
            width,
            self.layer_seed(param_layer),
            dims,
        );
        let mode = self.config.accumulation;

        let act_tables: Vec<LaneTable> = (0..features)
            .map(|lane| {
                let spec = plan.activation_spec(lane);
                self.lane_table(width, len, spec)
            })
            .collect::<Result<_, _>>()?;
        let copy_words = self.reference_kernels;
        let mut wrefs = Vec::with_capacity(outf * features);
        let mut wtables = Vec::with_capacity(outf * features);
        for o in 0..outf {
            for i in 0..features {
                let spec = plan.weight_spec(o, i / wdim, 0, i % wdim);
                let table = self.lane_table(width, len, spec)?;
                let levels = self.weight_levels(lin.weight.value.at2(o, i), width);
                let group = match mode {
                    Accumulation::Pbw | Accumulation::Pbhw => i % wdim,
                    Accumulation::Or | Accumulation::Fxp | Accumulation::Apc => 0,
                };
                wrefs.push(WeightRef::resolve(&table, levels, group, copy_words)?);
                wtables.push(table);
            }
        }
        let (hits, misses) = self.cache.lookup_counts();

        let groups = match mode {
            Accumulation::Or => 1,
            Accumulation::Pbw | Accumulation::Pbhw => wdim,
            Accumulation::Fxp | Accumulation::Apc => 1,
        };
        let words = len.div_ceil(64);
        let (act_flat, act_off) = if self.reference_kernels {
            (Vec::new(), vec![0u32; act_tables.len()])
        } else {
            flatten_act_tables(&act_tables, words)?
        };
        // The per-lane gather offsets (`lane · 1`) are stored as u32.
        if u32::try_from(features).is_err() {
            return Err(GeoError::Internal(format!(
                "linear gather index space {features} exceeds u32"
            )));
        }
        let compact = CompactKernel::build(&wrefs, &wtables, outf, features, words, 1);
        drop(wtables);
        let stats = ResolveStats {
            resolve_ns: sw_resolve.elapsed_ns(),
            table_hits: hits - hits0,
            table_misses: misses - misses0,
            compacted_lanes: compact.lane.len() as u64,
            skipped_zero_lanes: (wrefs.len() - compact.lane.len()) as u64,
        };
        let scratch = ScratchPool::new(groups, words, compact.max_row_lanes(), features, 1);
        Ok((
            PreparedLinear {
                mode,
                len,
                words,
                groups,
                width,
                progressive: self.config.progressive,
                features,
                outf,
                act_tables,
                wrefs,
                act_flat,
                compact,
                pos_ao: act_off,
                scratch,
            },
            stats,
        ))
    }
}

/// Stream length planned for layer `i`, which the forward loop only asks
/// for at conv/linear layers — a `None` there is an engine bug.
fn planned_len(plan: &[Option<usize>], i: usize) -> Result<usize, GeoError> {
    plan.get(i).copied().flatten().ok_or_else(|| {
        GeoError::Internal(format!(
            "parametrized layer {i} missing from the stream plan"
        ))
    })
}

/// The pre-compaction compute kernels, preserved verbatim.
///
/// Two consumers keep this module alive: the compaction equivalence
/// proptests use it as the bit-identity oracle for the compacted kernels,
/// and `bench_forward` times it as the "before" side of the repo's perf
/// trajectory (`BENCH_forward.json`). It deliberately keeps every cost the
/// compacted path removed — per-pixel padding and zero-weight tests, the
/// fallible table lookup, per-chunk FC scheduling, and the per-MAC heap
/// allocations feeding [`geo_sc::apc::apc_count`].
mod reference {
    use super::*;

    /// Per-worker accumulator state of the pre-compaction engine; the APC
    /// buffers grow with each product stream, exactly as they used to.
    pub(super) struct RefScratch {
        acc_pos: Vec<u64>,
        acc_neg: Vec<u64>,
        fxp_pos: i64,
        fxp_neg: i64,
        apc_pos: Vec<Bitstream>,
        apc_neg: Vec<Bitstream>,
        /// MACs accumulated since the last telemetry flush; *not* cleared
        /// by the per-pixel [`RefScratch::reset`]. One accumulate call per
        /// surviving lane — the oracle the compacted path's per-row count
        /// is checked against.
        macs: u64,
    }

    impl RefScratch {
        fn new(groups: usize, words: usize) -> Self {
            RefScratch {
                acc_pos: vec![0u64; groups * words],
                acc_neg: vec![0u64; groups * words],
                fxp_pos: 0,
                fxp_neg: 0,
                apc_pos: Vec::new(),
                apc_neg: Vec::new(),
                macs: 0,
            }
        }

        fn reset(&mut self) {
            self.acc_pos.fill(0);
            self.acc_neg.fill(0);
            self.fxp_pos = 0;
            self.fxp_neg = 0;
            self.apc_pos.clear();
            self.apc_neg.clear();
        }

        /// Converts the accumulated state into the output value.
        fn finish(&self, mode: Accumulation, len: usize) -> Result<f32, GeoError> {
            let signed = match mode {
                Accumulation::Or | Accumulation::Pbw | Accumulation::Pbhw => {
                    let pos: i64 = self.acc_pos.iter().map(|w| w.count_ones() as i64).sum();
                    let neg: i64 = self.acc_neg.iter().map(|w| w.count_ones() as i64).sum();
                    pos - neg
                }
                Accumulation::Fxp => self.fxp_pos - self.fxp_neg,
                Accumulation::Apc => {
                    // One approximate compressor layer, then exact counting
                    // — the single-level limit the paper describes for APCs.
                    let pos = geo_sc::apc::apc_count(&self.apc_pos, 1)? as i64;
                    let neg = geo_sc::apc::apc_count(&self.apc_neg, 1)? as i64;
                    pos - neg
                }
            };
            Ok(signed as f32 / len as f32)
        }
    }

    /// Folds one multiply-accumulate into the mode-specific accumulator
    /// state (pre-compaction form, including the per-MAC APC allocations).
    fn accumulate(
        mode: Accumulation,
        act_words: &[u64],
        wref: &WeightRef,
        words: usize,
        len: usize,
        scratch: &mut RefScratch,
    ) {
        scratch.macs += 1;
        let g = wref.group;
        match mode {
            Accumulation::Or | Accumulation::Pbw | Accumulation::Pbhw => {
                if words == 1 {
                    if wref.pos > 0 {
                        scratch.acc_pos[g] |= act_words[0] & wref.pos_words[0];
                    }
                    if wref.neg > 0 {
                        scratch.acc_neg[g] |= act_words[0] & wref.neg_words[0];
                    }
                    return;
                }
                if wref.pos > 0 {
                    for (j, &a) in act_words.iter().enumerate().take(words) {
                        scratch.acc_pos[g * words + j] |= a & wref.pos_words[j];
                    }
                }
                if wref.neg > 0 {
                    for (j, &a) in act_words.iter().enumerate().take(words) {
                        scratch.acc_neg[g * words + j] |= a & wref.neg_words[j];
                    }
                }
            }
            Accumulation::Fxp => {
                if wref.pos > 0 {
                    scratch.fxp_pos += (0..words)
                        .map(|j| (act_words[j] & wref.pos_words[j]).count_ones() as i64)
                        .sum::<i64>();
                }
                if wref.neg > 0 {
                    scratch.fxp_neg += (0..words)
                        .map(|j| (act_words[j] & wref.neg_words[j]).count_ones() as i64)
                        .sum::<i64>();
                }
            }
            Accumulation::Apc => {
                if wref.pos > 0 {
                    let product: Vec<u64> = (0..words)
                        .map(|j| act_words[j] & wref.pos_words[j])
                        .collect();
                    scratch.apc_pos.push(Bitstream::from_words(product, len));
                }
                if wref.neg > 0 {
                    let product: Vec<u64> = (0..words)
                        .map(|j| act_words[j] & wref.neg_words[j])
                        .collect();
                    scratch.apc_neg.push(Bitstream::from_words(product, len));
                }
            }
        }
    }

    impl PreparedConv {
        /// Pre-compaction phase 2: the per-pixel `cin·k·k` loop with
        /// padding, zero-activation, and zero-weight tests inline.
        pub(super) fn compute_reference(
            &self,
            batch: &ActBatch,
            tel: &LayerCounters,
        ) -> Result<Tensor, GeoError> {
            let mut out = Tensor::zeros(&[batch.n, self.cout, self.oh, self.ow]);
            let first_err: Mutex<Option<GeoError>> = Mutex::new(None);
            out.data_mut()
                .par_chunks_mut(self.ow.max(1))
                .enumerate()
                .for_each_init(
                    || RefScratch::new(self.groups, self.words),
                    |scratch, (row, chunk)| {
                        if let Err(err) =
                            self.compute_row_reference(row, chunk, &batch.levels, scratch)
                        {
                            record_error(&first_err, err);
                        }
                        tel.macs.add(scratch.macs);
                        scratch.macs = 0;
                    },
                );
            if let Some(err) = first_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
                return Err(err);
            }
            Ok(out)
        }

        fn compute_row_reference(
            &self,
            row: usize,
            chunk: &mut [f32],
            levels: &[u32],
            scratch: &mut RefScratch,
        ) -> Result<(), GeoError> {
            let oy = row % self.oh;
            let bc = row / self.oh;
            let co = bc % self.cout;
            let b = bc / self.cout;
            let idx_in =
                |c: usize, y: usize, x: usize| ((b * self.cin + c) * self.h + y) * self.w + x;
            for (ox, out_v) in chunk.iter_mut().enumerate() {
                scratch.reset();
                let mut lane = 0usize;
                for ci in 0..self.cin {
                    for ky in 0..self.k {
                        for kx in 0..self.k {
                            let cur = lane;
                            lane += 1;
                            let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                            let ix = (ox * self.stride + kx) as isize - self.pad as isize;
                            if iy < 0 || iy >= self.h as isize || ix < 0 || ix >= self.w as isize {
                                continue;
                            }
                            let alevel = levels[idx_in(ci, iy as usize, ix as usize)];
                            if alevel == 0 {
                                continue;
                            }
                            let wref = &self.wrefs[co * self.volume + cur];
                            if wref.is_zero() {
                                continue;
                            }
                            let astream = self.act_tables[cur].stream(alevel)?;
                            accumulate(
                                self.mode,
                                astream.as_words(),
                                wref,
                                self.words,
                                self.len,
                                scratch,
                            );
                        }
                    }
                }
                *out_v = scratch.finish(self.mode, self.len)?;
            }
            Ok(())
        }
    }

    impl PreparedLinear {
        /// Pre-compaction phase 2: each output neuron scheduled as its
        /// own single-element chunk (`par_chunks_mut(1)`).
        pub(super) fn compute_reference(
            &self,
            batch: &ActBatch,
            tel: &LayerCounters,
        ) -> Result<Tensor, GeoError> {
            let mut out = Tensor::zeros(&[batch.n, self.outf]);
            let first_err: Mutex<Option<GeoError>> = Mutex::new(None);
            out.data_mut().par_chunks_mut(1).enumerate().for_each_init(
                || RefScratch::new(self.groups, self.words),
                |scratch, (row, chunk)| {
                    if let Err(err) =
                        self.compute_neuron_reference(row, chunk, &batch.levels, scratch)
                    {
                        record_error(&first_err, err);
                    }
                    tel.macs.add(scratch.macs);
                    scratch.macs = 0;
                },
            );
            if let Some(err) = first_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
                return Err(err);
            }
            Ok(out)
        }

        fn compute_neuron_reference(
            &self,
            row: usize,
            chunk: &mut [f32],
            levels: &[u32],
            scratch: &mut RefScratch,
        ) -> Result<(), GeoError> {
            let o = row % self.outf;
            let b = row / self.outf;
            scratch.reset();
            for i in 0..self.features {
                let alevel = levels[b * self.features + i];
                if alevel == 0 {
                    continue;
                }
                let wref = &self.wrefs[o * self.features + i];
                if wref.is_zero() {
                    continue;
                }
                let astream = self.act_tables[i].stream(alevel)?;
                accumulate(
                    self.mode,
                    astream.as_words(),
                    wref,
                    self.words,
                    self.len,
                    scratch,
                );
            }
            chunk[0] = scratch.finish(self.mode, self.len)?;
            Ok(())
        }
    }
}

/// Plain counters produced by the serial prepare phase. Returned by value
/// (rather than written into `self.telemetry` in place) so the caller can
/// fold them into the telemetry block of the pass being prepared.
#[derive(Default)]
struct ResolveStats {
    resolve_ns: u64,
    table_hits: u64,
    table_misses: u64,
    compacted_lanes: u64,
    skipped_zero_lanes: u64,
}

impl ResolveStats {
    fn apply(&self, tel: &LayerCounters) {
        tel.add_phase_ns(Phase::Resolve, self.resolve_ns);
        tel.table_hits.add(self.table_hits);
        tel.table_misses.add(self.table_misses);
        tel.compacted_lanes.add(self.compacted_lanes);
        tel.skipped_zero_lanes.add(self.skipped_zero_lanes);
    }
}

/// Attributes faults injected since the `before` snapshot to
/// `param_layer`, into caller-supplied reports (the prepare loop
/// accumulates locally and absorbs into the engine afterwards).
fn record_prepare_faults(
    cache: &TableCache,
    param_layer: u32,
    before: FaultCounters,
    telemetry_block: &mut EngineTelemetry,
    resilience: &mut ResilienceReport,
) {
    if cache.fault_model().is_none() {
        return;
    }
    let delta = cache.fault_counters().delta_since(&before);
    telemetry_block
        .layer(param_layer as usize)
        .fault_events
        .add(delta.total());
    resilience.record(param_layer, delta);
}

/// Inference-time batch normalization, prepared once: the folded
/// per-channel affine quantized to `bits` (GEO's near-memory 8-bit BN),
/// or exact when `bits` is `None`.
struct BnAffine {
    scales: Vec<f32>,
    shifts: Vec<f32>,
}

impl BnAffine {
    fn prepare(bn: &geo_nn::BatchNorm2d, bits: Option<u8>) -> Result<BnAffine, GeoError> {
        let affine = bn.folded_affine();
        let (scales, shifts): (Vec<f32>, Vec<f32>) = affine.into_iter().unzip();
        let (scales, shifts) = match bits {
            Some(b) => {
                let st = geo_nn::quant::fake_quantize(
                    &Tensor::from_vec(vec![scales.len()], scales).map_err(GeoError::Nn)?,
                    b,
                );
                let sh = geo_nn::quant::fake_quantize(
                    &Tensor::from_vec(vec![shifts.len()], shifts).map_err(GeoError::Nn)?,
                    b,
                );
                (st.into_data(), sh.into_data())
            }
            None => (scales, shifts),
        };
        Ok(BnAffine { scales, shifts })
    }

    fn apply(&self, x: &Tensor) -> Result<Tensor, GeoError> {
        let s = x.shape();
        if s.len() != 4 || s[1] != self.scales.len() {
            return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
                expected: format!("(N, {}, H, W)", self.scales.len()),
                actual: s.to_vec(),
            }));
        }
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let mut out = Tensor::zeros(s);
        for b in 0..n {
            for ci in 0..c {
                for y in 0..h {
                    for xx in 0..w {
                        out.set4(
                            b,
                            ci,
                            y,
                            xx,
                            self.scales[ci] * x.at4(b, ci, y, xx) + self.shifts[ci],
                        );
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Shape contract shared by both 2×2 pools — `geo_nn::pool2x2_shape`
/// with the error lifted into [`GeoError`], so the prepared path raises
/// exactly `geo_nn::AvgPool2d::forward`'s error.
fn pool_shape(s: &[usize]) -> Result<(usize, usize, usize, usize), GeoError> {
    geo_nn::pool2x2_shape(s).map_err(GeoError::Nn)
}

/// 2×2 average pool: the single shared `geo_nn::avg_pool2x2` kernel,
/// borrowing the input immutably — the prepared path cannot run `&mut`
/// layer forwards.
fn avg_pool_eval(x: &Tensor) -> Result<Tensor, GeoError> {
    geo_nn::avg_pool2x2(x).map_err(GeoError::Nn)
}

/// 2×2 max pool: the shared `geo_nn::max_pool2x2` kernel.
fn max_pool_eval(x: &Tensor) -> Result<Tensor, GeoError> {
    geo_nn::max_pool2x2(x).map_err(GeoError::Nn)
}

/// Flatten to `(N, rest)`, replicating `geo_nn::Flatten::forward`.
fn flatten_eval(x: &Tensor) -> Result<Tensor, GeoError> {
    let s = x.shape();
    if s.len() < 2 {
        return Err(GeoError::Nn(geo_nn::NnError::ShapeMismatch {
            expected: "at least 2-d".into(),
            actual: s.to_vec(),
        }));
    }
    let n = s[0];
    let rest: usize = s[1..].iter().product();
    x.clone().reshape(vec![n, rest]).map_err(GeoError::Nn)
}

/// One step of a compiled network: either a prepared parametrized layer
/// or a pure near-memory evaluation. Exhaustive over every
/// `geo_nn::Layer` variant, so adding a layer kind fails compilation here
/// rather than silently falling through.
enum PreparedStep {
    Conv {
        layer: PreparedConv,
        param_layer: u32,
    },
    Linear {
        layer: PreparedLinear,
        param_layer: u32,
    },
    BatchNorm {
        affine: BnAffine,
        /// Telemetry layer this near-memory step's time is attributed to.
        tel_layer: usize,
    },
    Relu,
    AvgPool {
        tel_layer: usize,
    },
    MaxPool {
        tel_layer: usize,
    },
    Flatten {
        tel_layer: usize,
    },
}

impl PreparedStep {
    /// Runs this step on `x` — the one per-step compute function behind
    /// [`PreparedModel::forward`], training passes and
    /// [`ScEngine::forward_single_layer`]. A parametrized step quantizes
    /// `x` ([`PreparedConv::quantize_acts`]), then computes with the
    /// compacted kernels or, when `reference` is set, the pre-compaction
    /// [`reference`] kernels. `telemetry` must already cover the step's
    /// `param_layer` (the prepare that built the step sized it).
    fn forward(
        &self,
        x: Tensor,
        telemetry: &EngineTelemetry,
        reference: bool,
    ) -> Result<Tensor, GeoError> {
        match self {
            PreparedStep::Conv { layer, param_layer } => {
                let idx = *param_layer as usize;
                let tel = telemetry.layer_shared(idx);
                let batch = timed(telemetry, idx, Phase::Convert, || layer.quantize_acts(&x))?;
                timed(telemetry, idx, Phase::Compute, || {
                    if reference {
                        layer.compute_reference(&batch, tel)
                    } else {
                        Ok(layer.compute(&batch, tel))
                    }
                })
            }
            PreparedStep::Linear { layer, param_layer } => {
                let idx = *param_layer as usize;
                let tel = telemetry.layer_shared(idx);
                let batch = timed(telemetry, idx, Phase::Convert, || layer.quantize_acts(&x))?;
                timed(telemetry, idx, Phase::Compute, || {
                    if reference {
                        layer.compute_reference(&batch, tel)
                    } else {
                        Ok(layer.compute(&batch, tel))
                    }
                })
            }
            PreparedStep::BatchNorm { affine, tel_layer } => {
                timed(telemetry, *tel_layer, Phase::NearMem, || affine.apply(&x))
            }
            // ReLU, then saturate at 1.0: unipolar streams cannot carry
            // more (the straight-through clamp SC training learns around).
            PreparedStep::Relu => Ok(x.map(|v| v.clamp(0.0, 1.0))),
            PreparedStep::AvgPool { tel_layer } => {
                timed(telemetry, *tel_layer, Phase::NearMem, || avg_pool_eval(&x))
            }
            PreparedStep::MaxPool { tel_layer } => {
                timed(telemetry, *tel_layer, Phase::NearMem, || max_pool_eval(&x))
            }
            PreparedStep::Flatten { tel_layer } => {
                timed(telemetry, *tel_layer, Phase::NearMem, || flatten_eval(&x))
            }
        }
    }
}

/// Runs `f`, adding its wall-clock time to `phase` of telemetry layer
/// `layer`.
fn timed<T>(telemetry: &EngineTelemetry, layer: usize, phase: Phase, f: impl FnOnce() -> T) -> T {
    let sw = Stopwatch::start();
    let out = f();
    telemetry
        .layer_shared(layer)
        .add_phase_ns(phase, sw.elapsed_ns());
    out
}

/// A network compiled once for serving: every input-independent resolve
/// product of every layer, immutable and `Arc`-shareable across threads
/// and requests.
///
/// Built by [`ScEngine::prepare`] (or
/// [`crate::ProgramExecutor::prepare`] for ISA-programmed lengths).
/// [`PreparedModel::forward`] borrows `&self`, so any number of requests
/// may run concurrently; telemetry counters are atomics folded in place
/// ([`crate::telemetry`]), keeping totals exact under concurrency.
///
/// Outputs are bit-identical to [`ScEngine::forward`] on the same engine
/// state: prepare performs the exact table/fault draws of a direct
/// forward, in the same order, and the compute phase never touches shared
/// mutable state. One caveat follows from compiling *once*: TRNG tables
/// and transient fault draws are frozen at prepare time, so every served
/// request sees the one pass drawn here, where repeated direct forwards
/// would redraw per call.
///
/// # Examples
///
/// ```
/// use geo_core::{GeoConfig, ScEngine};
/// use geo_nn::{models, Tensor};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), geo_core::GeoError> {
/// let mut engine = ScEngine::new(GeoConfig::geo(32, 64))?;
/// let mut model = models::lenet5(1, 8, 10, 0);
/// model.set_training(false);
/// let prepared = Arc::new(engine.prepare(&model, &[1, 1, 8, 8])?);
/// let logits = prepared.forward(&Tensor::full(&[1, 1, 8, 8], 0.5))?;
/// assert_eq!(logits.shape(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
pub struct PreparedModel {
    config: GeoConfig,
    input_shape: Vec<usize>,
    steps: Vec<PreparedStep>,
    telemetry: EngineTelemetry,
    resilience: ResilienceReport,
    /// Run the pre-compaction reference kernels (set when prepared by a
    /// [`ScEngine::forward_reference`] pass).
    reference: bool,
}

impl PreparedModel {
    /// The configuration the model was prepared under.
    pub fn config(&self) -> &GeoConfig {
        &self.config
    }

    /// The input shape the model was prepared for. The batch dimension
    /// (`shape[0]`) is free: requests of any `N` with matching trailing
    /// dimensions are accepted.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Fault counts drawn during the prepare pass (frozen thereafter).
    pub fn resilience_report(&self) -> &ResilienceReport {
        &self.resilience
    }

    /// Snapshot of the telemetry accumulated by the prepare pass and
    /// every forward served since.
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.telemetry.report("prepared-model")
    }

    /// Runs one request through the compiled network — pure compute
    /// against immutable prepared state, callable concurrently from any
    /// number of threads (`&self`).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches (including a spatial-geometry check
    /// against the prepared shape) and substrate errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, GeoError> {
        self.telemetry.passes.incr();
        let mut x = input.clone();
        for step in &self.steps {
            x = step.forward(x, &self.telemetry, self.reference)?;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_nn::models;
    use geo_sc::{RngKind, SharingLevel};

    fn engine(cfg: GeoConfig) -> ScEngine {
        ScEngine::new(cfg).unwrap()
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = GeoConfig::geo(32, 64);
        cfg.stream_len = 99;
        assert!(ScEngine::new(cfg).is_err());
    }

    #[test]
    fn stream_plan_assigns_sp_s_and_output_lengths() {
        let eng = engine(GeoConfig::geo(32, 64));
        let model = models::cnn4(3, 8, 10, 0);
        let plan = eng.stream_plan(&model);
        let lens: Vec<usize> = plan.iter().flatten().copied().collect();
        // conv1 (pooled) = 32, conv2 (pooled) = 32, conv3 = 64, fc = 128.
        assert_eq!(lens, vec![32, 32, 64, 128]);
    }

    #[test]
    fn forward_produces_logits_of_right_shape() {
        let mut eng = engine(GeoConfig::geo(32, 64));
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let y = eng.forward(&mut model, &x, false).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lfsr_inference_is_deterministic_trng_is_not() {
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.6);
        let mut eng = engine(GeoConfig::geo(32, 64));
        let a = eng.forward(&mut model, &x, false).unwrap();
        let b = eng.forward(&mut model, &x, false).unwrap();
        assert_eq!(a.data(), b.data(), "LFSR streams are repeatable");

        let mut eng = engine(GeoConfig::geo(32, 64).with_rng(RngKind::Trng));
        let a = eng.forward(&mut model, &x, false).unwrap();
        let b = eng.forward(&mut model, &x, false).unwrap();
        assert_ne!(a.data(), b.data(), "TRNG streams differ every pass");
    }

    #[test]
    fn fxp_accumulation_tracks_float_convolution() {
        // With exact fixed-point accumulation and long streams, the SC conv
        // should approximate the float conv closely.
        use geo_nn::Layer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = geo_nn::Conv2d::new(2, 3, 3, 1, 1, false, &mut rng);
        let x = Tensor::kaiming(&[1, 2, 6, 6], 4, &mut rng).map(|v| v.abs().min(1.0));
        let float_out = conv.forward(&x).unwrap();
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let cfg = GeoConfig {
            accumulation: Accumulation::Fxp,
            progressive: false,
            output_stream_len: 256,
            ..GeoConfig::geo(256, 256)
        };
        let mut eng = engine(cfg);
        let sc_out = eng.forward(&mut model, &x, false).unwrap();
        let mut max_err = 0.0f32;
        for (a, b) in sc_out.data().iter().zip(float_out.data()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 0.25, "max error {max_err}");
    }

    #[test]
    fn or_accumulation_compresses_relative_to_fxp() {
        // OR loses overlapping ones, so its outputs are biased toward zero
        // relative to exact accumulation on an all-positive layer.
        use geo_nn::Layer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = geo_nn::Conv2d::new(3, 2, 3, 1, 0, false, &mut rng);
        for v in conv.weight.value.data_mut() {
            *v = v.abs().max(0.2); // all positive
        }
        let x = Tensor::full(&[1, 3, 5, 5], 0.5);
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let base = GeoConfig::geo(128, 128).with_progressive(false);
        let mut eng_or = engine(base.with_accumulation(Accumulation::Or));
        let mut eng_fxp = engine(base.with_accumulation(Accumulation::Fxp));
        let or_out = eng_or.forward(&mut model, &x, false).unwrap();
        let fxp_out = eng_fxp.forward(&mut model, &x, false).unwrap();
        let or_mean: f32 = or_out.data().iter().sum::<f32>() / or_out.len() as f32;
        let fxp_mean: f32 = fxp_out.data().iter().sum::<f32>() / fxp_out.len() as f32;
        assert!(
            or_mean < fxp_mean * 0.8,
            "OR should compress: or {or_mean}, fxp {fxp_mean}"
        );
        // And OR outputs are bounded by the stream value range.
        assert!(or_out.data().iter().all(|&v| v <= 1.0 + 1e-6));
    }

    #[test]
    fn pbw_sits_between_or_and_fxp() {
        use geo_nn::Layer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = geo_nn::Conv2d::new(2, 2, 3, 1, 0, false, &mut rng);
        for v in conv.weight.value.data_mut() {
            *v = v.abs().max(0.15);
        }
        let x = Tensor::full(&[1, 2, 5, 5], 0.6);
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let base = GeoConfig::geo(128, 128).with_progressive(false);
        let mean = |mode: Accumulation, model: &mut Sequential| {
            let mut eng = engine(base.with_accumulation(mode));
            let out = eng.forward(model, &x, false).unwrap();
            out.data().iter().sum::<f32>() / out.len() as f32
        };
        let or_m = mean(Accumulation::Or, &mut model);
        let pbw_m = mean(Accumulation::Pbw, &mut model);
        let pbhw_m = mean(Accumulation::Pbhw, &mut model);
        let fxp_m = mean(Accumulation::Fxp, &mut model);
        assert!(or_m <= pbw_m + 1e-6, "or {or_m} ≤ pbw {pbw_m}");
        assert!(pbw_m <= pbhw_m + 1e-6, "pbw {pbw_m} ≤ pbhw {pbhw_m}");
        assert!(pbhw_m <= fxp_m + 1e-6, "pbhw {pbhw_m} ≤ fxp {fxp_m}");
    }

    #[test]
    fn apc_overcounts_relative_to_fxp() {
        use geo_nn::Layer;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = geo_nn::Conv2d::new(2, 1, 3, 1, 0, false, &mut rng);
        for v in conv.weight.value.data_mut() {
            *v = v.abs().max(0.3);
        }
        let x = Tensor::full(&[1, 2, 4, 4], 0.7);
        let mut model = Sequential::new(vec![Layer::Conv2d(conv)]);
        let base = GeoConfig::geo(128, 128).with_progressive(false);
        let mut eng_apc = engine(base.with_accumulation(Accumulation::Apc));
        let mut eng_fxp = engine(base.with_accumulation(Accumulation::Fxp));
        let apc_out = eng_apc.forward(&mut model, &x, false).unwrap();
        let fxp_out = eng_fxp.forward(&mut model, &x, false).unwrap();
        for (a, f) in apc_out.data().iter().zip(fxp_out.data()) {
            assert!(*a >= *f - 1e-6, "APC never undercounts: {a} vs {f}");
        }
    }

    #[test]
    fn progressive_mode_changes_little() {
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.5);
        let mut eng_n = engine(GeoConfig::geo(64, 64).with_progressive(false));
        let mut eng_p = engine(GeoConfig::geo(64, 64).with_progressive(true));
        let yn = eng_n.forward(&mut model, &x, false).unwrap();
        let yp = eng_p.forward(&mut model, &x, false).unwrap();
        let mut diff = 0.0f32;
        for (a, b) in yn.data().iter().zip(yp.data()) {
            diff = diff.max((a - b).abs());
        }
        assert!(diff < 1.2, "progressive deviation {diff} stays bounded");
    }

    #[test]
    fn extreme_sharing_correlates_outputs() {
        // Under extreme sharing, kernels see heavily correlated streams;
        // the forward pass still runs and stays finite.
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.5);
        let mut eng = engine(GeoConfig::geo(32, 64).with_sharing(SharingLevel::Extreme));
        let y = eng.forward(&mut model, &x, false).unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_mode_caches_for_backward() {
        let mut eng = engine(GeoConfig::geo(32, 64));
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let y = eng.forward(&mut model, &x, true).unwrap();
        // Backward must succeed because float layers cached their inputs.
        let grad = Tensor::full(y.shape(), 1.0);
        model.backward(&grad).unwrap();
        let grads_nonzero = model.params_mut().iter().any(|p| p.grad.max_abs() > 0.0);
        assert!(grads_nonzero);
    }

    #[test]
    fn gather_offsets_address_the_hoisted_row_buffer() {
        // A compacted lane's `aoff` must point at its kernel position's
        // run in the shared per-(b, oy) gather buffer — `lane · ow` for
        // conv, `lane` for linear — and the position metadata must invert
        // the lane index exactly.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let conv = geo_nn::Conv2d::new(2, 3, 3, 1, 1, false, &mut rng);
        let mut eng = engine(GeoConfig::geo(32, 32));
        let (rc, _) = eng.prepare_conv(&conv, (5, 5), 32, 0).unwrap();
        let k = conv.kernel();
        for (p, &lane) in rc.compact.lane.iter().enumerate() {
            assert_eq!(rc.compact.aoff[p] as usize, lane * rc.ow);
        }
        for lane in 0..rc.volume {
            assert_eq!(rc.pos_ci[lane] as usize, lane / (k * k));
            assert_eq!(rc.pos_ky[lane] as usize, (lane % (k * k)) / k);
            assert_eq!(rc.pos_kx[lane] as usize, lane % k);
        }
        let lin = geo_nn::Linear::new(12, 4, &mut rng);
        let (rl, _) = eng.prepare_linear(&lin, 32, 0).unwrap();
        assert_eq!(rl.pos_ao.len(), rl.features);
        for (p, &lane) in rl.compact.lane.iter().enumerate() {
            assert_eq!(rl.compact.aoff[p] as usize, lane);
        }
    }

    #[test]
    fn apc_gather_preserves_push_order() {
        // The branchless APC product gather must feed `apc_reduce` the
        // products in resolve order with zero-activation and absent-half
        // lanes excluded — the pairing contract `apc_reduce`'s own tests
        // pin on the geo-sc side. Exercised here end to end through a
        // model whose weights include exact zeros.
        let mut model = models::lenet5(1, 8, 10, 3);
        let x = Tensor::full(&[1, 1, 8, 8], 0.43);
        let cfg = GeoConfig::geo(32, 32).with_accumulation(Accumulation::Apc);
        let a = engine(cfg).forward(&mut model, &x, false).unwrap();
        let b = engine(cfg)
            .forward_reference(&mut model, &x, false)
            .unwrap();
        assert_eq!(
            a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn compacted_forward_matches_reference_for_every_mode() {
        // Smoke-level pin of the compaction contract (the proptests in
        // tests/compaction_equivalence.rs sweep the full space).
        let mut model = models::lenet5(1, 8, 10, 3);
        let x = Tensor::full(&[2, 1, 8, 8], 0.37);
        for mode in Accumulation::ALL {
            for progressive in [false, true] {
                let cfg = GeoConfig::geo(32, 32)
                    .with_accumulation(mode)
                    .with_progressive(progressive);
                let a = engine(cfg).forward(&mut model, &x, false).unwrap();
                let b = engine(cfg)
                    .forward_reference(&mut model, &x, false)
                    .unwrap();
                assert_eq!(
                    a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{mode:?} progressive={progressive}"
                );
            }
        }
    }

    #[test]
    fn compact_kernel_drops_only_zero_lanes() {
        // Every nonzero WeightRef appears in the compacted list, in
        // resolve order, and every zero lane is gone.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let conv = geo_nn::Conv2d::new(2, 3, 3, 1, 1, false, &mut rng);
        let mut eng = engine(GeoConfig::geo(32, 32));
        // Reference resolve keeps per-lane word copies in the WeightRefs,
        // giving this test an independent source of truth for the packed
        // position-major layout.
        eng.reference_kernels = true;
        let (resolved, _) = eng.prepare_conv(&conv, (5, 5), 32, 0).unwrap();
        let ck = &resolved.compact;
        let words = resolved.words;
        let nonzero: usize = resolved.wrefs.iter().filter(|w| !w.is_zero()).count();
        assert_eq!(ck.lane.len(), nonzero);
        assert_eq!(ck.offsets.len(), conv.cout() + 1);
        for co in 0..conv.cout() {
            let range = ck.row_range(co);
            let n = range.len();
            // Lane indices strictly ascend within a row (resolve order).
            for pair in ck.lane[range.clone()].windows(2) {
                assert!(pair[0] < pair[1]);
            }
            let (wp, wn) = (ck.row_pos(co), ck.row_neg(co));
            for (i, p) in range.clone().enumerate() {
                let wref = &resolved.wrefs[co * resolved.volume + ck.lane[p]];
                assert!(!wref.is_zero());
                assert_eq!(ck.flags[p] & 1 != 0, wref.pos > 0);
                assert_eq!(ck.flags[p] & 2 != 0, wref.neg > 0);
                // Words are position-major: word j of every lane in the
                // row is contiguous, absent halves stored as zeros.
                for j in 0..words {
                    let want_pos = if wref.pos > 0 { wref.pos_words[j] } else { 0 };
                    let want_neg = if wref.neg > 0 { wref.neg_words[j] } else { 0 };
                    assert_eq!(wp[j * n + i], want_pos, "co={co} lane {i} word {j}");
                    assert_eq!(wn[j * n + i], want_neg, "co={co} lane {i} word {j}");
                }
            }
        }
    }

    #[test]
    fn telemetry_counts_match_between_compacted_and_reference() {
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.5);
        let mut compacted = engine(GeoConfig::geo(32, 32));
        let mut reference = engine(GeoConfig::geo(32, 32));
        compacted.forward(&mut model, &x, false).unwrap();
        reference.forward_reference(&mut model, &x, false).unwrap();
        let rc = compacted.telemetry_report();
        let rr = reference.telemetry_report();
        assert_eq!(rc.passes, 1);
        assert!(rc.total().macs > 0);
        assert_eq!(rc.total().macs, rr.total().macs);
        assert_eq!(rc.total().compacted_lanes, rr.total().compacted_lanes);
        assert_eq!(
            rc.layers.iter().map(|l| l.macs).collect::<Vec<_>>(),
            rr.layers.iter().map(|l| l.macs).collect::<Vec<_>>()
        );
        compacted.reset_telemetry();
        assert!(compacted.telemetry_report().layers.is_empty());
    }

    #[test]
    fn eval_mode_skips_float_caching() {
        let mut eng = engine(GeoConfig::geo(32, 64));
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[1, 1, 8, 8], 0.4);
        let _ = eng.forward(&mut model, &x, false).unwrap();
        // No cached inputs → backward fails.
        assert!(model.backward(&Tensor::full(&[1, 10], 1.0)).is_err());
    }

    #[test]
    fn prepared_model_matches_forward_and_shares_across_threads() {
        let mut model = models::lenet5(1, 8, 10, 0);
        let x = Tensor::full(&[2, 1, 8, 8], 0.4);
        let direct = engine(GeoConfig::geo(32, 64))
            .forward(&mut model, &x, false)
            .unwrap();
        model.set_training(false);
        let prepared = std::sync::Arc::new(
            engine(GeoConfig::geo(32, 64))
                .prepare(&model, x.shape())
                .unwrap(),
        );
        assert_eq!(prepared.input_shape(), x.shape());
        let served = prepared.forward(&x).unwrap();
        assert_eq!(
            direct
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            served
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        // Same prepared state, second request from another thread — the
        // Arc-shared serve pattern — stays bit-identical too.
        let (p2, x2) = (prepared.clone(), x.clone());
        let threaded = std::thread::spawn(move || p2.forward(&x2).unwrap())
            .join()
            .unwrap();
        assert_eq!(
            served
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            threaded
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(prepared.telemetry_report().passes, 2);
        // A batch with the wrong spatial geometry is rejected up front.
        assert!(prepared.forward(&Tensor::full(&[1, 1, 6, 6], 0.4)).is_err());
    }
}
