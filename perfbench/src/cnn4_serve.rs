//! `cnn4-serve`: paper-scale CNN-4 (3×32×32) prepared once, a
//! closed-loop phase of batch-8 (offline evaluation) and batch-1
//! forwards, then single-image requests to an `ScServer` on an open loop
//! at two fixed rates.
//!
//! The compute kernels and the serve dispatcher do nearly all the work;
//! prepare is only set-up, so prepare speed-ups should not move this
//! workload's serving figures. Beside the serving path the network is also
//! compiled, encoded, reloaded and simulated, for the accelerator's figures.

use crate::common::{
    bits, check_sim, check_stored, compile_and_simulate, count, digest, durations_ms, error_kind,
    forward_layers, images, ms, prepare_layers, stack, SimFigures, BATCH,
};
use crate::host;
use crate::openloop::{self, Completion, Record};
use crate::results::{Phase, Results};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use geo_arch::{AccelConfig, NetworkDesc};
use geo_core::{GeoConfig, GeoError, Pending, PreparedModel, ScEngine, ScServer, ServeConfig};
use geo_nn::models::{spec, ModelSpec};
use geo_nn::Sequential;
use geo_nn::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop rates in requests/s: about ⅓ and ⅔ of batch-1 capacity on a
/// busy shared 2-core x86-64 host when the benchmark was defined (a
/// batch-1 forward took 20–33 ms there, depending on what else ran).
/// Fixed, so every build is offered the same load.
pub const RATE_LIGHT: f64 = 10.0;
pub const RATE_HEAVY: f64 = 20.0;
/// Requests per rate: ten samples lie beyond the reported p95.
pub const REQUESTS: usize = 200;
/// Bursts each rate's requests are sent in, alternating between rates.
const BURSTS: usize = 4;
/// The latency limit `serve_heavy_slo_pct` counts against.
pub const LIMIT: Duration = Duration::from_millis(200);

/// Cold set-ups per chunk; `setup_s` is the median of three chunks.
const SETUP_CHUNK: usize = 3;
/// Distinct images requests cycle through; each has a reference output
/// from an unbatched forward.
const POOL: usize = 16;
/// Batch-8 forwards, each followed by a batch-1 one, per half of the
/// closed-loop phase at the least.
const MIN_BATCHES: usize = 5;
/// Forwards per batch size when timing the forward pass of each size a
/// served batch can have.
const PER_SIZE: usize = 3;
const FORWARD_SPANS: [&str; BATCH] = [
    "engine.forward_b1",
    "engine.forward_b2",
    "engine.forward_b3",
    "engine.forward_b4",
    "engine.forward_b5",
    "engine.forward_b6",
    "engine.forward_b7",
    "engine.forward_b8",
];

/// Digest of the reference outputs for [`crate::common::DEFAULT_SEED`].
const REFERENCE_DIGEST: u64 = 0xe47f_f7dc_d730_740b;
/// perfsim's figures for the compiled CNN-4 program at the ULP design
/// point; [`crate::cnn4_train`] checks the same ones.
pub const SIM: SimFigures = (14_130, 0x3ea7_872a_6680_db04);

pub fn run(res: &mut Results, tr: &Tracer) -> Result<(), String> {
    let cfg = GeoConfig::geo(32, 64);
    let model_spec = spec::cnn4_cifar();
    let (c, h, w) = model_spec.input;
    let shape = [1, c, h, w];
    let net = NetworkDesc::from_spec(&model_spec);
    let pool = images(res.seed, 2, POOL, model_spec.input);
    let seed = res.seed;

    // Cold set-ups in three chunks, before, amid and after the open loop,
    // so `setup_s` samples the host across the run. The first chunk's
    // last server is the one that serves.
    let mut setups = Setups {
        phase: Phase::new("setup"),
        shutdown: Phase::new("shutdown"),
        times_s: Vec::new(),
        prepared_mib: None,
    };
    let (model, mut engine, server) = setups.chunk(tr, cfg, &model_spec, seed, &shape)?;
    let prepared = Arc::clone(server.prepared());

    // Reference outputs: one unbatched forward per pool image.
    let mut fwd1 = Phase::new("forward_b1");
    let mut reference = Vec::with_capacity(POOL);
    for x in &pool {
        let (out, _) = tr.time(FORWARD_SPANS[0], None, |_| prepared.forward(x));
        reference.push(bits(
            &count(&mut fwd1, out).ok_or("reference forward failed")?,
        ));
    }
    res.close(fwd1);
    check_stored(
        res,
        "cnn4 reference digest (stored)",
        digest(reference.iter().flatten().map(|&b| f32::from_bits(b))),
        REFERENCE_DIGEST,
    );

    // Warm re-prepare against the now-warm table cache.
    let (warm, _) = tr.time("engine.prepare_warm", None, |_| {
        engine.prepare(&model, &shape)
    });
    let warm = res.once(Phase::new("prepare_warm"), "warm re-prepare", warm)?;
    let same = warm
        .forward(&pool[0])
        .map(|o| bits(&o) == reference[0])
        .map_err(|e| format!("warm probe forward: {e}"))?;
    res.check("cnn4 cold == warm re-prepare (probe, bits)", same, "");
    drop(warm);

    // Closed-loop phase, in two halves around the open loop so its
    // samples span the run.
    let half = Duration::from_secs_f64(res.seconds as f64 / 8.0);
    let mut closed = ClosedLoop {
        batches: [stack(&pool[..BATCH]), stack(&pool[BATCH..])],
        b1: Phase::new("forward_b1"),
        b8: Phase::new("forward_b8"),
        b1_ms: Vec::new(),
        b8_ms: Vec::new(),
        rows_ok: true,
    };
    closed.half(tr, &prepared, &pool, &reference, half);

    // Open loop: each rate's requests go out in bursts that alternate with
    // the other rate's, so both rates sample the host across the run.
    let rates = [
        ("light", RATE_LIGHT, "serve.light.request"),
        ("heavy", RATE_HEAVY, "serve.heavy.request"),
    ];
    let per_burst = REQUESTS / BURSTS;
    let mut records: [Vec<Record>; 2] = Default::default();
    for burst in 0..BURSTS {
        for (k, &(_, rate, request_span)) in rates.iter().enumerate() {
            let first = burst * per_burst;
            let mut inputs: Vec<Option<Tensor>> = (first..first + per_burst)
                .map(|i| Some(pool[i % POOL].clone()))
                .collect();
            let (start, sent) = openloop::drive(
                rate,
                per_burst,
                |i| server.submit(inputs[i].take().expect("each request is sent once")),
                |i, handle: Result<Pending, GeoError>| {
                    finish(handle, &reference[(first + i) % POOL])
                },
            );
            if tr.on() {
                for (i, r) in sent.iter().enumerate() {
                    let req = Some((k * REQUESTS + first + i) as u64);
                    let root = tr.record(request_span, None, start + r.due, start + r.done, req);
                    tr.record(
                        "serve.submit",
                        root,
                        start + r.sent,
                        start + r.submitted,
                        req,
                    );
                    let server_start = (start + r.done).checked_sub(r.server).unwrap_or(start);
                    tr.record("serve.server", root, server_start, start + r.done, req);
                }
            }
            records[k].extend(sent);
        }
        if burst + 1 == BURSTS / 2 {
            let idle = setups.chunk(tr, cfg, &model_spec, seed, &shape)?;
            setups.retire(idle);
        }
    }
    let idle = setups.chunk(tr, cfg, &model_spec, seed, &shape)?;
    setups.retire(idle);

    let mut served = Vec::new();
    for ((label, _, _), records) in rates.into_iter().zip(records) {
        let sum = openloop::summarize(&records, LIMIT);
        res.close(Phase {
            name: format!("serve.{label}"),
            attempted: sum.attempted as u64,
            failed: sum.failed as u64,
            errors: sum
                .errors
                .iter()
                .map(|(k, n)| (k.to_string(), *n))
                .collect(),
        });
        let wrong = records
            .iter()
            .filter(|r| r.error.is_none() && !r.output_ok)
            .count();
        res.check(
            &format!("cnn4 served ({label}) == unbatched (bits)"),
            wrong == 0,
            format!("{wrong} of {} responses differ", records.len() - sum.failed),
        );
        // Failed requests sit at infinity in the latency sample, so a
        // percentile they reach is not finite and fails the run. Request
        // latency moves with the host's scheduling more than the 25% a
        // gate may allow (see README), so it is reported but not gated.
        let n = sum.latency_ms.len();
        let p50 = median(&sum.latency_ms).ok_or("no request was sent")?;
        res.e2e(&format!("serve_{label}_p50_ms"), p50, "ms", n);
        let p95 = tail_percentile(&sum.latency_ms, 0.95)?;
        res.e2e(&format!("serve_{label}_p95_ms"), p95, "ms", n);
        if label == "heavy" {
            res.e2e(
                "serve_heavy_slo_pct",
                sum.within_limit_pct(),
                "%",
                sum.attempted,
            );
        }
        served.push((label, records, sum.late_ms));
    }
    closed.half(tr, &prepared, &pool, &reference, half);
    res.close(closed.b1);
    res.close(closed.b8);
    res.check(
        "cnn4 closed-loop batch-8 rows and batch-1 outputs == reference (bits)",
        closed.rows_ok,
        "",
    );
    let b1 = median(&closed.b1_ms).ok_or("no batch-1 forward")?;
    res.e2e("infer_b1_ms_p50", b1, "ms", closed.b1_ms.len());
    let b8 = median(&closed.b8_ms).ok_or("no batch-8 forward")?;
    res.e2e(
        "batch_img_per_s",
        BATCH as f64 * 1e3 / b8,
        "img/s",
        closed.b8_ms.len(),
    );
    setups.retire((model, engine, server));
    res.close(setups.phase);
    res.close(setups.shutdown);
    res.e2e(
        "setup_s",
        median(&setups.times_s).ok_or("no set-up time")?,
        "s",
        setups.times_s.len(),
    );
    if let Some(mib) = setups.prepared_mib {
        res.layer("engine.prepared_mib", mib, "MiB", 1);
    }
    res.e2e("peak_rss_mib", host::peak_rss_mib()?, "MiB", 1);

    let accel = AccelConfig::ulp_geo(32, 64);
    let sim = compile_and_simulate(res, tr, cfg, &accel, &net)?;
    check_sim(res, "cnn4 perfsim counts (stored)", &sim, SIM);
    if !tr.on() {
        return Ok(());
    }
    // Forward time at each batch size a served batch can have, so queue
    // time can be told apart from compute in the server's latency.
    let mut sizes = Phase::new("forward_sizes");
    for (b, span) in FORWARD_SPANS.iter().enumerate() {
        let x = stack(&pool[..=b]);
        for _ in 0..PER_SIZE {
            let (out, _) = tr.time(span, None, |_| prepared.forward(&x));
            count(&mut sizes, out);
        }
    }
    res.close(sizes);
    let spans = tr.spans();
    let fwd_ms = FORWARD_SPANS
        .iter()
        .map(|span| median(&durations_ms(&spans, span)).ok_or("no forward at a batch size"))
        .collect::<Result<Vec<f64>, _>>()?;
    res.span_ms(&spans, "nn.build_ms", "nn.build");
    res.span_ms(&spans, "arch.compile_ms", "arch.compile");
    res.span_ms(&spans, "arch.artifact_encode_ms", "arch.artifact_encode");
    res.span_ms(&spans, "exec.load_ms", "exec.load");
    prepare_layers(res, &spans, "engine.prepare", "engine.prepare_warm");
    let spawn_ms = durations_ms(&spans, "serve.spawn");
    if let Some(d) = median(&spawn_ms) {
        res.layer("serve.spawn_us", d * 1e3, "us", spawn_ms.len());
    }
    res.self_ms(&spans, "bench.setup_self_ms", "bench.setup");
    forward_layers(res, &spans, net.total_macs(), sim.cycles);
    for (label, records, late_ms) in &served {
        serve_layers(res, label, records, late_ms, &fwd_ms)?;
    }
    for (label, _, request_span) in rates {
        res.self_ms(
            &spans,
            &format!("serve.{label}.request_self_ms"),
            request_span,
        );
    }
    Ok(())
}

/// Cold set-ups, timed in chunks, and the operations they counted.
struct Setups {
    phase: Phase,
    shutdown: Phase,
    times_s: Vec<f64>,
    /// RSS growth across the first set-up's prepare.
    prepared_mib: Option<f64>,
}

/// A set-up's model, engine (with its table cache) and running server.
type Served = (Sequential, ScEngine, ScServer);

impl Setups {
    /// Times [`SETUP_CHUNK`] set-ups from model build to a running
    /// server, shuts down every server but the last and returns the last.
    fn chunk(
        &mut self,
        tr: &Tracer,
        cfg: GeoConfig,
        model_spec: &ModelSpec,
        seed: u64,
        shape: &[usize],
    ) -> Result<Served, String> {
        let mut kept: Option<Served> = None;
        for _ in 0..SETUP_CHUNK {
            let mut rss = (0.0, 0.0);
            let phase = &mut self.phase;
            let (built, took) = tr.time("bench.setup", None, |root| -> Result<Option<_>, String> {
                let (model, _) = tr.time("nn.build", root, |_| model_spec.build(seed));
                let mut model = model.map_err(|e| format!("CNN-4 spec does not build: {e}"))?;
                model.set_training(false);
                let Some(mut engine) = count(phase, ScEngine::new(cfg)) else {
                    return Ok(None);
                };
                rss.0 = host::rss_mib()?;
                let (prepared, _) =
                    tr.time("engine.prepare", root, |_| engine.prepare(&model, shape));
                rss.1 = host::rss_mib()?;
                let Some(prepared) = count(phase, prepared) else {
                    return Ok(None);
                };
                let (server, _) = tr.time("serve.spawn", root, |_| {
                    ScServer::spawn(Arc::new(prepared), ServeConfig::default())
                });
                Ok(count(phase, server).map(|s| (model, engine, s)))
            });
            let Some(state) = built? else {
                continue;
            };
            self.times_s.push(took.as_secs_f64());
            self.prepared_mib.get_or_insert(rss.1 - rss.0);
            if let Some(old) = kept.replace(state) {
                self.retire(old);
            }
        }
        kept.ok_or_else(|| "no cold set-up succeeded".to_string())
    }

    fn retire(&mut self, (_, _, server): Served) {
        count(&mut self.shutdown, server.shutdown());
    }
}

/// The closed-loop forwards and what they found.
struct ClosedLoop {
    /// The pool's first and second eight images, one batch each.
    batches: [Tensor; 2],
    b1: Phase,
    b8: Phase,
    b1_ms: Vec<f64>,
    b8_ms: Vec<f64>,
    /// Whether every output matched the unbatched reference.
    rows_ok: bool,
}

impl ClosedLoop {
    /// Times batch-8 forwards, each followed by a batch-1 forward, for
    /// `budget`, and at least [`MIN_BATCHES`] of each.
    fn half(
        &mut self,
        tr: &Tracer,
        prepared: &PreparedModel,
        pool: &[Tensor],
        reference: &[Vec<u32>],
        budget: Duration,
    ) {
        let start = Instant::now();
        let mut done = 0;
        while done < MIN_BATCHES || start.elapsed() < budget {
            let k = self.b8.attempted as usize % 2;
            let (out, took) = tr.time(FORWARD_SPANS[BATCH - 1], None, |_| {
                prepared.forward(&self.batches[k])
            });
            if let Some(out) = count(&mut self.b8, out) {
                self.rows_ok &= rows_match(&out, &reference[k * BATCH..(k + 1) * BATCH]);
                self.b8_ms.push(ms(took));
            }
            let i = self.b1.attempted as usize % pool.len();
            let (out, took) = tr.time(FORWARD_SPANS[0], None, |_| prepared.forward(&pool[i]));
            if let Some(out) = count(&mut self.b1, out) {
                self.rows_ok &= bits(&out) == reference[i];
                self.b1_ms.push(ms(took));
            }
            done += 1;
        }
    }
}

/// Waits for one request and checks its output against the reference.
fn finish(handle: Result<Pending, GeoError>, reference: &[u32]) -> Completion {
    let reply = handle.and_then(Pending::wait);
    let done = Instant::now();
    match reply {
        Ok(r) => Completion {
            done,
            server: r.latency,
            batch: r.batch,
            error: None,
            output_ok: bits(&r.output) == reference,
        },
        Err(e) => Completion {
            done,
            server: Duration::ZERO,
            batch: 0,
            error: Some(error_kind(&e)),
            output_ok: false,
        },
    }
}

fn rows_match(out: &Tensor, reference: &[Vec<u32>]) -> bool {
    let b = bits(out);
    let row = b.len() / reference.len();
    b.chunks(row)
        .zip(reference)
        .all(|(got, want)| got == want.as_slice())
}

/// The serve layer's figures for one rate.
fn serve_layers(
    res: &mut Results,
    label: &str,
    records: &[Record],
    late_ms: &[f64],
    fwd_ms: &[f64],
) -> Result<(), String> {
    let ok: Vec<&Record> = records.iter().filter(|r| r.error.is_none()).collect();
    let n = ok.len();
    let submit_us: Vec<f64> = records
        .iter()
        .map(|r| (r.submitted - r.sent).as_secs_f64() * 1e6)
        .collect();
    let server: Vec<f64> = ok.iter().map(|r| ms(r.server)).collect();
    let queue: Vec<f64> = ok
        .iter()
        .map(|r| ms(r.server) - fwd_ms[r.batch.clamp(1, BATCH) - 1])
        .collect();
    let batch_mean = ok.iter().map(|r| r.batch as f64).sum::<f64>() / n.max(1) as f64;
    let overflow = records
        .iter()
        .filter(|r| r.error == Some("ServeOverflow"))
        .count();
    let m = |v: &[f64]| median(v).ok_or_else(|| format!("no {label} request succeeded"));
    let p = format!("serve.{label}");
    res.layer(
        &format!("{p}.submit_us"),
        m(&submit_us)?,
        "us",
        records.len(),
    );
    res.layer(&format!("{p}.server_ms_p50"), m(&server)?, "ms", n);
    res.layer(
        &format!("{p}.server_ms_p95"),
        tail_percentile(&server, 0.95)?,
        "ms",
        n,
    );
    res.layer(&format!("{p}.queue_ms"), m(&queue)?, "ms", n);
    res.layer(&format!("{p}.batch_mean"), batch_mean, "count", n);
    res.layer(
        &format!("{p}.overflow"),
        overflow as f64,
        "count",
        records.len(),
    );
    res.layer(
        &format!("{p}.gen_late_ms_p95"),
        tail_percentile(late_ms, 0.95)?,
        "ms",
        late_ms.len(),
    );
    Ok(())
}
