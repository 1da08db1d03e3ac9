//! The GEO system's benchmark: one workload per run, end-to-end metrics
//! when untraced, per-module metrics from in-memory spans when traced.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <vgg16-cold|cnn4-serve|cnn4-train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The run prints each metric with its unit, writes a results file (and,
//! when traced, its spans) under `perfbench/out/`, and prints a one-line
//! JSON verdict last. It exits non-zero if any output check fails.

mod cnn4_serve;
mod cnn4_train;
mod common;
mod host;
mod openloop;
mod results;
mod stats;
mod trace;
mod vgg16_cold;

use results::Results;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

type Workload = fn(&mut Results, &Tracer) -> Result<(), String>;

const WORKLOADS: [(&str, Workload); 3] = [
    ("vgg16-cold", vgg16_cold::run),
    ("cnn4-serve", cnn4_serve::run),
    ("cnn4-train", cnn4_train::run),
];

/// Spans recorded to price one span, for the tracing-overhead estimate.
const SPAN_PROBES: u32 = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(common::DEFAULT_SEED),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Pin the engine's compute threads to the core count before any
    // thread starts; the serve dispatcher inherits it through the
    // environment.
    let threads = host::nproc();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    match run(threads) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(false)` when an output check failed.
fn run(threads: usize) -> Result<bool, String> {
    let args = parse_args()?;
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, w)| *w)
        .ok_or_else(|| format!("unknown workload {:?}; one of {names:?}", args.workload))?;

    let started = Instant::now();
    let tracer = Tracer::new(args.trace);
    let mut res = Results {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        ..Results::default()
    };
    let load_before = host::load1()?;
    let ticks_before = host::cpu_ticks()?;
    let calib_ms = host::calib_ms();
    workload(&mut res, &tracer)?;
    let load_after = host::load1()?;
    let steal = host::steal_pct(ticks_before, host::cpu_ticks()?);
    let wall = started.elapsed();

    let host_facts = [
        ("nproc", threads as f64),
        ("threads", threads as f64),
        ("load1_start", load_before),
        ("load1_end", load_after),
        ("calib_ms", calib_ms),
        ("steal_pct", steal),
    ];
    res.host = host_facts
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    if args.trace {
        for (k, v) in host_facts {
            let unit = match k {
                "calib_ms" => "ms",
                "steal_pct" => "%",
                _ => "count",
            };
            res.layer(&format!("host.{k}"), v, unit, 1);
        }
        let spans = tracer.spans().len();
        let span_ns = span_cost_ns();
        res.layer("trace.spans", spans as f64, "count", 1);
        res.layer("trace.span_ns", span_ns, "ns", SPAN_PROBES as usize);
        res.layer(
            "trace.overhead_pct",
            100.0 * spans as f64 * span_ns / wall.as_nanos() as f64,
            "%",
            1,
        );
        let by_layer = trace::self_time_by_layer(&tracer.spans());
        for layer in results::LAYERS {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            let pct = 100.0 * ns as f64 / wall.as_nanos() as f64;
            res.layer(&format!("{layer}.self_pct"), pct, "%", 1);
        }
    }
    let missing = res.missing();
    if !missing.is_empty() {
        return Err(format!("{} reported no {missing:?}", args.workload));
    }

    if let Some(m) = res.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "metric {} is not finite (too many failed operations?)",
            m.name
        ));
    }
    write_out(&res, &tracer)?;
    if args.trace {
        println!(
            "{:<28} {:>6} {:>12} {:>7}",
            "span", "calls", "self ms", "% wall"
        );
        for (name, (ns, calls)) in trace::self_time_by_name(&tracer.spans()) {
            let self_ms = ns as f64 / 1e6;
            let share = 100.0 * ns as f64 / wall.as_nanos() as f64;
            println!("{name:<28} {calls:>6} {self_ms:>12.3} {share:>7.2}");
        }
    }
    for m in &res.metrics {
        let extra = match m.kind {
            results::Kind::Extra => " (not in the verdict)",
            _ => "",
        };
        println!(
            "{:<40} {:>16.4} {:<8} (n={}){extra}",
            m.name, m.value, m.unit, m.n
        );
    }
    for c in &res.checks {
        let verdict = if c.passed { "ok" } else { "FAILED" };
        println!("check {verdict:<6} {}  {}", c.name, c.detail);
    }
    println!("{}", res.verdict());
    Ok(res.correct())
}

/// The cost of recording one span, in ns, measured on a throwaway tracer.
fn span_cost_ns() -> f64 {
    let probe = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..SPAN_PROBES {
        probe.time("trace.probe", None, |_| ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(SPAN_PROBES)
}

fn write_out(results: &Results, tracer: &Tracer) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        results.workload,
        results.seed,
        u8::from(results.trace)
    );
    let write = |name: String, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let text = results.to_json();
    if Results::parse(&text).as_ref() != Ok(results) {
        return Err(format!("{stem}.json does not read back as written"));
    }
    write(format!("{stem}.json"), text)?;
    if tracer.on() {
        write(
            format!("{stem}-spans.json"),
            trace::to_json(&tracer.spans()),
        )?;
    }
    Ok(())
}
