//! Worker-pool scale experiment: many blocks over few OS threads.
//!
//! A thin wrapper over the harness's `scale_pool` spec
//! ([`aiac_bench::harness::spec::scale_pool_spec`]): the ring contraction
//! driven through the threaded executor both ways — the synchronous (SISC)
//! barrier-separated supersteps and the asynchronous (AIAC) worker pool.
//! The spec's checks assert the properties the one-thread-per-block
//! executor could not offer: the process needs only `num_workers` OS
//! threads regardless of the block count, peak in-flight data stays bounded
//! by the dependency-edge count, and no payload is copied.
//!
//! Usage: `scale_pool [blocks] [workers] [--trace PATH] [--overhead-gate]` —
//! `blocks` defaults to 1024, `workers` to the machine's available
//! parallelism.
//!
//! * `--trace PATH` — additionally runs the asynchronous cell once
//!   with tracing enabled and writes the per-worker Chrome trace-event JSON
//!   to `PATH` (schema-checked before writing).
//! * `--overhead-gate` — additionally measures the wall-clock cost of
//!   tracing itself: interleaved repeats of the asynchronous cell with
//!   tracing off and on, gated on min-wall on/off ratio ≤ 1.03 (3%) with a
//!   0.05 s absolute slack for sub-noise runs, printed as the
//!   `tracing_overhead` metric.
//!
//! Exit codes: 0 = all cells hit the fixed point within bounds (and the
//! trace exported / the overhead gate passed, when requested), 1 = a check
//! or gate failed, 2 = malformed arguments.

use std::time::Instant;

use aiac_bench::harness::run_spec;
use aiac_bench::harness::spec::{scale_pool_spec, ExperimentSpec, ProblemSpec};
use aiac_bench::scale::ScaleRing;
use aiac_core::config::RunConfig;
use aiac_core::runtime::threaded::ThreadedRuntime;
use aiac_obs::{to_chrome_json, validate_chrome_trace, TraceConfig};

/// Largest tolerated traced/untraced min-wall ratio (the ≤3% overhead gate).
const OVERHEAD_GATE_RATIO: f64 = 1.03;

/// Absolute slack for runs so short the ratio is pure scheduling noise.
const OVERHEAD_GATE_ABS_SLACK_SECS: f64 = 0.05;

/// Interleaved off/on repetitions the overhead gate measures (after one
/// unrecorded warmup pair).
const OVERHEAD_GATE_REPEATS: usize = 5;

const USAGE: &str = "usage: scale_pool [blocks] [workers] [--trace PATH] [--overhead-gate]";

/// Parsed command line: block count, optional explicit worker count and the
/// optional tracing extras.
struct Args {
    blocks: usize,
    workers: Option<usize>,
    trace: Option<String>,
    overhead_gate: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        blocks: 1024,
        workers: None,
        trace: None,
        overhead_gate: false,
    };
    let mut positional = 0;
    while let Some(raw) = argv.next() {
        match raw.as_str() {
            "--trace" => {
                args.trace = Some(argv.next().ok_or("--trace needs a file path")?);
            }
            "--overhead-gate" => args.overhead_gate = true,
            "--help" | "-h" => return Err(String::new()),
            _ if positional == 0 => {
                args.blocks = raw
                    .parse()
                    .map_err(|_| format!("blocks must be a positive integer, got {raw:?}"))?;
                if args.blocks == 0 {
                    return Err("blocks must be at least 1".to_string());
                }
                positional = 1;
            }
            _ if positional == 1 => {
                let workers: usize = raw
                    .parse()
                    .map_err(|_| format!("workers must be an integer, got {raw:?}"))?;
                if workers == 0 {
                    return Err("workers must be at least 1".to_string());
                }
                args.workers = Some(workers);
                positional = 2;
            }
            _ => return Err(format!("unexpected extra argument {raw:?}")),
        }
    }
    Ok(args)
}

/// The asynchronous cell's kernel and configuration, rebuilt from
/// the spec so the extras measure exactly what the record measured.
fn async_cell(spec: &ExperimentSpec) -> (ScaleRing, RunConfig) {
    let ProblemSpec::Ring { blocks, cost_secs } = spec.problem else {
        panic!("scale_pool always runs the ring problem");
    };
    let kernel = ScaleRing::new(blocks).with_cost(cost_secs);
    let mut config = RunConfig::asynchronous(spec.epsilon).with_streak(spec.streak);
    if let Some(workers) = spec.workers {
        config = config.with_num_workers(workers);
    }
    (kernel, config)
}

/// Runs the asynchronous cell once with tracing on and writes the Chrome
/// trace to `path` (validated against the in-repo schema first).
fn export_trace(spec: &ExperimentSpec, path: &str) -> Result<(), String> {
    let (kernel, config) = async_cell(spec);
    let config = config.with_tracing(TraceConfig::on());
    let (report, trace) = ThreadedRuntime::new().run_traced(&kernel, &config);
    if !report.converged {
        return Err("the traced run did not converge".to_string());
    }
    let json = to_chrome_json(&trace);
    let stats = validate_chrome_trace(&json)
        .map_err(|err| format!("the exporter produced an invalid trace: {err}"))?;
    std::fs::write(path, &json).map_err(|err| format!("cannot write {path}: {err}"))?;
    eprintln!(
        "scale_pool: wrote {path} ({} events on {} tracks)",
        stats.events, stats.tracks
    );
    Ok(())
}

/// Measures the wall-clock cost of tracing on the asynchronous cell:
/// interleaved untraced/traced repetitions (tracing state alternating
/// within each pair, so drift hits both sides equally), compared on the
/// minimum wall — the estimator least sensitive to scheduling noise.
fn overhead_gate(spec: &ExperimentSpec) -> Result<(), String> {
    let (kernel, config_off) = async_cell(spec);
    let config_on = config_off.clone().with_tracing(TraceConfig::on());
    let runtime = ThreadedRuntime::new();
    let timed_run = |config: &RunConfig| {
        let start = Instant::now();
        let report = runtime.run(&kernel, config);
        let wall = start.elapsed().as_secs_f64();
        assert!(report.converged, "the overhead-gate run must converge");
        wall
    };
    // Unrecorded warmup pair.
    timed_run(&config_off);
    timed_run(&config_on);
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    for _ in 0..OVERHEAD_GATE_REPEATS {
        off = off.min(timed_run(&config_off));
        on = on.min(timed_run(&config_on));
    }
    let ratio = on / off;
    let diff = on - off;
    println!(
        "tracing_overhead: on {on:.4} s vs off {off:.4} s -> ratio {ratio:.4} \
         (gate: ratio <= {OVERHEAD_GATE_RATIO} or diff <= {OVERHEAD_GATE_ABS_SLACK_SECS} s)"
    );
    if ratio <= OVERHEAD_GATE_RATIO || diff <= OVERHEAD_GATE_ABS_SLACK_SECS {
        Ok(())
    } else {
        Err(format!(
            "tracing overhead gate failed: traced min wall {on:.4} s is \
             {ratio:.4}x the untraced {off:.4} s (allowed ratio \
             {OVERHEAD_GATE_RATIO}, absolute slack {OVERHEAD_GATE_ABS_SLACK_SECS} s)"
        ))
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            if err.is_empty() {
                println!("{USAGE}");
                return;
            }
            eprintln!("scale_pool: {err}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let spec = scale_pool_spec(args.blocks, args.workers);
    let record = run_spec(&spec);

    let mut failed = false;
    for cell in &record.cells {
        let metric = |name: &str| cell.metric(name).map(|m| m.value);
        println!(
            "{:<10}: {:.3} s wall, {} OS workers, {} iterations total, \
             {} data messages ({} coalesced), peak in-flight slots {} / {} edges, \
             {} queue waits",
            cell.cell,
            metric("wall_median_secs").unwrap_or(f64::NAN),
            metric("workers").unwrap_or(f64::NAN),
            metric("total_iterations").unwrap_or(f64::NAN),
            metric("data_messages").unwrap_or(f64::NAN),
            metric("coalesced_messages").unwrap_or(f64::NAN),
            metric("peak_mailbox_occupancy").unwrap_or(f64::NAN),
            metric("edges").unwrap_or(f64::NAN),
            metric("queue_wait_events").unwrap_or(f64::NAN),
        );
        for failure in &cell.check_failures {
            eprintln!("scale_pool: {}: {failure}", cell.cell);
            failed = true;
        }
    }
    if let Some(path) = &args.trace {
        if let Err(err) = export_trace(&spec, path) {
            eprintln!("scale_pool: {err}");
            failed = true;
        }
    }
    if args.overhead_gate {
        if let Err(err) = overhead_gate(&spec) {
            eprintln!("scale_pool: {err}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("ok: all cells hit the fixed point with bounded, zero-copy in-flight data");
}
