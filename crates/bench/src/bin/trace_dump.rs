//! Exercises all three traced layers and dumps one merged Chrome trace.
//!
//! ```text
//! trace_dump [--out PATH] [--summary]
//! trace_dump --check PATH [--expect-layer LAYER]...
//! ```
//!
//! * default mode — runs a small workload on each instrumented layer with
//!   tracing on (the threaded worker pool → `runtime` tracks, the virtual-clock
//!   grid simulation → `netsim` tracks, the virtual-clock service replay →
//!   `service` tracks), merges the three snapshots and writes the Chrome
//!   trace-event JSON to `--out PATH` (default `trace_dump.json`). Open the
//!   file in Perfetto or `chrome://tracing`. `--summary` also prints the
//!   deterministic text rendering to stdout.
//! * `--check PATH` — validates an existing export against the in-repo
//!   schema checker instead of running anything; each `--expect-layer`
//!   (`runtime`, `netsim` or `service`) must appear among the trace's
//!   process names. This is the CI half: the `trace-smoke` job exports with
//!   the default mode (or the `--trace` flags of `scale_pool` /
//!   `service_load`) and verifies with `--check`.
//!
//! Exit codes: 0 = exported (or validated) successfully, 1 = the export
//! failed validation or an expected layer is missing, 2 = usage error.

use aiac_bench::harness::spec::service_load_spec;
use aiac_bench::harness::Fidelity;
use aiac_bench::scale::ScaleRing;
use aiac_core::config::RunConfig;
use aiac_core::runtime::simulated::SimulatedRuntime;
use aiac_core::runtime::threaded::ThreadedRuntime;
use aiac_envs::profile::EnvProfile;
use aiac_envs::threads::ProblemKind;
use aiac_netsim::topology::GridTopology;
use aiac_obs::{text_summary, to_chrome_json, validate_chrome_trace, TraceConfig, TraceSnapshot};
use aiac_service::run_virtual_traced;

struct Args {
    out: String,
    summary: bool,
    check: Option<String>,
    expect_layers: Vec<String>,
}

const USAGE: &str = "usage: trace_dump [--out PATH] [--summary]\n\
                     \x20      trace_dump --check PATH [--expect-layer LAYER]...";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        out: "trace_dump.json".to_string(),
        summary: false,
        check: None,
        expect_layers: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => {
                args.out = argv.next().ok_or("--out needs a file path")?;
            }
            "--summary" => args.summary = true,
            "--check" => {
                args.check = Some(argv.next().ok_or("--check needs a file path")?);
            }
            "--expect-layer" => {
                let layer = argv.next().ok_or("--expect-layer needs a layer name")?;
                match layer.as_str() {
                    "runtime" | "netsim" | "service" => args.expect_layers.push(layer),
                    other => {
                        return Err(format!(
                            "unknown layer {other:?} (expected runtime, netsim or service)"
                        ))
                    }
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.check.is_none() && !args.expect_layers.is_empty() {
        return Err("--expect-layer only makes sense with --check".to_string());
    }
    Ok(args)
}

/// A traced asynchronous run on the real worker pool (`runtime`
/// tracks, one per worker, wall-clock timestamps).
fn runtime_snapshot() -> TraceSnapshot {
    let kernel = ScaleRing::new(64).with_cost(1e-6);
    let config = RunConfig::asynchronous(1e-8)
        .with_streak(3)
        .with_num_workers(4)
        .with_tracing(TraceConfig::on());
    let (report, trace) = ThreadedRuntime::new().run_traced(&kernel, &config);
    assert!(report.converged, "the traced ring run must converge");
    trace
}

/// A traced asynchronous run on the simulated grid (`netsim` tracks, one
/// per host, virtual-clock timestamps — bit-identical across runs).
fn netsim_snapshot() -> TraceSnapshot {
    let kernel = ScaleRing::new(12).with_cost(1e-4);
    let profile = EnvProfile::AsyncMpiMad;
    let env_kind = profile.env_kind().expect("grid profile has an env kind");
    let config = RunConfig::asynchronous(1e-8)
        .with_streak(3)
        .with_tracing(TraceConfig::on());
    let runtime = SimulatedRuntime::new(
        GridTopology::local_hetero_cluster(4),
        env_kind,
        ProblemKind::SparseLinear,
    );
    let outcome = runtime.run(&kernel, &config);
    assert!(outcome.report.converged, "the simulated run must converge");
    outcome.obs_trace
}

/// A traced virtual-clock replay of the smoke service load (`service`
/// tracks, one per tenant, virtual-clock timestamps).
fn service_snapshot() -> TraceSnapshot {
    let mut load = service_load_spec(Fidelity::Smoke)
        .service
        .expect("the service spec carries a load");
    load.service.tracing = TraceConfig::on();
    let (report, trace) = run_virtual_traced(&load);
    assert!(
        report.completed > 0,
        "the service replay must complete jobs"
    );
    trace
}

fn run_export(args: &Args) -> Result<(), String> {
    let mut merged = runtime_snapshot();
    merged.merge(netsim_snapshot());
    merged.merge(service_snapshot());

    let json = to_chrome_json(&merged);
    let stats = validate_chrome_trace(&json)
        .map_err(|err| format!("the exporter produced an invalid trace: {err}"))?;
    for layer in ["runtime", "netsim", "service"] {
        if !stats.layers.contains(layer) {
            return Err(format!("the merged trace is missing the {layer} layer"));
        }
    }

    std::fs::write(&args.out, &json).map_err(|err| format!("cannot write {}: {err}", args.out))?;
    eprintln!(
        "trace_dump: wrote {} ({} events on {} tracks across {} layers)",
        args.out,
        stats.events,
        stats.tracks,
        stats.layers.len()
    );
    if args.summary {
        print!("{}", text_summary(&merged));
    }
    Ok(())
}

fn run_check(path: &str, expect_layers: &[String]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let stats = validate_chrome_trace(&text).map_err(|err| format!("{path}: {err}"))?;
    for layer in expect_layers {
        if !stats.layers.contains(layer.as_str()) {
            return Err(format!(
                "{path}: expected layer {layer:?} but the trace only has {:?}",
                stats.layers
            ));
        }
    }
    println!(
        "ok: {path} is a valid Chrome trace ({} events, {} tracks, layers {:?})",
        stats.events, stats.tracks, stats.layers
    );
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            if err.is_empty() {
                println!("{USAGE}");
                return;
            }
            eprintln!("trace_dump: {err}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let result = match &args.check {
        Some(path) => run_check(path, &args.expect_layers),
        None => run_export(&args),
    };
    if let Err(err) = result {
        eprintln!("trace_dump: {err}");
        std::process::exit(1);
    }
}
