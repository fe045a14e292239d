//! Regenerates Figures 1 and 2: the execution flow of a SISC and of an AIAC
//! algorithm on two processors.
//!
//! The paper's figures are schematic; here they are drawn from the per-host
//! event trace of simulated runs of the sparse linear problem on a
//! two-machine grid, one row per machine: `#` marks computation, `>`
//! message packing, `.` idle time. A host's idle fraction is the share of
//! the run it spent outside `compute` spans.
//!
//! Exit codes: 0 = the figures show what the paper says, 1 = a check failed
//! (a SISC host without an idle gap after every iteration but its last, an
//! AIAC host with any, or a truncated trace).

use aiac_core::config::RunConfig;
use aiac_core::runtime::simulated::SimulatedRuntime;
use aiac_envs::env::EnvKind;
use aiac_envs::threads::ProblemKind;
use aiac_netsim::topology::GridTopology;
use aiac_obs::{text_timeline, TraceConfig};
use aiac_solvers::sparse_linear::{SparseLinearParams, SparseLinearProblem};

fn main() {
    let problem = SparseLinearProblem::new(SparseLinearParams::paper_scaled(400, 2));
    let run = |env: EnvKind, config: RunConfig| {
        SimulatedRuntime::new(
            GridTopology::ethernet_3_sites(2),
            env,
            ProblemKind::SparseLinear,
        )
        .run(&problem, &config.with_tracing(TraceConfig::on()))
    };
    let sync = run(EnvKind::MpiSync, RunConfig::synchronous(1e-4));
    let async_run = run(EnvKind::Pm2, RunConfig::asynchronous(1e-4).with_streak(3));

    let mut failures = Vec::new();
    for (figure, mode, outcome) in [(1, "a SISC", &sync), (2, "an AIAC", &async_run)] {
        // Virtual nanoseconds, rounded the way the runtime stamps its events.
        let run_ns = (outcome.sim_time.as_secs() * 1e9).round() as u64;
        let trace = &outcome.obs_trace;
        println!("Figure {figure} - Execution flow of {mode} algorithm with two processors");
        print!(
            "{}",
            text_timeline(trace, run_ns, 100, &[("compute", '#'), ("send", '>')])
        );
        let mut idle = Vec::new();
        for host in &trace.tracks {
            let spans: Vec<(u64, u64)> = host.spans("compute").collect();
            let gaps = spans.windows(2).filter(|w| w[1].0 > w[0].1).count();
            // SISC waits at the barrier after every iteration; AIAC never.
            let expected = if figure == 1 {
                spans.len().saturating_sub(1)
            } else {
                0
            };
            if spans.is_empty() || gaps != expected {
                failures.push(format!(
                    "{mode} {}: {gaps} idle gaps between {} compute spans, expected {expected}",
                    host.name,
                    spans.len()
                ));
            }
            let busy = host.span_ns("compute") as f64 / run_ns as f64;
            idle.push(format!("{} = {:.2}%", host.name, (1.0 - busy) * 100.0));
        }
        println!("idle fraction: {}\n", idle.join(", "));
        if trace.tracks.len() != outcome.host_loads.len() || trace.total_dropped() > 0 {
            failures.push(format!(
                "{mode}: {} of {} hosts traced, {} events dropped",
                trace.tracks.len(),
                outcome.host_loads.len(),
                trace.total_dropped()
            ));
        }
    }
    println!(
        "AIAC hosts never idle between iterations: their idle time is the wait \
         after the stop order while the other host finishes.\n\
         sync time: {:.1} s, async time: {:.1} s",
        sync.report.elapsed_secs, async_run.report.elapsed_secs
    );
    for failure in &failures {
        eprintln!("figure12_traces: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
