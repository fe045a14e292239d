//! `sim_grid`: the paper's four-environment comparison on the three-site
//! grid through `SimulatedRuntime`, once per environment per pass, for as
//! many passes as the measuring time allows.

use std::time::Instant;

use crate::adapter::{self, KernelTimer, Route, Solve, Sparse, TimedKernel, SIM_CELLS};
use crate::micro::{self, time_calls};
use crate::outcome::{Budget, Ctx, Outcome};
use crate::spans::{Recorder, Span};
use crate::stats::median;
use crate::{sysinfo, workloads};

const EPSILON: f64 = 1e-7;

const WALL: [&str; 4] = [
    "simrt.wall_s.sync-mpi",
    "simrt.wall_s.async-pm2",
    "simrt.wall_s.async-mpi-mad",
    "simrt.wall_s.async-omniorb4",
];
const VIRTUAL: [&str; 4] = [
    "simrt.virtual_s.sync-mpi",
    "simrt.virtual_s.async-pm2",
    "simrt.virtual_s.async-mpi-mad",
    "simrt.virtual_s.async-omniorb4",
];

/// One pass: the sequential baseline and the four cells.
struct Pass {
    seq_s: f64,
    cells: Vec<adapter::SimRun>,
}

fn set_up(n: usize, blocks: usize, seed: u64) -> (Sparse, f64) {
    let started = Instant::now();
    // The paper's cost scaling is kept: the simulator charges virtual time by it.
    let problem = Sparse::build(n, blocks, seed, false);
    std::hint::black_box(adapter::replay_updates(problem.kernel()));
    (problem, started.elapsed().as_secs_f64())
}

pub fn run(name: &'static str, ctx: &Ctx) -> Outcome {
    let (n, blocks) = if ctx.smoke { (240, 4) } else { (1200, 12) };
    let size = format!(
        "paper_scaled({n}, {blocks}) with the paper's cost scaling on ethernet_3_sites({blocks}), eps 1e-7, one run per environment"
    );
    let mut out = Outcome::new(name, size);

    let (problem, setup_s, setups) =
        workloads::set_up_repeatedly(ctx, 0.05, || set_up(n, blocks, ctx.seed), drop);
    out.set("setup_s", setup_s, setups);
    out.set("solvers.build_s", setup_s, setups);

    let origin = Instant::now();
    let timer = KernelTimer::new(origin);
    let mut recorder = Recorder::new(name, origin);
    let root = recorder.open("workload", "bench", 0, None);

    // Passes. A traced pass runs every cell twice, plain then wrapped in the
    // TimedKernel, and keeps half the measuring time for the µbench loops.
    let budget = match (ctx.smoke, ctx.trace) {
        (true, _) => 0.0,
        (false, true) => 0.5 * ctx.seconds,
        (false, false) => ctx.seconds,
    };
    let min_passes = if ctx.smoke || ctx.trace { 1 } else { 3 };
    let mut passes: Vec<Pass> = Vec::new();
    let (mut traced_wall, mut busy_ns, mut traced_span_ns, mut checks_ns) = (0.0, 0u64, 0u64, 0u64);
    let begun = Instant::now();
    loop {
        let started = Instant::now();
        let seq = adapter::run(
            problem.kernel(),
            Solve {
                route: Route::Sequential,
                epsilon: EPSILON,
                streak: 1,
            },
        );
        let error = problem.error_of(&seq.solution);
        out.check(seq.ok() && error <= 1e-5, || {
            format!("{name} seq: converged {} error {error:.2e}", seq.ok())
        });
        let cells: Vec<adapter::SimRun> = (0..4)
            .map(|cell| adapter::run_simulated(problem.kernel(), blocks, cell, EPSILON))
            .collect();
        for (cell, run) in cells.iter().enumerate() {
            out.check(run.converged && !run.premature_stop, || {
                format!(
                    "{name} {}: did not converge, or stopped prematurely",
                    SIM_CELLS[cell]
                )
            });
            // The virtual clock is deterministic: every repeat must agree
            // with the first bit for bit.
            if let Some(first) = passes.first() {
                if first.cells[cell].virtual_s.to_bits() != run.virtual_s.to_bits() {
                    out.fail(format!(
                        "{name} {}: virtual time {} differs from the first pass's {}",
                        SIM_CELLS[cell], run.virtual_s, first.cells[cell].virtual_s
                    ));
                }
            }
        }
        passes.push(Pass {
            seq_s: seq.wall_s,
            cells,
        });

        if ctx.trace {
            let pass = recorder.open("pass", "bench", passes.len() as u32, Some(root));
            for (cell, label) in SIM_CELLS.iter().enumerate() {
                let wrapped = TimedKernel::new(problem.kernel(), &timer);
                let start_ns = timer.now_ns();
                let run = adapter::run_simulated(&wrapped, blocks, cell, EPSILON);
                let end_ns = timer.now_ns();
                let (busy, updates, kernel_spans) = timer.take();
                traced_wall += run.wall_s;
                busy_ns += busy;
                recorder.add_run(
                    Span {
                        name: label,
                        layer: "simrt",
                        run: cell as u32,
                        parent: Some(pass),
                        thread: 0,
                        start_ns,
                        end_ns,
                        id: Some(updates),
                    },
                    &kernel_spans,
                );
            }
            recorder.close(pass);
            traced_span_ns += recorder.spans()[pass as usize].duration_ns();
            checks_ns += recorder.self_ns(pass);
        }

        let last = started.elapsed().as_secs_f64();
        if passes.len() >= min_passes && begun.elapsed().as_secs_f64() + 0.6 * last > budget {
            break;
        }
    }
    recorder.close(root);

    let n_passes = passes.len();
    let med = |f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).expect("pass values are finite")
    };
    // Every route here does the same work on every pass (the virtual clock is
    // deterministic, the simulator single-threaded), so variation is
    // interference, which only adds time: the fastest pass of each cell is
    // the program's cost.
    let fastest_pass =
        |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).fold(f64::INFINITY, f64::min);
    out.set("solve_seq_s", fastest_pass(&|p| p.seq_s), n_passes);
    out.set(
        "solve_sync_s",
        fastest_pass(&|p| p.cells[0].wall_s),
        n_passes,
    );
    out.set(
        "solve_async_s",
        (1..4)
            .map(|cell| fastest_pass(&|p| p.cells[cell].wall_s))
            .sum(),
        n_passes,
    );
    out.set_opt(
        "peak_rss_mib",
        (!ctx.trace).then(sysinfo::peak_rss_mib).flatten(),
        1,
    );

    for cell in 0..4 {
        out.set(WALL[cell], med(&|p| p.cells[cell].wall_s), n_passes);
        out.set(VIRTUAL[cell], passes[0].cells[cell].virtual_s, n_passes);
    }
    let total = med(&|p| p.cells.iter().map(|c| c.wall_s).sum());
    let iters: u64 = passes[0].cells.iter().map(|c| c.iterations).sum();
    let msgs: u64 = passes[0].cells.iter().map(|c| c.messages).sum();
    out.set("simrt.wall_s.total", total, n_passes);
    out.set("simrt.iters", iters as f64, n_passes);
    out.set("simrt.msgs", msgs as f64, n_passes);
    out.set("simrt.us_per_iter", total * 1e6 / iters as f64, n_passes);
    out.set("simrt.us_per_msg", total * 1e6 / msgs as f64, n_passes);
    out.set("bench.samples", n_passes as f64, n_passes);

    if ctx.trace {
        let plain_wall: f64 = passes
            .iter()
            .map(|p| p.cells.iter().map(|c| c.wall_s).sum::<f64>())
            .sum();
        out.set(
            "bench.trace_overhead_frac",
            traced_wall / plain_wall - 1.0,
            n_passes,
        );
        let kernel_s = (busy_ns as f64 * 1e-9).min(traced_wall);
        out.set("simrt.self_frac", 1.0 - kernel_s / traced_wall, n_passes);

        let min_secs = if ctx.smoke { 0.002 } else { micro::MIN_SECS };
        workloads::triad_reference(min_secs, &mut out);
        let per_block = workloads::replay_per_block(problem.kernel(), min_secs);
        let sweep_ns: f64 = per_block.iter().sum();
        out.set(
            "solvers.update_us",
            sweep_ns / per_block.len() as f64 * 1e-3,
            per_block.len(),
        );
        out.set("solvers.sweep_ms", sweep_ns * 1e-6, per_block.len());
        let linalg = workloads::sparse_layers(&problem, sweep_ns, min_secs, &mut out);

        const OPS: usize = 4096;
        let event = time_calls(min_secs, || {
            std::hint::black_box(adapter::netsim_event_loop(OPS));
        });
        let sched = time_calls(min_secs, || {
            std::hint::black_box(adapter::netsim_schedule_loop(blocks, OPS));
        });
        let transfer = time_calls(min_secs, || {
            std::hint::black_box(adapter::netsim_transfer_loop(blocks, OPS));
        });
        let cost = time_calls(min_secs, || {
            std::hint::black_box(adapter::envs_cost_loop(OPS));
        });
        out.set(
            "netsim.event_ns",
            event.ns_per_call / OPS as f64,
            event.batches,
        );
        out.set(
            "netsim.sched_ns",
            sched.ns_per_call / OPS as f64,
            sched.batches,
        );
        out.set(
            "netsim.transfer_ns",
            transfer.ns_per_call / OPS as f64,
            transfer.batches,
        );
        out.set("envs.cost_ns", cost.ns_per_call / OPS as f64, cost.batches);
        workloads::obs_probe(min_secs, &mut out);

        let wall_s = traced_span_ns as f64 * 1e-9;
        let mut layers = vec![
            ("linalg", kernel_s * linalg),
            ("solvers", kernel_s * (1.0 - linalg)),
            (
                "simrt+netsim+envs",
                wall_s - checks_ns as f64 * 1e-9 - kernel_s,
            ),
            ("bench", checks_ns as f64 * 1e-9),
        ];
        layers.retain(|(_, s)| *s > 0.0);
        out.budget = Some(Budget { wall_s, layers });
        workloads::write_trace(&recorder, ctx, &mut out);
    }
    out
}
