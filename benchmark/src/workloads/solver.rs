//! The four solver workloads: one problem solved three ways —
//! `SequentialRuntime`, then `ThreadedRuntime` synchronous (SISC) and
//! asynchronous (AIAC) with `nproc` workers — for as many rounds as the
//! measuring time allows, each route reported as its typical work at its
//! fastest pace (see [`solve_s`]).

use std::time::Instant;

use crate::adapter::{
    self, Chem, IterativeKernel, KernelTimer, Mailboxes, Mode, Route, Run, Solve, Sparse,
};
use crate::micro::{self, time_calls};
use crate::outcome::{Budget, Ctx, Outcome};
use crate::ring::{OneSweep, Ring};
use crate::spans::{Recorder, Span};
use crate::stats::median;
use crate::{sysinfo, workloads};

/// The problem of one solver workload.
enum Problem {
    Sparse(Box<Sparse>),
    Ring(Ring),
    Chem(Chem),
}

struct Spec {
    name: &'static str,
    epsilon: f64,
    /// Local-convergence streak of the asynchronous runs.
    streak: usize,
    size: String,
    build: Box<dyn Fn() -> Problem>,
}

fn spec(name: &'static str, ctx: &Ctx) -> Spec {
    let seed = ctx.seed;
    let smoke = ctx.smoke;
    match name {
        "sparse_bigblock" | "sparse_manyblock" => {
            let (n, blocks) = match (name, smoke) {
                ("sparse_bigblock", false) => (6000, 12),
                ("sparse_bigblock", true) => (480, 4),
                (_, false) => (24000, 256),
                (_, true) => (960, 16),
            };
            Spec {
                name,
                epsilon: 1e-7,
                streak: 3,
                size: format!(
                    "paper_scaled({n}, {blocks}), scattered diagonals, cost_scale 1, eps 1e-7, streak 3"
                ),
                build: Box::new(move || {
                    Problem::Sparse(Box::new(Sparse::build(n, blocks, seed, true)))
                }),
            }
        }
        "ring_sched" => {
            let blocks = if smoke { 64 } else { 2048 };
            Spec {
                name,
                epsilon: 1e-9,
                streak: 3,
                size: format!("ring of {blocks} one-scalar blocks, eps 1e-9, streak 3"),
                build: Box::new(move || Problem::Ring(Ring::new(blocks))),
            }
        }
        "chem_steps" => {
            let (nx, nz, blocks, t_end) = if smoke {
                (10, 10, 2, 360.0)
            } else {
                (100, 100, 10, 2160.0)
            };
            Spec {
                name,
                epsilon: 1e-9,
                streak: 4,
                size: format!(
                    "chemical paper_scaled({nx}, {nz}, {blocks}), t_end {t_end} ({} steps), eps 1e-9, streak 4",
                    (t_end / 180.0_f64).ceil()
                ),
                build: Box::new(move || Problem::Chem(Chem::build(nx, nz, blocks, t_end))),
            }
        }
        other => panic!("{other} is not a solver workload"),
    }
}

/// One time to solution: a single runtime call, or one per chemical step.
struct Solved {
    wall_s: f64,
    runs: Vec<Run>,
    solution: Vec<f64>,
    ok: bool,
}

impl Solved {
    fn iterations(&self) -> u64 {
        self.runs.iter().map(Run::total_iterations).sum()
    }

    /// A registry counter summed over the runs; `None` if any run lacks it.
    fn counter(&self, name: &str) -> Option<f64> {
        self.runs.iter().map(|r| r.counter(name)).sum()
    }

    fn data_messages(&self) -> u64 {
        self.runs.iter().map(|r| r.data_messages).sum()
    }
}

impl Problem {
    /// The kernel the replay and the data-plane loops run on.
    fn with_kernel<T>(&self, f: impl FnOnce(&dyn IterativeKernel) -> T) -> T {
        match self {
            Problem::Sparse(p) => f(p.kernel()),
            Problem::Ring(r) => f(r),
            Problem::Chem(c) => f(c.first_step_kernel().as_ref()),
        }
    }

    fn solve(&self, solve: Solve, timer: Option<&KernelTimer>) -> Solved {
        match self {
            Problem::Chem(chem) => {
                let run = chem.integrate(solve, timer);
                Solved {
                    wall_s: run.wall_s,
                    ok: run.all_converged && run.steps.iter().all(Run::ok),
                    solution: run.final_state,
                    runs: run.steps,
                }
            }
            _ => {
                let mut run = self.with_kernel(|k| adapter::run_timed(k, solve, timer));
                Solved {
                    wall_s: run.wall_s,
                    ok: run.ok(),
                    solution: std::mem::take(&mut run.solution),
                    runs: vec![run],
                }
            }
        }
    }

    /// Why `solved` is wrong, if it is. `sequential` is the solution of the
    /// latest sequential run (the same every time: its work is deterministic).
    fn verdict(&self, route: Route, solved: &Solved, sequential: &[f64]) -> Option<String> {
        if !solved.ok {
            return Some("did not converge, or stopped prematurely".to_string());
        }
        match self {
            Problem::Sparse(p) => {
                let error = p.error_of(&solved.solution);
                let residual = p.linear_residual(&solved.solution);
                if error > 1e-5 {
                    Some(format!("error vs the exact solution {error:.2e} > 1e-5"))
                } else if residual > 1e-5 {
                    Some(format!("linear residual {residual:.2e} > 1e-5"))
                } else if matches!(route, Route::Threaded(Mode::Sync, _))
                    && solved.solution != sequential
                {
                    Some(
                        "synchronous solution is not bit-identical to the sequential one"
                            .to_string(),
                    )
                } else {
                    None
                }
            }
            Problem::Ring(ring) => {
                let fixed = ring.fixed_point();
                let worst = solved
                    .solution
                    .iter()
                    .fold(0.0f64, |w, x| w.max((x - fixed).abs()));
                (worst > 1e-6).then(|| format!("a component is {worst:.2e} from the fixed point"))
            }
            Problem::Chem(_) => {
                let diff = adapter::chem_relative_difference(&solved.solution, sequential);
                (diff > 1e-4).then(|| {
                    format!("relative difference vs the sequential integration {diff:.2e} > 1e-4")
                })
            }
        }
    }
}

fn workers_of(route: Route) -> usize {
    match route {
        Route::Sequential => 1,
        Route::Threaded(_, workers) => workers,
    }
}

/// Builds the problem and runs one warm-up sweep (every block updated once,
/// directly), which touches all the data the timed runs will touch.
fn set_up(spec: &Spec) -> (Problem, f64) {
    let started = Instant::now();
    let problem = (spec.build)();
    problem.with_kernel(|k| std::hint::black_box(adapter::replay_updates(k)));
    let setup_s = started.elapsed().as_secs_f64();
    (problem, setup_s)
}

/// The runs of one workload run, route by route.
#[derive(Default)]
struct Samples {
    seq: Vec<Solved>,
    sync: Vec<Solved>,
    asyn: Vec<Solved>,
    /// The sequential solution, kept to check the other routes against.
    sequential: Vec<f64>,
}

impl Samples {
    fn of_mut(&mut self, route: Route) -> &mut Vec<Solved> {
        match route {
            Route::Sequential => &mut self.seq,
            Route::Threaded(Mode::Sync, _) => &mut self.sync,
            Route::Threaded(Mode::Async, _) => &mut self.asyn,
        }
    }
}

/// One round: each of `routes` solved once, in order, and checked.
/// `on_run(route, result, start_ns, end_ns)` sees each result as it comes.
fn round(
    spec: &Spec,
    problem: &Problem,
    routes: &[Route],
    timer: Option<&KernelTimer>,
    samples: &mut Samples,
    out: &mut Outcome,
    mut on_run: impl FnMut(Route, &Solved, u64, u64),
) {
    for &route in routes {
        let solve = Solve {
            route,
            epsilon: spec.epsilon,
            streak: spec.streak,
        };
        let started = timer.map_or(0, KernelTimer::now_ns);
        let mut solved = problem.solve(solve, timer);
        let ended = timer.map_or(0, KernelTimer::now_ns);
        on_run(route, &solved, started, ended);
        if route == Route::Sequential {
            samples.sequential.clone_from(&solved.solution);
        }
        let verdict = problem.verdict(route, &solved, &samples.sequential);
        out.check(verdict.is_none(), || {
            format!(
                "{} {}: {}",
                spec.name,
                route.label(),
                verdict.unwrap_or_default()
            )
        });
        // The solution is checked; only the timings and counters are kept, so
        // that the process's peak memory is the program's and not a pile of
        // old results growing with the round count.
        solved.solution = Vec::new();
        for run in &mut solved.runs {
            run.solution = Vec::new();
        }
        samples.of_mut(route).push(solved);
    }
}

pub fn run(name: &'static str, ctx: &Ctx) -> Outcome {
    let spec = spec(name, ctx);
    let mut out = Outcome::new(name, spec.size.clone());
    let workers = ctx.nproc;
    let routes = [
        Route::Sequential,
        Route::Threaded(Mode::Sync, workers),
        Route::Threaded(Mode::Async, workers),
    ];

    let (problem, setup_s, setups) =
        workloads::set_up_repeatedly(ctx, 0.08, || set_up(&spec), drop);
    out.set("setup_s", setup_s, setups);
    if let Problem::Sparse(_) = problem {
        out.set("solvers.build_s", setup_s, setups);
    }

    if ctx.trace {
        traced(&spec, &problem, routes, ctx, &mut out);
    } else {
        untraced(&spec, &problem, routes, ctx, &mut out);
    }
    out
}

/// Rounds until the measuring time is used, at least three (one in a smoke
/// run). Even rounds solve on all three routes, odd rounds on the
/// asynchronous one alone: the asynchronous median wants every sample it can
/// get, and the deterministic routes want theirs spread over the whole run,
/// so that a burst of interference cannot cover them all.
fn untraced(spec: &Spec, problem: &Problem, routes: [Route; 3], ctx: &Ctx, out: &mut Outcome) {
    let min_rounds = if ctx.smoke { 1 } else { 3 };
    let begun = Instant::now();
    let mut samples = Samples::default();
    let mut rounds = 0;
    loop {
        let started = Instant::now();
        let these = if rounds % 2 == 0 {
            &routes[..]
        } else {
            &routes[2..]
        };
        round(
            spec,
            problem,
            these,
            None,
            &mut samples,
            out,
            |_, _, _, _| {},
        );
        rounds += 1;
        let last = started.elapsed().as_secs_f64();
        let used = begun.elapsed().as_secs_f64();
        if rounds >= min_rounds && (ctx.smoke || used + 0.6 * last > ctx.seconds) {
            break;
        }
    }
    report_rounds(&samples, workers_of(routes[1]), out);
    out.set_opt("peak_rss_mib", sysinfo::peak_rss_mib(), 1);
}

/// The time to solution a route's repeats support: typical work at the
/// fastest pace, runtime call by runtime call.
///
/// Interference from the machine only ever adds time, and on a shared VM it
/// adds a fifth to most repeats, so a median of wall times follows the
/// neighbours' load. For each runtime call of a solve (one, or one per
/// chemical time step) the median iteration count of the repeats — the
/// schedule's doing, and what a user typically gets — is multiplied by the
/// fewest seconds per iteration any repeat reached, which is the program's.
/// What a solve spends outside its runtime calls (the chemical problem
/// builds each step's kernel) is the same work every time: its fastest
/// repeat is added. The sequential and the synchronous run do the same work
/// every time (bit for bit), so for them this is the fastest repeat of each
/// call.
fn solve_s(repeats: &[Solved]) -> f64 {
    let calls = repeats.iter().map(|r| r.runs.len()).min().unwrap_or(0);
    let inside: f64 = (0..calls)
        .map(|call| {
            let iterations: Vec<f64> = repeats
                .iter()
                .map(|r| r.runs[call].total_iterations() as f64)
                .collect();
            let pace = repeats
                .iter()
                .map(|r| r.runs[call].wall_s / r.runs[call].total_iterations().max(1) as f64)
                .fold(f64::INFINITY, f64::min);
            median(&iterations).expect("iteration counts are finite") * pace
        })
        .sum();
    let outside = repeats
        .iter()
        .map(|r| r.wall_s - r.runs.iter().map(|run| run.wall_s).sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    inside + outside.max(0.0)
}

/// The end-to-end numbers and the `core.` numbers read from the reports.
fn report_rounds(samples: &Samples, workers: usize, out: &mut Outcome) {
    let med = |f: &dyn Fn(&Solved) -> Option<f64>| -> Option<f64> {
        let values: Option<Vec<f64>> = samples.asyn.iter().map(f).collect();
        values.map(|v| median(&v).expect("run values are finite"))
    };
    let n = samples.asyn.len();
    let seq = solve_s(&samples.seq);
    let sync = solve_s(&samples.sync);
    let asyn = solve_s(&samples.asyn);
    out.set("solve_seq_s", seq, samples.seq.len());
    out.set("solve_sync_s", sync, samples.sync.len());
    out.set("solve_async_s", asyn, n);
    out.set(
        "core.async_wall_median_s",
        med(&|r| Some(r.wall_s)).unwrap(),
        n,
    );

    let iters_sync = samples.sync[0].iterations() as f64;
    let iters_async = med(&|r| Some(r.iterations() as f64)).unwrap();
    out.set("core.iters_sync", iters_sync, samples.sync.len());
    out.set("core.iters_async", iters_async, n);
    out.set("core.async_iter_ratio", iters_async / iters_sync, n);
    out.set(
        "core.msgs_async",
        med(&|r| Some(r.data_messages() as f64)).unwrap(),
        n,
    );
    out.set_opt(
        "core.coalesced_frac",
        med(&|r| {
            let messages = r.data_messages() as f64;
            r.counter("coalesced_messages")
                .map(|c| c / messages.max(1.0))
        }),
        n,
    );
    out.set_opt("core.steals", med(&|r| r.counter("steals")), n);
    out.set_opt(
        "core.steal_miss_frac",
        med(&|r| {
            let steals = r.counter("steals")?;
            let failed = r.counter("failed_steal_attempts")?;
            Some(failed / (failed + steals).max(1.0))
        }),
        n,
    );
    for (metric, counter) in [
        ("core.queue_wait_events", "queue_wait_events"),
        ("core.payload_clones", "payload_clones"),
        ("core.bytes_copied", "bytes_copied"),
        ("core.peak_mailbox_occupancy", "peak_mailbox_occupancy"),
    ] {
        out.set_opt(metric, med(&|r| r.counter(counter)), n);
    }
    out.set(
        "core.sync_efficiency",
        seq / (sync * workers as f64),
        samples.sync.len(),
    );
    out.set("core.async_over_sync", asyn / sync, n);
    out.set("bench.samples", n as f64, n);
}

/// The traced pass: untraced and traced rounds in turn (their ratio is the
/// tracing overhead), then the replay and µbench numbers of each layer.
fn traced(spec: &Spec, problem: &Problem, routes: [Route; 3], ctx: &Ctx, out: &mut Outcome) {
    let workers = workers_of(routes[1]);
    let origin = Instant::now();
    let timer = KernelTimer::new(origin);
    let mut recorder = Recorder::new(spec.name, origin);
    let root = recorder.open("workload", "bench", 0, None);

    let budget = if ctx.smoke { 0.0 } else { 0.45 * ctx.seconds };
    let mut plain = Samples::default();
    let mut wrapped = Samples::default();
    let (mut rounds_ns, mut checks_ns) = (0u64, 0u64);
    let mut busy = [0u64; 3];
    let mut walls = [0.0f64; 3];
    let mut run_index = 0u32;
    let mut pairs = 0usize;
    let begun = Instant::now();
    loop {
        let started = Instant::now();
        let untraced_round = recorder.open("untraced-round", "bench", run_index, Some(root));
        round(
            spec,
            problem,
            &routes,
            None,
            &mut plain,
            out,
            |_, _, _, _| {},
        );
        recorder.close(untraced_round);

        let traced_round = recorder.open("round", "bench", run_index, Some(root));
        round(
            spec,
            problem,
            &routes,
            Some(&timer),
            &mut wrapped,
            out,
            |route, solved, start_ns, end_ns| {
                let (busy_ns, updates, kernel_spans) = timer.take();
                let slot = routes
                    .iter()
                    .position(|r| *r == route)
                    .expect("a known route");
                busy[slot] += busy_ns;
                walls[slot] += solved.wall_s;
                run_index += 1;
                recorder.add_run(
                    Span {
                        name: route.label(),
                        layer: "core",
                        run: run_index,
                        parent: Some(traced_round),
                        thread: 0,
                        start_ns,
                        end_ns,
                        id: Some(updates),
                    },
                    &kernel_spans,
                );
            },
        );
        recorder.close(traced_round);
        rounds_ns += recorder.spans()[traced_round as usize].duration_ns();
        checks_ns += recorder.self_ns(traced_round);
        pairs += 1;
        let last = started.elapsed().as_secs_f64();
        if ctx.smoke || begun.elapsed().as_secs_f64() + 0.6 * last > budget {
            break;
        }
    }
    recorder.close(root);
    report_rounds(&plain, workers, out);
    let total = |samples: &Samples| -> f64 {
        [&samples.seq, &samples.sync, &samples.asyn]
            .into_iter()
            .flatten()
            .map(|s| s.wall_s)
            .sum()
    };
    out.set(
        "bench.trace_overhead_frac",
        total(&wrapped) / total(&plain) - 1.0,
        pairs,
    );

    // A run's wall × its workers is the time its threads had; the kernel
    // spans are what they spent inside update_block_into; the rest is the
    // runtime's own.
    let threads = [1.0, workers as f64, workers as f64];
    let frac = |slot: usize| (busy[slot] as f64 * 1e-9 / (walls[slot] * threads[slot])).min(1.0);
    out.set("core.kernel_busy_frac.sync", frac(1), pairs);
    out.set("core.kernel_busy_frac.async", frac(2), pairs);
    out.set("core.self_frac.sync", 1.0 - frac(1), pairs);
    out.set("core.self_frac.async", 1.0 - frac(2), pairs);

    let min_secs = if ctx.smoke { 0.002 } else { micro::MIN_SECS };
    let kernel_split = layers(problem, min_secs, out);
    data_plane(problem, ctx, min_secs, out);
    workloads::obs_probe(min_secs, out);
    if let (Some(update_us), Some(seq)) = (
        out.get("solvers.update_us")
            .or(out.get("solvers.chem_update_us")),
        out.get("solve_seq_s"),
    ) {
        let iters = plain.seq[0].iterations() as f64;
        out.set(
            "core.seq_overhead_frac",
            1.0 - iters * update_us * 1e-6 / seq,
            plain.seq.len(),
        );
    }

    // The budget: the traced rounds' wall. Kernel time is thread-normalised
    // (busy ÷ workers) so the shares are of wall time; the replay numbers
    // split it into linalg and the solver's own; a round's self time (what it
    // spends outside its runtime calls: the correctness checks) is the
    // benchmark's.
    let wall_s = rounds_ns as f64 * 1e-9;
    let runs_s: f64 = walls.iter().sum();
    let kernel_s: f64 = (0..3)
        .map(|s| busy[s] as f64 * 1e-9 / threads[s])
        .sum::<f64>()
        .min(runs_s);
    let mut layers = vec![
        ("linalg", kernel_s * kernel_split.linalg),
        ("solvers", kernel_s * kernel_split.solvers),
        ("bench-kernel", kernel_s * kernel_split.bench),
        ("core", wall_s - checks_ns as f64 * 1e-9 - kernel_s),
        ("bench", checks_ns as f64 * 1e-9),
    ];
    layers.retain(|(_, s)| *s > 0.0);
    out.budget = Some(Budget { wall_s, layers });
    workloads::write_trace(&recorder, ctx, out);
}

/// How the time inside `update_block_into` divides.
struct KernelSplit {
    linalg: f64,
    solvers: f64,
    /// The benchmark's own ring kernel.
    bench: f64,
}

/// `linalg.` and `solvers.` numbers: isolated loops over the public
/// functions on the workload's own matrix and partition, and a replay of
/// `update_block_into` over all blocks.
fn layers(problem: &Problem, min_secs: f64, out: &mut Outcome) -> KernelSplit {
    workloads::triad_reference(min_secs, out);
    let per_block = problem.with_kernel(|k| workloads::replay_per_block(k, min_secs));
    let sweep_ns: f64 = per_block.iter().sum();
    let update_us = sweep_ns / per_block.len() as f64 * 1e-3;
    out.set("solvers.sweep_ms", sweep_ns * 1e-6, per_block.len());
    match problem {
        Problem::Sparse(sparse) => {
            out.set("solvers.update_us", update_us, per_block.len());
            let linalg = workloads::sparse_layers(sparse, sweep_ns, min_secs, out);
            KernelSplit {
                linalg,
                solvers: 1.0 - linalg,
                bench: 0.0,
            }
        }
        Problem::Chem(_) => {
            // The step kernel's Newton/GMRES solve is inside the update and is
            // not separable from outside: the whole update counts as solvers.
            out.set("solvers.chem_update_us", update_us, per_block.len());
            KernelSplit {
                linalg: 0.0,
                solvers: 1.0,
                bench: 0.0,
            }
        }
        Problem::Ring(_) => {
            out.set("solvers.update_us", update_us, per_block.len());
            KernelSplit {
                linalg: 0.0,
                solvers: 0.0,
                bench: 1.0,
            }
        }
    }
}

/// `core.` µbench numbers at the workload's block count and dependency
/// graph: what a run costs before it does any work, the mailboxes, the deque.
fn data_plane(problem: &Problem, ctx: &Ctx, min_secs: f64, out: &mut Outcome) {
    let blocks = problem.with_kernel(|k| k.num_blocks());
    let one_sweep = OneSweep { blocks };
    let solve = Solve {
        route: Route::Threaded(Mode::Sync, ctx.nproc),
        epsilon: 1e-9,
        streak: 1,
    };
    let overhead = time_calls(min_secs, || {
        std::hint::black_box(adapter::run(&one_sweep, solve).wall_s);
    });
    out.set(
        "core.run_overhead_us",
        overhead.ns_per_call * 1e-3,
        overhead.batches,
    );

    let mailboxes = problem.with_kernel(Mailboxes::build);
    let (publish, take, cycles) = workloads::mailbox_cycles(&mailboxes, min_secs);
    out.set("core.mailbox_publish_ns", publish, cycles);
    out.set("core.mailbox_take_ns", take, cycles);
    if let Some((pingpong, trips)) = workloads::mailbox_pingpong(&mailboxes, min_secs, ctx.nproc) {
        out.set("core.mailbox_pingpong_ns", pingpong, trips);
    }
    workloads::deque_loops(min_secs, out);
}
