//! Every call the benchmark makes into the program lives in this file.
//!
//! Later changes to the program may not edit the benchmark, so the functions
//! and types used here are the signatures the program has to keep (the README
//! lists them). The rest of the benchmark sees only the plain structs defined
//! below, the [`IterativeKernel`] trait (which `ring.rs` implements) and the
//! opaque fixtures that own program values.
//!
//! Only default-configured entry points are used: no `StealPolicy`, no
//! `with_locality_bias`, no `*_traced` twin, no `netsim::trace`, no
//! per-environment struct.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aiac::core::config::RunConfig;
use aiac::core::depgraph::DependencyGraph;
use aiac::core::report::RunReport;
use aiac::core::runtime::{
    CoalescingMailboxes, SequentialRuntime, SimulatedRuntime, Steal, StealDeque, ThreadedRuntime,
};
use aiac::envs::env::{EnvKind, Environment};
use aiac::envs::threads::ProblemKind;
use aiac::linalg::banded::DiaMatrix;
use aiac::linalg::csr::CsrMatrix;
use aiac::linalg::gmres::{Gmres, GmresParams};
use aiac::linalg::jacobi::BlockJacobi;
use aiac::netsim::{GridTopology, HostId, HostScheduler, Network, SimTime, Simulator};
use aiac::obs::{to_chrome_json, Layer, TraceConfig, Tracer, TrackRecorder};
use aiac::service::job;
use aiac::service::{
    job_key, CachedSolve, JobResult, JobSpec, Pending, ResultCache, ServiceConfig, ServiceProblem,
    SolverService, TenantQueues,
};
use aiac::solvers::chemical::{ChemicalParams, ChemicalProblem};
use aiac::solvers::sparse_linear::{SparseLinearParams, SparseLinearProblem};
use aiac::solvers::verify::max_relative_difference;

pub use aiac::core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};

// ---------------------------------------------------------------------------
// Runtimes
// ---------------------------------------------------------------------------

/// Synchronous (SISC) or asynchronous (AIAC) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Sync,
    Async,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Sync => "sync",
            Mode::Async => "async",
        }
    }
}

/// Which runtime executes a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `SequentialRuntime::run`: the plain single-thread baseline.
    Sequential,
    /// `ThreadedRuntime::run` with this many pool workers.
    Threaded(Mode, usize),
}

impl Route {
    pub fn label(self) -> &'static str {
        match self {
            Route::Sequential => "seq",
            Route::Threaded(mode, _) => mode.label(),
        }
    }
}

/// One runtime call: the route, the threshold, and the local-convergence
/// streak. The streak applies to the asynchronous mode only (the synchronous
/// run must stay bit-identical to the sequential one).
#[derive(Debug, Clone, Copy)]
pub struct Solve {
    pub route: Route,
    pub epsilon: f64,
    pub streak: usize,
}

/// What the benchmark keeps of one runtime call.
#[derive(Debug, Clone)]
pub struct Run {
    /// Wall seconds around the call, timed here, not taken from the report.
    pub wall_s: f64,
    pub iterations: Vec<u64>,
    pub converged: bool,
    pub premature_stop: bool,
    pub data_messages: u64,
    pub solution: Vec<f64>,
    /// The report's `metrics_registry()` entries, by name.
    counters: Vec<(String, f64)>,
}

impl Run {
    fn from_report(report: &RunReport, wall_s: f64) -> Self {
        let counters = report
            .metrics_registry(false)
            .snapshot()
            .iter()
            .map(|e| (e.name.to_string(), e.value))
            .collect();
        Run {
            wall_s,
            iterations: report.iterations.clone(),
            converged: report.converged,
            premature_stop: report.premature_stop,
            data_messages: report.data_messages,
            solution: report.solution.clone(),
            counters,
        }
    }

    /// A scheduler counter by its registry name; `None` when the program does
    /// not report it (an absent counter is absent, not zero).
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn total_iterations(&self) -> u64 {
        self.iterations.iter().sum()
    }

    pub fn ok(&self) -> bool {
        self.converged && !self.premature_stop
    }
}

fn execute(kernel: &dyn IterativeKernel, solve: Solve) -> (RunReport, f64) {
    let started = Instant::now();
    let report = match solve.route {
        Route::Sequential => {
            SequentialRuntime::new().run(kernel, &RunConfig::synchronous(solve.epsilon))
        }
        Route::Threaded(Mode::Sync, workers) => ThreadedRuntime::new().run(
            kernel,
            &RunConfig::synchronous(solve.epsilon).with_num_workers(workers),
        ),
        Route::Threaded(Mode::Async, workers) => ThreadedRuntime::new().run(
            kernel,
            &RunConfig::asynchronous(solve.epsilon)
                .with_streak(solve.streak)
                .with_num_workers(workers),
        ),
    };
    (report, started.elapsed().as_secs_f64())
}

/// Runs `kernel` to `solve.epsilon` on `solve.route`.
pub fn run(kernel: &dyn IterativeKernel, solve: Solve) -> Run {
    let (report, wall_s) = execute(kernel, solve);
    Run::from_report(&report, wall_s)
}

/// One timed kernel update.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpan {
    pub block: u32,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where [`TimedKernel`]s put their timings. It outlives the wrappers so a
/// workload that makes several runtime calls (one per chemical time step)
/// collects them in one place.
pub struct KernelTimer {
    origin: Instant,
    busy_ns: AtomicU64,
    updates: AtomicU64,
    spans: Mutex<Vec<KernelSpan>>,
}

/// Spans kept per [`KernelTimer::take`]; updates beyond it still count in the
/// totals, and `updates − spans.len()` says how many spans were not kept.
pub const MAX_KERNEL_SPANS: usize = 10_000;

impl KernelTimer {
    /// Timestamps are nanoseconds since `origin`.
    pub fn new(origin: Instant) -> Self {
        KernelTimer {
            origin,
            busy_ns: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin, on the clock the spans use.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Takes the totals (nanoseconds inside `update_block_into` summed over
    /// threads, and the update count) and the spans recorded since the last
    /// call.
    pub fn take(&self) -> (u64, u64, Vec<KernelSpan>) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span list poisoned"));
        (
            self.busy_ns.swap(0, Ordering::Relaxed),
            self.updates.swap(0, Ordering::Relaxed),
            spans,
        )
    }
}

/// A kernel wrapper that times `update_block_into` on the calling thread and
/// forwards every trait method to the real kernel unchanged.
pub struct TimedKernel<'a> {
    inner: &'a dyn IterativeKernel,
    timer: &'a KernelTimer,
}

impl<'a> TimedKernel<'a> {
    pub fn new(inner: &'a dyn IterativeKernel, timer: &'a KernelTimer) -> Self {
        TimedKernel { inner, timer }
    }
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! { static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed); }
    ID.with(|id| *id)
}

impl IterativeKernel for TimedKernel<'_> {
    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn block_len(&self, block: usize) -> usize {
        self.inner.block_len(block)
    }

    fn initial_block(&self, block: usize) -> Vec<f64> {
        self.inner.initial_block(block)
    }

    fn dependencies(&self, block: usize) -> Vec<usize> {
        self.inner.dependencies(block)
    }

    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        self.inner.update_block(block, local, others)
    }

    fn update_block_into(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        out: &mut [f64],
    ) -> InPlaceUpdate {
        let timer = self.timer;
        let start = timer.origin.elapsed().as_nanos() as u64;
        let update = self.inner.update_block_into(block, local, others, out);
        let end = timer.origin.elapsed().as_nanos() as u64;
        timer.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        // Past the cap nothing is kept, so the lock is not taken either.
        if timer.updates.fetch_add(1, Ordering::Relaxed) < MAX_KERNEL_SPANS as u64 {
            let mut spans = timer.spans.lock().expect("span list poisoned");
            spans.push(KernelSpan {
                block: block as u32,
                thread: thread_number(),
                start_ns: start,
                end_ns: end,
            });
        }
        update
    }

    fn iteration_cost(&self, block: usize) -> f64 {
        self.inner.iteration_cost(block)
    }

    fn message_bytes(&self, from: usize, to: usize) -> u64 {
        self.inner.message_bytes(from, to)
    }

    fn residual_between(&self, block: usize, a: &[f64], b: &[f64]) -> f64 {
        self.inner.residual_between(block, a, b)
    }

    fn sync_collectives_per_iteration(&self) -> usize {
        self.inner.sync_collectives_per_iteration()
    }

    fn total_len(&self) -> usize {
        self.inner.total_len()
    }

    fn assemble(&self, blocks: &[Vec<f64>]) -> Vec<f64> {
        self.inner.assemble(blocks)
    }
}

/// Runs `kernel` wrapped in a [`TimedKernel`] when a timer is given.
pub fn run_timed(kernel: &dyn IterativeKernel, solve: Solve, timer: Option<&KernelTimer>) -> Run {
    match timer {
        Some(timer) => run(&TimedKernel::new(kernel, timer), solve),
        None => run(kernel, solve),
    }
}

/// One sequential pass over all blocks calling `update_block_into` directly
/// on the kernel's initial state. Returns nanoseconds per block.
pub fn replay_updates(kernel: &dyn IterativeKernel) -> Vec<u64> {
    let view = DependencyView::from_initial(kernel);
    (0..kernel.num_blocks())
        .map(|b| {
            let local = kernel.initial_block(b);
            let mut out = vec![0.0; local.len()];
            let started = Instant::now();
            std::hint::black_box(kernel.update_block_into(b, &local, &view, &mut out));
            std::hint::black_box(&out);
            started.elapsed().as_nanos() as u64
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The sparse linear problem and the linalg kernels under it
// ---------------------------------------------------------------------------

/// `SparseLinearProblem::new(paper_scaled(n, blocks))` with the matrix seed
/// taken from the workload seed.
pub struct Sparse(SparseLinearProblem);

impl Sparse {
    /// `unit_cost` sets `cost_scale = 1` (real runs); the simulator workload
    /// keeps the paper's cost scaling.
    pub fn build(n: usize, blocks: usize, seed: u64, unit_cost: bool) -> Self {
        let mut params = SparseLinearParams::paper_scaled(n, blocks);
        params.seed = seed;
        if unit_cost {
            params.cost_scale = 1.0;
        }
        Sparse(SparseLinearProblem::new(params))
    }

    pub fn kernel(&self) -> &dyn IterativeKernel {
        &self.0
    }

    pub fn n(&self) -> usize {
        self.0.matrix().nrows()
    }

    pub fn nnz(&self) -> usize {
        self.0.matrix().nnz()
    }

    /// Max-norm distance to the exact solution the generator planted.
    pub fn error_of(&self, x: &[f64]) -> f64 {
        self.0.error_of(x)
    }

    /// Max-norm of `b − A·x`.
    pub fn linear_residual(&self, x: &[f64]) -> f64 {
        self.0.linear_residual(x)
    }
}

/// The linalg objects of one sparse workload, rebuilt from its matrix and
/// partition through the public constructors so each kernel can be timed
/// alone.
pub struct LinalgFixture<'a> {
    problem: &'a SparseLinearProblem,
    row_blocks: Vec<CsrMatrix>,
    jacobi: BlockJacobi,
    dia: DiaMatrix,
    x: Vec<f64>,
    y: Vec<f64>,
    /// Seconds `BlockJacobi::new` took (the dense LU factorisations).
    pub jacobi_factor_s: f64,
}

impl<'a> LinalgFixture<'a> {
    pub fn build(sparse: &'a Sparse) -> Self {
        let problem = &sparse.0;
        let a = problem.matrix();
        let partition = problem.partition();
        let started = Instant::now();
        let jacobi = BlockJacobi::new(a, partition).expect("diagonal blocks are invertible");
        let jacobi_factor_s = started.elapsed().as_secs_f64();
        let n = a.nrows();
        LinalgFixture {
            problem,
            row_blocks: partition.iter().map(|(_, r)| a.row_block(r)).collect(),
            jacobi,
            dia: DiaMatrix::from_csr(a),
            x: (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect(),
            y: vec![0.0; n],
            jacobi_factor_s,
        }
    }

    pub fn blocks(&self) -> usize {
        self.row_blocks.len()
    }

    /// Bytes `spmv` touches, computed from the array sizes: values, column
    /// indices, row pointers, `x` and `y`.
    pub fn spmv_bytes_computed(&self) -> usize {
        let a = self.problem.matrix();
        a.nnz() * (8 + 8) + (a.nrows() + 1) * 8 + a.ncols() * 8 + a.nrows() * 8
    }

    /// `CsrMatrix::spmv` over the whole matrix.
    pub fn spmv(&mut self) {
        self.problem.matrix().spmv(&self.x, &mut self.y);
        std::hint::black_box(&self.y);
    }

    /// `DiaMatrix::matvec` over the whole matrix.
    pub fn dia_matvec(&mut self) {
        self.dia.matvec(&self.x, &mut self.y);
        std::hint::black_box(&self.y);
    }

    /// `CsrMatrix::residual` on every row block, as the kernel calls it.
    pub fn residual_sweep(&mut self) {
        let partition = self.problem.partition();
        for (b, range) in partition.iter() {
            let r = &mut self.y[range.clone()];
            self.row_blocks[b].residual(&self.problem.rhs()[range], &self.x, r);
        }
        std::hint::black_box(&self.y);
    }

    /// `BlockJacobi::apply_block` on every block, as the kernel calls it.
    pub fn jacobi_sweep(&mut self) {
        let partition = self.problem.partition();
        for (b, range) in partition.iter() {
            std::hint::black_box(self.jacobi.apply_block(b, &self.x[range]));
        }
    }

    /// One restarted GMRES solve (restart 30, relative tolerance 1e-8) of the
    /// workload's system from zero. Returns whether it converged.
    pub fn gmres(&mut self) -> bool {
        let gmres = Gmres::new(GmresParams {
            restart: 30,
            tol: 1e-8,
            abs_tol: 1e-14,
            max_restarts: 50,
        });
        self.y.fill(0.0);
        let outcome = gmres.solve(self.problem.matrix(), self.problem.rhs(), &mut self.y);
        outcome.converged
    }
}

// ---------------------------------------------------------------------------
// The chemical problem
// ---------------------------------------------------------------------------

/// `ChemicalProblem::new(paper_scaled(nx, nz, blocks))` integrated to `t_end`
/// with one runtime call per implicit-Euler step through `solve_with`.
pub struct Chem(ChemicalProblem);

/// One whole integration.
pub struct ChemRun {
    pub wall_s: f64,
    pub all_converged: bool,
    pub final_state: Vec<f64>,
    /// One entry per time step.
    pub steps: Vec<Run>,
}

impl Chem {
    pub fn build(nx: usize, nz: usize, blocks: usize, t_end: f64) -> Self {
        let mut params = ChemicalParams::paper_scaled(nx, nz, blocks);
        params.t_end = t_end;
        Chem(ChemicalProblem::new(params))
    }

    pub fn num_steps(&self) -> usize {
        self.0.num_steps()
    }

    /// Integrates with one runtime call per time step on that step's kernel.
    pub fn integrate(&self, solve: Solve, timer: Option<&KernelTimer>) -> ChemRun {
        let mut steps = Vec::with_capacity(self.num_steps());
        let started = Instant::now();
        let solution = self.0.solve_with(|kernel, _| {
            let (report, wall_s) = match timer {
                Some(timer) => execute(&TimedKernel::new(kernel, timer), solve),
                None => execute(kernel, solve),
            };
            steps.push(Run::from_report(&report, wall_s));
            report
        });
        ChemRun {
            wall_s: started.elapsed().as_secs_f64(),
            all_converged: solution.all_converged,
            final_state: solution.final_state,
            steps,
        }
    }

    /// The first time step's kernel, for the replay numbers.
    pub fn first_step_kernel(&self) -> Box<dyn IterativeKernel> {
        Box::new(self.0.step_kernel(self.0.initial_state(), 0))
    }
}

/// `solvers::verify::max_relative_difference` with the floor the repo's own
/// chemical tests use.
pub fn chem_relative_difference(a: &[f64], b: &[f64]) -> f64 {
    max_relative_difference(a, b, 1.0)
}

// ---------------------------------------------------------------------------
// The simulated runtime, netsim and envs
// ---------------------------------------------------------------------------

/// The four environments of the paper's comparison, in table order, with the
/// profile names the repo's records use.
pub const SIM_CELLS: [&str; 4] = ["sync-mpi", "async-pm2", "async-mpi-mad", "async-omniorb4"];

fn env_of(cell: usize) -> (EnvKind, Mode) {
    match cell {
        0 => (EnvKind::MpiSync, Mode::Sync),
        1 => (EnvKind::Pm2, Mode::Async),
        2 => (EnvKind::MpiMadeleine, Mode::Async),
        3 => (EnvKind::OmniOrb, Mode::Async),
        _ => panic!("sim cell {cell} out of range"),
    }
}

/// What the benchmark keeps of one simulated run.
#[derive(Debug, Clone)]
pub struct SimRun {
    pub wall_s: f64,
    /// Final virtual time; deterministic, must repeat bit for bit.
    pub virtual_s: f64,
    pub iterations: u64,
    pub messages: u64,
    pub converged: bool,
    pub premature_stop: bool,
}

/// `SimulatedRuntime::new(ethernet_3_sites(hosts), env, SparseLinear).run` for
/// cell `cell` of [`SIM_CELLS`] (`MpiSync` synchronous, the rest asynchronous).
pub fn run_simulated(
    kernel: &dyn IterativeKernel,
    hosts: usize,
    cell: usize,
    epsilon: f64,
) -> SimRun {
    let (env, mode) = env_of(cell);
    let config = match mode {
        Mode::Sync => RunConfig::synchronous(epsilon),
        Mode::Async => RunConfig::asynchronous(epsilon),
    };
    let runtime = SimulatedRuntime::new(
        GridTopology::ethernet_3_sites(hosts),
        env,
        ProblemKind::SparseLinear,
    );
    let started = Instant::now();
    let outcome = runtime.run(kernel, &config);
    let wall_s = started.elapsed().as_secs_f64();
    SimRun {
        wall_s,
        virtual_s: outcome.sim_time.as_secs(),
        iterations: outcome.report.iterations.iter().sum(),
        messages: outcome.report.data_messages + outcome.report.control_messages,
        converged: outcome.report.converged,
        premature_stop: outcome.report.premature_stop,
    }
}

/// `Simulator::schedule_in` + `next_event`, `ops` times over a standing queue
/// of 1 024 events (the simulated runtime keeps about that many in flight).
pub fn netsim_event_loop(ops: usize) -> u64 {
    let mut sim: Simulator<u64> = Simulator::new();
    for i in 0..1024u64 {
        sim.schedule_in(SimTime::from_micros(1.0 + (i % 97) as f64), i);
    }
    let mut acc = 0u64;
    for i in 0..ops as u64 {
        let ev = sim.next_event().expect("the queue never drains");
        acc = acc.wrapping_add(ev.payload);
        sim.schedule_in(SimTime::from_micros(1.0 + (i % 89) as f64), i);
    }
    acc
}

/// `HostScheduler::schedule`, `ops` times round-robin over the hosts.
pub fn netsim_schedule_loop(hosts: usize, ops: usize) -> f64 {
    let topology = GridTopology::ethernet_3_sites(hosts);
    let mut cpu = HostScheduler::for_topology(&topology);
    let mut ready = SimTime::ZERO;
    let mut acc = 0.0;
    for i in 0..ops {
        let slot = cpu.schedule(HostId(i % hosts), ready, SimTime::from_micros(50.0));
        acc += slot.end.as_secs();
        ready += SimTime::from_micros(10.0);
    }
    acc
}

/// `Network::transfer`, `ops` times between rotating host pairs.
pub fn netsim_transfer_loop(hosts: usize, ops: usize) -> f64 {
    let mut network = Network::new(GridTopology::ethernet_3_sites(hosts));
    let mut start = SimTime::ZERO;
    let mut acc = 0.0;
    for i in 0..ops {
        let src = i % hosts;
        let dst = (i + 1 + i / hosts % (hosts - 1)) % hosts;
        let dst = if dst == src { (src + 1) % hosts } else { dst };
        let arrival = network.transfer(HostId(src), HostId(dst), 4_000, 64, start);
        acc += arrival.as_secs();
        start += SimTime::from_micros(100.0);
    }
    acc
}

/// One `Environment::message_cost` evaluation per op, rotating over the four
/// environments.
pub fn envs_cost_loop(ops: usize) -> f64 {
    let envs: Vec<Box<dyn Environment>> = (0..4).map(|c| env_of(c).0.build()).collect();
    let mut acc = 0.0;
    for i in 0..ops {
        let cost = envs[i % 4].message_cost(1_000 + (i % 64) as u64 * 100);
        acc += cost.sender_cpu.as_secs() + cost.protocol_bytes as f64;
    }
    acc
}

// ---------------------------------------------------------------------------
// core::runtime data plane: mailboxes and the steal deque
// ---------------------------------------------------------------------------

/// `CoalescingMailboxes` over a kernel's dependency graph.
pub struct Mailboxes {
    boxes: CoalescingMailboxes,
    payloads: Vec<Arc<[f64]>>,
    /// Two blocks that depend on each other, if the graph has such a pair:
    /// the only blocks a payload can bounce between.
    pub mutual_pair: Option<(usize, usize)>,
}

impl Mailboxes {
    pub fn build(kernel: &dyn IterativeKernel) -> Self {
        let graph = DependencyGraph::from_kernel(kernel);
        let mutual_pair = (0..graph.num_blocks()).find_map(|a| {
            graph
                .in_neighbours(a)
                .iter()
                .find(|&&b| graph.in_neighbours(b).contains(&a))
                .map(|&b| (a, b))
        });
        Mailboxes {
            boxes: CoalescingMailboxes::new(&graph),
            payloads: (0..kernel.num_blocks())
                .map(|b| kernel.initial_block(b).into())
                .collect(),
            mutual_pair,
        }
    }

    pub fn blocks(&self) -> usize {
        self.payloads.len()
    }

    /// `publish_from(src, ..)`; returns the number of edges written.
    pub fn publish(&self, src: usize, iteration: u64) -> usize {
        let mut edges = 0;
        self.boxes
            .publish_from(src, iteration, &self.payloads[src], |_| edges += 1);
        edges
    }

    /// `take_for(dst, ..)`; returns the number of payloads taken.
    pub fn take(&self, dst: usize) -> usize {
        let mut taken = 0;
        self.boxes.take_for(dst, |_, _, payload| {
            std::hint::black_box(&payload);
            taken += 1;
        });
        taken
    }
}

/// `StealDeque` of job tokens.
pub struct Deque(StealDeque);

impl Deque {
    pub fn new(capacity: usize) -> Self {
        Deque(StealDeque::new(capacity))
    }

    pub fn push(&self, item: usize) -> bool {
        self.0.push(item).is_ok()
    }

    pub fn pop(&self) -> Option<usize> {
        self.0.pop()
    }

    /// One `steal` attempt; `None` on `Empty` or `Retry`.
    pub fn steal(&self) -> Option<usize> {
        match self.0.steal() {
            Steal::Success(item) => Some(item),
            Steal::Empty | Steal::Retry => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The solver service
// ---------------------------------------------------------------------------

/// A job the service workloads submit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Problem {
    Ring { blocks: usize },
    SparseLinear { n: usize, blocks: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    pub tenant: u32,
    pub problem: Problem,
    pub epsilon: f64,
}

/// The sweep budget every job carries (the repo's own service tests use it).
const MAX_SWEEPS: usize = 10_000;

impl Job {
    fn spec(&self) -> JobSpec {
        JobSpec {
            tenant: self.tenant,
            problem: match self.problem {
                Problem::Ring { blocks } => ServiceProblem::Ring { blocks },
                Problem::SparseLinear { n, blocks } => ServiceProblem::SparseLinear { n, blocks },
            },
            epsilon: self.epsilon,
            max_sweeps: MAX_SWEEPS,
        }
    }
}

/// What the benchmark keeps of one delivered result.
#[derive(Debug, Clone)]
pub struct Done {
    pub id: u64,
    pub converged: bool,
    pub cancelled: bool,
    pub from_cache: bool,
    pub sweeps: u64,
    pub solution: Vec<f64>,
}

impl From<JobResult> for Done {
    fn from(r: JobResult) -> Self {
        Done {
            id: r.job,
            converged: r.converged,
            cancelled: r.cancelled,
            from_cache: r.from_cache,
            sweeps: r.sweeps,
            solution: r.solution,
        }
    }
}

/// The fixed service sizing of both service workloads.
fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        max_in_flight: 4096,
        tenant_queue_depth: 1024,
        drr_quantum: 4,
        cache_capacity: 256,
        ..ServiceConfig::default()
    }
}

pub const MAX_IN_FLIGHT: usize = 4096;
pub const TENANT_QUEUE_DEPTH: usize = 1024;

/// A running `SolverService` and its result channel.
pub struct Service {
    service: SolverService,
    results: Receiver<JobResult>,
}

impl Service {
    /// `SolverService::start` (or `start_paused`) and `take_results`.
    pub fn start(workers: usize, paused: bool) -> Self {
        let config = service_config(workers);
        let service = if paused {
            SolverService::start_paused(config)
        } else {
            SolverService::start(config)
        };
        let results = service
            .take_results()
            .expect("a fresh service holds its receiver");
        Service { service, results }
    }

    /// `submit`; `Ok(job id)` when admitted, `Err(())` when shed.
    pub fn submit(&self, job: &Job) -> Result<u64, ()> {
        self.service
            .submit(job.spec())
            .map(|t| t.id)
            .map_err(|_| ())
    }

    /// A result if one is ready.
    pub fn try_result(&self) -> Option<Done> {
        self.results.try_recv().ok().map(Done::from)
    }

    /// Waits up to `timeout` for a result.
    pub fn wait_result(&self, timeout: std::time::Duration) -> Option<Done> {
        self.results.recv_timeout(timeout).ok().map(Done::from)
    }

    pub fn resume(&self) {
        self.service.resume();
    }

    /// `(hits, misses)` of the result cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.service.cache_stats()
    }

    pub fn peak_in_flight(&self) -> u64 {
        self.service.peak_in_flight()
    }

    /// `shutdown`: closes admission, drains, joins the workers.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

/// What a direct `job::solve` returns, for comparison with service results.
pub struct Direct {
    pub converged: bool,
    pub sweeps: u64,
    pub solution: Vec<f64>,
}

/// `job::solve` on the calling thread: what a worker does on a cache miss.
pub fn solve_direct(job: &Job) -> Direct {
    let outcome = job::solve(&job.spec(), None);
    Direct {
        converged: outcome.converged,
        sweeps: outcome.sweeps,
        solution: outcome.solution,
    }
}

/// `ServiceProblem::build` alone: the kernel construction inside every miss.
pub fn build_kernel(job: &Job) -> usize {
    job.spec().problem.build().num_blocks()
}

/// `job_key`, `ops` times over `jobs`.
pub fn job_key_loop(jobs: &[Job], ops: usize) -> u64 {
    let specs: Vec<JobSpec> = jobs.iter().map(Job::spec).collect();
    let mut acc = 0u64;
    for i in 0..ops {
        acc ^= job_key(std::hint::black_box(&specs[i % specs.len()]));
    }
    acc
}

/// A `ResultCache` of the service's capacity holding one entry per job, each
/// with a solution of `solution_len` values.
pub struct Cache {
    cache: ResultCache,
    keys: Vec<u64>,
    entry: CachedSolve,
}

impl Cache {
    pub fn warm(jobs: &[Job], solution_len: usize) -> Self {
        let entry = CachedSolve {
            converged: true,
            sweeps: 10,
            final_residual: 1e-9,
            virtual_cost_secs: 1e-3,
            solution: vec![1.0; solution_len],
        };
        let mut cache = ResultCache::new(service_config(1).cache_capacity);
        let keys: Vec<u64> = jobs.iter().map(|j| job_key(&j.spec())).collect();
        for &key in &keys {
            cache.insert(key, entry.clone());
        }
        Cache { cache, keys, entry }
    }

    /// `lookup` of a present key (clones the stored solution, as a hit does).
    pub fn lookup(&mut self, i: usize) -> bool {
        self.cache.lookup(self.keys[i % self.keys.len()]).is_some()
    }

    /// `insert` of a never-seen key into the full cache (evicts the oldest).
    pub fn insert_fresh(&mut self, i: u64) {
        self.cache.insert(
            0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1),
            self.entry.clone(),
        );
    }
}

/// `TenantQueues::enqueue` of `batch` jobs over four tenants, then `dispatch`
/// until empty. Returns the number dispatched.
pub fn drr_round(batch: usize, job: &Job) -> usize {
    let mut queues = TenantQueues::new(service_config(1).tenant_queue_depth, 4);
    for i in 0..batch {
        let mut spec = job.spec();
        spec.tenant = (i % 4) as u32;
        queues
            .enqueue(Pending {
                id: i as u64,
                spec,
                arrival_secs: 0.0,
            })
            .expect("the batch fits the tenant depth");
    }
    let mut out = 0;
    while let Some(p) = queues.dispatch() {
        std::hint::black_box(&p);
        out += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------------

/// An `aiac-obs` tracer with one recorder, for the emit/snapshot/export
/// numbers. The benchmark's own spans do not use it: `aiac-obs` is a layer
/// under test.
pub struct ObsProbe {
    tracer: Tracer,
    recorder: Option<TrackRecorder>,
}

impl ObsProbe {
    pub fn new(enabled: bool) -> Self {
        let tracer = Tracer::new(if enabled {
            TraceConfig::on()
        } else {
            TraceConfig::off()
        });
        let recorder = Some(tracer.recorder(Layer::Runtime, "probe", 0));
        ObsProbe { tracer, recorder }
    }

    /// One `TrackRecorder::instant`.
    #[inline]
    pub fn emit(&mut self, arg: u64) {
        if let Some(r) = self.recorder.as_mut() {
            r.instant("probe", arg);
        }
    }

    /// Drops the recorder (which hands its ring to the tracer) and times
    /// `Tracer::snapshot` and `to_chrome_json`. Returns
    /// `(snapshot_s, export_s, events)`.
    pub fn snapshot_and_export(&mut self) -> (f64, f64, u64) {
        self.recorder = None;
        let started = Instant::now();
        let snapshot = self.tracer.snapshot();
        let snapshot_s = started.elapsed().as_secs_f64();
        let events = snapshot.total_events();
        let started = Instant::now();
        std::hint::black_box(to_chrome_json(&snapshot).len());
        (snapshot_s, started.elapsed().as_secs_f64(), events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wrapper must not change what the runtime computes: a wrapped
    /// synchronous run returns the same solution, bit for bit, and the same
    /// iteration counts, and forwards the cost model the simulator reads.
    #[test]
    fn the_timed_kernel_is_bit_transparent() {
        let sparse = Sparse::build(240, 4, 11, false);
        let kernel = sparse.kernel();
        let solve = Solve {
            route: Route::Threaded(Mode::Sync, 2),
            epsilon: 1e-9,
            streak: 1,
        };
        let plain = run(kernel, solve);
        let timer = KernelTimer::new(Instant::now());
        let wrapped = TimedKernel::new(kernel, &timer);
        let timed = run(&wrapped, solve);
        assert!(plain.ok() && timed.ok());
        assert_eq!(plain.solution, timed.solution);
        assert_eq!(plain.iterations, timed.iterations);

        let (busy_ns, updates, spans) = timer.take();
        assert_eq!(updates, timed.total_iterations());
        assert_eq!(spans.len() as u64, updates.min(MAX_KERNEL_SPANS as u64));
        assert!(busy_ns > 0 && spans.iter().all(|s| s.end_ns >= s.start_ns));

        for b in 0..kernel.num_blocks() {
            assert_eq!(wrapped.iteration_cost(b), kernel.iteration_cost(b));
            assert_eq!(wrapped.block_len(b), kernel.block_len(b));
            assert_eq!(wrapped.dependencies(b), kernel.dependencies(b));
            assert_eq!(
                wrapped.message_bytes(b, (b + 1) % 4),
                kernel.message_bytes(b, (b + 1) % 4)
            );
            let (x, y) = (
                vec![1.0; kernel.block_len(b)],
                vec![1.5; kernel.block_len(b)],
            );
            assert_eq!(
                wrapped.residual_between(b, &x, &y),
                kernel.residual_between(b, &x, &y)
            );
        }
        assert_eq!(
            wrapped.sync_collectives_per_iteration(),
            kernel.sync_collectives_per_iteration()
        );
        assert_eq!(wrapped.total_len(), kernel.total_len());
    }

    /// The same wrapper under the simulator: virtual time is a pure function
    /// of the kernel's cost model, so it must not move either.
    #[test]
    fn the_timed_kernel_leaves_virtual_time_alone() {
        let sparse = Sparse::build(240, 4, 11, false);
        let timer = KernelTimer::new(Instant::now());
        for (cell, label) in SIM_CELLS.iter().enumerate() {
            let plain = run_simulated(sparse.kernel(), 4, cell, 1e-7);
            let timed = run_simulated(&TimedKernel::new(sparse.kernel(), &timer), 4, cell, 1e-7);
            assert_eq!(
                plain.virtual_s.to_bits(),
                timed.virtual_s.to_bits(),
                "{label}"
            );
            assert_eq!(plain.iterations, timed.iterations);
        }
    }
}
