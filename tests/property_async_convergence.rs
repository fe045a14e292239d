//! Property-based integration tests: for randomly generated contractive
//! problems, the asynchronous runtimes must converge to the same fixed point
//! as the sequential reference, and the simulator must stay deterministic.

use aiac::core::config::RunConfig;
use aiac::core::depgraph::DependencyGraph;
use aiac::core::kernel::{BlockUpdate, DependencyView, IterativeKernel};
use aiac::core::runtime::sequential::SequentialRuntime;
use aiac::core::runtime::simulated::SimulatedRuntime;
use aiac::core::runtime::threaded::ThreadedRuntime;
use aiac::envs::env::EnvKind;
use aiac::envs::threads::ProblemKind;
use aiac::netsim::topology::GridTopology;
use aiac::solvers::sparse_linear::{MatrixShape, SparseLinearParams, SparseLinearProblem};
use proptest::prelude::*;

fn random_problem(n: usize, blocks: usize, contraction: f64, seed: u64) -> SparseLinearProblem {
    let params = SparseLinearParams {
        n,
        sub_diagonals: 10,
        shape: MatrixShape::ScatteredDiagonals,
        contraction,
        gamma: 1.0,
        blocks,
        seed,
        reference_flops: 1.5e8,
        cost_scale: 1_000.0,
    };
    SparseLinearProblem::new(params)
}

/// splitmix64 — tiny deterministic generator used to derive per-block
/// contraction weights from a proptest-supplied seed without pulling a rand
/// dependency into the facade tests.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A ring of scalar blocks with *per-block* random weights
/// `x_i ← a_i·x_{i−1} + b_i·x_i + c_i·x_{i+1} + d_i`, kept contractive
/// (`a_i + b_i + c_i ≤ 0.9`) so convergence to a unique fixed point is
/// guaranteed mathematically and any failure is an executor bug.
#[derive(Debug, Clone)]
struct RandomRing {
    weights: Vec<[f64; 4]>,
}

impl RandomRing {
    fn new(blocks: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ blocks as u64;
        let weights = (0..blocks)
            .map(|_| {
                // three weights in [0.05, 0.25] (sum ≤ 0.75 < 1), offset in [0.5, 2]
                let a = 0.05 + 0.20 * unit_f64(&mut state);
                let b = 0.05 + 0.20 * unit_f64(&mut state);
                let c = 0.05 + 0.20 * unit_f64(&mut state);
                let d = 0.5 + 1.5 * unit_f64(&mut state);
                [a, b, c, d]
            })
            .collect();
        Self { weights }
    }
}

impl IterativeKernel for RandomRing {
    fn num_blocks(&self) -> usize {
        self.weights.len()
    }

    fn block_len(&self, _block: usize) -> usize {
        1
    }

    fn initial_block(&self, _block: usize) -> Vec<f64> {
        vec![0.0]
    }

    fn dependencies(&self, block: usize) -> Vec<usize> {
        let m = self.num_blocks();
        if m == 1 {
            return Vec::new();
        }
        let left = (block + m - 1) % m;
        let right = (block + 1) % m;
        if left == right {
            vec![left]
        } else {
            vec![left, right]
        }
    }

    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        let m = self.num_blocks();
        let left = (block + m - 1) % m;
        let right = (block + 1) % m;
        let xl = others.get(left).map_or(0.0, |v| v[0]);
        let xr = others.get(right).map_or(0.0, |v| v[0]);
        let [a, b, c, d] = self.weights[block];
        let new = a * xl + b * local[0] + c * xr + d;
        BlockUpdate {
            residual: (new - local[0]).abs(),
            values: vec![new],
        }
    }
}

/// [`RandomRing`] with a deterministic, seeded pause schedule injected into
/// every update: each (block, local-call) pair draws from splitmix64 whether
/// the update stalls and for how long. This emulates the paper's
/// heterogeneous processors — some blocks compute slower in some iterations —
/// and drives the worker pool through interleavings a uniform-cost kernel
/// never exercises (late publishes racing the convergence detector, parked
/// workers woken by a slow block's requeue).
struct PausedRing {
    inner: RandomRing,
    schedule_seed: u64,
    calls: Vec<std::sync::atomic::AtomicU64>,
}

impl PausedRing {
    fn new(blocks: usize, weight_seed: u64, schedule_seed: u64) -> Self {
        Self {
            inner: RandomRing::new(blocks, weight_seed),
            schedule_seed,
            calls: (0..blocks)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        }
    }

    fn pause(&self, block: usize) {
        let call = self.calls[block].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut state = self
            .schedule_seed
            .wrapping_add((block as u64) << 32)
            .wrapping_add(call);
        let draw = splitmix64(&mut state);
        // Stall roughly a quarter of the updates for a few microseconds; the
        // rest run at full speed, so the schedule is heterogeneous rather
        // than uniformly slow and the tests stay fast.
        if draw.is_multiple_of(4) {
            std::thread::sleep(std::time::Duration::from_micros(1 + draw % 20));
        }
    }
}

impl IterativeKernel for PausedRing {
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
        self.pause(block);
        self.inner.update_block(block, local, others)
    }
}

/// With one worker there are no races, so the order blocks run in is the
/// scheduler's alone: FIFO runs every other block between two iterations of
/// the same one, which makes the asynchronous run a Gauss–Seidel-like sweep
/// that needs no more block iterations than the synchronous Jacobi sweep. A
/// scheduler that re-runs the newest block on unchanged inputs does not.
#[test]
fn single_worker_async_does_not_repeat_work() {
    let problem = SparseLinearProblem::new(SparseLinearParams::paper_scaled(1200, 12));
    let runtime = ThreadedRuntime::new();
    let sync = runtime.run(&problem, &RunConfig::synchronous(1e-7).with_num_workers(1));
    let asynchronous = runtime.run(
        &problem,
        &RunConfig::asynchronous(1e-7)
            .with_streak(3)
            .with_num_workers(1),
    );
    assert!(sync.converged && asynchronous.converged);
    let (sync_iters, async_iters): (u64, u64) = (
        sync.iterations.iter().sum(),
        asynchronous.iterations.iter().sum(),
    );
    assert!(
        async_iters <= sync_iters,
        "asynchronous run took {async_iters} block iterations, synchronous {sync_iters}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The simulated AIAC run agrees with the sequential reference for any
    /// contraction factor, block count and seed.
    #[test]
    fn prop_simulated_async_matches_sequential(
        blocks in 2usize..6,
        contraction in 0.3f64..0.92,
        seed in 0u64..50,
    ) {
        let problem = random_problem(180, blocks, contraction, seed);
        let reference = SequentialRuntime::new().run(&problem, &RunConfig::synchronous(1e-10));
        prop_assert!(reference.converged);

        let grid = GridTopology::ethernet_3_sites(blocks);
        let sim = SimulatedRuntime::new(grid, EnvKind::Pm2, ProblemKind::SparseLinear)
            .run(&problem, &RunConfig::asynchronous(1e-10).with_streak(3));
        prop_assert!(sim.report.converged);
        for (a, b) in sim.report.solution.iter().zip(&reference.solution) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// The threaded AIAC run also agrees with the sequential reference.
    #[test]
    fn prop_threaded_async_matches_sequential(
        blocks in 2usize..5,
        seed in 0u64..30,
    ) {
        let problem = random_problem(150, blocks, 0.8, seed);
        let reference = SequentialRuntime::new().run(&problem, &RunConfig::synchronous(1e-10));
        let report = ThreadedRuntime::new().run(&problem, &RunConfig::asynchronous(1e-10).with_streak(4));
        prop_assert!(report.converged);
        for (a, b) in report.solution.iter().zip(&reference.solution) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// The pooled asynchronous executor reaches the sequential fixed point —
    /// within tolerance — for any block count, worker-pool size and seed, and
    /// its in-flight data storage never exceeds one mailbox slot per
    /// dependency edge (the O(edges) bound of the coalescing design).
    #[test]
    fn prop_pooled_async_reaches_the_fixed_point_with_bounded_mailboxes(
        blocks in 1usize..65,
        workers in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let kernel = RandomRing::new(blocks, seed);
        let reference = SequentialRuntime::new()
            .run(&kernel, &RunConfig::synchronous(1e-12));
        prop_assert!(reference.converged);

        let config = RunConfig::asynchronous(1e-10)
            .with_streak(4)
            .with_num_workers(workers);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        prop_assert!(report.converged, "{blocks} blocks / {workers} workers");
        for (a, b) in report.solution.iter().zip(&reference.solution) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }

        let edges = DependencyGraph::from_kernel(&kernel).num_edges() as u64;
        prop_assert!(
            report.peak_mailbox_occupancy <= edges,
            "peak occupancy {} exceeded the edge count {}",
            report.peak_mailbox_occupancy,
            edges
        );
    }

    /// Under a seeded pause schedule the pool loses no blocks: every block
    /// iterates at least once, the run still reaches the sequential fixed
    /// point, and in-flight data stays O(edges).
    #[test]
    fn prop_pool_loses_no_blocks_under_pause_schedules(
        blocks in 1usize..13,
        workers in 1usize..5,
        seed in 0u64..1_000,
        schedule in 0u64..1_000,
    ) {
        let reference = SequentialRuntime::new()
            .run(&RandomRing::new(blocks, seed), &RunConfig::synchronous(1e-12));
        prop_assert!(reference.converged);

        let kernel = PausedRing::new(blocks, seed, schedule);
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(4)
            .with_num_workers(workers);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        prop_assert!(report.converged, "{} blocks / {} workers", blocks, workers);
        prop_assert_eq!(report.iterations.len(), blocks);
        for (block, &iters) in report.iterations.iter().enumerate() {
            prop_assert!(iters > 0, "block {} never ran", block);
        }
        for (a, b) in report.solution.iter().zip(&reference.solution) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
        let edges = DependencyGraph::from_kernel(&kernel).num_edges() as u64;
        prop_assert!(
            report.peak_mailbox_occupancy <= edges,
            "peak occupancy {} exceeded the edge count {}",
            report.peak_mailbox_occupancy,
            edges
        );
    }

    /// The synchronous mode is a barrier-separated Jacobi sweep, so a pause
    /// schedule may change *when* blocks compute but never *what* they
    /// compute: for every pool size the iterates stay bit-identical to the
    /// sequential sweep and the park count stays a structural zero.
    #[test]
    fn prop_sync_pool_is_bit_identical_to_sequential_under_pauses(
        blocks in 1usize..10,
        seed in 0u64..1_000,
        schedule in 0u64..1_000,
    ) {
        let config = RunConfig::synchronous(1e-10);
        let reference = SequentialRuntime::new().run(&RandomRing::new(blocks, seed), &config);
        prop_assert!(reference.converged);

        for workers in 1usize..=4 {
            let kernel = PausedRing::new(blocks, seed, schedule);
            let report = ThreadedRuntime::new()
                .run(&kernel, &config.clone().with_num_workers(workers));
            prop_assert!(report.converged, "{} workers", workers);
            prop_assert_eq!(&report.solution, &reference.solution, "{} workers", workers);
            prop_assert_eq!(report.queue_wait_events, 0);
        }
    }

    /// Simulated execution time shrinks (or at least does not grow) when the
    /// same problem runs on a faster network.
    #[test]
    fn prop_faster_network_is_never_slower(seed in 0u64..20) {
        let problem = random_problem(180, 6, 0.85, seed);
        let config = RunConfig::asynchronous(1e-8).with_streak(3);
        let wan = SimulatedRuntime::new(
            GridTopology::ethernet_3_sites(6),
            EnvKind::MpiMadeleine,
            ProblemKind::SparseLinear,
        )
        .run(&problem, &config);
        let lan = SimulatedRuntime::new(
            GridTopology::homogeneous_cluster(6),
            EnvKind::MpiMadeleine,
            ProblemKind::SparseLinear,
        )
        .run(&problem, &config);
        prop_assert!(wan.report.converged && lan.report.converged);
        prop_assert!(lan.report.elapsed_secs <= wan.report.elapsed_secs * 1.05);
    }
}
