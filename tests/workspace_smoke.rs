//! Workspace smoke test: the `aiac::prelude` facade re-exports compile, the
//! three runtimes (sequential, threaded, simulated) agree on a tiny banded
//! system, and a block's state holds one view slot per declared dependency
//! for every kernel in the tree. This is the first test to look at when a
//! workspace-level change (manifests, vendored shims, re-exports) breaks
//! something.

use aiac::core::runtime::sequential::SequentialRuntime;
use aiac::core::runtime::simulated::SimulatedRuntime;
use aiac::core::runtime::threaded::ThreadedRuntime;
use aiac::envs::threads::ProblemKind;
use aiac::prelude::*;
use aiac::solvers::sparse_linear::{MatrixShape, SparseLinearParams};

fn tiny_banded_problem() -> SparseLinearProblem {
    SparseLinearProblem::new(SparseLinearParams {
        n: 120,
        sub_diagonals: 5,
        shape: MatrixShape::ContiguousBand,
        contraction: 0.7,
        gamma: 1.0,
        blocks: 3,
        seed: 7,
        reference_flops: 1.5e8,
        cost_scale: 1_000.0,
    })
}

/// Every name exported by `aiac::prelude` resolves and is usable.
#[test]
fn prelude_reexports_are_live() {
    let config: RunConfig = RunConfig::synchronous(1e-8);
    assert!(matches!(config.mode, ExecutionMode::Synchronous));

    let problem = tiny_banded_problem();
    let kernel: &dyn IterativeKernel = &problem;
    assert_eq!(kernel.num_blocks(), 3);

    let spec = BandedSpec::paper(64, 1);
    let matrix: CsrMatrix = spec.generate();
    assert_eq!(matrix.nrows(), 64);

    let partition = Partition::balanced(64, 4);
    assert_eq!(partition.parts(), 4);

    let grid: GridTopology = GridTopology::homogeneous_cluster(3);
    assert_eq!(grid.num_hosts(), 3);

    let env: EnvKind = EnvKind::Pm2;
    assert!(env.build().supports_async());
}

/// Sequential, threaded and simulated runtimes land on the same solution.
#[test]
fn all_three_runtimes_agree_on_a_tiny_banded_system() {
    let problem = tiny_banded_problem();

    let reference: RunReport =
        SequentialRuntime::new().run(&problem, &RunConfig::synchronous(1e-10));
    assert!(reference.converged, "sequential reference must converge");

    let threaded = ThreadedRuntime::new().run(&problem, &RunConfig::asynchronous(1e-10));
    assert!(threaded.converged, "threaded AIAC run must converge");

    let simulated = SimulatedRuntime::new(
        GridTopology::homogeneous_cluster(3),
        EnvKind::Pm2,
        ProblemKind::SparseLinear,
    )
    .run(&problem, &RunConfig::asynchronous(1e-10));
    assert!(
        simulated.report.converged,
        "simulated AIAC run must converge"
    );

    for (t, r) in threaded.solution.iter().zip(&reference.solution) {
        assert!((t - r).abs() <= 1e-6, "threaded {t} vs {r}");
    }
    for (s, r) in simulated.report.solution.iter().zip(&reference.solution) {
        assert!((s - r).abs() <= 1e-6, "simulated {s} vs {r}");
    }
}

/// A block's state holds one slot per declared dependency plus its own: over
/// all blocks that is edges + blocks, for every problem shape in the tree.
#[test]
fn per_block_state_tracks_one_slot_per_dependency() {
    use aiac::core::block::BlockState;
    use aiac::core::depgraph::DependencyGraph;
    use aiac::linalg::GmresParams;
    use aiac::service::job::ServiceRing;
    use aiac::solvers::chemical::{ChemicalStepKernel, GridGeometry, StepCostModel};

    let geometry = GridGeometry::new(12, 12);
    let chemical = ChemicalStepKernel::new(
        geometry,
        4,
        geometry.initial_state(),
        180.0,
        180.0,
        GmresParams::default(),
        StepCostModel::default(),
    );
    let sparse = SparseLinearProblem::new(SparseLinearParams::paper_scaled(1200, 12));
    let ring = ServiceRing::new(2048);
    let kernels: [(&str, &dyn IterativeKernel); 3] = [
        ("ring", &ring),
        ("sparse", &sparse),
        ("chemical", &chemical),
    ];
    for (name, kernel) in kernels {
        let graph = DependencyGraph::from_kernel(kernel);
        let tracked: usize = (0..kernel.num_blocks())
            .map(|b| BlockState::new(kernel, b).view.num_tracked())
            .sum();
        assert_eq!(tracked, graph.num_edges() + kernel.num_blocks(), "{name}");
    }
    assert_eq!(BlockState::new(&ring, 1000).view.num_tracked(), 3);
}
