//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] is pure data: which problem, which platform, which
//! environment profiles, which placements and block counts to sweep, how
//! many warmup and measured repetitions to run, and which invariants
//! ([`Check`]) the results must satisfy. The
//! [`runner`](crate::harness::runner) turns a spec into an
//! [`ExperimentRecord`](crate::harness::record::ExperimentRecord); the table
//! and scale binaries are thin wrappers that build one spec and print its
//! record.
//!
//! [`registry`] returns the five standing experiments — the ports of the
//! historical `table1`, `table2`, `scale_pool` and `oversub` binaries plus
//! the `service_load` multi-tenant load test — at either
//! [`Fidelity::Smoke`] (seconds, run on every PR by the CI gate) or
//! [`Fidelity::Full`] (the binaries' historical default sizes).

use crate::scale::ExperimentScale;
use aiac_core::placement::PlacementPolicy;
use aiac_envs::profile::EnvProfile;
use aiac_service::{LoadSpec, ServiceConfig, TrafficSpec};
use serde::{Deserialize, Serialize};

/// Which benchmark problem an experiment runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProblemSpec {
    /// The banded sparse linear system (Table 2): `n` unknowns cut into
    /// `blocks` blocks.
    SparseLinear {
        /// Matrix dimension.
        n: usize,
        /// Number of blocks (= emulated processors).
        blocks: usize,
    },
    /// The advection–diffusion chemical problem (Table 3): a `grid`×`grid`
    /// discretisation over `t_end` simulated seconds.
    Chemical {
        /// Grid points per axis.
        grid: usize,
        /// Number of blocks.
        blocks: usize,
        /// Simulated time interval in seconds.
        t_end: f64,
    },
    /// The ring-coupled scalar contraction used by the executor-scale
    /// experiments (`scale_pool`, `oversub`): one unknown per block, known
    /// fixed point.
    Ring {
        /// Number of blocks.
        blocks: usize,
        /// Reference-machine cost of one local iteration, in seconds.
        cost_secs: f64,
    },
}

impl ProblemSpec {
    /// The block count of the base problem (the sweep may override it).
    pub fn blocks(&self) -> usize {
        match self {
            ProblemSpec::SparseLinear { blocks, .. }
            | ProblemSpec::Chemical { blocks, .. }
            | ProblemSpec::Ring { blocks, .. } => *blocks,
        }
    }

    /// Short label used in records and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ProblemSpec::SparseLinear { .. } => "sparse-linear",
            ProblemSpec::Chemical { .. } => "chemical",
            ProblemSpec::Ring { .. } => "ring",
        }
    }
}

/// Which simulated platform an experiment runs on (the paper's testbeds),
/// or the local SMP machine for the real threaded back-end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlatformSpec {
    /// Three distant sites over 10 Mb Ethernet (first series of tests).
    Ethernet3Sites {
        /// Number of hosts.
        hosts: usize,
    },
    /// Four sites with the fourth behind consumer ADSL (second series).
    EthernetAdsl4Sites {
        /// Number of hosts.
        hosts: usize,
    },
    /// The local 100 Mb heterogeneous cluster (Figure 3).
    LocalHeteroCluster {
        /// Number of hosts.
        hosts: usize,
    },
    /// A homogeneous control cluster of reference machines.
    HomogeneousCluster {
        /// Number of hosts.
        hosts: usize,
    },
    /// No simulated platform: the experiment runs on this machine's real
    /// threads (the [`EnvProfile::LocalThreads`] profile).
    Smp,
}

impl PlatformSpec {
    /// Builds the grid topology, or `None` for the SMP platform.
    pub fn topology(&self) -> Option<aiac_netsim::topology::GridTopology> {
        use aiac_netsim::topology::GridTopology;
        match *self {
            PlatformSpec::Ethernet3Sites { hosts } => Some(GridTopology::ethernet_3_sites(hosts)),
            PlatformSpec::EthernetAdsl4Sites { hosts } => {
                Some(GridTopology::ethernet_adsl_4_sites(hosts))
            }
            PlatformSpec::LocalHeteroCluster { hosts } => {
                Some(GridTopology::local_hetero_cluster(hosts))
            }
            PlatformSpec::HomogeneousCluster { hosts } => {
                Some(GridTopology::homogeneous_cluster(hosts))
            }
            PlatformSpec::Smp => None,
        }
    }

    /// The platform's display name.
    pub fn label(&self) -> String {
        match self.topology() {
            Some(t) => t.name().to_string(),
            None => "smp".to_string(),
        }
    }
}

/// The shape of an experiment — what the runner sweeps and records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentKind {
    /// No runs: the record carries the problem parameters themselves
    /// (the Table 1 listing).
    Parameters,
    /// One cell per environment profile on a fixed platform, speed ratios
    /// against the synchronous baseline (the Table 2 comparison).
    EnvComparison,
    /// Sync and async runs of the real threaded executor over a fixed
    /// worker pool (the `scale_pool` experiment).
    PoolScale,
    /// Block-count × placement-policy sweep on the simulated platform
    /// (the `oversub` experiment).
    PlacementSweep,
    /// The multi-tenant service load test: one deterministic virtual-clock
    /// cell (gateable metrics) and one real-pool cell (wall-clock metrics),
    /// both replaying the spec's traffic stream.
    ServiceLoad,
}

/// An invariant the runner verifies on a cell's results. Failures land in
/// the cell's `check_failures` and make the driving binary exit non-zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Check {
    /// The run must report convergence (and no premature stop).
    Converged,
    /// Every solution component must be within `tolerance` of the ring
    /// kernel's known fixed point (ring problems only).
    FixedPoint {
        /// Largest allowed absolute error.
        tolerance: f64,
    },
    /// The sparse problem's solution error against the exact solution must
    /// stay under `tolerance` (sparse problems only).
    SolutionError {
        /// Largest allowed error.
        tolerance: f64,
    },
    /// Peak mailbox occupancy must not exceed the dependency-edge count
    /// (threaded runs only).
    MailboxBound,
    /// The run must not copy a single payload: every block update must go
    /// through the kernel's native `update_block_into` straight into the
    /// double-buffered block state (`payload_clones == 0`). Structural, so
    /// it holds deterministically even on the wall-clock executor.
    ZeroCopy,
    /// Every asynchronous profile must beat the synchronous baseline's
    /// virtual time (the paper's headline result).
    AsyncBeatsSync,
    /// Speed-weighted placement must beat round-robin at every block count
    /// of a placement sweep.
    SpeedWeightedBeatsRoundRobin,
    /// A service load cell must account for every generated job: completed
    /// plus rejected must equal generated (nothing silently dropped).
    NoLostJobs,
    /// A service load cell's peak in-flight count must respect the
    /// configured admission bound.
    InFlightBounded,
    /// A service load cell must actually reach `jobs` concurrent in-flight
    /// jobs — the "thousands of concurrent solves" claim, asserted.
    MinPeakInFlight {
        /// Minimum peak in-flight jobs the cell must observe.
        jobs: u64,
    },
    /// A service load cell's max/min per-tenant goodput ratio must stay
    /// under `max_ratio` (no tenant starves).
    FairnessBounded {
        /// Largest allowed goodput ratio.
        max_ratio: f64,
    },
}

/// A declarative description of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Stable name, used as the record key (`"table2"`, `"oversub"`, ...).
    pub name: String,
    /// What the runner does with this spec.
    pub kind: ExperimentKind,
    /// The problem to solve.
    pub problem: ProblemSpec,
    /// The platform to solve it on.
    pub platform: PlatformSpec,
    /// Environment profiles to sweep (cells of an
    /// [`ExperimentKind::EnvComparison`]; the single execution environment
    /// otherwise).
    pub profiles: Vec<EnvProfile>,
    /// Placement policies to sweep (placement sweeps only).
    pub placements: Vec<PlacementPolicy>,
    /// Block counts to sweep; empty means "use the problem's own count".
    pub block_sweep: Vec<usize>,
    /// Worker-pool size for threaded runs (`None` = available parallelism).
    pub workers: Option<usize>,
    /// Residual threshold ε.
    pub epsilon: f64,
    /// Local-convergence streak of the asynchronous runs.
    pub streak: usize,
    /// Unrecorded warmup repetitions per cell.
    pub warmup: usize,
    /// Recorded repetitions per cell (wall-clock statistics).
    pub repeats: usize,
    /// Invariants to verify.
    pub checks: Vec<Check>,
    /// The service load to replay ([`ExperimentKind::ServiceLoad`] only).
    pub service: Option<LoadSpec>,
}

/// Which rendition of the standing registry to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Seconds-scale sizes for the PR-time CI gate.
    Smoke,
    /// The historical default sizes of the standalone binaries.
    Full,
}

impl Fidelity {
    /// The suite name recorded in benchmark records.
    pub fn suite(self) -> &'static str {
        match self {
            Fidelity::Smoke => "smoke",
            Fidelity::Full => "full",
        }
    }
}

/// The Table 1 parameter listing, as (section title, key/value rows) pairs —
/// the paper's published values next to the ones `scale` actually runs.
pub fn parameter_listing(scale: &ExperimentScale) -> Vec<(String, Vec<(String, String)>)> {
    let sparse = vec![
        (
            "matrix size (paper)".to_string(),
            "2000000 x 2000000".to_string(),
        ),
        (
            "matrix size (this run)".to_string(),
            format!("{n} x {n}", n = scale.sparse_n),
        ),
        (
            "repartition of non-zero values".to_string(),
            "30 sub-diagonals (scattered)".to_string(),
        ),
        (
            "Jacobi contraction bound".to_string(),
            "0.9 (spectral radius < 1)".to_string(),
        ),
        ("processors".to_string(), format!("{}", scale.sparse_blocks)),
    ];
    let chemical = vec![
        (
            "discretization grid (paper)".to_string(),
            "600 x 600".to_string(),
        ),
        (
            "discretization grid (this run)".to_string(),
            format!("{g} x {g}", g = scale.chem_grid),
        ),
        (
            "time interval".to_string(),
            format!("{} s", scale.chem_t_end),
        ),
        ("time step".to_string(), "180 s".to_string()),
        ("processors".to_string(), format!("{}", scale.chem_blocks)),
    ];
    vec![
        ("Table 1a - Sparse linear system".to_string(), sparse),
        ("Table 1b - Non-linear problem".to_string(), chemical),
    ]
}

/// The `table1` spec: the parameter listing, no runs.
pub fn table1_spec(scale: &ExperimentScale) -> ExperimentSpec {
    ExperimentSpec {
        name: "table1".to_string(),
        kind: ExperimentKind::Parameters,
        problem: ProblemSpec::SparseLinear {
            n: scale.sparse_n,
            blocks: scale.sparse_blocks,
        },
        platform: PlatformSpec::Ethernet3Sites {
            hosts: scale.sparse_blocks,
        },
        profiles: Vec::new(),
        placements: Vec::new(),
        block_sweep: Vec::new(),
        workers: None,
        epsilon: scale.epsilon,
        streak: scale.streak,
        warmup: 0,
        repeats: 1,
        checks: Vec::new(),
        service: None,
    }
}

/// The `table2` spec: the sparse linear problem on the three-site Ethernet
/// grid across the four simulated environment profiles. `n` and `blocks`
/// override the scale's sizes (the smoke registry shrinks them).
pub fn table2_spec(n: usize, blocks: usize, scale: &ExperimentScale) -> ExperimentSpec {
    ExperimentSpec {
        name: "table2".to_string(),
        kind: ExperimentKind::EnvComparison,
        problem: ProblemSpec::SparseLinear { n, blocks },
        platform: PlatformSpec::Ethernet3Sites { hosts: blocks },
        profiles: EnvProfile::SIMULATED.to_vec(),
        placements: Vec::new(),
        block_sweep: Vec::new(),
        workers: None,
        epsilon: scale.epsilon,
        streak: scale.streak,
        warmup: 0,
        repeats: 1,
        checks: vec![
            Check::Converged,
            Check::AsyncBeatsSync,
            Check::SolutionError { tolerance: 1e-4 },
        ],
        service: None,
    }
}

/// The `scale_pool` spec: the ring contraction over the real worker-pool
/// executor — synchronous supersteps and the asynchronous pool — asserting
/// the fixed point, the O(edges) in-flight-data bound and the zero-copy
/// data plane. Three repeats so the informational wall-clock rows carry a
/// minimum and a median rather than a single noisy sample.
pub fn scale_pool_spec(blocks: usize, workers: Option<usize>) -> ExperimentSpec {
    ExperimentSpec {
        name: "scale_pool".to_string(),
        kind: ExperimentKind::PoolScale,
        problem: ProblemSpec::Ring {
            blocks,
            cost_secs: 1e-6,
        },
        platform: PlatformSpec::Smp,
        profiles: vec![EnvProfile::LocalThreads],
        placements: Vec::new(),
        block_sweep: Vec::new(),
        workers,
        epsilon: 1e-8,
        streak: 3,
        warmup: 0,
        repeats: 3,
        checks: vec![
            Check::Converged,
            Check::FixedPoint { tolerance: 1e-5 },
            Check::MailboxBound,
            Check::ZeroCopy,
        ],
        service: None,
    }
}

/// The `oversub` spec: the ring contraction oversubscribed onto the
/// 40-host heterogeneous cluster across all three placement policies, one
/// sweep row per entry of `block_counts`.
pub fn oversub_spec(block_counts: &[usize]) -> ExperimentSpec {
    ExperimentSpec {
        name: "oversub".to_string(),
        kind: ExperimentKind::PlacementSweep,
        problem: ProblemSpec::Ring {
            blocks: block_counts.first().copied().unwrap_or(64),
            // 2 ms: compute, not LAN latency, dominates — the regime of the
            // paper's problems.
            cost_secs: 2e-3,
        },
        platform: PlatformSpec::LocalHeteroCluster { hosts: 40 },
        profiles: vec![EnvProfile::AsyncMpiMad],
        placements: PlacementPolicy::ALL.to_vec(),
        block_sweep: block_counts.to_vec(),
        workers: None,
        epsilon: 1e-8,
        streak: 3,
        warmup: 0,
        repeats: 1,
        checks: vec![Check::Converged, Check::SpeedWeightedBeatsRoundRobin],
        service: None,
    }
}

/// The `service_load` spec: thousands of concurrent jobs from weighted
/// tenants through admission, DRR fairness and the result cache over the
/// shared pool. The runner produces a deterministic virtual-clock cell
/// (latency percentiles, throughput, fairness ratio, hit rate — all
/// gateable) and a real-pool cell (wall-clock, informational).
pub fn service_load_spec(fidelity: Fidelity) -> ExperimentSpec {
    let traffic = match fidelity {
        Fidelity::Smoke => TrafficSpec::smoke(),
        Fidelity::Full => TrafficSpec::sustained(),
    };
    // The smoke stream's tenants offer equal load, so near-equal goodput
    // is a hard requirement. The sustained stream skews its tenant
    // weights 8x on purpose; DRR pulls the goodput ratio well below the
    // offered 8x, and the bound only has to catch true starvation.
    let max_fairness_ratio = match fidelity {
        Fidelity::Smoke => 3.0,
        Fidelity::Full => 8.0,
    };
    ExperimentSpec {
        name: "service_load".to_string(),
        kind: ExperimentKind::ServiceLoad,
        problem: ProblemSpec::Ring {
            blocks: 6,
            cost_secs: 1e-6,
        },
        platform: PlatformSpec::Smp,
        profiles: vec![EnvProfile::LocalThreads],
        placements: Vec::new(),
        block_sweep: Vec::new(),
        workers: None,
        epsilon: 1e-8,
        streak: 3,
        warmup: 0,
        repeats: 1,
        checks: vec![
            Check::NoLostJobs,
            Check::InFlightBounded,
            Check::MinPeakInFlight { jobs: 1_000 },
            Check::FairnessBounded {
                max_ratio: max_fairness_ratio,
            },
        ],
        service: Some(LoadSpec {
            service: ServiceConfig::from_profile(EnvProfile::LocalThreads),
            traffic,
            cache_hit_cost_secs: 1e-6,
        }),
    }
}

/// The five standing experiments at the requested fidelity.
///
/// Smoke keeps every run in the seconds range so the CI gate stays cheap:
/// a 1500-unknown sparse system, a 256-block pool, a 64/128-block
/// oversubscription sweep and a ~1.8 k-job service stream. Full restores
/// the historical binary defaults — except `scale_pool`, which runs a
/// 4096-block / 8-worker cell (512 blocks per worker keeps the shared
/// queue long and the pool oversubscribed).
///
/// `service_load` stays last: older records indexed the first four by
/// position, and appending preserves those offsets.
pub fn registry(scale: &ExperimentScale, fidelity: Fidelity) -> Vec<ExperimentSpec> {
    match fidelity {
        Fidelity::Smoke => vec![
            table1_spec(scale),
            table2_spec(1_500, 6, scale),
            scale_pool_spec(256, Some(4)),
            oversub_spec(&[64, 128]),
            service_load_spec(Fidelity::Smoke),
        ],
        Fidelity::Full => vec![
            table1_spec(scale),
            table2_spec(scale.sparse_n, scale.sparse_blocks, scale),
            scale_pool_spec(4096, Some(8)),
            oversub_spec(&[64, 128, 256, 512, 1024]),
            service_load_spec(Fidelity::Full),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_the_five_standing_experiments() {
        let scale = ExperimentScale::scaled();
        for fidelity in [Fidelity::Smoke, Fidelity::Full] {
            let specs = registry(&scale, fidelity);
            let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                ["table1", "table2", "scale_pool", "oversub", "service_load"]
            );
        }
    }

    #[test]
    fn registry_covers_all_five_environment_profiles() {
        let scale = ExperimentScale::scaled();
        let specs = registry(&scale, Fidelity::Smoke);
        let mut covered: Vec<EnvProfile> = specs.iter().flat_map(|s| s.profiles.clone()).collect();
        covered.sort_by_key(|p| p.slug());
        covered.dedup();
        assert_eq!(covered.len(), EnvProfile::ALL.len());
    }

    #[test]
    fn smoke_sizes_stay_small() {
        let scale = ExperimentScale::scaled();
        for spec in registry(&scale, Fidelity::Smoke) {
            if spec.kind == ExperimentKind::Parameters {
                continue; // listing only, nothing runs
            }
            match spec.problem {
                ProblemSpec::SparseLinear { n, .. } => assert!(n <= 2_000),
                ProblemSpec::Ring { blocks, .. } => assert!(blocks <= 256),
                ProblemSpec::Chemical { grid, .. } => assert!(grid <= 30),
            }
            assert!(spec.block_sweep.iter().all(|&b| b <= 256));
        }
    }

    #[test]
    fn full_fidelity_matches_the_historical_binary_defaults() {
        let scale = ExperimentScale::scaled();
        let specs = registry(&scale, Fidelity::Full);
        // scale_pool deliberately outgrew its historical 1024-block default:
        // the full-fidelity cell is 4096 blocks over an 8-worker pool.
        assert_eq!(
            specs[2].problem,
            ProblemSpec::Ring {
                blocks: 4096,
                cost_secs: 1e-6
            }
        );
        assert_eq!(specs[2].workers, Some(8));
        assert_eq!(specs[3].block_sweep, vec![64, 128, 256, 512, 1024]);
    }

    #[test]
    fn service_load_carries_its_invariants_and_traffic() {
        for fidelity in [Fidelity::Smoke, Fidelity::Full] {
            let spec = service_load_spec(fidelity);
            assert_eq!(spec.kind, ExperimentKind::ServiceLoad);
            let load = spec.service.as_ref().expect("service load spec");
            assert!(load.service.validate().is_ok());
            assert!(
                load.traffic.initial_burst > 1_000,
                "the opening burst is what guarantees MinPeakInFlight"
            );
            assert!(spec
                .checks
                .iter()
                .any(|c| matches!(c, Check::MinPeakInFlight { jobs } if *jobs >= 1_000)));
            assert!(spec.checks.contains(&Check::NoLostJobs));
            assert!(spec.checks.contains(&Check::InFlightBounded));
            assert!(spec
                .checks
                .iter()
                .any(|c| matches!(c, Check::FairnessBounded { max_ratio } if *max_ratio > 1.0)));
        }
    }

    #[test]
    fn parameter_listing_names_paper_and_run_sizes() {
        let listing = parameter_listing(&ExperimentScale::scaled());
        assert_eq!(listing.len(), 2);
        assert!(listing[0].0.contains("Sparse"));
        assert!(listing[0]
            .1
            .iter()
            .any(|(k, v)| k.contains("paper") && v.contains("2000000")));
    }

    #[test]
    fn specs_round_trip_through_json() {
        let scale = ExperimentScale::scaled();
        for spec in registry(&scale, Fidelity::Smoke) {
            let text = serde_json::to_string(&spec).unwrap();
            let back: ExperimentSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn platform_specs_build_their_topologies() {
        assert_eq!(
            PlatformSpec::Ethernet3Sites { hosts: 6 }.label(),
            "ethernet-3-sites"
        );
        assert_eq!(PlatformSpec::Smp.topology(), None);
        assert_eq!(PlatformSpec::Smp.label(), "smp");
        let topo = PlatformSpec::LocalHeteroCluster { hosts: 5 }
            .topology()
            .unwrap();
        assert_eq!(topo.num_hosts(), 5);
    }
}
