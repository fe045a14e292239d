//! Executes [`ExperimentSpec`]s and collects [`BenchRecord`]s.
//!
//! The runner is the only place where a spec meets a runtime: it builds the
//! kernel, picks the back-end each environment profile maps to (simulated
//! grid or real worker pool), repeats the run `warmup + repeats` times,
//! flattens the deterministic [`SimMetrics`] and the wall-clock [`Summary`]
//! into [`MetricSample`]s, and evaluates the spec's [`Check`]s — a failed
//! check lands in the cell's `check_failures`, which the driving binaries
//! turn into a non-zero exit.

use std::time::Instant;

use aiac_core::config::RunConfig;
use aiac_core::depgraph::DependencyGraph;
use aiac_core::kernel::IterativeKernel;
use aiac_core::report::RunReport;
use aiac_core::runtime::simulated::{SimMetrics, SimulatedRuntime};
use aiac_core::runtime::threaded::ThreadedRuntime;
use aiac_envs::profile::EnvProfile;
use aiac_envs::threads::ProblemKind;
use aiac_netsim::topology::GridTopology;
use aiac_obs::MetricsRegistry;
use aiac_service::{run_real_load, run_virtual, LoadReport};
use aiac_solvers::sparse_linear::{SparseLinearParams, SparseLinearProblem};

use crate::harness::record::{
    BenchRecord, CellRecord, ExperimentRecord, MetricDirection, MetricSample,
};
use crate::harness::spec::{Check, ExperimentKind, ExperimentSpec, Fidelity, ProblemSpec};
use crate::harness::stats::Summary;
use crate::scale::{ExperimentScale, ScaleRing};

/// A kernel built from a [`ProblemSpec`]. The sparse problem carries its
/// whole matrix, hence the box keeping the variants comparable in size.
enum Kernel {
    Sparse(Box<SparseLinearProblem>),
    Ring(ScaleRing),
}

impl Kernel {
    fn build(problem: &ProblemSpec, blocks_override: Option<usize>) -> Kernel {
        match *problem {
            ProblemSpec::SparseLinear { n, blocks } => {
                Kernel::Sparse(Box::new(SparseLinearProblem::new(
                    SparseLinearParams::paper_scaled(n, blocks_override.unwrap_or(blocks)),
                )))
            }
            ProblemSpec::Ring { blocks, cost_secs } => {
                Kernel::Ring(ScaleRing::new(blocks_override.unwrap_or(blocks)).with_cost(cost_secs))
            }
            ProblemSpec::Chemical { .. } => panic!(
                "chemical problems run through their own stepping loop and are \
                 not routed through the harness runner yet"
            ),
        }
    }

    fn as_kernel(&self) -> &dyn IterativeKernel {
        match self {
            Kernel::Sparse(p) => p.as_ref(),
            Kernel::Ring(r) => r,
        }
    }

    fn blocks(&self) -> usize {
        self.as_kernel().num_blocks()
    }

    fn problem_kind(&self) -> ProblemKind {
        // Both harness problems follow the sparse-linear communication
        // scheme of Table 4 (the chemical scheme is neighbour-only).
        ProblemKind::SparseLinear
    }
}

/// The run configuration for one cell under `spec`'s thresholds.
fn config_for_mode(synchronous: bool, spec: &ExperimentSpec) -> RunConfig {
    let mut config = if synchronous {
        RunConfig::synchronous(spec.epsilon)
    } else {
        RunConfig::asynchronous(spec.epsilon).with_streak(spec.streak)
    };
    if let Some(workers) = spec.workers {
        config = config.with_num_workers(workers);
    }
    config
}

/// The run configuration a profile uses under `spec`'s thresholds.
fn config_for(profile: EnvProfile, spec: &ExperimentSpec) -> RunConfig {
    config_for_mode(profile.is_synchronous(), spec)
}

/// Flattens the deterministic simulated-clock metrics into samples.
fn sim_metric_samples(sim: &SimMetrics) -> Vec<MetricSample> {
    vec![
        MetricSample::gauge("sim_time_secs", sim.sim_time_secs),
        MetricSample::gauge("cpu_queue_secs", sim.cpu_queue_secs),
        MetricSample::gauge("cpu_busy_secs", sim.cpu_busy_secs),
        MetricSample::gauge("net_queue_secs", sim.net_queue_secs),
        MetricSample::gauge("data_messages", sim.data_messages as f64),
        MetricSample::gauge("control_messages", sim.control_messages as f64),
        MetricSample::gauge("data_bytes", sim.data_bytes as f64),
        MetricSample::gauge("total_iterations", sim.total_iterations as f64),
        MetricSample::gauge("max_iterations", sim.max_iterations as f64),
        MetricSample::info("mean_utilization", sim.mean_utilization),
        MetricSample::info("max_colocation", sim.max_colocation as f64),
    ]
}

/// Renders every entry of a registry snapshot as a metric sample.
///
/// This is the one bridge between the observability plane's
/// [`MetricsRegistry`] and the bench-record schema: the reports build
/// their registry (`RunReport::metrics_registry`,
/// `LoadReport::metrics_registry`) and the harness renders *all* of it, so
/// a counter registered there becomes a bench metric — and, when flagged
/// deterministic with a non-informational direction, a gateable one — with
/// no hand-maintained name list here.
fn registry_samples(registry: &MetricsRegistry) -> Vec<MetricSample> {
    registry
        .snapshot()
        .iter()
        .map(|e| MetricSample {
            name: e.name.to_string(),
            value: e.value,
            deterministic: e.deterministic,
            direction: match e.direction {
                aiac_obs::MetricDirection::LowerIsBetter => MetricDirection::LowerIsBetter,
                aiac_obs::MetricDirection::HigherIsBetter => MetricDirection::HigherIsBetter,
                aiac_obs::MetricDirection::Informational => MetricDirection::Informational,
            },
        })
        .collect()
}

/// Flattens a wall-clock summary into (nondeterministic) samples.
fn wall_samples(summary: &Summary) -> Vec<MetricSample> {
    vec![
        MetricSample::wall("wall_min_secs", summary.min),
        MetricSample::wall("wall_median_secs", summary.median),
        MetricSample::wall("wall_p95_secs", summary.p95),
        MetricSample::wall("wall_p99_secs", summary.p99),
    ]
}

/// One executed cell, keeping the raw report around for check evaluation.
struct CellOutcome {
    record: CellRecord,
    report: Option<RunReport>,
    sim: Option<SimMetrics>,
}

impl CellOutcome {
    fn fail(&mut self, message: String) {
        self.record.check_failures.push(message);
    }
}

/// Runs one cell on the simulated runtime, measuring wall time over
/// `warmup + repeats` repetitions (the simulation itself is deterministic,
/// so the virtual metrics come from the last repetition).
fn run_simulated_cell(
    cell_key: &str,
    kernel: &Kernel,
    topology: &GridTopology,
    profile: EnvProfile,
    placement: Option<aiac_core::placement::PlacementPolicy>,
    spec: &ExperimentSpec,
) -> CellOutcome {
    let env_kind = profile
        .env_kind()
        .expect("simulated cells use grid profiles");
    let config = config_for(profile, spec);
    let mut runtime = SimulatedRuntime::new(topology.clone(), env_kind, kernel.problem_kind());
    if let Some(policy) = placement {
        runtime = runtime.with_placement(policy);
    }
    let mut walls = Vec::with_capacity(spec.repeats);
    let mut last = None;
    for rep in 0..(spec.warmup + spec.repeats.max(1)) {
        let start = Instant::now();
        let outcome = runtime.run(kernel.as_kernel(), &config);
        let wall = start.elapsed().as_secs_f64();
        if rep >= spec.warmup {
            walls.push(wall);
        }
        last = Some(outcome);
    }
    let outcome = last.expect("at least one repetition ran");
    let sim = outcome.metrics();
    let mut metrics = sim_metric_samples(&sim);
    metrics.extend(wall_samples(
        &Summary::from_samples(&walls).expect("wall samples are non-empty and non-NaN"),
    ));
    CellOutcome {
        record: CellRecord {
            cell: cell_key.to_string(),
            env: profile.slug().to_string(),
            blocks: kernel.blocks(),
            metrics,
            check_failures: Vec::new(),
        },
        report: Some(outcome.report),
        sim: Some(sim),
    }
}

/// Runs one cell on the real threaded executor. Everything measured here is
/// wall-clock or scheduling-dependent, so only structurally deterministic
/// quantities (edge counts) are marked gateable.
fn run_threaded_cell(
    cell_key: &str,
    kernel: &Kernel,
    profile: EnvProfile,
    synchronous: bool,
    spec: &ExperimentSpec,
) -> CellOutcome {
    let config = config_for_mode(synchronous, spec);
    let runtime = ThreadedRuntime::new();
    let mut walls = Vec::with_capacity(spec.repeats);
    let mut last: Option<RunReport> = None;
    let mut run_error = None;
    for rep in 0..(spec.warmup + spec.repeats.max(1)) {
        let start = Instant::now();
        match runtime.try_run(kernel.as_kernel(), &config) {
            Ok(report) => {
                let wall = start.elapsed().as_secs_f64();
                if rep >= spec.warmup {
                    walls.push(wall);
                }
                last = Some(report);
            }
            Err(err) => {
                run_error = Some(err.to_string());
                break;
            }
        }
    }
    // An invalid config (e.g. an explicit zero worker count) already failed
    // `try_run` above; resolving the pool size would assert, so report the
    // unresolved placeholder instead.
    let workers = match config.try_validate() {
        Ok(()) => config.effective_num_workers(kernel.blocks()),
        Err(_) => 0,
    };
    let edges = DependencyGraph::from_kernel(kernel.as_kernel()).num_edges();
    let mut metrics = vec![
        MetricSample::info("edges", edges as f64),
        MetricSample::info("workers", workers as f64),
    ];
    if !walls.is_empty() {
        metrics.extend(wall_samples(
            &Summary::from_samples(&walls).expect("wall samples are non-NaN"),
        ));
    }
    if let Some(report) = &last {
        // The report knows which of its counters are gateable (structural
        // zero-copy counts always; the scheduler counters only on the
        // synchronous static partition, where they are structural zeros) —
        // the harness just renders the snapshot.
        metrics.extend(registry_samples(&report.metrics_registry(synchronous)));
    }
    let mut outcome = CellOutcome {
        record: CellRecord {
            cell: cell_key.to_string(),
            env: profile.slug().to_string(),
            blocks: kernel.blocks(),
            metrics,
            check_failures: Vec::new(),
        },
        report: last,
        sim: None,
    };
    if let Some(err) = run_error {
        outcome.fail(format!("run failed: {err}"));
    }
    outcome
}

/// Evaluates the per-cell checks (convergence, fixed point, solution error,
/// mailbox bound, zero-copy). Cross-cell checks are handled by the
/// kind-specific drivers below.
fn apply_cell_checks(outcome: &mut CellOutcome, kernel: &Kernel, spec: &ExperimentSpec) {
    let Some(report) = outcome.report.as_ref() else {
        return;
    };
    // Failures are collected locally so the (large) report can stay
    // borrowed instead of being cloned per cell.
    let mut failures = Vec::new();
    for check in &spec.checks {
        match check {
            Check::Converged => {
                if !report.converged {
                    failures.push(format!(
                        "did not converge (final residual {:.3e}{})",
                        report.final_residual,
                        if report.premature_stop {
                            ", premature stop"
                        } else {
                            ""
                        }
                    ));
                }
            }
            Check::FixedPoint { tolerance } => {
                if let Kernel::Ring(ring) = kernel {
                    let max_err = report
                        .solution
                        .iter()
                        .map(|v| (v - ring.fixed_point()).abs())
                        .fold(0.0f64, f64::max);
                    if max_err > *tolerance {
                        failures.push(format!(
                            "missed the fixed point: max error {max_err:.3e} > {tolerance:.1e}"
                        ));
                    }
                }
            }
            Check::SolutionError { tolerance } => {
                if let Kernel::Sparse(problem) = kernel {
                    let err = problem.error_of(&report.solution);
                    if err > *tolerance {
                        failures.push(format!("solution error {err:.3e} exceeds {tolerance:.1e}"));
                    }
                }
            }
            Check::MailboxBound => {
                let edges = DependencyGraph::from_kernel(kernel.as_kernel()).num_edges() as u64;
                if report.peak_mailbox_occupancy > edges {
                    failures.push(format!(
                        "exceeded the O(edges) bound: {} slots > {edges} edges",
                        report.peak_mailbox_occupancy
                    ));
                }
            }
            Check::ZeroCopy => {
                if report.payload_clones > 0 {
                    failures.push(format!(
                        "data plane copied payloads: {} clones ({} bytes)",
                        report.payload_clones, report.bytes_copied
                    ));
                }
            }
            // Cross-cell checks, evaluated by the experiment drivers — and
            // the service-load checks, evaluated on LoadReports rather than
            // RunReports by `apply_service_checks`.
            Check::AsyncBeatsSync
            | Check::SpeedWeightedBeatsRoundRobin
            | Check::NoLostJobs
            | Check::InFlightBounded
            | Check::MinPeakInFlight { .. }
            | Check::FairnessBounded { .. } => {}
        }
    }
    outcome.record.check_failures.extend(failures);
}

/// The Table 1 record: the spec's parameters as informational metrics.
fn run_parameters(spec: &ExperimentSpec) -> ExperimentRecord {
    let mut metrics = vec![
        MetricSample::info("epsilon", spec.epsilon),
        MetricSample::info("streak", spec.streak as f64),
    ];
    match spec.problem {
        ProblemSpec::SparseLinear { n, blocks } => {
            metrics.push(MetricSample::info("sparse_n", n as f64));
            metrics.push(MetricSample::info("blocks", blocks as f64));
        }
        ProblemSpec::Chemical {
            grid,
            blocks,
            t_end,
        } => {
            metrics.push(MetricSample::info("chem_grid", grid as f64));
            metrics.push(MetricSample::info("blocks", blocks as f64));
            metrics.push(MetricSample::info("t_end_secs", t_end));
        }
        ProblemSpec::Ring { blocks, cost_secs } => {
            metrics.push(MetricSample::info("blocks", blocks as f64));
            metrics.push(MetricSample::info("iteration_cost_secs", cost_secs));
        }
    }
    ExperimentRecord {
        experiment: spec.name.clone(),
        cells: vec![CellRecord {
            cell: "parameters".to_string(),
            env: "none".to_string(),
            blocks: spec.problem.blocks(),
            metrics,
            check_failures: Vec::new(),
        }],
    }
}

/// The Table 2 driver: one cell per profile, speed ratios against the
/// synchronous baseline, async-beats-sync verified on virtual time.
fn run_env_comparison(spec: &ExperimentSpec) -> ExperimentRecord {
    let kernel = Kernel::build(&spec.problem, None);
    let topology = spec.platform.topology();
    let mut outcomes: Vec<CellOutcome> = Vec::new();
    for &profile in &spec.profiles {
        let mut outcome = if profile.is_simulated() {
            let topo = topology
                .as_ref()
                .expect("grid profiles need a simulated platform");
            run_simulated_cell(profile.slug(), &kernel, topo, profile, None, spec)
        } else {
            run_threaded_cell(profile.slug(), &kernel, profile, false, spec)
        };
        apply_cell_checks(&mut outcome, &kernel, spec);
        outcomes.push(outcome);
    }

    // Speed ratios and the async-beats-sync check hang off the synchronous
    // baseline's virtual time.
    let sync_time = outcomes
        .iter()
        .find(|o| o.record.env == EnvProfile::SyncMpi.slug())
        .and_then(|o| o.sim.as_ref())
        .map(|sim| sim.sim_time_secs);
    if let Some(sync_time) = sync_time {
        let check_async = spec.checks.contains(&Check::AsyncBeatsSync);
        for outcome in outcomes.iter_mut() {
            let Some(sim) = outcome.sim.as_ref() else {
                continue;
            };
            let time = sim.sim_time_secs;
            if time > 0.0 {
                outcome
                    .record
                    .metrics
                    .push(MetricSample::gauge("speed_ratio", sync_time / time).higher_is_better());
            }
            let is_async = outcome.record.env != EnvProfile::SyncMpi.slug();
            if check_async && is_async && time >= sync_time {
                outcome.fail(format!(
                    "async virtual time {time:.1} s did not beat sync {sync_time:.1} s"
                ));
            }
        }
    }
    ExperimentRecord {
        experiment: spec.name.clone(),
        cells: outcomes.into_iter().map(|o| o.record).collect(),
    }
}

/// The `scale_pool` driver: synchronous supersteps and the asynchronous
/// pool over the real worker threads, each cell checked on its own (fixed
/// point, O(edges) mailbox bound, zero-copy).
fn run_pool_scale(spec: &ExperimentSpec) -> ExperimentRecord {
    let kernel = Kernel::build(&spec.problem, None);
    let profile = *spec
        .profiles
        .first()
        .expect("pool-scale specs name a profile");
    let cells = [("sync", true), ("async", false)]
        .into_iter()
        .map(|(key, synchronous)| {
            let mut outcome = run_threaded_cell(key, &kernel, profile, synchronous, spec);
            apply_cell_checks(&mut outcome, &kernel, spec);
            outcome.record
        })
        .collect();
    ExperimentRecord {
        experiment: spec.name.clone(),
        cells,
    }
}

/// The `oversub` driver: block-count × placement sweep on the simulated
/// platform, speed-weighted-beats-round-robin verified per block count.
fn run_placement_sweep(spec: &ExperimentSpec) -> ExperimentRecord {
    use aiac_core::placement::PlacementPolicy;
    let profile = *spec
        .profiles
        .first()
        .expect("placement sweeps name a profile");
    let topology = spec
        .platform
        .topology()
        .expect("placement sweeps need a simulated platform");
    let block_counts: Vec<usize> = if spec.block_sweep.is_empty() {
        vec![spec.problem.blocks()]
    } else {
        spec.block_sweep.clone()
    };
    let check_speed = spec.checks.contains(&Check::SpeedWeightedBeatsRoundRobin);
    let mut cells = Vec::new();
    for &blocks in &block_counts {
        let kernel = Kernel::build(&spec.problem, Some(blocks));
        let mut row: Vec<CellOutcome> = Vec::new();
        for &policy in &spec.placements {
            let key = format!("{blocks}-blocks/{}", policy.label());
            let mut outcome =
                run_simulated_cell(&key, &kernel, &topology, profile, Some(policy), spec);
            apply_cell_checks(&mut outcome, &kernel, spec);
            row.push(outcome);
        }
        if check_speed {
            let time_of = |policy: PlacementPolicy, row: &[CellOutcome]| {
                row.iter()
                    .find(|o| o.record.cell.ends_with(policy.label()))
                    .and_then(|o| o.sim.as_ref())
                    .map(|sim| sim.sim_time_secs)
            };
            if let (Some(rr), Some(sw)) = (
                time_of(PlacementPolicy::RoundRobin, &row),
                time_of(PlacementPolicy::SpeedWeighted, &row),
            ) {
                if sw >= rr {
                    if let Some(outcome) = row.iter_mut().find(|o| {
                        o.record
                            .cell
                            .ends_with(PlacementPolicy::SpeedWeighted.label())
                    }) {
                        outcome.fail(format!(
                            "speed-weighted ({sw:.2} s) failed to beat round-robin \
                             ({rr:.2} s) at {blocks} blocks"
                        ));
                    }
                }
            }
        }
        cells.extend(row.into_iter().map(|o| o.record));
    }
    ExperimentRecord {
        experiment: spec.name.clone(),
        cells,
    }
}

/// Evaluates the service-load checks against a [`LoadReport`] (virtual or
/// real — both cells carry the same invariants).
fn apply_service_checks(cell: &mut CellRecord, report: &LoadReport, spec: &ExperimentSpec) {
    for check in &spec.checks {
        match check {
            Check::NoLostJobs if report.lost() != 0 => {
                cell.check_failures.push(format!(
                    "{} of {} jobs were neither completed nor rejected",
                    report.lost(),
                    report.generated
                ));
            }
            Check::InFlightBounded if report.peak_in_flight > report.in_flight_bound => {
                cell.check_failures.push(format!(
                    "peak in-flight {} breached the admission bound {}",
                    report.peak_in_flight, report.in_flight_bound
                ));
            }
            Check::MinPeakInFlight { jobs } if report.peak_in_flight < *jobs => {
                cell.check_failures.push(format!(
                    "peak in-flight {} never reached the required {jobs} \
                     concurrent jobs",
                    report.peak_in_flight
                ));
            }
            Check::FairnessBounded { max_ratio } if report.fairness_ratio() > *max_ratio => {
                cell.check_failures.push(format!(
                    "per-tenant goodput ratio {:.2} exceeds {max_ratio:.2} \
                     (a tenant is starving)",
                    report.fairness_ratio()
                ));
            }
            // Satisfied service checks and solver-run checks (the latter
            // are evaluated by `apply_cell_checks`).
            _ => {}
        }
    }
}

/// Latency percentiles of a load report as metric samples. Virtual-clock
/// latencies are deterministic and gateable; wall-clock ones are not.
fn latency_samples(report: &LoadReport, deterministic: bool) -> Vec<MetricSample> {
    let Ok(summary) = Summary::from_samples(&report.latencies) else {
        return Vec::new();
    };
    let sample = |name: &str, value: f64| {
        if deterministic {
            MetricSample::gauge(name, value)
        } else {
            MetricSample::wall(name, value)
        }
    };
    vec![
        sample("latency_p50_secs", summary.median),
        sample("latency_p95_secs", summary.p95),
        sample("latency_p99_secs", summary.p99),
    ]
}

/// The gauges and bookkeeping counters of one load cell, rendered from the
/// report's own registry, plus the latency percentiles (computed here —
/// [`Summary`] lives in the harness).
fn service_samples(report: &LoadReport, deterministic: bool) -> Vec<MetricSample> {
    let mut metrics = registry_samples(&report.metrics_registry(deterministic));
    metrics.extend(latency_samples(report, deterministic));
    metrics
}

/// The `service_load` driver: replays the spec's traffic twice — once on
/// the virtual clock (deterministic, gateable latency/throughput/fairness/
/// cache metrics) and once on the real worker pool (wall-clock,
/// informational) — and verifies the service invariants on both cells.
fn run_service_load(spec: &ExperimentSpec) -> ExperimentRecord {
    let load = spec
        .service
        .as_ref()
        .expect("service-load specs carry a LoadSpec");
    let profile = spec
        .profiles
        .first()
        .copied()
        .unwrap_or(EnvProfile::LocalThreads);

    let virt = run_virtual(load);
    let metrics = service_samples(&virt, true);
    let mut virtual_cell = CellRecord {
        cell: "virtual".to_string(),
        env: profile.slug().to_string(),
        blocks: spec.problem.blocks(),
        metrics,
        check_failures: Vec::new(),
    };
    apply_service_checks(&mut virtual_cell, &virt, spec);

    let real = run_real_load(&load.service, &load.traffic);
    let metrics = service_samples(&real, false);
    let mut real_cell = CellRecord {
        cell: "real".to_string(),
        env: profile.slug().to_string(),
        blocks: spec.problem.blocks(),
        metrics,
        check_failures: Vec::new(),
    };
    apply_service_checks(&mut real_cell, &real, spec);

    ExperimentRecord {
        experiment: spec.name.clone(),
        cells: vec![virtual_cell, real_cell],
    }
}

/// Executes one spec.
pub fn run_spec(spec: &ExperimentSpec) -> ExperimentRecord {
    match spec.kind {
        ExperimentKind::Parameters => run_parameters(spec),
        ExperimentKind::EnvComparison => run_env_comparison(spec),
        ExperimentKind::PoolScale => run_pool_scale(spec),
        ExperimentKind::PlacementSweep => run_placement_sweep(spec),
        ExperimentKind::ServiceLoad => run_service_load(spec),
    }
}

/// Executes a list of specs into one [`BenchRecord`].
pub fn run_specs(specs: &[ExperimentSpec], suite: &str, full_scale: bool) -> BenchRecord {
    let mut record = BenchRecord::new(suite, full_scale);
    for spec in specs {
        record.experiments.push(run_spec(spec));
    }
    record
}

/// Executes the standing registry at `fidelity` (see
/// [`crate::harness::spec::registry`]).
pub fn run_registry(scale: &ExperimentScale, fidelity: Fidelity) -> BenchRecord {
    let specs = crate::harness::spec::registry(scale, fidelity);
    run_specs(&specs, fidelity.suite(), scale.full_scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::spec;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale::scaled()
    }

    #[test]
    fn parameters_record_carries_the_problem_sizes() {
        let record = run_spec(&spec::table1_spec(&tiny_scale()));
        assert_eq!(record.experiment, "table1");
        let cell = record.cell("parameters").unwrap();
        assert_eq!(cell.metric("sparse_n").unwrap().value, 6_000.0);
        assert!(cell.check_failures.is_empty());
    }

    #[test]
    fn env_comparison_produces_gateable_metrics_and_speed_ratios() {
        let record = run_spec(&spec::table2_spec(240, 6, &tiny_scale()));
        assert_eq!(record.cells.len(), 4);
        let sync = record.cell("sync-mpi").unwrap();
        assert!(sync.metric("sim_time_secs").unwrap().deterministic);
        assert!((sync.metric("speed_ratio").unwrap().value - 1.0).abs() < 1e-12);
        for cell in &record.cells {
            assert!(cell.check_failures.is_empty(), "{:?}", cell.check_failures);
            let ratio = cell.metric("speed_ratio").unwrap().value;
            if cell.env != "sync-mpi" {
                assert!(ratio > 1.0, "{}: ratio {ratio}", cell.cell);
            }
        }
    }

    #[test]
    fn env_comparison_runs_are_reproducible() {
        let s = spec::table2_spec(240, 6, &tiny_scale());
        let a = run_spec(&s);
        let b = run_spec(&s);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            for (ma, mb) in ca.metrics.iter().zip(&cb.metrics) {
                if ma.deterministic {
                    assert_eq!(ma.value, mb.value, "{}/{}", ca.cell, ma.name);
                }
            }
        }
    }

    #[test]
    fn pool_scale_checks_the_fixed_point_and_the_mailbox_bound() {
        let record = run_spec(&spec::scale_pool_spec(32, Some(2)));
        assert_eq!(record.cells.len(), 2);
        for cell in &record.cells {
            assert!(
                cell.check_failures.is_empty(),
                "{}: {:?}",
                cell.cell,
                cell.check_failures
            );
            assert_eq!(cell.metric("edges").unwrap().value, 64.0);
            assert!(cell.metric("wall_median_secs").is_some());
        }
        // the sync cell's park count is a structural zero, gateable; the
        // async cell's depends on the interleaving
        let parks = |cell: &str| {
            record
                .cell(cell)
                .unwrap()
                .metric("queue_wait_events")
                .unwrap()
        };
        assert!(parks("sync").deterministic);
        assert_eq!(parks("sync").value, 0.0);
        assert!(!parks("async").deterministic);
    }

    #[test]
    fn placement_sweep_keys_cells_by_blocks_and_policy() {
        let record = run_spec(&spec::oversub_spec(&[16]));
        assert_eq!(record.cells.len(), 3);
        assert!(record.cell("16-blocks/round-robin").is_some());
        assert!(record.cell("16-blocks/speed-weighted").is_some());
        for cell in &record.cells {
            assert!(cell.check_failures.is_empty(), "{:?}", cell.check_failures);
        }
    }

    #[test]
    fn service_load_produces_gateable_virtual_metrics_and_passes_its_checks() {
        let record = run_spec(&spec::service_load_spec(Fidelity::Smoke));
        assert_eq!(record.experiment, "service_load");
        assert_eq!(record.cells.len(), 2);

        let virt = record.cell("virtual").unwrap();
        assert!(
            virt.check_failures.is_empty(),
            "virtual cell: {:?}",
            virt.check_failures
        );
        for name in [
            "throughput_jobs_per_sec",
            "latency_p50_secs",
            "latency_p95_secs",
            "latency_p99_secs",
            "fairness_ratio",
            "cache_hit_rate",
            "rejection_rate",
        ] {
            let sample = virt.metric(name).unwrap();
            assert!(sample.deterministic, "{name} must be gateable");
            assert!(sample.value.is_finite(), "{name} must be finite");
        }
        assert!(virt.metric("peak_in_flight").unwrap().value >= 1_000.0);

        let real = record.cell("real").unwrap();
        assert!(
            real.check_failures.is_empty(),
            "real cell: {:?}",
            real.check_failures
        );
        assert!(!real.metric("latency_p99_secs").unwrap().deterministic);
        assert!(real.metric("peak_in_flight").unwrap().value >= 1_000.0);
        assert_eq!(
            real.metric("jobs_generated").unwrap().value,
            virt.metric("jobs_generated").unwrap().value,
            "both cells replay the same stream"
        );
    }

    #[test]
    fn service_load_virtual_cell_is_reproducible() {
        let s = spec::service_load_spec(Fidelity::Smoke);
        let a = run_spec(&s);
        let b = run_spec(&s);
        let (va, vb) = (a.cell("virtual").unwrap(), b.cell("virtual").unwrap());
        for (ma, mb) in va.metrics.iter().zip(&vb.metrics) {
            if ma.deterministic {
                assert_eq!(ma.value, mb.value, "{}", ma.name);
            }
        }
    }

    #[test]
    fn invalid_worker_counts_surface_as_check_failures_not_panics() {
        let s = spec::scale_pool_spec(8, Some(0));
        let record = run_spec(&s);
        assert!(!record.cells.is_empty());
        assert!(record.cells.iter().any(|c| !c.check_failures.is_empty()));
    }
}
