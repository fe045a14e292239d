//! The simulated runtime: virtual-time execution over a grid model.
//!
//! The paper's measurements were taken on multi-site grids (10 Mb Ethernet,
//! consumer ADSL) and on a 40-machine heterogeneous cluster; none of that
//! hardware is available, so this back-end replays the same algorithms in
//! *virtual time* over an [`aiac_netsim::topology::GridTopology`] and an
//! [`aiac_envs::env::Environment`] model:
//!
//! * blocks are assigned to hosts by a [`Placement`] policy (round-robin,
//!   site-packed or speed-weighted, selectable through
//!   [`RunConfig::placement`] or [`SimulatedRuntime::with_placement`]);
//! * compute phases take `iteration_cost / host speed` virtual seconds *and
//!   occupy a CPU core*: a host has finitely many cores
//!   ([`aiac_netsim::host::Host::cores`]), so when more blocks than cores
//!   share a machine their compute phases are serialised FIFO by the
//!   [`aiac_netsim::sched::HostScheduler`] instead of all running at full
//!   speed — this is what makes oversubscribed timings honest;
//! * data messages pay the environment's packing cost (serialised according
//!   to the Table 4 thread configuration), the network transfer time with
//!   FIFO contention ([`aiac_netsim::network::Network`]) and the receiver's
//!   dispatch cost; dedicated receiving-thread pools are a *per-host*
//!   resource shared by every co-located block, so reception contends
//!   realistically too;
//! * the synchronous mode inserts the global exchange and barrier of Figure 1
//!   between iterations;
//! * the asynchronous mode runs every processor at its own pace and stops it
//!   only when the centralized detector's stop message reaches it, exactly as
//!   in Section 4.3 — and the final report is verified against the assembled
//!   residual, so a stop decided while a de-convergence report was in flight
//!   is flagged as [`RunReport::premature_stop`] rather than declared
//!   converged.
//!
//! The whole simulation is deterministic, which is what lets the benchmark
//! harness regenerate Tables 2–3 and Figure 3 reproducibly.

use crate::block::BlockState;
use crate::config::{ExecutionMode, RunConfig};
use crate::convergence::{GlobalDetector, LocalConvergence};
use crate::depgraph::DependencyGraph;
use crate::kernel::{IterativeKernel, Payload};
use crate::placement::{Placement, PlacementPolicy};
use crate::report::RunReport;
use aiac_envs::env::{EnvKind, Environment};
use aiac_envs::threads::{ProblemKind, ReceiveDiscipline, ThreadConfig};
use aiac_netsim::host::HostId;
use aiac_netsim::network::{Network, NetworkStats};
use aiac_netsim::sched::{HostLoad, HostScheduler};
use aiac_netsim::sim::Simulator;
use aiac_netsim::time::SimTime;
use aiac_netsim::topology::GridTopology;
use aiac_obs::{Layer, TraceSnapshot, Tracer, TrackRecorder};
use serde::{Deserialize, Serialize};

/// Size in bytes of a convergence-state or stop control message on the wire.
const CONTROL_BYTES: u64 = 16;

/// A virtual instant as integer nanoseconds for the event tracer. The
/// rounding is a pure function of the (deterministic) virtual clock, which
/// is what makes traced simulated runs bit-identical across machines.
fn sim_ns(t: SimTime) -> u64 {
    (t.as_secs() * 1e9).round() as u64
}

/// One event recorder per host of the topology, on the netsim layer.
fn host_recorders(tracer: &Tracer, topology: &GridTopology) -> Vec<TrackRecorder> {
    (0..topology.num_hosts())
        .map(|h| tracer.recorder(Layer::Netsim, format!("host-{h}"), h as u64))
        .collect()
}

/// The deterministic, serialisable metrics of a simulated run.
///
/// Everything here is a pure function of the kernel, the configuration, the
/// topology and the environment model — the simulation involves no
/// wall-clock time and no OS scheduling, so two runs of the same experiment
/// produce bit-identical values on any machine. That is what makes these
/// metrics *gateable*: the benchmark harness records them in
/// `BENCH_baseline.json` and CI fails when a PR moves one beyond tolerance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Final virtual time of the run, in seconds.
    pub sim_time_secs: f64,
    /// Total virtual seconds jobs waited for a free CPU core or dedicated
    /// receiving thread (see [`RunReport::cpu_queue_secs`]).
    pub cpu_queue_secs: f64,
    /// Total virtual core-busy seconds across every host.
    pub cpu_busy_secs: f64,
    /// Total virtual seconds messages queued behind other transfers.
    pub net_queue_secs: f64,
    /// Number of data messages sent.
    pub data_messages: u64,
    /// Number of control (state / stop) messages sent.
    pub control_messages: u64,
    /// Total application payload bytes carried by data messages.
    pub data_bytes: u64,
    /// Sum of the local iteration counts of every block.
    pub total_iterations: u64,
    /// Largest local iteration count of any block.
    pub max_iterations: u64,
    /// Mean per-host CPU utilization over the run (0–1).
    pub mean_utilization: f64,
    /// Largest number of blocks co-located on one host.
    pub max_colocation: usize,
    /// Whether the run converged (see [`RunReport::converged`]).
    pub converged: bool,
    /// Whether the stop decision was premature (see
    /// [`RunReport::premature_stop`]).
    pub premature_stop: bool,
}

/// Result of a simulated run: the usual report plus simulation-only
/// information (virtual time, network statistics, per-host CPU loads, the
/// placement that was used and the per-host event trace).
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// The standard run report; `elapsed_secs` holds the *virtual* time.
    pub report: RunReport,
    /// Final virtual time of the run.
    pub sim_time: SimTime,
    /// Network transfer statistics.
    pub network: NetworkStats,
    /// Per-host CPU load over the run: busy time, core-queueing delay, job
    /// count and utilization, in host order.
    pub host_loads: Vec<HostLoad>,
    /// The block → host assignment the run executed under.
    pub placement: Placement,
    /// Per-host event timelines on the virtual clock (empty unless
    /// `RunConfig::tracing` enables recording). Timestamps are virtual
    /// nanoseconds, so the exported trace is bit-identical across runs.
    /// Its `compute` / `cpu_wait` / `send` spans are the execution flow of
    /// the paper's Figures 1 and 2.
    pub obs_trace: TraceSnapshot,
}

impl SimulationOutcome {
    /// Collapses the outcome into its deterministic, serialisable metrics
    /// (see [`SimMetrics`]).
    pub fn metrics(&self) -> SimMetrics {
        let mean_utilization = if self.host_loads.is_empty() {
            0.0
        } else {
            self.host_loads.iter().map(|l| l.utilization).sum::<f64>()
                / self.host_loads.len() as f64
        };
        SimMetrics {
            sim_time_secs: self.sim_time.as_secs(),
            cpu_queue_secs: self.report.cpu_queue_secs,
            cpu_busy_secs: self.host_loads.iter().map(|l| l.busy_secs).sum(),
            net_queue_secs: self.network.queueing_secs,
            data_messages: self.report.data_messages,
            control_messages: self.report.control_messages,
            data_bytes: self.report.data_bytes,
            total_iterations: self.report.iterations.iter().sum(),
            max_iterations: self.report.max_iterations(),
            mean_utilization,
            max_colocation: self.placement.max_colocation(),
            converged: self.report.converged,
            premature_stop: self.report.premature_stop,
        }
    }
}

/// Virtual-time executor over a simulated grid.
pub struct SimulatedRuntime {
    topology: GridTopology,
    env: Box<dyn Environment>,
    problem: ProblemKind,
    placement: Option<PlacementPolicy>,
}

impl SimulatedRuntime {
    /// Creates a runtime for the given platform, environment and problem kind
    /// (the problem kind selects the Table 4 thread configuration).
    pub fn new(topology: GridTopology, env: EnvKind, problem: ProblemKind) -> Self {
        Self {
            topology,
            env: env.build(),
            problem,
            placement: None,
        }
    }

    /// Forces a placement policy, overriding whatever the [`RunConfig`]
    /// selects. Useful when the same configuration is swept over several
    /// policies.
    pub fn with_placement(mut self, policy: PlacementPolicy) -> Self {
        self.placement = Some(policy);
        self
    }

    /// The environment model used by this runtime.
    pub fn environment(&self) -> &dyn Environment {
        self.env.as_ref()
    }

    /// The platform used by this runtime.
    pub fn topology(&self) -> &GridTopology {
        &self.topology
    }

    /// The placement policy a run with `config` would use (the runtime-level
    /// override wins over the configuration).
    fn effective_policy(&self, config: &RunConfig) -> PlacementPolicy {
        self.placement.unwrap_or(config.placement)
    }

    /// Runs the kernel and returns the simulation outcome.
    ///
    /// # Panics
    /// Panics if the configuration asks for asynchronous execution on an
    /// environment that does not support it (the mono-threaded MPI model).
    pub fn run(&self, kernel: &dyn IterativeKernel, config: &RunConfig) -> SimulationOutcome {
        config.validate();
        assert!(
            self.topology.num_hosts() > 0,
            "the topology must contain at least one host"
        );
        match config.mode {
            ExecutionMode::Synchronous => self.run_synchronous(kernel, config),
            ExecutionMode::Asynchronous => {
                assert!(
                    self.env.supports_async(),
                    "{} cannot run AIAC algorithms (no multi-threading); \
                     use the synchronous mode or a multi-threaded environment",
                    self.env.name()
                );
                self.run_asynchronous(kernel, config)
            }
        }
    }

    // ------------------------------------------------------------------
    // Synchronous (SISC) simulation
    // ------------------------------------------------------------------

    fn run_synchronous(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
    ) -> SimulationOutcome {
        let m = kernel.num_blocks();
        let graph = DependencyGraph::from_kernel(kernel);
        let placement = Placement::compute(self.effective_policy(config), m, &self.topology);
        let mut network = Network::new(self.topology.clone());
        let mut cpu = HostScheduler::for_topology(&self.topology);
        let tracer = Tracer::new(config.tracing);
        let mut recorders = host_recorders(&tracer, &self.topology);

        let mut states = BlockState::for_run(kernel, &graph);
        let mut iteration_start = SimTime::ZERO;
        let mut iterations = 0u64;
        let mut converged = false;
        let mut worst_residual = f64::INFINITY;
        let mut data_messages = 0u64;
        let mut control_messages = 0u64;
        let mut data_bytes = 0u64;

        while iterations < config.max_iterations as u64 {
            // --- compute phase -------------------------------------------------
            // Every block's update is a job on its host's cores: co-located
            // blocks beyond the core count run one after the other, which is
            // where the oversubscription penalty of Figure 3 comes from.
            let compute_end: Vec<SimTime> = (0..m)
                .map(|b| {
                    let host_id = placement.host_of(b);
                    let host = self.topology.host(host_id);
                    let slot = cpu.schedule(
                        host_id,
                        iteration_start,
                        host.compute_time(kernel.iteration_cost(b)),
                    );
                    let rec = &mut recorders[host_id.0];
                    if slot.start > iteration_start {
                        rec.span_complete(
                            "cpu_wait",
                            sim_ns(iteration_start),
                            sim_ns(slot.start),
                            b as u64,
                        );
                    }
                    rec.span_complete("compute", sim_ns(slot.start), sim_ns(slot.end), b as u64);
                    slot.end
                })
                .collect();

            // Numerically, a synchronous iteration is a Jacobi sweep: all blocks
            // read the values of the previous iteration (a refcount bump per
            // block, not a copy).
            let snapshot: Vec<Payload> = states.iter().map(|s| s.values.clone()).collect();
            for state in states.iter_mut() {
                // copy: refcount bump — the slot shares the producer's front buffer
                state.view.refresh_from(|b| snapshot[b].clone());
            }
            worst_residual = 0.0;
            for state in states.iter_mut() {
                worst_residual = worst_residual.max(state.iterate(kernel));
            }
            iterations += 1;

            // --- global exchange ------------------------------------------------
            // Every block sends its new values to its dependants. Packing and
            // unpacking are CPU work, so they go through the host scheduler
            // too. The synchronous baseline is mono-threaded: once a block
            // gets a core it packs all its outgoing messages back to back,
            // modelled as one batched job so per-host submissions stay in
            // chronological order (the scheduler's FIFO precondition).
            let mut barrier_time = compute_end
                .iter()
                .copied()
                .fold(SimTime::ZERO, SimTime::max);
            // Packing jobs are admitted in readiness order (on multi-core or
            // heterogeneous-cost hosts, compute phases do not finish in block
            // order), and all sends of one iteration are admitted before any
            // reception: the mono-threaded exchange sends first and only then
            // services arrivals, so a host's own sends take priority over
            // unpacking within the iteration.
            let mut pack_order: Vec<usize> = (0..m)
                .filter(|&b| !graph.out_neighbours(b).is_empty())
                .collect();
            pack_order.sort_by_key(|&b| compute_end[b]);
            let mut unpack_jobs: Vec<(SimTime, HostId, SimTime)> = Vec::new();
            for b in pack_order {
                let block_end = compute_end[b];
                let src = placement.host_of(b);
                let messages: Vec<_> = graph
                    .out_neighbours(b)
                    .iter()
                    .map(|&dst_block| {
                        let payload = kernel.message_bytes(b, dst_block) + CONTROL_BYTES;
                        (dst_block, payload, self.env.message_cost(payload))
                    })
                    .collect();
                let total_pack = messages
                    .iter()
                    .fold(SimTime::ZERO, |acc, (_, _, cost)| acc + cost.sender_cpu);
                let pack = cpu.schedule(src, block_end, total_pack);
                let mut send_clock = pack.start;
                for (dst_block, payload, cost) in messages {
                    let dst = placement.host_of(dst_block);
                    send_clock += cost.sender_cpu;
                    let arrival = if src == dst {
                        send_clock
                    } else {
                        network.transfer(src, dst, payload, cost.protocol_bytes, send_clock)
                    };
                    unpack_jobs.push((arrival + cost.dispatch_latency, dst, cost.receiver_cpu));
                    data_messages += 1;
                    data_bytes += payload;
                }
            }
            // Receptions are admitted in arrival order (the sort is stable,
            // so simultaneous arrivals keep a deterministic order): a core
            // must never sit idle in front of an already-arrived message
            // because a later-arriving one was submitted first.
            unpack_jobs.sort_by_key(|job| job.0);
            for (ready, dst, handle_cost) in unpack_jobs {
                let unpack = cpu.schedule(dst, ready, handle_cost);
                let rec = &mut recorders[dst.0];
                rec.instant_at("msg_arrive", sim_ns(ready), 0);
                if unpack.start > ready {
                    rec.span_complete("cpu_wait", sim_ns(ready), sim_ns(unpack.start), 0);
                }
                barrier_time = barrier_time.max(unpack.end);
            }

            // --- synchronisation points -----------------------------------------
            // Every processor reports to processor 0, which broadcasts the
            // verdict: 2·(m−1) small control messages per collective. The
            // kernel says how many such collectives one synchronous iteration
            // needs (one for a plain fixed-point sweep; many for the paper's
            // globally-synchronised Newton/GMRES baseline).
            let coord = placement.host_of(0);
            let mut next_start = barrier_time;
            for _ in 0..kernel.sync_collectives_per_iteration().max(1) {
                let round_start = next_start;
                let mut verdict_time = round_start;
                for b in 1..m {
                    let src = placement.host_of(b);
                    let cost = self.env.message_cost(CONTROL_BYTES);
                    let arrival = if src == coord {
                        round_start + cost.sender_cpu + cost.receiver_cpu
                    } else {
                        network.transfer(
                            src,
                            coord,
                            CONTROL_BYTES,
                            cost.protocol_bytes,
                            round_start,
                        ) + cost.receiver_cpu
                    };
                    verdict_time = verdict_time.max(arrival);
                    control_messages += 1;
                }
                for b in 1..m {
                    let dst = placement.host_of(b);
                    let cost = self.env.message_cost(CONTROL_BYTES);
                    let arrival = if dst == coord {
                        verdict_time + cost.sender_cpu + cost.receiver_cpu
                    } else {
                        network.transfer(
                            coord,
                            dst,
                            CONTROL_BYTES,
                            cost.protocol_bytes,
                            verdict_time,
                        ) + cost.receiver_cpu
                    };
                    next_start = next_start.max(arrival);
                    control_messages += 1;
                }
            }
            iteration_start = next_start;

            if worst_residual < config.epsilon {
                converged = true;
                break;
            }
        }

        let values: Vec<Vec<f64>> = states.iter().map(|s| s.values.to_vec()).collect();
        let report = RunReport {
            mode: ExecutionMode::Synchronous,
            backend: self.env.kind().label().to_string(),
            elapsed_secs: iteration_start.as_secs(),
            iterations: vec![iterations; m],
            data_messages,
            control_messages,
            data_bytes,
            coalesced_messages: 0,
            peak_mailbox_occupancy: 0,
            payload_clones: states.iter().map(|s| s.payload_clones).sum(),
            bytes_copied: states.iter().map(|s| s.bytes_copied).sum(),
            queue_wait_events: 0,
            cpu_queue_secs: cpu.total_queue_secs(),
            converged,
            premature_stop: false,
            solution: kernel.assemble(&values),
            final_residual: worst_residual,
        };
        drop(recorders);
        SimulationOutcome {
            sim_time: iteration_start,
            network: network.stats(),
            host_loads: cpu.loads(iteration_start),
            placement,
            report,
            obs_trace: tracer.snapshot(),
        }
    }

    // ------------------------------------------------------------------
    // Asynchronous (AIAC) simulation
    // ------------------------------------------------------------------

    fn run_asynchronous(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
    ) -> SimulationOutcome {
        let m = kernel.num_blocks();
        let thread_cfg = self.env.thread_config(self.problem, m);
        let placement = Placement::compute(self.effective_policy(config), m, &self.topology);
        // The Table-4 dedicated receiving threads are a per-host resource:
        // every block placed on a machine shares its pool. On-demand schemes
        // spawn a handler per message instead and are modelled as an additive
        // cost below.
        let rx_pools = match thread_cfg.receive {
            ReceiveDiscipline::Dedicated(n) => {
                Some(HostScheduler::uniform(self.topology.num_hosts(), n.max(1)))
            }
            ReceiveDiscipline::OnDemand { .. } => None,
        };
        let tracer = Tracer::new(config.tracing);
        let graph = DependencyGraph::from_kernel(kernel);
        let procs = BlockState::for_run(kernel, &graph)
            .into_iter()
            .map(|state| ProcSim::new(state, &graph, config))
            .collect();
        let mut engine = AsyncEngine {
            kernel,
            config,
            env: self.env.as_ref(),
            topology: &self.topology,
            graph,
            thread_cfg,
            placement,
            network: Network::new(self.topology.clone()),
            sim: Simulator::new(),
            procs,
            detector: GlobalDetector::new(m),
            stats: Stats::default(),
            cpu: HostScheduler::for_topology(&self.topology),
            rx_pools,
            recorders: host_recorders(&tracer, &self.topology),
        };
        engine.run();
        engine.recorders.clear();

        let end_time = engine
            .procs
            .iter()
            .map(|p| p.stop_time.max(p.busy_until))
            .fold(SimTime::ZERO, SimTime::max);
        let values: Vec<Vec<f64>> = engine
            .procs
            .iter()
            .map(|p| p.state.values.to_vec())
            .collect();
        // Honesty check on the stop decision: the centralized detector's
        // verdict is final even when a de-convergence report is still in
        // flight, so the assembled residual is verified here. A decided run
        // whose final residual is at or above ε stopped prematurely and must
        // not claim convergence.
        let worst_residual = engine
            .procs
            .iter()
            .map(|p| p.reported_residual)
            .fold(0.0, f64::max);
        let decided = engine.detector.is_decided();
        let premature = decided && worst_residual >= config.epsilon;
        let cpu_queue_secs = engine.cpu.total_queue_secs()
            + engine
                .rx_pools
                .as_ref()
                .map_or(0.0, |rx| rx.total_queue_secs());
        let report = RunReport {
            mode: ExecutionMode::Asynchronous,
            backend: self.env.kind().label().to_string(),
            elapsed_secs: end_time.as_secs(),
            iterations: engine.procs.iter().map(|p| p.state.iteration).collect(),
            data_messages: engine.stats.data_messages,
            control_messages: engine.stats.control_messages,
            data_bytes: engine.stats.data_bytes,
            coalesced_messages: 0,
            peak_mailbox_occupancy: 0,
            payload_clones: engine.procs.iter().map(|p| p.state.payload_clones).sum(),
            bytes_copied: engine.procs.iter().map(|p| p.state.bytes_copied).sum(),
            queue_wait_events: 0,
            cpu_queue_secs,
            converged: decided && !premature,
            premature_stop: premature,
            solution: kernel.assemble(&values),
            final_residual: worst_residual,
        };
        SimulationOutcome {
            sim_time: end_time,
            network: engine.network.stats(),
            host_loads: engine.cpu.loads(end_time),
            placement: engine.placement,
            report,
            obs_trace: tracer.snapshot(),
        }
    }
}

/// Events of the asynchronous simulation.
enum SimEvent {
    /// A block starts a local iteration.
    Iterate { block: usize },
    /// A data message reaches (and is unpacked at) its destination.
    DeliverData {
        to: usize,
        from: usize,
        iteration: u64,
        values: Payload,
    },
    /// A data message has crossed the network and now queues for one of the
    /// destination host's dedicated receiving threads (dedicated disciplines
    /// only; on-demand receptions go straight to [`SimEvent::DeliverData`]).
    ArriveData {
        to: usize,
        from: usize,
        iteration: u64,
        values: Payload,
        /// Receiver-side CPU cost of unpacking this message.
        handle_cost: SimTime,
    },
    /// A local-convergence state report reaches the central detector.
    DeliverState { from: usize, converged: bool },
    /// The stop order reaches a block.
    DeliverStop { to: usize },
}

/// Message counters of a simulated run.
#[derive(Debug, Default)]
struct Stats {
    data_messages: u64,
    control_messages: u64,
    data_bytes: u64,
}

/// All the mutable state of one asynchronous simulation, so the event
/// handlers can be methods instead of free functions threading a dozen
/// parameters around.
struct AsyncEngine<'a> {
    kernel: &'a dyn IterativeKernel,
    config: &'a RunConfig,
    env: &'a dyn Environment,
    topology: &'a GridTopology,
    graph: DependencyGraph,
    thread_cfg: ThreadConfig,
    placement: Placement,
    network: Network,
    sim: Simulator<SimEvent>,
    procs: Vec<ProcSim>,
    detector: GlobalDetector,
    stats: Stats,
    /// Compute cores of every host.
    cpu: HostScheduler,
    /// Per-host dedicated receiving-thread pools (None = on-demand threads).
    rx_pools: Option<HostScheduler>,
    /// Per-host event recorders on the virtual clock (no-ops when tracing
    /// is off). Cleared after the event loop so the rings reach the tracer.
    recorders: Vec<TrackRecorder>,
}

impl AsyncEngine<'_> {
    /// Runs the event loop to completion.
    fn run(&mut self) {
        for b in 0..self.procs.len() {
            self.sim
                .schedule_at(SimTime::ZERO, SimEvent::Iterate { block: b });
        }
        while let Some(event) = self.sim.next_event() {
            let now = event.time;
            match event.payload {
                SimEvent::Iterate { block } => self.handle_iterate(block, now),
                SimEvent::ArriveData {
                    to,
                    from,
                    iteration,
                    values,
                    handle_cost,
                } => {
                    // A message for a stopped processor is dropped without
                    // occupying a receiving thread.
                    if !self.procs[to].stopped {
                        let dst = self.placement.host_of(to);
                        let pool = self.rx_pools.as_mut().expect("dedicated pools exist");
                        let slot = pool.schedule(dst, now, handle_cost);
                        if slot.start > now {
                            self.recorders[dst.0].span_complete(
                                "cpu_wait",
                                sim_ns(now),
                                sim_ns(slot.start),
                                to as u64,
                            );
                        }
                        self.sim.schedule_at(
                            slot.end,
                            SimEvent::DeliverData {
                                to,
                                from,
                                iteration,
                                values,
                            },
                        );
                    }
                }
                SimEvent::DeliverData {
                    to,
                    from,
                    iteration,
                    values,
                } => {
                    // Data arriving after the processor stopped is simply
                    // dropped, like a message reaching a terminated process.
                    if !self.procs[to].stopped {
                        let dst = self.placement.host_of(to);
                        self.recorders[dst.0].instant_at("msg_arrive", sim_ns(now), from as u64);
                        if self.procs[to].state.incorporate(from, iteration, values) {
                            self.procs[to].fresh_since_last = true;
                        }
                    }
                }
                SimEvent::DeliverState { from, converged } => {
                    let coord = self.placement.host_of(0);
                    self.recorders[coord.0].instant_at(
                        if converged { "converge" } else { "deconverge" },
                        sim_ns(now),
                        from as u64,
                    );
                    if self.detector.report(from, converged) {
                        self.broadcast_stop(now);
                    }
                }
                SimEvent::DeliverStop { to } => {
                    let proc = &mut self.procs[to];
                    if !proc.stopped {
                        proc.stopped = true;
                        // The processor leaves the iterative process as soon
                        // as its in-flight iteration completes.
                        proc.stop_time = proc.busy_until.max(now);
                        let host = self.placement.host_of(to);
                        self.recorders[host.0].instant_at("stop", sim_ns(now), to as u64);
                    }
                }
            }
            if self.procs.iter().all(|p| p.stopped) {
                break;
            }
        }
    }

    /// Global convergence was decided: send the stop order to every block.
    fn broadcast_stop(&mut self, now: SimTime) {
        let coord = self.placement.host_of(0);
        for b in 0..self.procs.len() {
            let dst = self.placement.host_of(b);
            let cost = self.env.message_cost(CONTROL_BYTES);
            let arrival = if dst == coord {
                now + cost.sender_cpu + cost.receiver_cpu
            } else {
                self.network
                    .transfer(coord, dst, CONTROL_BYTES, cost.protocol_bytes, now)
                    + cost.receiver_cpu
            };
            self.stats.control_messages += 1;
            self.sim
                .schedule_at(arrival, SimEvent::DeliverStop { to: b });
        }
    }

    /// Processes the start of one asynchronous local iteration.
    fn handle_iterate(&mut self, block: usize, now: SimTime) {
        if self.procs[block].stopped {
            return;
        }
        let kernel = self.kernel;
        let host_id = self.placement.host_of(block);
        let host = self.topology.host(host_id);
        // The iteration is a job on the host's cores: when co-located blocks
        // outnumber them it waits for a core, which is the whole point of the
        // per-host scheduling layer.
        let slot = self.cpu.schedule(
            host_id,
            now,
            host.compute_time(kernel.iteration_cost(block)),
        );
        let compute_end = slot.end;
        let rec = &mut self.recorders[host_id.0];
        if slot.start > now {
            rec.span_complete("cpu_wait", sim_ns(now), sim_ns(slot.start), block as u64);
        }
        rec.span_complete(
            "compute",
            sim_ns(slot.start),
            sim_ns(slot.end),
            block as u64,
        );

        let fresh_data = self.procs[block].fresh_since_last;
        self.procs[block].fresh_since_last = false;
        let has_dependencies = !self.graph.in_neighbours(block).is_empty();

        // Numeric update using whatever dependency data has been delivered so
        // far (the asynchronous model of Algorithm 1). When nothing new has
        // arrived and the block already sits at its local fixed point, the
        // update would reproduce the same values bit for bit, so the (real)
        // numerical work is skipped while the virtual iteration still takes
        // place — the simulated machine keeps burning its cycles either way.
        let skipped = !fresh_data && self.procs[block].state.residual < self.config.epsilon * 1e-3;
        if skipped {
            self.procs[block].state.iteration += 1;
        } else {
            self.procs[block].state.iterate(kernel);
        }
        self.procs[block].busy_until = compute_end;

        // Local convergence is judged on the cumulative drift since the last
        // window anchor (see `BlockState::drift_from_anchor`); state messages
        // are sent only on change, and quiet iterations on stale data do not
        // advance the streak.
        let drift = kernel.residual_between(
            block,
            &self.procs[block].state.values,
            self.procs[block].state.anchor(),
        );
        // The residual the block would report if asked right now: skipped
        // iterations carry the true cumulative drift instead of the (stale)
        // residual of the last real update.
        self.procs[block].reported_residual = if skipped {
            drift
        } else {
            self.procs[block].state.residual
        };
        if drift >= self.config.epsilon {
            self.procs[block].state.reset_anchor();
        }
        if self.procs[block]
            .local
            .observe_gated(drift, fresh_data || !has_dependencies)
        {
            let converged = self.procs[block].local.is_converged();
            let coord = self.placement.host_of(0);
            let cost = self.env.message_cost(CONTROL_BYTES);
            let arrival = if host_id == coord {
                compute_end + cost.sender_cpu + cost.receiver_cpu
            } else {
                self.network.transfer(
                    host_id,
                    coord,
                    CONTROL_BYTES,
                    cost.protocol_bytes,
                    compute_end,
                ) + cost.receiver_cpu
            };
            self.stats.control_messages += 1;
            self.sim.schedule_at(
                arrival,
                SimEvent::DeliverState {
                    from: block,
                    converged,
                },
            );
        }

        // Asynchronous sends to every dependant. A send to a destination is
        // skipped while the previous transfer to that destination is still in
        // progress ("data are actually sent only if any previous sending of
        // the same data to the same destination is terminated").
        let mut sends_issued = 0usize;
        for i in 0..self.graph.out_neighbours(block).len() {
            let dst_block = self.graph.out_neighbours(block)[i];
            if compute_end < self.procs[block].send_busy_until[i] {
                continue;
            }
            let dst = self.placement.host_of(dst_block);
            let payload = kernel.message_bytes(block, dst_block) + CONTROL_BYTES;
            let cost = self.env.message_cost(payload);
            let pack_start = compute_end
                + self
                    .thread_cfg
                    .send_queue_delay(sends_issued, cost.sender_cpu);
            let pack_done = pack_start + cost.sender_cpu;
            self.recorders[host_id.0].span_complete(
                "send",
                sim_ns(pack_start),
                sim_ns(pack_done),
                dst_block as u64,
            );
            let wire_arrival = if host_id == dst {
                pack_done
            } else {
                self.network
                    .transfer(host_id, dst, payload, cost.protocol_bytes, pack_done)
            };
            self.procs[block].send_busy_until[i] = wire_arrival;
            self.stats.data_messages += 1;
            self.stats.data_bytes += payload;
            sends_issued += 1;
            let after_dispatch = wire_arrival + cost.dispatch_latency;
            let iteration = self.procs[block].state.iteration;
            let values = self.procs[block].state.values.clone();
            // Receiver-side dispatch: dedicated pools are a per-*host*
            // resource, so the message queues for a receiving thread at its
            // arrival time (via an ArriveData event, which keeps pool
            // submissions in chronological order); on-demand threads handle
            // every arrival concurrently at the price of a spawn cost.
            match self.thread_cfg.receive {
                ReceiveDiscipline::Dedicated(_) => {
                    self.sim.schedule_at(
                        after_dispatch,
                        SimEvent::ArriveData {
                            to: dst_block,
                            from: block,
                            iteration,
                            values,
                            handle_cost: cost.receiver_cpu,
                        },
                    );
                }
                ReceiveDiscipline::OnDemand { spawn_cost } => {
                    self.sim.schedule_at(
                        after_dispatch + spawn_cost + cost.receiver_cpu,
                        SimEvent::DeliverData {
                            to: dst_block,
                            from: block,
                            iteration,
                            values,
                        },
                    );
                }
            }
        }

        // Next iteration, unless the limit was reached.
        if self.procs[block].state.iteration >= self.config.max_iterations as u64 {
            self.procs[block].stopped = true;
            self.procs[block].stop_time = compute_end;
        } else {
            self.sim
                .schedule_at(compute_end, SimEvent::Iterate { block });
        }
    }
}

/// Per-block simulation state.
struct ProcSim {
    state: BlockState,
    local: LocalConvergence,
    stopped: bool,
    /// True when at least one new dependency message arrived since the last
    /// iteration started.
    fresh_since_last: bool,
    /// Virtual time until which the current/last iteration runs.
    busy_until: SimTime,
    /// Time at which the block actually stopped (stop received or limit hit).
    stop_time: SimTime,
    /// Completion time of the last transfer to each dependant (indexed like
    /// the block's out-neighbour list), used to skip sends while a previous
    /// one is still in flight.
    send_busy_until: Vec<SimTime>,
    /// The block's current honest residual: the last real update's residual,
    /// or the cumulative drift when quiet iterations are being skipped.
    reported_residual: f64,
}

impl ProcSim {
    fn new(state: BlockState, graph: &DependencyGraph, config: &RunConfig) -> Self {
        Self {
            send_busy_until: vec![SimTime::ZERO; graph.out_neighbours(state.id).len()],
            state,
            local: LocalConvergence::new(config.epsilon, config.convergence_streak),
            stopped: false,
            fresh_since_last: false,
            busy_until: SimTime::ZERO,
            stop_time: SimTime::ZERO,
            reported_residual: f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_kernels::{Diverging, RingContraction};
    use crate::kernel::{BlockUpdate, DependencyView};
    use crate::runtime::sequential::SequentialRuntime;
    use proptest::prelude::*;

    fn grid(n: usize) -> GridTopology {
        GridTopology::ethernet_3_sites(n)
    }

    #[test]
    fn synchronous_simulation_matches_sequential_solution() {
        let kernel = RingContraction::new(6);
        let config = RunConfig::synchronous(1e-10);
        let seq = SequentialRuntime::new().run(&kernel, &config);
        let sim = SimulatedRuntime::new(grid(6), EnvKind::MpiSync, ProblemKind::SparseLinear)
            .run(&kernel, &config);
        assert!(sim.report.converged);
        assert_eq!(sim.report.iterations[0], seq.iterations[0]);
        for (a, b) in sim.report.solution.iter().zip(&seq.solution) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(sim.sim_time > SimTime::ZERO);
    }

    /// A ring whose dependency declaration is as untidy as the trait allows:
    /// unsorted, with duplicates and with the block itself.
    struct UntidyRing(RingContraction);

    impl IterativeKernel for UntidyRing {
        fn num_blocks(&self) -> usize {
            self.0.num_blocks()
        }
        fn block_len(&self, block: usize) -> usize {
            self.0.block_len(block)
        }
        fn initial_block(&self, block: usize) -> Vec<f64> {
            self.0.initial_block(block)
        }
        fn dependencies(&self, block: usize) -> Vec<usize> {
            let m = self.0.blocks;
            let (left, right) = ((block + m - 1) % m, (block + 1) % m);
            vec![block, right, left, right, block]
        }
        fn update_block(&self, block: usize, local: &[f64], o: &DependencyView) -> BlockUpdate {
            self.0.update_block(block, local, o)
        }
        fn iteration_cost(&self, block: usize) -> f64 {
            self.0.iteration_cost(block)
        }
    }

    #[test]
    fn an_untidy_dependency_declaration_changes_no_synchronous_iterate() {
        // All three runtimes read the cleaned-up `DependencyGraph`, so a
        // declaration with duplicates, the block itself and unsorted ids
        // must give the solution of the tidy one, bit for bit.
        let mut tidy = RingContraction::new(7);
        (tidy.a, tidy.c, tidy.spin) = (0.1, 0.3, 0); // left and right weigh differently
        let untidy = UntidyRing(tidy.clone());
        let config = RunConfig::synchronous(1e-10).with_num_workers(3);
        let bits = |r: &RunReport| -> Vec<u64> { r.solution.iter().map(|v| v.to_bits()).collect() };

        let reference = SequentialRuntime::new().run(&tidy, &config);
        assert!(reference.converged);
        let seq = SequentialRuntime::new().run(&untidy, &config);
        let threaded = crate::runtime::ThreadedRuntime::new().run(&untidy, &config);
        let sim = SimulatedRuntime::new(grid(7), EnvKind::MpiSync, ProblemKind::SparseLinear)
            .run(&untidy, &config)
            .report;
        for (name, report) in [
            ("sequential", &seq),
            ("threaded", &threaded),
            ("simulated", &sim),
        ] {
            assert_eq!(report.iterations, reference.iterations, "{name}");
            assert_eq!(bits(report), bits(&reference), "{name}");
        }
        // one message per edge of the cleaned-up graph (2 per block) per sweep
        assert_eq!(threaded.data_messages, 14 * reference.iterations[0]);
    }

    #[test]
    fn asynchronous_simulation_converges_to_the_fixed_point() {
        let kernel = RingContraction::new(6);
        let config = RunConfig::asynchronous(1e-10).with_streak(3);
        for env in EnvKind::ASYNC {
            let sim = SimulatedRuntime::new(grid(6), env, ProblemKind::SparseLinear)
                .run(&kernel, &config);
            assert!(sim.report.converged, "{env} failed to converge");
            assert!(!sim.report.premature_stop);
            let fp = kernel.fixed_point();
            for v in &sim.report.solution {
                assert!((v - fp).abs() < 1e-6, "{env}: {v} vs {fp}");
            }
            assert!(sim.report.data_messages > 0);
        }
    }

    #[test]
    fn async_is_faster_than_sync_on_a_distant_grid() {
        // The headline qualitative result of the paper.
        let kernel = RingContraction::new(9);
        let sync = SimulatedRuntime::new(grid(9), EnvKind::MpiSync, ProblemKind::SparseLinear)
            .run(&kernel, &RunConfig::synchronous(1e-9));
        let async_run = SimulatedRuntime::new(grid(9), EnvKind::Pm2, ProblemKind::SparseLinear)
            .run(&kernel, &RunConfig::asynchronous(1e-9).with_streak(3));
        assert!(sync.report.converged && async_run.report.converged);
        assert!(
            async_run.report.elapsed_secs < sync.report.elapsed_secs,
            "async {} s should beat sync {} s",
            async_run.report.elapsed_secs,
            sync.report.elapsed_secs
        );
    }

    #[test]
    fn asynchronous_runs_are_deterministic() {
        let kernel = RingContraction::new(5);
        let config = RunConfig::asynchronous(1e-9);
        let run = || {
            SimulatedRuntime::new(grid(5), EnvKind::OmniOrb, ProblemKind::SparseLinear)
                .run(&kernel, &config)
        };
        let a = run();
        let b = run();
        assert_eq!(a.report.elapsed_secs, b.report.elapsed_secs);
        assert_eq!(a.report.iterations, b.report.iterations);
        assert_eq!(a.report.data_messages, b.report.data_messages);
    }

    #[test]
    fn heterogeneous_hosts_do_different_amounts_of_work() {
        let kernel = RingContraction::new(6);
        let topo = GridTopology::local_hetero_cluster(6);
        let sim = SimulatedRuntime::new(topo, EnvKind::Pm2, ProblemKind::SparseLinear)
            .run(&kernel, &RunConfig::asynchronous(1e-10));
        // host 2 is the fastest (P4 2.4), host 0 the slowest (Duron 800):
        // in an asynchronous run the fast block iterates more often.
        assert!(sim.report.iterations[2] > sim.report.iterations[0]);
    }

    #[test]
    fn sync_mode_on_mono_threaded_mpi_is_allowed_but_async_is_not() {
        let kernel = RingContraction::new(3);
        let runtime = SimulatedRuntime::new(grid(3), EnvKind::MpiSync, ProblemKind::SparseLinear);
        let ok = runtime.run(&kernel, &RunConfig::synchronous(1e-8));
        assert!(ok.report.converged);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runtime.run(&kernel, &RunConfig::asynchronous(1e-8))
        }));
        assert!(
            result.is_err(),
            "AIAC on mono-threaded MPI must be rejected"
        );
    }

    #[test]
    fn iteration_limit_stops_non_convergent_asynchronous_runs() {
        let kernel = Diverging { blocks: 4 };
        let config = RunConfig::asynchronous(1e-12).with_max_iterations(40);
        let sim = SimulatedRuntime::new(grid(4), EnvKind::MpiMadeleine, ProblemKind::SparseLinear)
            .run(&kernel, &config);
        assert!(!sim.report.converged);
        assert!(!sim.report.premature_stop, "limit stop is not premature");
        assert!(sim.report.iterations.iter().all(|&i| i <= 40));
    }

    #[test]
    fn tracing_records_compute_and_idle_time() {
        let kernel = RingContraction::new(2);
        let traced = |env, config: RunConfig| {
            SimulatedRuntime::new(grid(2), env, ProblemKind::SparseLinear)
                .run(&kernel, &config.with_tracing(aiac_obs::TraceConfig::on()))
        };
        // Per host: (idle gaps between consecutive compute spans, spans).
        let gaps = |outcome: &SimulationOutcome| -> Vec<(usize, usize)> {
            let host = |t: &aiac_obs::Track| {
                let s: Vec<(u64, u64)> = t.spans("compute").collect();
                (s.windows(2).filter(|w| w[1].0 > w[0].1).count(), s.len())
            };
            outcome.obs_trace.tracks.iter().map(host).collect()
        };
        let sync = traced(EnvKind::MpiSync, RunConfig::synchronous(1e-8));
        let n = sync.report.iterations[0] as usize;
        // SISC hosts idle at the barrier after every iteration but the last.
        assert_eq!(gaps(&sync), vec![(n - 1, n); 2]);
        assert!(sync.obs_trace.tracks[0].span_ns("compute") < sim_ns(sync.sim_time));

        // AIAC processors on uncontended hosts never wait between iterations.
        let async_run = traced(EnvKind::Pm2, RunConfig::asynchronous(1e-8));
        for (idle_gaps, spans) in gaps(&async_run) {
            assert!(
                idle_gaps == 0 && spans > 1,
                "{idle_gaps} gaps in {spans} spans"
            );
        }
    }

    #[test]
    fn virtual_clock_event_traces_are_bit_identical_across_runs() {
        use aiac_obs::TraceConfig;
        let kernel = RingContraction::new(6);
        let config = RunConfig::asynchronous(1e-9)
            .with_streak(3)
            .with_tracing(TraceConfig::on());
        let run = || {
            SimulatedRuntime::new(grid(6), EnvKind::Pm2, ProblemKind::SparseLinear)
                .run(&kernel, &config)
        };
        let a = run();
        let b = run();
        assert!(!a.obs_trace.is_empty());
        assert_eq!(
            a.obs_trace, b.obs_trace,
            "virtual-clock traces must be identical"
        );
        assert_eq!(a.obs_trace.layers(), vec![aiac_obs::Layer::Netsim]);
        let names: std::collections::BTreeSet<&str> = a
            .obs_trace
            .tracks
            .iter()
            .flat_map(|t| t.ring.iter_in_order().map(|e| e.name))
            .collect();
        assert!(names.contains("compute"), "{names:?}");
        assert!(names.contains("msg_arrive"), "{names:?}");
        // untraced runs stay empty
        let quiet = SimulatedRuntime::new(grid(6), EnvKind::Pm2, ProblemKind::SparseLinear)
            .run(&kernel, &RunConfig::asynchronous(1e-9).with_streak(3));
        assert!(quiet.obs_trace.is_empty());
    }

    #[test]
    fn oversubscribed_traced_runs_record_cpu_wait_spans() {
        use aiac_obs::TraceConfig;
        let kernel = RingContraction::new(8);
        let sim = SimulatedRuntime::new(
            GridTopology::homogeneous_cluster(4),
            EnvKind::Pm2,
            ProblemKind::SparseLinear,
        )
        .run(
            &kernel,
            &RunConfig::asynchronous(1e-8)
                .with_streak(3)
                .with_tracing(TraceConfig::on()),
        );
        assert!(sim.report.cpu_queue_secs > 0.0);
        let names: std::collections::BTreeSet<&str> = sim
            .obs_trace
            .tracks
            .iter()
            .flat_map(|t| t.ring.iter_in_order().map(|e| e.name))
            .collect();
        assert!(names.contains("cpu_wait"), "{names:?}");
    }

    #[test]
    fn more_blocks_than_hosts_are_placed_round_robin() {
        let kernel = RingContraction::new(8);
        let runtime = SimulatedRuntime::new(grid(4), EnvKind::Pm2, ProblemKind::SparseLinear);
        let sim = runtime.run(&kernel, &RunConfig::asynchronous(1e-8));
        assert!(sim.report.converged);
        assert_eq!(sim.placement.policy(), PlacementPolicy::RoundRobin);
        assert_eq!(sim.placement.host_of(0), sim.placement.host_of(4));
        assert_ne!(sim.placement.host_of(0), sim.placement.host_of(1));
    }

    // ------------------------------------------------------------------
    // Oversubscription: per-host CPU scheduling and placement
    // ------------------------------------------------------------------

    #[test]
    fn two_x_oversubscription_is_at_least_1_5x_slower() {
        // The acceptance criterion of the infinite-core bugfix: with twice as
        // many blocks as (single-core, homogeneous) hosts, the serialised
        // compute phases must cost at least 1.5x the one-block-per-host time.
        let kernel = RingContraction::new(8);
        let config = RunConfig::asynchronous(1e-9).with_streak(3);
        let run = |hosts: usize| {
            SimulatedRuntime::new(
                GridTopology::homogeneous_cluster(hosts),
                EnvKind::Pm2,
                ProblemKind::SparseLinear,
            )
            .run(&kernel, &config)
        };
        let spread = run(8);
        let over = run(4);
        assert!(spread.report.converged && over.report.converged);
        assert!(
            over.sim_time.as_secs() >= 1.5 * spread.sim_time.as_secs(),
            "2x oversubscription: {} s should be >= 1.5x the {} s baseline",
            over.sim_time.as_secs(),
            spread.sim_time.as_secs()
        );
        // Queueing is the mechanism: the oversubscribed run waits for cores,
        // the one-block-per-host run never does.
        assert!(over.report.cpu_queue_secs > 0.0);
        assert_eq!(spread.report.cpu_queue_secs, 0.0);
        assert_eq!(over.placement.max_colocation(), 2);
    }

    #[test]
    fn metrics_are_deterministic_and_round_trip_through_json() {
        let kernel = RingContraction::new(6);
        let config = RunConfig::asynchronous(1e-9).with_streak(3);
        let run = || {
            SimulatedRuntime::new(grid(6), EnvKind::Pm2, ProblemKind::SparseLinear)
                .run(&kernel, &config)
                .metrics()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulated metrics must be reproducible");
        assert!(a.sim_time_secs > 0.0);
        assert!(a.cpu_busy_secs > 0.0);
        assert!(a.total_iterations >= a.max_iterations);
        assert!(a.converged);
        let text = serde_json::to_string(&a).expect("metrics serialise");
        let back: SimMetrics = serde_json::from_str(&text).expect("metrics parse back");
        assert_eq!(back, a);
    }

    #[test]
    fn oversubscribed_runs_report_host_loads_and_queueing() {
        let kernel = RingContraction::new(8);
        let sim = SimulatedRuntime::new(
            GridTopology::homogeneous_cluster(4),
            EnvKind::Pm2,
            ProblemKind::SparseLinear,
        )
        .run(&kernel, &RunConfig::asynchronous(1e-8).with_streak(3));
        assert_eq!(sim.host_loads.len(), 4);
        for load in &sim.host_loads {
            assert!(load.jobs > 0, "host {} scheduled nothing", load.host);
            assert!(load.busy_secs > 0.0);
            assert!(load.queue_secs > 0.0, "two blocks share one core");
            assert!(load.utilization > 0.5 && load.utilization <= 1.0 + 1e-12);
        }
        let queue_sum: f64 = sim.host_loads.iter().map(|l| l.queue_secs).sum();
        assert!(sim.report.cpu_queue_secs >= queue_sum - 1e-12);
    }

    #[test]
    fn extra_cores_absorb_the_oversubscription() {
        // The same 2x-oversubscribed workload on dual-core hosts runs the two
        // co-located blocks concurrently again.
        let kernel = RingContraction::new(8);
        let config = RunConfig::asynchronous(1e-9).with_streak(3);
        let single = SimulatedRuntime::new(
            GridTopology::homogeneous_cluster(4),
            EnvKind::Pm2,
            ProblemKind::SparseLinear,
        )
        .run(&kernel, &config);
        let dual = SimulatedRuntime::new(
            GridTopology::homogeneous_cluster(4).with_uniform_cores(2),
            EnvKind::Pm2,
            ProblemKind::SparseLinear,
        )
        .run(&kernel, &config);
        assert!(dual.report.converged);
        assert_eq!(dual.report.cpu_queue_secs, 0.0, "two cores, two blocks");
        assert!(dual.sim_time < single.sim_time);
    }

    #[test]
    fn sync_smp_hosts_are_never_slower_than_single_core() {
        // Dual-core hosts absorb a 2x-oversubscribed synchronous run's
        // compute phases concurrently again; with identical (placement-
        // independent) numerics the virtual time must not increase.
        let kernel = RingContraction::new(8);
        let config = RunConfig::synchronous(1e-8);
        let run = |topo: GridTopology| {
            SimulatedRuntime::new(topo, EnvKind::MpiSync, ProblemKind::SparseLinear)
                .run(&kernel, &config)
        };
        let single = run(GridTopology::homogeneous_cluster(4));
        let dual = run(GridTopology::homogeneous_cluster(4).with_uniform_cores(2));
        assert_eq!(single.report.iterations, dual.report.iterations);
        assert!(
            dual.sim_time <= single.sim_time,
            "dual-core {} s should not exceed single-core {} s",
            dual.sim_time.as_secs(),
            single.sim_time.as_secs()
        );
    }

    #[test]
    fn speed_weighted_placement_beats_round_robin_when_oversubscribed() {
        // On the heterogeneous cluster the Duron hosts are 3x slower than the
        // P4 2.4 hosts; giving every host the same number of blocks leaves
        // the run Duron-bound, while speed-weighted counts even the load out.
        let kernel = RingContraction::new(24);
        let topo = GridTopology::local_hetero_cluster(8);
        let config = RunConfig::asynchronous(1e-8).with_streak(3);
        let run = |policy: PlacementPolicy| {
            SimulatedRuntime::new(
                topo.clone(),
                EnvKind::MpiMadeleine,
                ProblemKind::SparseLinear,
            )
            .with_placement(policy)
            .run(&kernel, &config)
        };
        let rr = run(PlacementPolicy::RoundRobin);
        let sw = run(PlacementPolicy::SpeedWeighted);
        assert!(rr.report.converged && sw.report.converged);
        assert!(
            sw.sim_time < rr.sim_time,
            "speed-weighted {} s should beat round-robin {} s",
            sw.sim_time.as_secs(),
            rr.sim_time.as_secs()
        );
    }

    #[test]
    fn runtime_placement_override_wins_over_the_config() {
        let kernel = RingContraction::new(6);
        let topo = GridTopology::local_hetero_cluster(3);
        let sim = SimulatedRuntime::new(topo, EnvKind::Pm2, ProblemKind::SparseLinear)
            .with_placement(PlacementPolicy::SpeedWeighted)
            .run(&kernel, &RunConfig::asynchronous(1e-8));
        assert_eq!(sim.placement.policy(), PlacementPolicy::SpeedWeighted);

        let kernel = RingContraction::new(6);
        let sim = SimulatedRuntime::new(
            GridTopology::local_hetero_cluster(3),
            EnvKind::Pm2,
            ProblemKind::SparseLinear,
        )
        .run(
            &kernel,
            &RunConfig::asynchronous(1e-8).with_placement(PlacementPolicy::SitePacked),
        );
        assert_eq!(sim.placement.policy(), PlacementPolicy::SitePacked);
    }

    // ------------------------------------------------------------------
    // Stop-decision honesty
    // ------------------------------------------------------------------

    /// A kernel whose block 0 looks converged for exactly one iteration and
    /// then de-converges violently: its first update moves by 1e-8 (under any
    /// reasonable ε), every later update moves by 1.0. Blocks 1.. are
    /// immediately stationary. With a streak of 1 every block reports local
    /// convergence after its first iteration, the detector decides, and block
    /// 0's de-convergence report is still in flight when the stop order goes
    /// out — the premature-stop scenario of Section 4.3.
    struct LateSpike {
        blocks: usize,
    }

    impl IterativeKernel for LateSpike {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn block_len(&self, _block: usize) -> usize {
            1
        }

        fn initial_block(&self, _block: usize) -> Vec<f64> {
            vec![0.0]
        }

        fn dependencies(&self, _block: usize) -> Vec<usize> {
            Vec::new()
        }

        fn update_block(&self, block: usize, local: &[f64], _: &DependencyView) -> BlockUpdate {
            let x = local[0];
            let new = if block == 0 {
                if x < 0.5e-8 {
                    x + 1e-8
                } else {
                    x + 1.0
                }
            } else {
                x
            };
            BlockUpdate {
                residual: (new - x).abs(),
                values: vec![new],
            }
        }

        fn iteration_cost(&self, _block: usize) -> f64 {
            0.005
        }
    }

    #[test]
    fn premature_stop_with_a_delayed_cancellation_is_flagged() {
        let kernel = LateSpike { blocks: 3 };
        let config = RunConfig::asynchronous(1e-6).with_streak(1);
        let sim = SimulatedRuntime::new(
            GridTopology::homogeneous_cluster(3),
            EnvKind::Pm2,
            ProblemKind::SparseLinear,
        )
        .run(&kernel, &config);
        // The detector decided (every block did report local convergence
        // once), but block 0 spiked while the decision was being taken: the
        // run must not be reported as converged.
        assert!(
            sim.report.premature_stop,
            "the in-flight de-convergence must be detected"
        );
        assert!(!sim.report.converged);
        assert!(
            sim.report.final_residual >= config.epsilon,
            "final residual {} belies convergence",
            sim.report.final_residual
        );
    }

    /// A dependency-free kernel that creeps by 2e-3 per update, then by 1e-4,
    /// then sits still. Once the per-update residual falls under ε·10⁻³ the
    /// runtime's quiet-iteration shortcut stops calling the kernel, and
    /// before the fix the reported final residual froze at the last real
    /// update's 1e-4 even though the block had drifted by ~1e-2 in total.
    struct QuietDrift {
        blocks: usize,
    }

    impl IterativeKernel for QuietDrift {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn block_len(&self, _block: usize) -> usize {
            1
        }

        fn initial_block(&self, _block: usize) -> Vec<f64> {
            vec![0.0]
        }

        fn dependencies(&self, _block: usize) -> Vec<usize> {
            Vec::new()
        }

        fn update_block(&self, _block: usize, local: &[f64], _: &DependencyView) -> BlockUpdate {
            let x = local[0];
            let new = if x < 0.0099 {
                x + 2e-3
            } else if x < 0.0101 {
                x + 1e-4
            } else {
                x
            };
            BlockUpdate {
                residual: (new - x).abs(),
                values: vec![new],
            }
        }

        fn iteration_cost(&self, _block: usize) -> f64 {
            0.002
        }
    }

    #[test]
    fn skipped_quiet_iterations_report_the_true_drift() {
        let kernel = QuietDrift { blocks: 2 };
        // ε = 1.0 keeps the run convergent; the skip threshold is ε·10⁻³ =
        // 1e-3, so the 1e-4 step flips the block onto the skip path.
        let config = RunConfig::asynchronous(1.0).with_streak(8);
        let sim = SimulatedRuntime::new(
            GridTopology::homogeneous_cluster(2),
            EnvKind::Pm2,
            ProblemKind::SparseLinear,
        )
        .run(&kernel, &config);
        assert!(sim.report.converged);
        assert!(!sim.report.premature_stop);
        // The block moved 0.0101 in total; the stale per-update residual was
        // only 1e-4. The report must carry the cumulative drift.
        assert!(
            sim.report.final_residual > 5e-3,
            "final residual {} is the stale per-update value",
            sim.report.final_residual
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Placement invariant (a): adding hosts never increases the virtual
        /// time. Synchronous mode keeps the numerics placement-independent,
        /// so the comparison isolates the scheduling layer: halving the
        /// per-host load (2 blocks/host -> 1 block/host) must not slow the
        /// run down.
        #[test]
        fn prop_adding_hosts_never_increases_sync_time(n in 2usize..6) {
            let m = 2 * n;
            let kernel = RingContraction::new(m);
            let config = RunConfig::synchronous(1e-8);
            let run = |hosts: usize| {
                SimulatedRuntime::new(
                    GridTopology::homogeneous_cluster(hosts),
                    EnvKind::MpiSync,
                    ProblemKind::SparseLinear,
                )
                .run(&kernel, &config)
            };
            let few = run(n);
            let many = run(m);
            prop_assert_eq!(few.report.iterations[0], many.report.iterations[0]);
            prop_assert!(
                many.sim_time <= few.sim_time,
                "{} hosts took {} s, {} hosts took {} s",
                m, many.sim_time.as_secs(), n, few.sim_time.as_secs()
            );
        }

        /// Placement invariant (b): an oversubscribed asynchronous run is
        /// never faster than the same kernel with one block per host.
        #[test]
        fn prop_oversubscription_is_never_faster(n in 2usize..5) {
            let m = 2 * n;
            let kernel = RingContraction::new(m);
            let config = RunConfig::asynchronous(1e-8).with_streak(3);
            let run = |hosts: usize| {
                SimulatedRuntime::new(
                    GridTopology::homogeneous_cluster(hosts),
                    EnvKind::Pm2,
                    ProblemKind::SparseLinear,
                )
                .run(&kernel, &config)
            };
            let spread = run(m);
            let over = run(n);
            prop_assert!(spread.report.converged && over.report.converged);
            prop_assert!(
                over.sim_time >= spread.sim_time,
                "oversubscribed {} s beat one-per-host {} s",
                over.sim_time.as_secs(), spread.sim_time.as_secs()
            );
        }
    }
}
