//! The threaded runtime: a fixed-size worker pool multiplexing all blocks.
//!
//! This back-end is the library's "production" executor on a multicore
//! machine. A thread per block and a channel per edge collapse past a few
//! hundred blocks (oversubscribed threads, unbounded queues of stale
//! payloads), so the executor follows the asynchronous many-tasking recipe:
//!
//! * **Worker pool over one shared FIFO queue** — `RunConfig::num_workers`
//!   OS threads (default: the machine's available parallelism, never more
//!   than the block count) multiplex the `m` blocks as lightweight tasks.
//!   In asynchronous mode every ready block goes to the back of one `Mutex<VecDeque>` and every
//!   worker takes from its front; a worker that finds the queue empty
//!   *parks* on a condition variable. FIFO order is what the algorithm
//!   wants, not a compromise: a block runs again only after every block
//!   queued before it has run, so its dependencies have had the chance to
//!   publish and it does not repeat an iteration on the same inputs.
//! * **Coalescing mailboxes** — in asynchronous mode, block data travels
//!   through [`super::mailbox::CoalescingMailboxes`]: one newest-wins slot per
//!   dependency edge, so in-flight data storage is O(edges) regardless of how
//!   far any producer runs ahead. This is exactly the AIAC model's semantics
//!   ("the newest received values overwrite previous ones") enforced at the
//!   transport layer.
//! * **Control plane** — unchanged from the paper's centralized halting
//!   procedure (Section 4.3): asynchronous workers report local-convergence
//!   *state changes* over a channel to the coordinator on the main thread,
//!   and the coordinator broadcasts the stop order (here: a shared flag plus
//!   a wake-everyone on the run queue) once every block is locally converged.
//!
//! The two execution modes keep their semantics:
//!
//! * **Synchronous mode (SISC)** — each worker owns a contiguous run of
//!   blocks and the pool runs barrier-separated supersteps: every block is
//!   iterated (a Jacobi sweep reading the previous iteration's values) and
//!   publishes its new front buffer by reference, then every view takes a
//!   reference to its dependencies' published fronts, exactly as the
//!   sequential sweep delivers them. Every worker evaluates the true global
//!   residual from one slot per worker. No envelope, mailbox or run queue is
//!   involved, and the iterates are bit-identical to the sequential sweep;
//!   the barrier idle time is exactly the white space of Figure 1.
//! * **Asynchronous mode (AIAC)** — blocks never wait: when a worker picks a
//!   block it drains the block's mailboxes, iterates on whatever data it has,
//!   publishes its new values and requeues itself, as in Figure 2. A locally
//!   converged block goes *dormant* instead of spinning and is woken by the
//!   next publish from one of its dependencies (or by the stop broadcast).

use crate::block::BlockState;
use crate::config::{ExecutionMode, RunConfig};
use crate::convergence::{GlobalDetector, LocalConvergence};
use crate::depgraph::DependencyGraph;
use crate::kernel::{IterativeKernel, Payload};
use crate::message::Message;
use crate::report::{RunError, RunReport};
use crate::runtime::mailbox::{CoalescingMailboxes, MailboxStats};
// Atomics come from the sync facade so the bounded model checker can
// instrument them under `--cfg aiac_check` (enforced by `cargo xtask
// analyze`).
use crate::runtime::sync::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use aiac_obs::{Layer, TraceSnapshot, Tracer, TrackRecorder};
use crossbeam::channel::{unbounded, Sender};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What a worker tells the coordinator.
enum CoordEvent {
    /// A block's local convergence state changed.
    StateChange { block: usize, converged: bool },
    /// A block finished (stop received or iteration limit reached).
    Finished,
}

/// Final per-block result, filled in when the block finishes.
struct BlockOutcome {
    values: Vec<f64>,
    iterations: u64,
    residual: f64,
    payload_clones: u64,
    bytes_copied: u64,
}

/// The run queue blocks are scheduled on: one shared FIFO.
///
/// Each block is queued at most once (the `queued` bits), which bounds the
/// queue at `num_blocks` entries — so it is allocated once at that capacity
/// and never grows. Workers that find it empty park on the condition
/// variable; the `pending`/`sleepers` pair implements the Dekker-style
/// handshake that makes the park race-free without any timeout sleep.
struct WorkPool {
    /// The shared FIFO of ready blocks.
    queue: Mutex<VecDeque<usize>>,
    /// The at-most-once-queued bit per block.
    queued: Vec<AtomicBool>,
    /// Blocks queued and not yet taken by a worker.
    pending: AtomicUsize,
    /// Workers currently inside [`WorkPool::park_idle`].
    sleepers: AtomicUsize,
    /// The parking lot. The mutex guards no data — it only sequences the
    /// sleeper's `pending` re-check against the publisher's notify.
    park: Mutex<()>,
    ready: Condvar,
    closed: AtomicBool,
    /// Times a worker found the queue empty and parked.
    queue_wait_events: AtomicU64,
}

impl WorkPool {
    fn new(num_blocks: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::with_capacity(num_blocks)),
            queued: (0..num_blocks).map(|_| AtomicBool::new(false)).collect(),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
            queue_wait_events: AtomicU64::new(0),
        }
    }

    /// Schedules `block` at the back of the queue unless already queued.
    fn enqueue(&self, block: usize) {
        // ord: SeqCst — queued-bit claim totally ordered with the pending bump and the park-side re-checks (Dekker handshake with sleepers)
        if self.closed.load(Ordering::SeqCst) || self.queued[block].swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.lock().unwrap().push_back(block);
        // ord: SeqCst — pending bump must be visible before any parked worker re-checks emptiness
        self.pending.fetch_add(1, Ordering::SeqCst);
        // The publisher half of the parking handshake (see `park_idle`).
        // ord: SeqCst — wake fast path reads the sleeper count the parkers bumped
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _lot = self.park.lock().unwrap();
            self.ready.notify_one();
        }
    }

    /// Schedules every not-yet-queued block (the stop/drain broadcast) and
    /// wakes all workers.
    fn enqueue_all(&self) {
        // ord: SeqCst — closed gate ordered with the shutdown broadcast
        if self.closed.load(Ordering::SeqCst) {
            return;
        }
        let mut added = 0usize;
        {
            let mut queue = self.queue.lock().unwrap();
            for block in 0..self.queued.len() {
                // ord: SeqCst — queued-bit claim, same protocol as enqueue()
                if !self.queued[block].swap(true, Ordering::SeqCst) {
                    queue.push_back(block);
                    added += 1;
                }
            }
        }
        if added > 0 {
            // ord: SeqCst — pending visible before parked workers re-check
            self.pending.fetch_add(added, Ordering::SeqCst);
        }
        // Always wake everyone: even with nothing new queued, parked workers
        // must re-observe the stop/drain flags that prompted the broadcast.
        let _lot = self.park.lock().unwrap();
        self.ready.notify_all();
    }

    /// Bookkeeping for a block just taken off the queue: clears its queued
    /// bit (so the next publish can re-schedule it) and drops the pending
    /// count. Must run *before* the block's mailboxes are drained, so a
    /// publish that raced the take either re-queues the block or its payload
    /// is picked up by the drain.
    fn took(&self, block: usize) {
        // ord: SeqCst — queued-bit release ordered before the pending decrement so a racing re-enqueue cannot be missed
        self.queued[block].store(false, Ordering::SeqCst);
        // ord: SeqCst — pending decrement ordered with park-side emptiness checks
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }

    fn pop(&self) -> Option<usize> {
        self.queue.lock().unwrap().pop_front()
    }

    /// Parks the calling worker until work is pending or the pool closes.
    ///
    /// Lost-wakeup freedom is the Dekker argument (everything `SeqCst`): the
    /// parker advertises itself in `sleepers` and then re-checks `pending`
    /// under the park lock before waiting; the publisher bumps `pending` and
    /// then reads `sleepers`, notifying under the same lock when it saw a
    /// sleeper. Whichever order the two interleave in, either the publisher
    /// sees the sleeper and notifies, or the parker sees the pending work
    /// and never waits — so no timeout sleep is needed, and the stop
    /// broadcast (`closed` in the wait predicate) is observed promptly.
    fn park_idle(&self) {
        // ord: stat counter — park-event telemetry
        self.queue_wait_events.fetch_add(1, Ordering::Relaxed);
        // ord: SeqCst — sleeper registration before the final emptiness re-check (Dekker: enqueue reads sleepers after its pending bump)
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut lot = self.park.lock().unwrap();
        // ord: SeqCst — closed/pending re-check under the park mutex; pairs with enqueue
        while !self.closed.load(Ordering::SeqCst) && self.pending.load(Ordering::SeqCst) == 0 {
            lot = self.ready.wait(lot).unwrap();
        }
        drop(lot);
        // ord: SeqCst — sleeper deregistration
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn is_closed(&self) -> bool {
        // ord: SeqCst — closed gate
        self.closed.load(Ordering::SeqCst)
    }

    /// Shuts the pool down and releases every parked worker.
    fn close(&self) {
        // ord: SeqCst — closing must be visible to every park re-check
        self.closed.store(true, Ordering::SeqCst);
        let _lot = self.park.lock().unwrap();
        self.ready.notify_all();
    }

    fn queue_wait_events(&self) -> u64 {
        // ord: SeqCst — quiescent snapshot for the stats report
        self.queue_wait_events.load(Ordering::SeqCst)
    }
}

/// Closes the pool when a worker unwinds, so the remaining workers and
/// the coordinator are released instead of parking forever behind a panic.
struct PanicGuard<'a>(&'a WorkPool);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// Multi-threaded executor (fixed worker pool over all blocks).
#[derive(Debug, Clone, Default)]
pub struct ThreadedRuntime {
    _private: (),
}

impl ThreadedRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the kernel with the requested mode and returns the report.
    ///
    /// # Panics
    /// Panics on an invalid configuration or if a worker exits without
    /// delivering its block results (see [`ThreadedRuntime::try_run`] for the
    /// non-panicking variant).
    pub fn run(&self, kernel: &dyn IterativeKernel, config: &RunConfig) -> RunReport {
        self.try_run(kernel, config)
            .unwrap_or_else(|err| panic!("ThreadedRuntime::run failed: {err}"))
    }

    /// Runs the kernel, reporting configuration and worker failures as a
    /// [`RunError`] instead of panicking. A kernel that panics ends the run,
    /// in either mode, in [`RunError::MissingResults`] naming the blocks the
    /// dead worker left unfinished.
    pub fn try_run(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
    ) -> Result<RunReport, RunError> {
        self.try_run_traced(kernel, config)
            .map(|(report, _)| report)
    }

    /// Runs the kernel and also returns the trace snapshot recorded by the
    /// workers. Empty unless `config.tracing` enables recording.
    ///
    /// # Panics
    /// Panics on the same failures as [`ThreadedRuntime::run`].
    pub fn run_traced(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
    ) -> (RunReport, TraceSnapshot) {
        self.try_run_traced(kernel, config)
            .unwrap_or_else(|err| panic!("ThreadedRuntime::run_traced failed: {err}"))
    }

    /// Runs the kernel, reporting failures as a [`RunError`] and returning
    /// the workers' trace snapshot alongside the report.
    pub fn try_run_traced(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
    ) -> Result<(RunReport, TraceSnapshot), RunError> {
        config.try_validate()?;
        let tracer = Tracer::new(config.tracing);
        let report = match config.mode {
            ExecutionMode::Synchronous => self.run_synchronous(kernel, config, &tracer),
            ExecutionMode::Asynchronous => self.run_asynchronous(kernel, config, &tracer),
        }?;
        Ok((report, tracer.snapshot()))
    }

    fn run_synchronous(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
        tracer: &Tracer,
    ) -> Result<RunReport, RunError> {
        let m = kernel.num_blocks();
        let graph = DependencyGraph::from_kernel(kernel);
        let started = Instant::now();
        let workers = config.effective_num_workers(m);

        let states = BlockState::for_run(kernel, &graph);
        let pool = SyncPool {
            kernel,
            config,
            graph: &graph,
            fronts: states
                .iter()
                // copy: refcount bump — every block publishes its initial front
                .map(|s| Mutex::new(s.values.clone()))
                .collect(),
            barrier: BreakableBarrier::new(workers),
            worst_residuals: (0..workers)
                .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
                .collect(),
            data_messages: AtomicU64::new(0),
            data_bytes: AtomicU64::new(0),
            results: (0..m).map(|_| Mutex::new(None)).collect(),
        };
        // Worker `w` owns the contiguous run of blocks with
        // `id · workers / m == w`: a static partition, so every block's
        // floating-point trajectory is that of the sequential Jacobi sweep
        // whatever the pool size, and neighbouring blocks share a core.
        let mut owned: Vec<Vec<BlockState>> = (0..workers)
            .map(|_| Vec::with_capacity(m.div_ceil(workers)))
            .collect();
        for state in states {
            owned[state.id * workers / m].push(state);
        }

        let joined = crossbeam::scope(|scope| {
            for (worker, states) in owned.into_iter().enumerate() {
                let pool = &pool;
                scope.spawn(move |_| pool.run_worker(worker, states, tracer));
            }
        });

        let converged = pool.converged();
        // A worker that panicked broke the barrier and left its blocks
        // without results, so the failure surfaces here as `MissingResults`
        // naming them.
        let report = finalize_report(
            kernel,
            ExecutionMode::Synchronous,
            "threaded sync",
            started,
            pool.results
                .into_iter()
                .map(|r| r.into_inner().unwrap())
                .collect(),
            // ord: SeqCst — post-join counter snapshot
            pool.data_messages.load(Ordering::SeqCst),
            0,
            // ord: SeqCst — post-join counter snapshot
            pool.data_bytes.load(Ordering::SeqCst),
            converged,
            // Supersteps hand fronts over by reference and never touch the
            // mailboxes or the run queue, so the mailbox counters and the
            // park count are structural zeros — which is what makes them
            // deterministic, gateable metrics for sync cells.
            MailboxStats::default(),
            0,
        )?;
        match joined {
            Ok(()) => Ok(report),
            // Unreachable while a dead worker always leaves its blocks
            // without results; never swallow a panic silently.
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    fn run_asynchronous(
        &self,
        kernel: &dyn IterativeKernel,
        config: &RunConfig,
        tracer: &Tracer,
    ) -> Result<RunReport, RunError> {
        let m = kernel.num_blocks();
        let graph = DependencyGraph::from_kernel(kernel);
        let started = Instant::now();
        let workers = config.effective_num_workers(m);

        let pool = AsyncPool {
            kernel,
            config,
            graph: &graph,
            mailboxes: CoalescingMailboxes::new(&graph),
            sched: WorkPool::new(m),
            tasks: BlockState::for_run(kernel, &graph)
                .into_iter()
                .map(|state| {
                    Mutex::new(AsyncTask {
                        state,
                        local: LocalConvergence::new(config.epsilon, config.convergence_streak),
                        done: false,
                    })
                })
                .collect(),
            results: (0..m).map(|_| Mutex::new(None)).collect(),
            stop: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            finished_blocks: AtomicUsize::new(0),
            data_messages: AtomicU64::new(0),
            control_messages: AtomicU64::new(0),
            data_bytes: AtomicU64::new(0),
        };
        // Every block starts runnable ("only the first iteration begins at
        // the same time on all the processors").
        pool.sched.enqueue_all();

        let (coord_tx, coord_rx) = unbounded::<CoordEvent>();
        let mut detector = GlobalDetector::new(m);

        let joined = crossbeam::scope(|scope| {
            for worker in 0..workers {
                let pool = &pool;
                // copy: channel-handle clone (Sender), not payload data
                let coord_tx = coord_tx.clone();
                scope.spawn(move |_| {
                    let _guard = PanicGuard(&pool.sched);
                    async_worker(pool, worker, &coord_tx, tracer);
                });
            }
            drop(coord_tx);

            // The main thread plays the role of the paper's central node: it
            // gathers state messages and broadcasts the stop order.
            let mut finished = 0usize;
            while finished < m {
                match coord_rx.recv() {
                    Ok(CoordEvent::StateChange { block, converged }) => {
                        if detector.report(block, converged) {
                            // ord: SeqCst — stop broadcast to all workers
                            pool.stop.store(true, Ordering::SeqCst);
                            // The stop broadcast: wake every parked worker and
                            // dormant block so each one observes the flag and
                            // finishes (the paper's halting procedure).
                            pool.sched.enqueue_all();
                        }
                    }
                    Ok(CoordEvent::Finished) => finished += 1,
                    // Every sender is gone before every block finished: a
                    // worker died and its `PanicGuard` closed the pool.
                    Err(_) => break,
                }
            }
        });

        let stats = pool.mailboxes.stats();
        let queue_wait_events = pool.sched.queue_wait_events();
        // A worker that panicked left the block it was running without a
        // result, so the failure surfaces below as `MissingResults` naming it.
        let report = finalize_report(
            kernel,
            ExecutionMode::Asynchronous,
            "threaded async",
            started,
            pool.results
                .into_iter()
                .map(|r| r.into_inner().unwrap())
                .collect(),
            // ord: SeqCst — post-join counter snapshot
            pool.data_messages.load(Ordering::SeqCst),
            // ord: SeqCst — post-join counter snapshot
            pool.control_messages.load(Ordering::SeqCst),
            // ord: SeqCst — post-join counter snapshot
            pool.data_bytes.load(Ordering::SeqCst),
            detector.is_decided(),
            stats,
            queue_wait_events,
        )?;
        match joined {
            Ok(()) => Ok(report),
            // Unreachable as long as a panic can only interrupt a block
            // before it retires; never swallow one silently.
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// Per-block task of the asynchronous pool. The scheduler's
/// at-most-once-queued invariant means at most one worker processes a block
/// at any time, so the mutex is uncontended in practice.
struct AsyncTask {
    state: BlockState,
    local: LocalConvergence,
    done: bool,
}

/// One asynchronous pool worker: take the block at the front of the shared
/// queue and run one slice of it, or park until a block is queued or the
/// pool closes.
fn async_worker(
    pool: &AsyncPool<'_>,
    worker: usize,
    coord_tx: &Sender<CoordEvent>,
    tracer: &Tracer,
) {
    // One allocation per worker *lifetime* for the track name; every event
    // on the track uses static names (enforced by `cargo xtask analyze` R8).
    let mut rec = tracer.recorder(Layer::Runtime, format!("worker-{worker}"), worker as u64);
    while !pool.sched.is_closed() {
        if let Some(block) = pool.sched.pop() {
            pool.sched.took(block);
            pool.process(block, coord_tx, &mut rec);
        } else {
            rec.span_begin("park", 0);
            pool.sched.park_idle();
            rec.span_end("park", 0);
        }
    }
}

/// Everything the asynchronous pool's workers share.
struct AsyncPool<'a> {
    kernel: &'a dyn IterativeKernel,
    config: &'a RunConfig,
    graph: &'a DependencyGraph,
    mailboxes: CoalescingMailboxes,
    sched: WorkPool,
    tasks: Vec<Mutex<AsyncTask>>,
    results: Vec<Mutex<Option<BlockOutcome>>>,
    /// Global stop order from the coordinator.
    stop: AtomicBool,
    /// Set when some block exhausts its iteration limit before global
    /// convergence: the stop order may now never come, so converged blocks
    /// must stop parking and run out their own limits (the per-thread
    /// semantics of the paper's implementations).
    drain: AtomicBool,
    finished_blocks: AtomicUsize,
    data_messages: AtomicU64,
    control_messages: AtomicU64,
    data_bytes: AtomicU64,
}

impl AsyncPool<'_> {
    /// Runs one scheduling slice of `block`: drain its mailboxes, iterate
    /// once, publish, and decide whether to requeue, park or finish.
    fn process(&self, block: usize, coord_tx: &Sender<CoordEvent>, rec: &mut TrackRecorder) {
        let mut task = self.tasks[block].lock().unwrap();
        if task.done {
            return;
        }

        // Receive whatever has arrived (the newest version per edge, by
        // construction of the coalescing mailboxes).
        let mut fresh_data = false;
        self.mailboxes.take_for(block, |src, iteration, values| {
            fresh_data |= task.state.incorporate(src, iteration, values);
        });
        if fresh_data {
            rec.instant("take", block as u64);
        }

        let max_iter = self.config.max_iterations as u64;
        // ord: SeqCst — stop gate on the dispatch path
        if self.stop.load(Ordering::SeqCst) || task.state.iteration >= max_iter {
            self.finish(block, &mut task, coord_tx);
            return;
        }

        // Disabled tracing makes both clock reads return 0 and the push a
        // no-op branch, so the hot path stays untimed.
        let iterate_start = rec.now_ns();
        let update_residual = task.state.iterate(self.kernel);
        let iterate_end = rec.now_ns();
        rec.span_complete("iterate", iterate_start, iterate_end, block as u64);
        // An update far below ε means the block sits at its local fixed
        // point for its current inputs: with a contracting kernel every
        // further iterate moves it geometrically less, so the total drift
        // the gate below can ever suppress is a vanishing fraction of ε.
        // Same criterion (and constant) as the simulated back-end's
        // redundant-update skip. An exact-zero test would not do: floating-
        // point endgames commonly settle into 1-ulp two-cycles that never
        // reach a bit-stable value.
        let at_fixed_point = update_residual < self.config.epsilon * 1e-3;

        // Local convergence is judged on the cumulative drift since the last
        // window anchor, so that a round of updates split over many cheap
        // iterations is not under-measured. Quiet iterations on stale data do
        // not advance the streak; reports go out only when the state changes.
        // An at-fixed-point update is the one exception: it is a genuine
        // converged observation even on stale inputs, and counting it lets a
        // block finish its streak after its dependencies have gone quiet —
        // without it, gating publishes below could starve the streak of
        // fresh data and stall global detection.
        let drift = self
            .kernel
            .residual_between(block, &task.state.values, task.state.anchor());
        if drift >= self.config.epsilon {
            task.state.reset_anchor();
        }
        let has_dependencies = !self.graph.in_neighbours(block).is_empty();
        if task
            .local
            .observe_gated(drift, fresh_data || !has_dependencies || at_fixed_point)
        {
            // ord: stat counter — control-message telemetry
            self.control_messages.fetch_add(1, Ordering::Relaxed);
            let converged = task.local.is_converged();
            rec.instant(
                if converged { "converge" } else { "deconverge" },
                block as u64,
            );
            let _ = coord_tx.send(CoordEvent::StateChange { block, converged });
        }

        // Publish the fresh values on every out-edge, waking the dependants.
        // An at-fixed-point update publishes nothing: the dependants already
        // hold values indistinguishable at the ε scale, and re-sending them
        // only re-enqueues the neighbourhood. Without this gate two mutually
        // dependent blocks at a shared fixed point re-excite each other
        // forever — a publish storm that the FIFO order merely throttles
        // into round-robin.
        let out_degree = self.graph.out_neighbours(block).len() as u64;
        if out_degree > 0 && !at_fixed_point {
            self.mailboxes
                .publish_from(block, task.state.iteration, &task.state.values, |dst| {
                    self.sched.enqueue(dst);
                });
            rec.instant("publish", block as u64);
            // ord: stat counter — message-count telemetry
            self.data_messages.fetch_add(out_degree, Ordering::Relaxed);
            self.data_bytes.fetch_add(
                out_degree * Message::data_payload_bytes(task.state.values.len()),
                // ord: stat counter — byte-count telemetry
                Ordering::Relaxed,
            );
        }

        // ord: SeqCst — stop gate re-checked after the iterate
        if self.stop.load(Ordering::SeqCst) || task.state.iteration >= max_iter {
            self.finish(block, &mut task, coord_tx);
        // ord: SeqCst — drain flag decides requeue-at-fixed-point
        } else if task.local.is_converged() && !self.drain.load(Ordering::SeqCst) {
            // Dormant: stay off the run queue until a dependency publishes
            // fresh data or the stop/drain broadcast re-enqueues everything.
        } else {
            // Self-requeue at the back: every block queued ahead runs (and
            // may publish to this one) before it iterates again.
            self.sched.enqueue(block);
        }
    }

    /// Retires `block`: records its result, reports to the coordinator and
    /// closes the scheduler when it was the last one.
    fn finish(&self, block: usize, task: &mut AsyncTask, coord_tx: &Sender<CoordEvent>) {
        task.done = true;
        *self.results[block].lock().unwrap() = Some(BlockOutcome {
            // One copy per block at retirement, off the hot path (the shared
            // payload may still be referenced by the mailboxes).
            // copy: retirement snapshot — the block's values leave the runtime exactly once, at finish
            values: task.state.values.to_vec(),
            iterations: task.state.iteration,
            residual: task.state.residual,
            payload_clones: task.state.payload_clones,
            bytes_copied: task.state.bytes_copied,
        });
        // ord: SeqCst — stop gate before the convergence broadcast
        if !self.stop.load(Ordering::SeqCst) {
            // Iteration-limit exit before any stop order: global convergence
            // may never be decided now, so make sure no block parks forever.
            // ord: SeqCst — drain broadcast: every worker must observe it before its final laps
            self.drain.store(true, Ordering::SeqCst);
            self.sched.enqueue_all();
        }
        let _ = coord_tx.send(CoordEvent::Finished);
        // ord: SeqCst — finished-block count decides the single shutdown edge
        if self.finished_blocks.fetch_add(1, Ordering::SeqCst) + 1 == self.tasks.len() {
            self.sched.close();
        }
    }
}

/// A barrier a dying worker can break.
///
/// `std::sync::Barrier` waits for every party forever, so one worker that
/// panics mid-superstep would hang the rest of the pool. Here a worker that
/// unwinds breaks the barrier (see [`BreakOnUnwind`]): every waiter, present
/// and future, returns [`Broken`] instead of waiting.
struct BreakableBarrier {
    state: Mutex<BarrierState>,
    released: Condvar,
    parties: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    broken: bool,
}

/// The superstep barrier was broken: a worker died.
struct Broken;

impl BreakableBarrier {
    fn new(parties: usize) -> Self {
        Self {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                broken: false,
            }),
            released: Condvar::new(),
            parties,
        }
    }

    /// Blocks until every party has arrived, or returns [`Broken`] once the
    /// barrier is broken.
    fn wait(&self) -> Result<(), Broken> {
        let mut state = self.state.lock().unwrap();
        if state.broken {
            return Err(Broken);
        }
        state.arrived += 1;
        if state.arrived == self.parties {
            state.arrived = 0;
            state.generation += 1;
            self.released.notify_all();
            return Ok(());
        }
        let generation = state.generation;
        while state.generation == generation && !state.broken {
            state = self.released.wait(state).unwrap();
        }
        // A superstep that completed before the break still counts.
        if state.generation == generation {
            Err(Broken)
        } else {
            Ok(())
        }
    }

    fn break_barrier(&self) {
        self.state.lock().unwrap().broken = true;
        self.released.notify_all();
    }
}

/// Breaks the superstep barrier when a synchronous worker unwinds, so the
/// other workers return instead of waiting forever for it.
struct BreakOnUnwind<'a>(&'a BreakableBarrier);

impl Drop for BreakOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.break_barrier();
        }
    }
}

/// Everything the synchronous pool's workers share.
struct SyncPool<'a> {
    kernel: &'a dyn IterativeKernel,
    config: &'a RunConfig,
    graph: &'a DependencyGraph,
    /// Each block's published front buffer: written once per superstep by
    /// the block's owner in the compute phase, read by the dependants
    /// between the two barriers.
    fronts: Vec<Mutex<Payload>>,
    barrier: BreakableBarrier,
    /// Each worker's largest block residual of the last superstep (`f64`
    /// bits; infinite before the first).
    worst_residuals: Vec<AtomicU64>,
    data_messages: AtomicU64,
    data_bytes: AtomicU64,
    results: Vec<Mutex<Option<BlockOutcome>>>,
}

impl SyncPool<'_> {
    /// The synchronous stopping criterion: the true global residual of the
    /// last superstep is below ε.
    fn converged(&self) -> bool {
        let worst = self
            .worst_residuals
            .iter()
            // ord: SeqCst — residuals stored before barrier A; kept SeqCst so the proof stays trivial
            .map(|r| f64::from_bits(r.load(Ordering::SeqCst)))
            .fold(0.0f64, f64::max);
        worst < self.config.epsilon
    }

    /// A reference to `block`'s published front.
    fn front(&self, block: usize) -> Payload {
        // copy: refcount bump — the dependant's view slot shares the producer's published front
        self.fronts[block].lock().unwrap().clone()
    }

    /// One synchronous pool worker: runs the blocks it owns (`states`)
    /// through barrier-separated supersteps.
    fn run_worker(&self, worker: usize, mut states: Vec<BlockState>, tracer: &Tracer) {
        let _guard = BreakOnUnwind(&self.barrier);
        let mut rec = tracer.recorder(Layer::Runtime, format!("worker-{worker}"), worker as u64);
        let mut messages = 0u64;
        let mut bytes = 0u64;

        for superstep in 1..=self.config.max_iterations as u64 {
            // Compute phase: iterate every owned block (reading the
            // dependency values delivered for the previous iteration — a
            // Jacobi sweep) and publish its new front.
            let mut worst = 0.0f64;
            for state in states.iter_mut() {
                let iterate_start = rec.now_ns();
                worst = worst.max(state.iterate(self.kernel));
                let iterate_end = rec.now_ns();
                rec.span_complete("iterate", iterate_start, iterate_end, state.id as u64);
                // copy: refcount bump — the published front shares the block's new front buffer
                *self.fronts[state.id].lock().unwrap() = state.values.clone();
                let out_degree = self.graph.out_neighbours(state.id).len() as u64;
                if out_degree > 0 {
                    rec.instant("publish", state.id as u64);
                    messages += out_degree;
                    bytes += out_degree * Message::data_payload_bytes(state.values.len());
                }
            }
            // ord: SeqCst — residual publication before barrier A for every worker's stop decision
            self.worst_residuals[worker].store(worst.to_bits(), Ordering::SeqCst);
            // Barrier A: every front and residual of this superstep is
            // published.
            rec.span_begin("barrier", superstep);
            let passed = self.barrier.wait();
            rec.span_end("barrier", superstep);
            // Every worker reads the same residuals, so all of them take
            // the same decision and no stop order needs broadcasting.
            if passed.is_err() || self.converged() {
                break;
            }
            // Delivery phase: the sequential sweep's delivery, every view
            // slot taking a reference to its producer's published front.
            for state in states.iter_mut() {
                state.view.refresh_from(|b| self.front(b));
                rec.instant("take", state.id as u64);
            }
            // Barrier B: no front or residual is overwritten before every
            // worker has read them.
            if self.barrier.wait().is_err() {
                break;
            }
        }

        // ord: stat counter — message-count telemetry, added once per worker
        self.data_messages.fetch_add(messages, Ordering::Relaxed);
        // ord: stat counter — byte-count telemetry, added once per worker
        self.data_bytes.fetch_add(bytes, Ordering::Relaxed);
        for state in states {
            *self.results[state.id].lock().unwrap() = Some(BlockOutcome {
                iterations: state.iteration,
                residual: state.residual,
                payload_clones: state.payload_clones,
                bytes_copied: state.bytes_copied,
                // copy: retirement snapshot — sync-mode values leave the runtime at finish
                values: state.values.to_vec(),
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn finalize_report(
    kernel: &dyn IterativeKernel,
    mode: ExecutionMode,
    backend: &str,
    started: Instant,
    outcomes: Vec<Option<BlockOutcome>>,
    data_messages: u64,
    control_messages: u64,
    data_bytes: u64,
    converged: bool,
    mailbox_stats: MailboxStats,
    queue_wait_events: u64,
) -> Result<RunReport, RunError> {
    let m = kernel.num_blocks();
    let missing: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(block, r)| r.is_none().then_some(block))
        .collect();
    if outcomes.len() != m || !missing.is_empty() {
        return Err(RunError::MissingResults { missing });
    }
    let mut values = Vec::with_capacity(m);
    let mut iterations = Vec::with_capacity(m);
    let mut final_residual = 0.0f64;
    let mut payload_clones = 0u64;
    let mut bytes_copied = 0u64;
    for outcome in outcomes.into_iter().flatten() {
        final_residual = final_residual.max(outcome.residual);
        iterations.push(outcome.iterations);
        payload_clones += outcome.payload_clones;
        bytes_copied += outcome.bytes_copied;
        values.push(outcome.values);
    }
    Ok(RunReport {
        mode,
        backend: backend.to_string(),
        elapsed_secs: started.elapsed().as_secs_f64(),
        iterations,
        data_messages,
        control_messages,
        data_bytes,
        coalesced_messages: mailbox_stats.coalesced,
        peak_mailbox_occupancy: mailbox_stats.peak_occupancy,
        payload_clones,
        bytes_copied,
        queue_wait_events,
        cpu_queue_secs: 0.0,
        converged,
        premature_stop: false,
        solution: kernel.assemble(&values),
        final_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use crate::kernel::test_kernels::{Diverging, RingContraction};
    use crate::runtime::sequential::SequentialRuntime;

    /// (blocks in the queue, blocks counted pending).
    fn queued(pool: &WorkPool) -> (usize, usize) {
        let pending = pool.pending.load(Ordering::SeqCst);
        (pool.queue.lock().unwrap().len(), pending)
    }

    /// Runs `release` once `parkers` threads have registered in `park_idle`
    /// and returns how many it released. A parker is then either waiting or
    /// about to re-check `pending` / `closed` under the park lock; the
    /// handshake must release it in both orders, so neither is forced. One
    /// left behind is a short count after the timeout, not a hung test.
    fn released_from_park(pool: &WorkPool, parkers: usize, release: impl FnOnce()) -> usize {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..parkers {
                let tx = tx.clone();
                scope.spawn(move || {
                    pool.park_idle();
                    let _ = tx.send(());
                });
            }
            while pool.sleepers.load(Ordering::SeqCst) < parkers {
                std::thread::yield_now();
            }
            release();
            let released = (0..parkers)
                .take_while(|_| rx.recv_timeout(std::time::Duration::from_secs(20)).is_ok())
                .count();
            // Unblocks the scope join when the assertion is about to fail.
            pool.close();
            released
        })
    }

    #[test]
    fn a_block_is_queued_at_most_once_until_it_is_taken() {
        let pool = WorkPool::new(4);
        pool.enqueue(3);
        pool.enqueue(3);
        assert_eq!(queued(&pool), (1, 1));
        // The broadcast skips the block that is already queued.
        pool.enqueue_all();
        pool.enqueue_all();
        assert_eq!(queued(&pool), (4, 4));
        assert_eq!(pool.pop(), Some(3), "FIFO: the first block queued");
        // Popped but not yet `took`: the queued bit still blocks a re-queue.
        pool.enqueue(3);
        assert_eq!(queued(&pool), (3, 4));
    }

    #[test]
    fn a_publish_racing_took_requeues_the_block() {
        // A publish that lands before `took` is dropped by the queued bit
        // (the worker drains the mailbox after `took`, so it sees the
        // payload); one that lands after `took` must queue the block again.
        let pool = WorkPool::new(2);
        pool.enqueue(1);
        assert_eq!(pool.pop(), Some(1));
        pool.enqueue(1);
        assert_eq!(queued(&pool), (0, 1));
        pool.took(1);
        assert_eq!(queued(&pool), (0, 0));
        pool.enqueue(1);
        assert_eq!(queued(&pool), (1, 1));
    }

    #[test]
    fn enqueue_all_wakes_every_parked_worker() {
        // One `enqueue` wakes one sleeper; the broadcast must wake them all.
        let pool = WorkPool::new(3);
        assert_eq!(released_from_park(&pool, 3, || pool.enqueue_all()), 3);
        assert_eq!(pool.queue_wait_events(), 3, "every park is counted");
    }

    #[test]
    fn close_releases_every_parked_worker_without_a_timeout() {
        let pool = WorkPool::new(2);
        assert_eq!(released_from_park(&pool, 4, || pool.close()), 4);
        assert_eq!(pool.queue_wait_events(), 4);
        // A closed pool accepts no more work.
        pool.enqueue(0);
        pool.enqueue_all();
        assert_eq!(queued(&pool), (0, 0));
    }

    #[test]
    fn synchronous_threaded_matches_sequential_exactly() {
        let kernel = RingContraction::new(4);
        let config = RunConfig::synchronous(1e-10);
        let seq = SequentialRuntime::new().run(&kernel, &config);
        let par = ThreadedRuntime::new().run(&kernel, &config);
        assert!(par.converged);
        assert_eq!(par.iterations[0], seq.iterations[0]);
        for (a, b) in par.solution.iter().zip(&seq.solution) {
            assert_eq!(a, b, "synchronous iterates must be identical");
        }
    }

    #[test]
    fn synchronous_pool_is_bit_identical_for_every_pool_size() {
        // 7 blocks split unevenly over 2..=6 workers, and over 7 and 8,
        // which are clamped to one block per worker.
        let kernel = RingContraction::new(7);
        let edges = DependencyGraph::from_kernel(&kernel).num_edges() as u64;
        let seq = SequentialRuntime::new().run(&kernel, &RunConfig::synchronous(1e-10));
        for workers in 1..=8 {
            let config = RunConfig::synchronous(1e-10).with_num_workers(workers);
            let par = ThreadedRuntime::new().run(&kernel, &config);
            assert!(par.converged, "{workers} workers");
            assert_eq!(par.iterations, seq.iterations, "{workers} workers");
            for (a, b) in par.solution.iter().zip(&seq.solution) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{workers} workers: iterates must be identical"
                );
            }
            assert_eq!(par.peak_mailbox_occupancy, 0, "{workers} workers");
            assert_eq!(par.coalesced_messages, 0, "{workers} workers");
            assert_eq!(
                par.data_messages,
                edges * par.iterations[0],
                "{workers} workers: one message per edge per superstep"
            );
        }
    }

    #[test]
    fn asynchronous_threaded_converges_to_the_fixed_point() {
        let kernel = RingContraction::new(6);
        let config = RunConfig::asynchronous(1e-10).with_streak(5);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(
            report.converged,
            "AIAC run should detect global convergence"
        );
        let fp = kernel.fixed_point();
        for v in &report.solution {
            assert!((v - fp).abs() < 1e-6, "value {v} vs fixed point {fp}");
        }
        assert!(report.data_messages > 0);
        assert!(report.control_messages > 0);
    }

    #[test]
    fn asynchronous_workers_may_run_different_iteration_counts() {
        let kernel = RingContraction::new(4);
        let config = RunConfig::asynchronous(1e-12);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert_eq!(report.iterations.len(), 4);
        assert!(report.iterations.iter().all(|&i| i > 0));
    }

    #[test]
    fn pool_smaller_than_the_block_count_still_converges() {
        // 12 blocks over at most 2 workers: the old executor would have
        // spawned 12 threads; the pool must multiplex without deadlocking.
        let kernel = RingContraction::new(12);
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(4)
            .with_num_workers(2);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(report.converged);
        let fp = kernel.fixed_point();
        for v in &report.solution {
            assert!((v - fp).abs() < 1e-6, "value {v} vs fixed point {fp}");
        }
    }

    #[test]
    fn in_flight_data_is_bounded_by_the_edge_count() {
        let kernel = RingContraction::new(8);
        let graph = DependencyGraph::from_kernel(&kernel);
        for config in [
            RunConfig::synchronous(1e-8).with_num_workers(3),
            RunConfig::asynchronous(1e-8).with_num_workers(3),
        ] {
            let report = ThreadedRuntime::new().run(&kernel, &config);
            assert!(
                report.peak_mailbox_occupancy <= graph.num_edges() as u64,
                "{:?}: peak {} must stay under the edge count {}",
                config.mode,
                report.peak_mailbox_occupancy,
                graph.num_edges()
            );
        }
    }

    #[test]
    fn diverging_problem_hits_the_iteration_limit_in_both_modes() {
        let kernel = Diverging { blocks: 3 };
        for config in [
            RunConfig::synchronous(1e-10).with_max_iterations(50),
            RunConfig::asynchronous(1e-10).with_max_iterations(50),
        ] {
            let report = ThreadedRuntime::new().run(&kernel, &config);
            assert!(!report.converged, "{:?} must not converge", config.mode);
            assert!(report.iterations.iter().all(|&i| i <= 50));
        }
    }

    #[test]
    fn single_block_async_run_works() {
        let kernel = RingContraction::new(1);
        let report = ThreadedRuntime::new().run(&kernel, &RunConfig::asynchronous(1e-10));
        assert!(report.converged);
        assert!((report.solution[0] - kernel.fixed_point()).abs() < 1e-6);
    }

    #[test]
    fn sync_mode_counts_messages_along_ring_edges() {
        let kernel = RingContraction::new(5);
        let config = RunConfig::synchronous(1e-8);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        // 2 out-neighbours per block, 5 blocks, one message per edge per iteration
        assert_eq!(
            report.data_messages,
            10 * report.iterations[0],
            "each iteration sends one message per directed edge"
        );
    }

    #[test]
    fn native_in_place_kernel_runs_zero_copy_in_both_modes() {
        // RingContraction overrides `update_block_into`, so the data plane
        // must never fall back to the copying path: payloads travel only by
        // Arc refcount through the mailboxes and dependency views.
        let kernel = RingContraction::new(6);
        for config in [
            RunConfig::synchronous(1e-10).with_num_workers(3),
            RunConfig::asynchronous(1e-10)
                .with_streak(4)
                .with_num_workers(3),
        ] {
            let report = ThreadedRuntime::new().run(&kernel, &config);
            assert_eq!(report.payload_clones, 0, "{:?}", config.mode);
            assert_eq!(report.bytes_copied, 0, "{:?}", config.mode);
        }
    }

    #[test]
    fn try_run_reports_invalid_configurations() {
        let kernel = RingContraction::new(2);
        let bad = RunConfig::asynchronous(1e-8).with_num_workers(0);
        let err = ThreadedRuntime::new().try_run(&kernel, &bad).unwrap_err();
        assert_eq!(err, RunError::InvalidConfig(ConfigError::ZeroWorkers));
    }

    #[test]
    fn finalize_report_names_the_blocks_without_results() {
        // Regression test: a worker dying used to surface as a bare
        // `assert_eq!(collected, m)` with no hint of what was lost.
        let kernel = RingContraction::new(4);
        let outcome = |v: f64| {
            Some(BlockOutcome {
                values: vec![v],
                iterations: 1,
                residual: 0.0,
                payload_clones: 0,
                bytes_copied: 0,
            })
        };
        let err = finalize_report(
            &kernel,
            ExecutionMode::Asynchronous,
            "threaded async",
            Instant::now(),
            vec![outcome(0.0), None, outcome(2.0), None],
            0,
            0,
            0,
            false,
            MailboxStats::default(),
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::MissingResults {
                missing: vec![1, 3]
            }
        );
        assert!(err.to_string().contains("[1, 3]"), "{err}");
    }

    /// A ring whose update of one block panics.
    struct PanicsOnBlock(RingContraction, usize);

    impl IterativeKernel for PanicsOnBlock {
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
            self.0.dependencies(block)
        }
        fn update_block(
            &self,
            block: usize,
            local: &[f64],
            others: &crate::kernel::DependencyView,
        ) -> crate::kernel::BlockUpdate {
            assert_ne!(block, self.1, "injected kernel failure");
            self.0.update_block(block, local, others)
        }
    }

    #[test]
    fn a_panicking_kernel_ends_the_run_in_a_typed_error() {
        // Regression test: `try_run` promised a `RunError`, but the async
        // path re-panicked on the main thread when a worker died, and the
        // sync path panicked with one worker and hung on its barrier with
        // more.
        let kernel = PanicsOnBlock(RingContraction::new(6), 4);
        for mode in [RunConfig::synchronous, RunConfig::asynchronous] {
            for workers in [1, 3] {
                let config = mode(1e-10).with_num_workers(workers);
                let err = ThreadedRuntime::new()
                    .try_run(&kernel, &config)
                    .expect_err("block 4 never produces a result");
                let mode = config.mode;
                let RunError::MissingResults { missing } = err else {
                    panic!("{mode:?}, {workers} workers: unexpected error {err}");
                };
                assert!(
                    missing.contains(&4),
                    "{mode:?}, {workers} workers: {missing:?}"
                );
            }
        }
    }

    #[test]
    fn synchronous_mode_reports_a_structurally_zero_park_count() {
        let kernel = RingContraction::new(6);
        let config = RunConfig::synchronous(1e-10).with_num_workers(3);
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(report.converged);
        assert_eq!(
            report.queue_wait_events, 0,
            "the static sync partition must never touch the run queue"
        );
    }

    #[test]
    fn iteration_limited_single_worker_run_with_many_blocks_terminates_promptly() {
        // Regression test for the stop-broadcast audit: a 1-worker pool over
        // 64 blocks takes the drain path (iteration limit, no stop order).
        // With a timeout-sleep-based park this hung or crawled; with the
        // Dekker handshake the drain broadcast must release the run at once.
        let kernel = Diverging { blocks: 64 };
        let config = RunConfig::asynchronous(1e-12)
            .with_max_iterations(5)
            .with_num_workers(1);
        let started = std::time::Instant::now();
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(!report.converged);
        assert_eq!(report.iterations.len(), 64);
        assert!(report.iterations.iter().all(|&i| i <= 5));
        assert!(
            started.elapsed().as_secs() < 30,
            "a cancelled 64-block run must terminate promptly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn stop_broadcast_releases_workers_parked_on_the_empty_queue() {
        // More workers than runnable work: most of the pool spends the run
        // parked on the empty queue. The stop broadcast must wake every one
        // of them or the scope join hangs.
        let kernel = RingContraction::new(8);
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(6)
            .with_num_workers(8);
        let started = std::time::Instant::now();
        let report = ThreadedRuntime::new().run(&kernel, &config);
        assert!(report.converged);
        assert!(
            started.elapsed().as_secs() < 30,
            "parked workers must observe the stop broadcast, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn traced_async_run_records_runtime_layer_events() {
        use aiac_obs::TraceConfig;
        let kernel = RingContraction::new(6);
        let config = RunConfig::asynchronous(1e-10)
            .with_streak(4)
            .with_num_workers(2)
            .with_tracing(TraceConfig::on());
        let (report, snap) = ThreadedRuntime::new().run_traced(&kernel, &config);
        assert!(report.converged);
        assert!(!snap.is_empty());
        assert_eq!(snap.layers(), vec![Layer::Runtime]);
        let names: std::collections::BTreeSet<&str> = snap
            .tracks
            .iter()
            .flat_map(|t| t.ring.iter_in_order().map(|e| e.name))
            .collect();
        assert!(names.contains("iterate"), "{names:?}");
        assert!(names.contains("publish"), "{names:?}");
        assert!(names.contains("converge"), "{names:?}");
    }

    #[test]
    fn traced_sync_run_records_iterate_and_barrier_spans() {
        use aiac_obs::TraceConfig;
        let kernel = RingContraction::new(4);
        let config = RunConfig::synchronous(1e-8)
            .with_num_workers(2)
            .with_tracing(TraceConfig::on());
        let (report, snap) = ThreadedRuntime::new().run_traced(&kernel, &config);
        assert!(report.converged);
        let names: std::collections::BTreeSet<&str> = snap
            .tracks
            .iter()
            .flat_map(|t| t.ring.iter_in_order().map(|e| e.name))
            .collect();
        assert!(names.contains("iterate"), "{names:?}");
        assert!(names.contains("barrier"), "{names:?}");
    }

    #[test]
    fn untraced_runs_leave_the_snapshot_empty() {
        let kernel = RingContraction::new(4);
        let config = RunConfig::asynchronous(1e-10).with_streak(4);
        let (report, snap) = ThreadedRuntime::new().run_traced(&kernel, &config);
        assert!(report.converged);
        assert!(snap.is_empty());
    }
}
