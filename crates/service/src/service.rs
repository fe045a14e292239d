//! The real service: OS-thread workers over the shared steal deque.
//!
//! [`SolverService::start`] spawns a pool of workers that steal job tokens
//! from one shared [`StealDeque`], `aiac-core`'s bounded lock-free deque.
//! Admission and the DRR dispatcher live behind
//! a single mutex; the deque crossing is the only hand-off between the
//! dispatcher and the pool. Every job carries a
//! [`CancelToken`], so callers can abort
//! queued or running work without tearing the pool down.
//!
//! Queue paths never panic: admission failures are [`AdmissionError`]
//! values and result delivery tolerates a dropped receiver (that is the
//! `xtask analyze` R7 rule, enforced over this file).

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use aiac_core::cancel::CancelToken;
use aiac_core::runtime::{PushError, Steal, StealDeque};
use aiac_obs::{TraceSnapshot, Tracer, TrackRecorder};

use crate::cache::{job_key, CachedSolve, ResultCache};
use crate::config::ServiceConfig;
use crate::drr::{Pending, TenantQueues};
use crate::job::{self, AdmissionError, JobId, JobResult, JobSpec, TenantId};
use crate::sim::{tenant_track, LoadReport};
use crate::traffic::TrafficSpec;

/// What a successful submission hands back: the job's id and a handle that
/// cancels it whether it is still queued or already running.
#[derive(Debug, Clone)]
pub struct JobTicket {
    /// The id the eventual [`JobResult`] will carry.
    pub id: JobId,
    /// Raising this token aborts the job at its next cancellation point.
    pub cancel: CancelToken,
}

/// A job that has left the tenant queues and owns (or awaits) a worker.
struct Active {
    pending: Pending,
    cancel: CancelToken,
}

/// Dispatcher state behind the service mutex.
struct State {
    queues: TenantQueues,
    /// Jobs handed to the deque or executing, keyed by deque token.
    slots: HashMap<usize, Active>,
    /// Cancel handles of every admitted-but-unfinished job, keyed by id.
    tickets: HashMap<JobId, CancelToken>,
    next_id: JobId,
    next_token: usize,
    in_flight: u64,
    peak_in_flight: u64,
    completed: u64,
    paused: bool,
    shutdown: bool,
}

/// Everything workers and the front end share.
struct Shared {
    config: ServiceConfig,
    state: Mutex<State>,
    work_ready: Condvar,
    injector: StealDeque,
    cache: Mutex<ResultCache>,
    started: Instant,
}

impl Shared {
    /// Moves queued jobs onto the deque until it fills, the queues drain,
    /// or the service is paused. Returns how many jobs moved.
    fn refill_locked(&self, state: &mut State) -> usize {
        if state.paused {
            return 0;
        }
        let mut moved = 0;
        while let Some(pending) = state.queues.dispatch() {
            let token = state.next_token;
            state.next_token += 1;
            // The handle was registered at submission; a missing entry is
            // impossible while the job is in flight, but an uncancellable
            // default beats wedging the dispatcher.
            let cancel = state.tickets.get(&pending.id).cloned().unwrap_or_default();
            state.slots.insert(token, Active { pending, cancel });
            match self.injector.push(token) {
                Ok(()) => moved += 1,
                Err(PushError::Full) => {
                    // Hand the job back unreordered; a worker will refill
                    // once the deque drains.
                    if let Some(put_back) = state.slots.remove(&token) {
                        state.queues.requeue_front(put_back.pending);
                    }
                    break;
                }
            }
        }
        moved
    }
}

/// One pool worker: steals tokens, executes jobs, delivers results.
struct Worker {
    shared: Arc<Shared>,
    results_tx: mpsc::Sender<JobResult>,
}

impl Worker {
    fn run(&self) {
        loop {
            match self.shared.injector.steal() {
                Steal::Success(token) => self.execute(token),
                Steal::Retry => std::thread::yield_now(),
                Steal::Empty => {
                    let mut state = self.shared.state.lock().expect("service mutex poisoned");
                    if self.shared.refill_locked(&mut state) > 0 {
                        continue;
                    }
                    if state.shutdown && state.slots.is_empty() && state.queues.is_empty() {
                        break;
                    }
                    // Between our Steal::Empty and taking the lock, another
                    // path (submit, resume, a completing worker) may have
                    // refilled the deque and fired its notification. Every
                    // push happens under this lock, so re-checking here
                    // closes the lost-wakeup window: either the token is
                    // already visible (steal again), or the push will come
                    // after we release the lock in wait() and its
                    // notify_all wakes us.
                    if !self.shared.injector.is_empty() {
                        continue;
                    }
                    // Nothing to do: sleep until a submit, a completion or
                    // shutdown changes the picture. Spurious wakeups just
                    // re-enter the steal loop.
                    let _guard = self
                        .shared
                        .work_ready
                        .wait(state)
                        .expect("service mutex poisoned");
                }
            }
        }
    }

    fn execute(&self, token: usize) {
        let active = {
            let mut state = self.shared.state.lock().expect("service mutex poisoned");
            state.slots.remove(&token)
        };
        let Some(Active { pending, cancel }) = active else {
            return;
        };
        let Pending {
            id,
            spec,
            arrival_secs,
        } = pending;

        let result = self.solve_job(id, &spec, &cancel, arrival_secs);
        self.deliver(result);

        let mut state = self.shared.state.lock().expect("service mutex poisoned");
        state.tickets.remove(&id);
        state.in_flight -= 1;
        state.completed += 1;
        self.shared.refill_locked(&mut state);
        drop(state);
        self.shared.work_ready.notify_all();
    }

    fn solve_job(
        &self,
        id: JobId,
        spec: &JobSpec,
        cancel: &CancelToken,
        arrival_secs: f64,
    ) -> JobResult {
        let finish = |converged: bool,
                      cancelled: bool,
                      from_cache: bool,
                      sweeps: u64,
                      final_residual: f64,
                      solution: Vec<f64>| {
            JobResult {
                job: id,
                tenant: spec.tenant,
                converged,
                cancelled,
                from_cache,
                sweeps,
                final_residual,
                latency_secs: self.shared.started.elapsed().as_secs_f64() - arrival_secs,
                solution,
            }
        };

        if cancel.is_cancelled() {
            return finish(false, true, false, 0, f64::INFINITY, Vec::new());
        }

        let key = job_key(spec);
        let hit = {
            let mut cache = self.shared.cache.lock().expect("cache mutex poisoned");
            cache.lookup(key)
        };
        if let Some(cached) = hit {
            return finish(
                cached.converged,
                false,
                true,
                cached.sweeps,
                cached.final_residual,
                cached.solution,
            );
        }

        let outcome = job::solve(spec, Some(cancel));
        if !outcome.cancelled {
            let mut cache = self.shared.cache.lock().expect("cache mutex poisoned");
            cache.insert(
                key,
                CachedSolve {
                    converged: outcome.converged,
                    sweeps: outcome.sweeps,
                    final_residual: outcome.final_residual,
                    virtual_cost_secs: outcome.virtual_cost_secs,
                    solution: outcome.solution.clone(),
                },
            );
        }
        finish(
            outcome.converged,
            outcome.cancelled,
            false,
            outcome.sweeps,
            outcome.final_residual,
            outcome.solution,
        )
    }

    /// Hands a result to whoever holds the receiver. A dropped receiver is
    /// not an error: the caller stopped listening, the job still ran.
    fn deliver(&self, result: JobResult) {
        let _ = self.results_tx.send(result);
    }
}

/// The multi-tenant solver service front end.
pub struct SolverService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    results_rx: Mutex<Option<mpsc::Receiver<JobResult>>>,
}

impl SolverService {
    /// Starts the service: spawns the worker pool and begins dispatching
    /// immediately.
    ///
    /// # Panics
    /// When `config` fails [`ServiceConfig::validate`].
    pub fn start(config: ServiceConfig) -> Self {
        Self::start_inner(config, false)
    }

    /// Starts with dispatch *paused*: jobs are admitted and queued but no
    /// worker runs anything until [`SolverService::resume`]. The load tests
    /// use this to pile up a deterministic number of in-flight jobs.
    pub fn start_paused(config: ServiceConfig) -> Self {
        Self::start_inner(config, true)
    }

    fn start_inner(config: ServiceConfig, paused: bool) -> Self {
        config
            .validate()
            .unwrap_or_else(|why| panic!("invalid service config: {why}"));
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State {
                queues: TenantQueues::new(config.tenant_queue_depth, config.drr_quantum),
                slots: HashMap::new(),
                tickets: HashMap::new(),
                next_id: 0,
                next_token: 0,
                in_flight: 0,
                peak_in_flight: 0,
                completed: 0,
                paused,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            injector: StealDeque::new(config.max_in_flight),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            started: Instant::now(),
        });
        let (results_tx, results_rx) = mpsc::channel();
        let workers = (0..config.workers)
            .map(|i| {
                let worker = Worker {
                    shared: Arc::clone(&shared),
                    results_tx: results_tx.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("aiac-service-{i}"))
                    .spawn(move || worker.run())
                    .expect("failed to spawn service worker")
            })
            .collect();
        SolverService {
            shared,
            workers,
            results_rx: Mutex::new(Some(results_rx)),
        }
    }

    /// Admits one job, or rejects it with a typed backpressure error.
    ///
    /// # Errors
    /// [`AdmissionError::Closed`] after [`SolverService::close`],
    /// [`AdmissionError::InFlightLimit`] at the global bound, and
    /// [`AdmissionError::TenantQueueFull`] at the tenant's depth.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, AdmissionError> {
        let mut state = self.shared.state.lock().expect("service mutex poisoned");
        if state.shutdown {
            return Err(AdmissionError::Closed);
        }
        if state.in_flight >= self.shared.config.max_in_flight as u64 {
            return Err(AdmissionError::InFlightLimit {
                limit: self.shared.config.max_in_flight,
            });
        }
        let id = state.next_id;
        let pending = Pending {
            id,
            spec,
            arrival_secs: self.shared.started.elapsed().as_secs_f64(),
        };
        state.queues.enqueue(pending)?;
        state.next_id += 1;
        let cancel = CancelToken::new();
        state.tickets.insert(id, cancel.clone());
        state.in_flight += 1;
        state.peak_in_flight = state.peak_in_flight.max(state.in_flight);
        self.shared.refill_locked(&mut state);
        drop(state);
        self.shared.work_ready.notify_all();
        Ok(JobTicket { id, cancel })
    }

    /// Releases a paused service: queued jobs flow to the pool.
    pub fn resume(&self) {
        let mut state = self.shared.state.lock().expect("service mutex poisoned");
        state.paused = false;
        self.shared.refill_locked(&mut state);
        drop(state);
        self.shared.work_ready.notify_all();
    }

    /// Stops admission. Already-queued jobs still drain (pausing is lifted
    /// so the backlog cannot wedge the workers); results keep flowing until
    /// the last admitted job completes.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().expect("service mutex poisoned");
        state.shutdown = true;
        state.paused = false;
        self.shared.refill_locked(&mut state);
        drop(state);
        self.shared.work_ready.notify_all();
    }

    /// Closes the service and joins the pool after it drains.
    pub fn shutdown(mut self) {
        self.close();
        self.join_workers();
    }

    /// Takes the result receiver; `None` after the first call.
    pub fn take_results(&self) -> Option<mpsc::Receiver<JobResult>> {
        let mut slot = self.results_rx.lock().expect("service mutex poisoned");
        slot.take()
    }

    /// Highest number of admitted-but-unfinished jobs seen so far.
    pub fn peak_in_flight(&self) -> u64 {
        let state = self.shared.state.lock().expect("service mutex poisoned");
        state.peak_in_flight
    }

    /// Admitted-but-unfinished jobs right now.
    pub fn in_flight(&self) -> u64 {
        let state = self.shared.state.lock().expect("service mutex poisoned");
        state.in_flight
    }

    /// `(hits, misses)` of the shared result cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        let cache = self.shared.cache.lock().expect("cache mutex poisoned");
        (cache.hits(), cache.misses())
    }

    fn join_workers(&mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.close();
        self.join_workers();
    }
}

/// Replays a traffic stream on the real pool and reports what happened.
///
/// The stream is submitted up front against a *paused* service, so the
/// in-flight peak is a deterministic property of the traffic (and the load
/// test can assert "more than a thousand concurrent jobs"); dispatch then
/// resumes and everything drains through the shared deque. Latencies are
/// wall-clock and therefore *not* gateable — the virtual-clock twin in
/// [`crate::sim`] owns the deterministic metrics.
pub fn run_real_load(config: &ServiceConfig, traffic: &TrafficSpec) -> LoadReport {
    run_real_load_traced(config, traffic).0
}

/// Like [`run_real_load`], also returning the event trace: per-tenant
/// [`aiac_obs::Layer::Service`] tracks recorded on the driver thread —
/// admission verdicts at submission time and one wall-clock lifecycle span
/// per completed job (reconstructed from the result's latency, so the
/// workers themselves stay untouched by tracing). Empty (and free) when
/// `config.tracing` is off.
pub fn run_real_load_traced(
    config: &ServiceConfig,
    traffic: &TrafficSpec,
) -> (LoadReport, TraceSnapshot) {
    let tracer = Tracer::new(config.tracing);
    let traced = tracer.is_enabled();
    let mut recorders: BTreeMap<TenantId, TrackRecorder> = BTreeMap::new();
    let service = SolverService::start_paused(*config);
    let arrivals = traffic.generate();
    let started = Instant::now();

    let mut report = LoadReport {
        generated: arrivals.len() as u64,
        completed: 0,
        rejected: 0,
        rejected_tenant_full: 0,
        rejected_in_flight: 0,
        cache_hits: 0,
        cache_misses: 0,
        peak_in_flight: 0,
        in_flight_bound: config.max_in_flight as u64,
        makespan_secs: 0.0,
        latencies: Vec::with_capacity(arrivals.len()),
        per_tenant_goodput: std::collections::BTreeMap::new(),
        per_tenant_admitted: std::collections::BTreeMap::new(),
        per_tenant_submitted: std::collections::BTreeMap::new(),
    };

    let mut admitted = 0u64;
    for arrival in &arrivals {
        *report
            .per_tenant_submitted
            .entry(arrival.spec.tenant)
            .or_default() += 1;
        let verdict = match service.submit(arrival.spec.clone()) {
            Ok(_ticket) => {
                admitted += 1;
                *report
                    .per_tenant_admitted
                    .entry(arrival.spec.tenant)
                    .or_default() += 1;
                "admit"
            }
            Err(AdmissionError::TenantQueueFull { .. }) => {
                report.rejected += 1;
                report.rejected_tenant_full += 1;
                "reject_tenant_full"
            }
            Err(AdmissionError::InFlightLimit { .. }) => {
                report.rejected += 1;
                report.rejected_in_flight += 1;
                "reject_in_flight"
            }
            Err(AdmissionError::Closed) => {
                report.rejected += 1;
                "reject_closed"
            }
        };
        if traced {
            tenant_track(&mut recorders, &tracer, arrival.spec.tenant).instant(verdict, admitted);
        }
    }
    // Everything is queued and nothing has run: the peak is exact here.
    report.peak_in_flight = service.peak_in_flight();

    let rx = service
        .take_results()
        .expect("fresh service must still hold its receiver");
    service.resume();

    for _ in 0..admitted {
        let Ok(result) = rx.recv() else {
            break;
        };
        report.completed += 1;
        let latency = result.latency_secs.max(0.0);
        report.latencies.push(latency);
        *report.per_tenant_goodput.entry(result.tenant).or_default() += 1;
        if traced {
            // Reconstruct the lifecycle span from the result's own latency:
            // the workers stay untouched by tracing, and the driver thread
            // remains the single writer of every tenant track.
            let end_ns = tracer.now_ns();
            let start_ns = end_ns.saturating_sub((latency * 1e9).round() as u64);
            tenant_track(&mut recorders, &tracer, result.tenant)
                .span_complete("job", start_ns, end_ns, result.job);
        }
    }
    report.makespan_secs = started.elapsed().as_secs_f64();
    let (hits, misses) = service.cache_stats();
    report.cache_hits = hits;
    report.cache_misses = misses;
    service.shutdown();
    drop(recorders);
    (report, tracer.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ServiceProblem, TenantId};
    use std::collections::BTreeMap;

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            max_in_flight: 2_048,
            tenant_queue_depth: 512,
            drr_quantum: 4,
            cache_capacity: 64,
            ..ServiceConfig::default()
        }
    }

    fn cheap_job(tenant: TenantId) -> JobSpec {
        JobSpec {
            tenant,
            problem: ServiceProblem::Ring { blocks: 4 },
            epsilon: 1e-6,
            max_sweeps: 10_000,
        }
    }

    #[test]
    fn an_idle_service_shuts_down_cleanly() {
        let service = SolverService::start(small_config());
        service.shutdown();
    }

    #[test]
    fn a_thousand_plus_concurrent_jobs_all_complete() {
        let service = SolverService::start_paused(small_config());
        let total = 1_200u64;
        for i in 0..total {
            service.submit(cheap_job((i % 4) as TenantId)).unwrap();
        }
        assert_eq!(service.peak_in_flight(), total);
        assert!(service.peak_in_flight() >= 1_000);
        let rx = service.take_results().unwrap();
        service.resume();
        let mut per_tenant: BTreeMap<TenantId, u64> = BTreeMap::new();
        for _ in 0..total {
            let result = rx.recv().unwrap();
            assert!(result.converged || result.from_cache);
            *per_tenant.entry(result.tenant).or_default() += 1;
        }
        assert_eq!(per_tenant.values().sum::<u64>(), total);
        assert_eq!(per_tenant.len(), 4);
        service.shutdown();
    }

    #[test]
    fn a_single_worker_never_misses_a_wakeup() {
        // Regression: a worker that saw Steal::Empty could sleep on the
        // condvar after submit() had already pushed a token and notified,
        // wedging a one-worker service forever. Each iteration races one
        // submit against the worker going idle.
        let config = ServiceConfig {
            workers: 1,
            max_in_flight: 8,
            tenant_queue_depth: 8,
            drr_quantum: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let service = SolverService::start(config);
        let rx = service.take_results().unwrap();
        for i in 0..200u64 {
            let ticket = service.submit(cheap_job((i % 3) as TenantId)).unwrap();
            let result = rx.recv().unwrap();
            assert_eq!(result.job, ticket.id);
        }
        service.shutdown();
    }

    #[test]
    fn the_in_flight_bound_rejects_at_the_door() {
        let config = ServiceConfig {
            workers: 1,
            max_in_flight: 4,
            tenant_queue_depth: 4,
            drr_quantum: 1,
            cache_capacity: 4,
            ..ServiceConfig::default()
        };
        let service = SolverService::start_paused(config);
        for i in 0..4 {
            service.submit(cheap_job(i)).unwrap();
        }
        let err = service.submit(cheap_job(9)).unwrap_err();
        assert_eq!(err, AdmissionError::InFlightLimit { limit: 4 });
        service.resume();
        service.shutdown();
    }

    #[test]
    fn a_full_tenant_lane_rejects_only_that_tenant() {
        let config = ServiceConfig {
            workers: 1,
            max_in_flight: 64,
            tenant_queue_depth: 2,
            drr_quantum: 1,
            cache_capacity: 4,
            ..ServiceConfig::default()
        };
        let service = SolverService::start_paused(config);
        service.submit(cheap_job(0)).unwrap();
        service.submit(cheap_job(0)).unwrap();
        let err = service.submit(cheap_job(0)).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::TenantQueueFull {
                tenant: 0,
                depth: 2
            }
        );
        service.submit(cheap_job(1)).unwrap();
        service.resume();
        service.shutdown();
    }

    #[test]
    fn a_closed_service_refuses_new_work() {
        let service = SolverService::start(small_config());
        service.close();
        let err = service.submit(cheap_job(0)).unwrap_err();
        assert_eq!(err, AdmissionError::Closed);
        service.shutdown();
    }

    #[test]
    fn cancelling_a_queued_job_skips_its_solve() {
        let service = SolverService::start_paused(small_config());
        let ticket = service.submit(cheap_job(0)).unwrap();
        ticket.cancel.cancel();
        let rx = service.take_results().unwrap();
        service.resume();
        let result = rx.recv().unwrap();
        assert_eq!(result.job, ticket.id);
        assert!(result.cancelled);
        assert!(!result.converged);
        assert_eq!(result.sweeps, 0);
        assert!(result.solution.is_empty());
        service.shutdown();
    }

    #[test]
    fn repeated_jobs_are_served_from_the_cache() {
        let config = ServiceConfig {
            workers: 1,
            max_in_flight: 64,
            tenant_queue_depth: 32,
            drr_quantum: 1,
            cache_capacity: 8,
            ..ServiceConfig::default()
        };
        let service = SolverService::start_paused(config);
        for _ in 0..10 {
            service.submit(cheap_job(0)).unwrap();
        }
        let rx = service.take_results().unwrap();
        service.resume();
        let mut from_cache = 0;
        for _ in 0..10 {
            let result = rx.recv().unwrap();
            assert!(result.converged);
            if result.from_cache {
                from_cache += 1;
            }
        }
        assert_eq!(from_cache, 9, "one miss, nine hits on a single worker");
        assert_eq!(service.cache_stats(), (9, 1));
        service.shutdown();
    }

    #[test]
    fn dropping_the_service_joins_the_pool() {
        let service = SolverService::start(small_config());
        service.submit(cheap_job(0)).unwrap();
        drop(service);
    }

    #[test]
    fn run_real_load_loses_nothing() {
        let traffic = TrafficSpec {
            jobs: 300,
            initial_burst: 200,
            ..TrafficSpec::smoke()
        };
        let config = small_config();
        let report = run_real_load(&config, &traffic);
        assert_eq!(report.generated, 300);
        assert_eq!(report.lost(), 0);
        assert!(report.peak_in_flight >= 200);
        assert!(report.peak_in_flight <= report.in_flight_bound);
        assert!(report.makespan_secs > 0.0);
        assert_eq!(report.latencies.len() as u64, report.completed);
    }

    #[test]
    fn traced_real_loads_record_admission_and_job_spans_per_tenant() {
        let traffic = TrafficSpec {
            jobs: 60,
            initial_burst: 20,
            ..TrafficSpec::smoke()
        };
        let config = small_config().with_tracing(aiac_obs::TraceConfig::on());
        let (report, trace) = run_real_load_traced(&config, &traffic);
        assert_eq!(report.lost(), 0);
        assert!(!trace.is_empty());
        assert_eq!(trace.layers(), vec![aiac_obs::Layer::Service]);
        let names: std::collections::BTreeSet<&str> = trace
            .tracks
            .iter()
            .flat_map(|t| t.ring.iter_in_order().map(|e| e.name))
            .collect();
        assert!(names.contains("admit"));
        assert!(names.contains("job"));
        // one track per submitting tenant, all on the driver thread
        assert_eq!(trace.tracks.len(), report.per_tenant_submitted.len());

        // tracing off leaves no trace at all
        let (_, off) = run_real_load_traced(&small_config(), &traffic);
        assert!(off.is_empty());
    }
}
