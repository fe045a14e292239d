//! The two service workloads: an open-loop driver at four fixed rates,
//! saturation batches after each of them, and (hot set only) an overload
//! phase against a paused service.
//!
//! The driver is one thread. It waits for the next arrival's due time on the
//! result channel (so a result is stamped when it arrives, not when the wait
//! ends), spins for the last 200 µs at most, and times every job from its
//! *due* time, so a stall of the generator or the service counts against the
//! jobs behind it. How late the generator ran is reported, and a step whose
//! p99 lateness exceeds 2 ms is marked generator-bound instead of being
//! counted against the service.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, Cache, Direct, Done, Job, Problem, Service};
use crate::arrivals::{poisson, SplitMix64};
use crate::micro::{self, time_calls};
use crate::outcome::{Budget, Ctx, Outcome};
use crate::spans::{Recorder, Span};
use crate::stats::{fastest, median, percentile, tail};
use crate::{sysinfo, workloads};

const TENANTS: usize = 4;
const HOT_KEYS: usize = 32;
/// Longest the driver spins before a send.
const SPIN: Duration = Duration::from_micros(200);
/// Generator lateness (p99) beyond which a step says nothing of the service.
const GENERATOR_BOUND_MS: f64 = 2.0;
/// Where the warm-up streams' tolerances start: far above anything the timed
/// stream of one run reaches.
const WARM_UP_FIRST: u64 = 1 << 30;
/// Most per-job spans a traced run keeps.
const MAX_JOB_SPANS: usize = 20_000;

const LAT_P50: [&str; 4] = [
    "service.lat_p50_ms.r1",
    "service.lat_p50_ms.r2",
    "service.lat_p50_ms.r3",
    "service.lat_p50_ms.r4",
];
const LAT_P99: [&str; 4] = [
    "service.lat_p99_ms.r1",
    "service.lat_p99_ms.r2",
    "service.lat_p99_ms.r3",
    "service.lat_p99_ms.r4",
];
const BACKLOG: [&str; 4] = [
    "service.backlog_end.r1",
    "service.backlog_end.r2",
    "service.backlog_end.r3",
    "service.backlog_end.r4",
];

/// What differs between the two workloads.
struct Plan {
    /// Arrival rates of the four steps, jobs/s.
    rates: [f64; 4],
    /// Index of the reference step: the long one, sized for a true p99.
    reference: usize,
    /// p99 limit of `service.max_rate`, ms.
    limit_ms: f64,
    /// Jobs of one saturation batch (below the in-flight limit and, spread
    /// over the tenants, below the tenant depth).
    saturation_batch: usize,
    /// Batches after each step, so that they are spread over the run; the
    /// fastest one's rate is reported.
    saturation_batches_per_step: usize,
}

/// The job stream: which job the `i`-th arrival is.
struct Stream {
    hot: bool,
    rng: SplitMix64,
    /// Distinct tolerances handed out so far (unique stream).
    issued: u64,
    /// Jobs handed out so far; tenants take turns.
    jobs: u64,
    hot_set: Vec<Job>,
}

impl Stream {
    /// `first` offsets the unique stream's tolerances, so that two streams
    /// of one process (warm-up, timed) never share a cache key.
    fn new(hot: bool, seed: u64, first: u64) -> Self {
        let kinds = [
            Problem::Ring { blocks: 6 },
            Problem::Ring { blocks: 24 },
            Problem::SparseLinear { n: 256, blocks: 8 },
        ];
        let hot_set = (0..HOT_KEYS)
            .map(|k| Job {
                tenant: 0,
                problem: kinds[k % kinds.len()],
                epsilon: 1e-6 * (1.0 + k as f64 * 1e-3),
            })
            .collect();
        Stream {
            hot,
            rng: SplitMix64::new(seed),
            issued: first,
            jobs: 0,
            hot_set,
        }
    }

    /// The next job and, for the hot set, its key.
    fn next(&mut self) -> (Job, Option<usize>) {
        let tenant = (self.jobs % TENANTS as u64) as u32;
        self.jobs += 1;
        if self.hot {
            let key = self.rng.below(HOT_KEYS);
            let mut job = self.hot_set[key];
            job.tenant = tenant;
            (job, Some(key))
        } else {
            // A tolerance no earlier job had: the cache key differs, so every
            // job is a miss, while the work stays the same.
            self.issued += 1;
            let job = Job {
                tenant,
                problem: Problem::SparseLinear { n: 256, blocks: 8 },
                epsilon: 1e-6 * (1.0 + self.issued as f64 * 1e-12),
            };
            (job, None)
        }
    }
}

/// A job in flight: when it was due and which hot key it carries.
struct Flight {
    due_ns: u64,
    key: Option<usize>,
}

/// The driver's view of one service instance.
struct Driver<'a> {
    service: &'a Service,
    origin: Instant,
    stream: Stream,
    /// Direct `job::solve` of every hot key, to compare results with.
    expected: &'a [Direct],
    flights: HashMap<u64, Flight>,
    sent: u64,
    rejected: u64,
    completed: u64,
    submit_us: Vec<f64>,
    /// Set in the overload phase, where shedding is the correct answer;
    /// everywhere else a refused job is a failed operation.
    shedding_expected: bool,
    /// Parent span of the per-job spans while a traced step runs.
    span_parent: Option<u32>,
    job_spans: Vec<Span>,
}

impl<'a> Driver<'a> {
    fn new(service: &'a Service, stream: Stream, expected: &'a [Direct]) -> Self {
        Driver {
            service,
            origin: Instant::now(),
            stream,
            expected,
            flights: HashMap::new(),
            sent: 0,
            rejected: 0,
            completed: 0,
            submit_us: Vec::new(),
            shedding_expected: false,
            span_parent: None,
            job_spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Submits the next job of the stream as due at `due_ns`.
    fn send(&mut self, due_ns: u64, out: &mut Outcome) {
        let (job, key) = self.stream.next();
        self.send_job(job, key, due_ns, out);
    }

    fn send_job(&mut self, job: Job, key: Option<usize>, due_ns: u64, out: &mut Outcome) {
        self.sent += 1;
        out.attempted += 1;
        let started = Instant::now();
        let verdict = self.service.submit(&job);
        self.submit_us
            .push(started.elapsed().as_nanos() as f64 * 1e-3);
        match verdict {
            Ok(id) => {
                if self.flights.insert(id, Flight { due_ns, key }).is_some() {
                    out.fail(format!(
                        "{}: job id {id} was handed out twice",
                        out.workload
                    ));
                }
            }
            Err(()) => {
                self.rejected += 1;
                if !self.shedding_expected {
                    out.fail(format!(
                        "{}: a job was refused below the admission bounds",
                        out.workload
                    ));
                }
            }
        }
    }

    /// Checks one result and returns its latency in ms from the due time.
    fn receive(&mut self, done: Done, out: &mut Outcome) -> Option<f64> {
        let now_ns = self.now_ns();
        let Some(flight) = self.flights.remove(&done.id) else {
            out.fail(format!(
                "{}: a second result for job {}, or one never admitted",
                out.workload, done.id
            ));
            return None;
        };
        self.completed += 1;
        let mut wrong = None;
        if !done.converged || done.cancelled {
            wrong = Some("did not converge".to_string());
        } else if let Some(key) = flight.key {
            let direct = &self.expected[key];
            if done.sweeps != direct.sweeps || done.solution != direct.solution {
                wrong = Some(format!("hot key {key} differs from the direct solve"));
            }
        } else if done.from_cache {
            wrong = Some("a never-repeating job was served from the cache".to_string());
        }
        if let Some(why) = wrong {
            out.fail(format!("{} job {}: {why}", out.workload, done.id));
        }
        if let Some(parent) = self.span_parent {
            if self.job_spans.len() < MAX_JOB_SPANS {
                self.job_spans.push(Span {
                    name: if done.from_cache {
                        "job(hit)"
                    } else {
                        "job(miss)"
                    },
                    layer: "service",
                    run: 0,
                    parent: Some(parent),
                    thread: 0,
                    start_ns: flight.due_ns,
                    end_ns: now_ns,
                    id: Some(done.id),
                });
            }
        }
        Some(now_ns.saturating_sub(flight.due_ns) as f64 * 1e-6)
    }

    /// Waits until nothing is in flight; a job that never comes back is a
    /// failure, not a hang.
    fn drain(&mut self, latencies: &mut Vec<f64>, out: &mut Outcome) {
        while !self.flights.is_empty() {
            match self.service.wait_result(Duration::from_secs(20)) {
                Some(done) => latencies.extend(self.receive(done, out)),
                None => {
                    out.fail(format!(
                        "{}: {} admitted jobs never completed",
                        out.workload,
                        self.flights.len()
                    ));
                    self.flights.clear();
                }
            }
        }
    }
}

/// One open-loop step at a fixed rate.
struct Step {
    rate: f64,
    sent: u64,
    rejected: u64,
    /// Jobs admitted and not back when the window closed.
    backlog_end: u64,
    completed: u64,
    latencies_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    window_s: f64,
}

impl Step {
    /// `(q, value)` of the 99th percentile, or of the highest one below it
    /// that has ten samples beyond it.
    fn tail(&self) -> Option<(f64, f64)> {
        tail(&self.latencies_ms, 0.99).expect("latencies are finite")
    }

    fn generator_bound(&self) -> bool {
        !self.lag_ms.is_empty()
            && percentile(&self.lag_ms, 0.99).expect("lags are finite") > GENERATOR_BOUND_MS
    }

    /// Whether the step meets the latency limit: its tail within the limit,
    /// at least 99 % of the sent jobs completed (a rejected job misses the
    /// limit), and no more than 2 % of them still in the service when the
    /// window closed.
    fn meets(&self, limit_ms: f64) -> bool {
        let sent = self.sent as f64;
        self.tail().is_some_and(|(_, value)| value <= limit_ms)
            && self.completed as f64 >= 0.99 * sent
            && self.backlog_end as f64 <= 0.02 * sent
    }
}

fn open_loop(driver: &mut Driver, rate: f64, duration: f64, seed: u64, out: &mut Outcome) -> Step {
    let due = poisson(&mut SplitMix64::new(seed), rate, duration);
    let (sent0, rejected0, completed0) = (driver.sent, driver.rejected, driver.completed);
    let mut latencies_ms = Vec::with_capacity(due.len());
    let mut lag_ms = Vec::with_capacity(due.len());
    let start_ns = driver.now_ns();
    for offset in &due {
        let due_ns = start_ns + (offset * 1e9) as u64;
        loop {
            let now_ns = driver.now_ns();
            if now_ns >= due_ns {
                lag_ms.push((now_ns - due_ns) as f64 * 1e-6);
                break;
            }
            let remaining = Duration::from_nanos(due_ns - now_ns);
            let done = if remaining > SPIN {
                driver.service.wait_result(remaining - SPIN)
            } else {
                driver.service.try_result()
            };
            match done {
                Some(done) => latencies_ms.extend(driver.receive(done, out)),
                None if remaining <= SPIN => std::hint::spin_loop(),
                None => {}
            }
        }
        driver.send(due_ns, out);
        while let Some(done) = driver.service.try_result() {
            latencies_ms.extend(driver.receive(done, out));
        }
    }
    // The window closes `duration` after it opened; what is still inside the
    // service then is the backlog.
    let close_ns = start_ns + (duration * 1e9) as u64;
    while driver.now_ns() < close_ns {
        let remaining = Duration::from_nanos(close_ns - driver.now_ns());
        if let Some(done) = driver.service.wait_result(remaining) {
            latencies_ms.extend(driver.receive(done, out));
        }
    }
    let backlog_end = driver.flights.len() as u64;
    driver.drain(&mut latencies_ms, out);
    Step {
        rate,
        sent: driver.sent - sent0,
        rejected: driver.rejected - rejected0,
        backlog_end,
        completed: driver.completed - completed0,
        latencies_ms,
        lag_ms,
        window_s: duration,
    }
}

/// One saturation batch of slow jobs: `jobs` submitted at once, then the
/// driver steps aside and the workers drain the backlog. Returns the jobs
/// completed per second after the last submit.
///
/// The driver sleeps between polls instead of receiving each result as it
/// comes: the channel is unbounded, so the workers never wait for it, and a
/// driver that is awake shares a core with a worker on a two-vCPU VM
/// whenever the host schedules the vCPUs as siblings, which made a
/// closed-loop rate read 250k or 400k jobs/s by the host's mood.
fn saturate(driver: &mut Driver, jobs: usize, out: &mut Outcome) -> f64 {
    for _ in 0..jobs {
        let due_ns = driver.now_ns();
        driver.send(due_ns, out);
    }
    let drain = |driver: &mut Driver, out: &mut Outcome| {
        while let Some(done) = driver.service.try_result() {
            driver.receive(done, out);
        }
    };
    // What came back while the driver was still submitting is not counted.
    // (The clock starts before that count, so the rate can only read low.)
    let started = Instant::now();
    drain(driver, out);
    let backlog = driver.flights.len();
    while !driver.flights.is_empty() {
        std::thread::sleep(Duration::from_micros(100));
        drain(driver, out);
        if started.elapsed() > Duration::from_secs(30) {
            out.fail(format!(
                "{}: the saturated service stopped answering",
                out.workload
            ));
            driver.flights.clear();
        }
    }
    backlog as f64 / started.elapsed().as_secs_f64()
}

/// One saturation batch of the hot set. A hit costs about a microsecond, so
/// one driver thread cannot build a backlog against a running service: the
/// batch is queued on a *paused* service instead — one job per hot key first
/// (the cold solves), then `jobs` hits — and timed from the end of the cold
/// solves to the end of the batch.
fn saturate_hot(
    workers: usize,
    seed: u64,
    expected: &[Direct],
    jobs: usize,
    out: &mut Outcome,
) -> f64 {
    let service = Service::start(workers, true);
    let mut driver = Driver::new(&service, Stream::new(true, seed, 0), expected);
    for key in 0..HOT_KEYS {
        let mut job = driver.stream.hot_set[key];
        job.tenant = (key % TENANTS) as u32;
        let due_ns = driver.now_ns();
        driver.send_job(job, Some(key), due_ns, out);
    }
    for _ in 0..jobs {
        let due_ns = driver.now_ns();
        driver.send(due_ns, out);
    }
    service.resume();
    // The driver stays out of the workers' way: it sleeps, and on waking
    // reads only the cache's lookup count (every job is looked up once) —
    // first to see the cold solves done, then to see the batch done. The
    // results are received and checked after the clock has stopped. Reading
    // the count can itself wait for the lock the worker keeps taking, so the
    // clock is read on both sides of it: the timed interval starts before the
    // count that opens it and ends after the count that closes it, which can
    // only make the rate read low.
    let lookups = || {
        let (hits, misses) = service.cache_stats();
        (hits + misses) as usize
    };
    let resumed = Instant::now();
    let mut cold_done: Option<(Instant, usize)> = None;
    let (finished, total) = loop {
        std::thread::sleep(Duration::from_micros(50));
        let before = Instant::now();
        let seen = lookups();
        if cold_done.is_none() && seen >= HOT_KEYS {
            cold_done = Some((before, seen));
        } else if seen >= HOT_KEYS + jobs || resumed.elapsed() > Duration::from_secs(30) {
            break (Instant::now(), seen);
        }
    };
    let mut latencies = Vec::new();
    driver.drain(&mut latencies, out);
    // (If the batch was over before the cold solves were seen done, the whole
    // drain is timed instead.)
    let (started, already) = cold_done
        .filter(|&(_, seen)| seen < total)
        .unwrap_or((resumed, 0));
    let rate = (total - already) as f64 / (finished - started).as_secs_f64().max(1e-9);
    let (sent, completed, rejected) = (driver.sent, driver.completed, driver.rejected);
    let name = out.workload;
    out.check(sent == completed + rejected, || {
        format!("{name}: saturation sent {sent} != completed {completed} + rejected {rejected}")
    });
    drop(driver);
    service.shutdown();
    rate
}

/// Starts a service and brings it to the state the timed phases assume: the
/// hot set cached, or a few unique jobs through to page the workers in.
fn set_up(hot: bool, workers: usize, seed: u64, out: &mut Outcome) -> (Service, f64) {
    let started = Instant::now();
    let service = Service::start(workers, false);
    let mut stream = Stream::new(hot, seed ^ 0x5eed, WARM_UP_FIRST);
    let warm: Vec<Job> = if hot {
        stream.hot_set.clone()
    } else {
        (0..16).map(|_| stream.next().0).collect()
    };
    let mut admitted = 0;
    for job in &warm {
        admitted += usize::from(service.submit(job).is_ok());
    }
    let mut back = 0;
    while back < admitted && service.wait_result(Duration::from_secs(20)).is_some() {
        back += 1;
    }
    if back != warm.len() {
        out.fail(format!(
            "{}: warm-up got {back} of {} results",
            out.workload,
            warm.len()
        ));
    }
    (service, started.elapsed().as_secs_f64())
}

/// Solves `sample` directly, one job after the other on this thread, and
/// records the seconds it took.
fn solve_sample(sample: &[Job], seconds: &mut Vec<f64>) -> Vec<Direct> {
    let started = Instant::now();
    let solved = sample.iter().map(adapter::solve_direct).collect();
    seconds.push(started.elapsed().as_secs_f64());
    solved
}

pub fn run(name: &'static str, ctx: &Ctx) -> Outcome {
    let hot = name == "svc_hot";
    let workers = ctx.nproc.saturating_sub(1).max(1);
    // Shares of the measuring time: reference step, each other step; the
    // traced pass halves them to leave room for the µbench loops.
    let scale = match (ctx.smoke, ctx.trace) {
        (true, _) => 0.02,
        (false, true) => 0.5,
        (false, false) => 1.0,
    };
    let seconds = ctx.seconds * scale;
    let plan = if hot {
        Plan {
            rates: [2000.0, 5000.0, 10000.0, 20000.0],
            reference: 1,
            limit_ms: 20.0,
            saturation_batch: 3600,
            saturation_batches_per_step: (seconds as usize).max(1),
        }
    } else {
        let w = workers as f64;
        Plan {
            rates: [150.0 * w, 250.0 * w, 350.0 * w, 550.0 * w],
            reference: 1,
            limit_ms: 100.0,
            saturation_batch: if ctx.smoke { 16 } else { 120 },
            saturation_batches_per_step: ((0.25 * seconds) as usize).max(1),
        }
    };
    let (reference_s, other_s) = if hot {
        (0.40 * seconds, 0.08 * seconds)
    } else {
        (0.38 * seconds, 0.09 * seconds)
    };
    let size = format!(
        "{} workers, max_in_flight {}, tenant_queue_depth {}, drr_quantum 4, cache 256, {TENANTS} tenants; {}; steps {:?} jobs/s ({:.1} s reference, {:.1} s others), limit p99 <= {} ms; after each step {} saturation batches of {} jobs",
        workers,
        adapter::MAX_IN_FLIGHT,
        adapter::TENANT_QUEUE_DEPTH,
        if hot {
            "32-key hot set over Ring{6}, Ring{24}, SparseLinear{256,8}, pre-warmed"
        } else {
            "SparseLinear{256,8} at a never-repeating epsilon"
        },
        plan.rates,
        reference_s,
        other_s,
        plan.limit_ms,
        plan.saturation_batches_per_step,
        plan.saturation_batch,
    );
    let mut out = Outcome::new(name, size);

    // The plain baseline: the stream's jobs solved directly, one thread, no
    // service. For the hot set this is also what results are compared with.
    // It is repeated here and after every step, so that its repeats are
    // spread over the whole run.
    let mut baseline = Stream::new(hot, ctx.seed, 0);
    let sample: Vec<Job> = if hot {
        baseline.hot_set.clone()
    } else {
        (0..if ctx.smoke { 8 } else { 64 })
            .map(|_| baseline.next().0)
            .collect()
    };
    let mut baseline_s = Vec::new();
    let mut expected = solve_sample(&sample, &mut baseline_s);
    for _ in 0..if ctx.smoke { 0 } else { 2 } {
        solve_sample(&sample, &mut baseline_s);
    }
    out.check(expected.iter().all(|d| d.converged), || {
        format!("{name}: a direct solve of the stream's jobs did not converge")
    });
    if !hot {
        expected.clear();
    }

    let (service, setup_s, setups) = workloads::set_up_repeatedly(
        ctx,
        0.04,
        || set_up(hot, workers, ctx.seed, &mut out),
        Service::shutdown,
    );
    out.set("setup_s", setup_s, setups);

    let mut driver = Driver::new(&service, Stream::new(hot, ctx.seed, 0), &expected);
    let mut recorder = Recorder::new(name, driver.origin);
    let root = recorder.open("workload", "bench", 0, None);

    // The four steps, lowest rate first, each drained before the next. After
    // each, with the service idle, a share of the saturation batches and of
    // the baseline repeats: spread over the run, a burst of interference
    // cannot cover them all.
    let mut steps: Vec<Step> = Vec::new();
    let mut batches: Vec<f64> = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for (i, &rate) in plan.rates.iter().enumerate() {
        let duration = if i == plan.reference {
            reference_s
        } else {
            other_s
        };
        let step_span = recorder.open("step", "service", i as u32, Some(root));
        driver.span_parent = (ctx.trace && i == plan.reference).then_some(step_span);
        let seed = ctx.seed.wrapping_add(i as u64 + 1);
        let (hits0, misses0) = service.cache_stats();
        steps.push(open_loop(
            &mut driver,
            rate,
            duration.max(0.02),
            seed,
            &mut out,
        ));
        let (hits1, misses1) = service.cache_stats();
        hits += hits1 - hits0;
        misses += misses1 - misses0;
        driver.span_parent = None;
        recorder.close(step_span);

        for _ in 0..if ctx.smoke { 0 } else { 2 } {
            solve_sample(&sample, &mut baseline_s);
        }
        for batch in 0..plan.saturation_batches_per_step {
            batches.push(if hot {
                let seed = ctx.seed.wrapping_add(1000 + (100 * i + batch) as u64);
                saturate_hot(workers, seed, &expected, plan.saturation_batch, &mut out)
            } else {
                saturate(&mut driver, plan.saturation_batch, &mut out)
            });
        }
    }
    let open_sent: u64 = steps.iter().map(|s| s.sent).sum();
    let open_rejected: u64 = steps.iter().map(|s| s.rejected).sum();
    let (sent, rejected, completed) = (driver.sent, driver.rejected, driver.completed);
    let submit_us = std::mem::take(&mut driver.submit_us);
    for span in std::mem::take(&mut driver.job_spans) {
        recorder.add(span);
    }
    drop(driver);
    out.check(sent == completed + rejected, || {
        format!("{name}: sent {sent} != completed {completed} + rejected {rejected}")
    });
    let peak_in_flight = service.peak_in_flight();
    service.shutdown();
    recorder.close(root);
    // Every batch is the same work, and a timing artefact can only make a
    // batch read slow (see `saturate_hot`): the fastest batch is the rate the
    // service reaches when the machine leaves it alone.
    let saturated = batches.iter().copied().fold(0.0, f64::max);

    let reference = &steps[plan.reference];
    let n_ref = reference.latencies_ms.len();
    // The same solves every repeat: the fastest repeat is their cost.
    out.set(
        "solve_seq_s",
        fastest(&baseline_s).expect("baseline times"),
        baseline_s.len(),
    );
    out.set("svc_sat_jobs_per_s", saturated, batches.len());
    out.set_opt(
        "peak_rss_mib",
        (!ctx.trace).then(sysinfo::peak_rss_mib).flatten(),
        1,
    );

    // Per-layer numbers the driver sees.
    let mut max_rate = 0.0;
    for (i, step) in steps.iter().enumerate() {
        let n = step.latencies_ms.len();
        if n > 0 {
            out.set(
                LAT_P50[i],
                median(&step.latencies_ms).expect("latencies"),
                n,
            );
        }
        if let Some((q, value)) = step.tail() {
            out.set(LAT_P99[i], value, n);
            if q < 0.99 {
                println!(
                    "  step r{} ({} jobs/s): {n} samples support p{:.0} only; reported under {}",
                    i + 1,
                    step.rate,
                    q * 100.0,
                    LAT_P99[i]
                );
            }
        }
        out.set(BACKLOG[i], step.backlog_end as f64, step.sent as usize);
        if step.generator_bound() {
            println!("  step r{} ({} jobs/s) is generator-bound: p99 lateness above {GENERATOR_BOUND_MS} ms", i + 1, step.rate);
        } else if step.meets(plan.limit_ms) {
            max_rate = step.rate.max(max_rate);
        }
    }
    out.set("service.max_rate", max_rate, steps.len());
    let lags: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.lag_ms.iter().copied())
        .collect();
    out.set(
        "service.gen_lag_ms_p99",
        percentile(&lags, 0.99).expect("lags"),
        lags.len(),
    );
    out.set(
        "service.submit_us",
        median(&submit_us).expect("submit times"),
        submit_us.len(),
    );
    out.set(
        "service.submit_p99_us",
        percentile(&submit_us, 0.99).expect("submit times"),
        submit_us.len(),
    );
    let (hits, misses) = (hits as f64, misses as f64);
    out.set(
        "service.cache_hit_frac",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    out.set(
        "service.reject_frac",
        open_rejected as f64 / open_sent.max(1) as f64,
        open_sent as usize,
    );
    // Misses beyond one per distinct key are solves the cache could have
    // saved: none on the hot set once warm, none possible on unique jobs.
    let distinct = if hot {
        0.0
    } else {
        (open_sent - open_rejected) as f64
    };
    out.set(
        "service.dup_solve_frac",
        (misses - distinct).max(0.0) / open_sent.max(1) as f64,
        open_sent as usize,
    );
    out.set("service.peak_in_flight", peak_in_flight as f64, 1);
    out.set("bench.samples", n_ref as f64, n_ref);

    if hot {
        overload(workers, ctx, &expected, &mut out);
    }

    // What a miss costs when nothing else runs: job::solve and, inside it,
    // ServiceProblem::build.
    let miss_job = Job {
        tenant: 0,
        problem: Problem::SparseLinear { n: 256, blocks: 8 },
        epsilon: 1e-6,
    };
    if ctx.trace {
        let min_secs = if ctx.smoke { 0.002 } else { micro::MIN_SECS };
        let solve = time_calls(min_secs, || {
            std::hint::black_box(adapter::solve_direct(&miss_job).sweeps);
        });
        let build = time_calls(min_secs, || {
            std::hint::black_box(adapter::build_kernel(&miss_job));
        });
        out.set(
            "service.job_solve_ms",
            solve.ns_per_call * 1e-6,
            solve.batches,
        );
        out.set(
            "service.kernel_build_ms",
            build.ns_per_call * 1e-6,
            build.batches,
        );
        out.set(
            "service.build_frac",
            build.ns_per_call / solve.ns_per_call,
            build.batches,
        );
        let ref_misses = if hot { 0.0 } else { reference.completed as f64 };
        let util = ref_misses * solve.ns_per_call * 1e-9 / (workers as f64 * reference.window_s);
        out.set("service.util", util, reference.completed as usize);
        service_loops(hot, ctx, min_secs, &mut out);
        workloads::obs_probe(min_secs, &mut out);

        // The budget of the reference step: the sum of its jobs' spans. Each
        // miss gets the directly measured solve as its child span (placed at
        // the end of the job: the solve is the last thing that happens to
        // it); what the child does not cover — queueing, admission, DRR,
        // cache, delivery — is the service's own.
        let solve_ns = solve.ns_per_call as u64;
        let misses: Vec<(u32, Span)> = recorder
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "job(miss)")
            .map(|(i, s)| (i as u32, s.clone()))
            .collect();
        let mut solver_ns = 0u64;
        for (index, job) in misses {
            let start_ns = job.end_ns.saturating_sub(solve_ns).max(job.start_ns);
            solver_ns += job.end_ns - start_ns;
            recorder.add(Span {
                name: "solve (measured directly)",
                layer: "solvers",
                parent: Some(index),
                start_ns,
                ..job
            });
        }
        let total_s: f64 = recorder
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("job("))
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum();
        let solver_s = solver_ns as f64 * 1e-9;
        let build_s = solver_s * (build.ns_per_call / solve.ns_per_call).min(1.0);
        out.set(
            "service.self_frac",
            1.0 - solver_s / total_s.max(f64::MIN_POSITIVE),
            n_ref.min(MAX_JOB_SPANS),
        );
        let mut layers = vec![
            ("solvers+linalg (kernel build)", build_s),
            ("solvers+linalg+core (solve)", solver_s - build_s),
            ("service", total_s - solver_s),
        ];
        layers.retain(|(_, s)| *s > 0.0);
        out.budget = Some(Budget {
            wall_s: total_s,
            layers,
        });
        workloads::write_trace(&recorder, ctx, &mut out);
    }
    out
}

/// 8 192 submits against a paused service: exactly the in-flight limit is
/// admitted and the rest shed; then resume and time the drain.
fn overload(workers: usize, ctx: &Ctx, expected: &[Direct], out: &mut Outcome) {
    // A fresh paused service with a cold cache: once resumed, the drain is
    // all hits but the first solve of each key.
    let service = Service::start(workers, true);
    let submits = 8192;
    let mut driver = Driver::new(
        &service,
        Stream::new(true, ctx.seed ^ 0x0e4_10ad, 0),
        expected,
    );
    driver.shedding_expected = true;
    for _ in 0..submits {
        let due_ns = driver.now_ns();
        driver.send(due_ns, out);
    }
    let shed = driver.rejected;
    let name = out.workload;
    out.check(shed as usize == submits - adapter::MAX_IN_FLIGHT, || {
        format!(
            "{name}: overload shed {shed} of {submits}, expected {}",
            submits - adapter::MAX_IN_FLIGHT
        )
    });
    let started = Instant::now();
    service.resume();
    let mut latencies = Vec::new();
    driver.drain(&mut latencies, out);
    out.set(
        "service.overload_drain_s",
        started.elapsed().as_secs_f64(),
        latencies.len(),
    );
    out.set(
        "service.overload_shed_frac",
        shed as f64 / submits as f64,
        submits,
    );
    let (sent, completed) = (driver.sent, driver.completed);
    out.check(sent == completed + shed, || {
        format!("{name}: overload sent {sent} != completed {completed} + shed {shed}")
    });
    drop(driver);
    service.shutdown();
}

/// `service.` µbench numbers: the front-end pieces one at a time.
fn service_loops(hot: bool, ctx: &Ctx, min_secs: f64, out: &mut Outcome) {
    let stream = Stream::new(true, ctx.seed, 0);
    let jobs = &stream.hot_set;
    let solution_len = if hot { 24 } else { 256 };
    let mut cache = Cache::warm(jobs, solution_len);
    let mut i = 0usize;
    let lookup = time_calls(min_secs, || {
        i += 1;
        std::hint::black_box(cache.lookup(i));
    });
    let insert = time_calls(min_secs, || {
        i += 1;
        cache.insert_fresh(i as u64);
    });
    const KEYS: usize = 1024;
    let key = time_calls(min_secs, || {
        std::hint::black_box(adapter::job_key_loop(jobs, KEYS));
    });
    const BATCH: usize = 1024;
    let drr = time_calls(min_secs, || {
        std::hint::black_box(adapter::drr_round(BATCH, &jobs[0]));
    });
    let workers = ctx.nproc.saturating_sub(1).max(1);
    let start_stop = time_calls(min_secs, || Service::start(workers, false).shutdown());
    out.set(
        "service.cache_lookup_ns",
        lookup.ns_per_call,
        lookup.batches,
    );
    out.set(
        "service.cache_insert_ns",
        insert.ns_per_call,
        insert.batches,
    );
    out.set(
        "service.job_key_ns",
        key.ns_per_call / KEYS as f64,
        key.batches,
    );
    out.set(
        "service.drr_enq_disp_ns",
        drr.ns_per_call / BATCH as f64,
        drr.batches,
    );
    out.set(
        "service.start_stop_ms",
        start_stop.ns_per_call * 1e-6,
        start_stop.batches,
    );
}
