//! Virtual-clock execution of the whole service.
//!
//! [`run_virtual`] replays a traffic stream through admission, the DRR
//! dispatcher, the result cache and a simulated worker pool on a
//! discrete-event clock. Solve durations come from the kernels'
//! deterministic cost model, so every number in the resulting
//! [`LoadReport`] — latency percentiles, throughput, fairness, hit rate —
//! is a pure function of the [`LoadSpec`]. That is what lets CI gate the
//! service's behaviour exactly, with no wall-clock noise.
//!
//! Event ordering is fully specified: completions fire before arrivals at
//! equal times, and ties inside the heap break on a monotone sequence
//! number, so the replay is identical on every platform.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, BinaryHeap};

use aiac_obs::{Layer, MetricDirection, MetricsRegistry, TraceSnapshot, Tracer, TrackRecorder};
use serde::{Deserialize, Serialize};

use crate::cache::{job_key, CachedSolve, ResultCache};
use crate::config::ServiceConfig;
use crate::drr::{Pending, TenantQueues};
use crate::job::{self, AdmissionError, TenantId};
use crate::traffic::TrafficSpec;

/// Everything a simulated load run needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSpec {
    /// Service sizing.
    pub service: ServiceConfig,
    /// The traffic to replay.
    pub traffic: TrafficSpec,
    /// Virtual cost charged for answering a job from the cache.
    pub cache_hit_cost_secs: f64,
}

/// What one load run (virtual or real) produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Jobs the generator produced.
    pub generated: u64,
    /// Jobs that completed with a result.
    pub completed: u64,
    /// Jobs refused at admission, all causes.
    pub rejected: u64,
    /// Rejections due to a full tenant queue.
    pub rejected_tenant_full: u64,
    /// Rejections due to the global in-flight bound.
    pub rejected_in_flight: u64,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Highest number of admitted-but-unfinished jobs observed.
    pub peak_in_flight: u64,
    /// The configured bound `peak_in_flight` must respect.
    pub in_flight_bound: u64,
    /// Time from first arrival to last completion.
    pub makespan_secs: f64,
    /// Per-job submission-to-completion latency, in seconds.
    pub latencies: Vec<f64>,
    /// Completed jobs per tenant.
    pub per_tenant_goodput: BTreeMap<TenantId, u64>,
    /// Jobs that passed admission per tenant.
    pub per_tenant_admitted: BTreeMap<TenantId, u64>,
    /// Submitted jobs per tenant (admitted or not).
    pub per_tenant_submitted: BTreeMap<TenantId, u64>,
}

/// Sentinel fairness ratio reported when a submitting tenant finished no
/// jobs at all. Finite (so `BenchRecord::validate` accepts it) but far
/// beyond any passing threshold.
pub const STARVED_FAIRNESS_RATIO: f64 = 1e9;

impl LoadReport {
    /// Completed jobs per second of makespan.
    pub fn throughput(&self) -> f64 {
        if self.makespan_secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_secs
        }
    }

    /// Max/min completed jobs over all tenants with at least one *admitted*
    /// job. 1.0 is perfectly fair; [`STARVED_FAIRNESS_RATIO`] flags a
    /// tenant that was admitted but finished nothing. Tenants whose every
    /// submission was shed at admission are excluded — the scheduler never
    /// saw their jobs, so their zero goodput is an admission artifact, not
    /// a DRR fairness defect (the rejection-rate gate owns that axis).
    pub fn fairness_ratio(&self) -> f64 {
        let mut min = u64::MAX;
        let mut max = 0u64;
        for (tenant, admitted) in &self.per_tenant_admitted {
            if *admitted == 0 {
                continue;
            }
            let done = self.per_tenant_goodput.get(tenant).copied().unwrap_or(0);
            min = min.min(done);
            max = max.max(done);
        }
        if min == u64::MAX {
            return 1.0;
        }
        if min == 0 {
            return STARVED_FAIRNESS_RATIO;
        }
        max as f64 / min as f64
    }

    /// Fraction of generated jobs refused at admission.
    pub fn rejection_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.rejected as f64 / self.generated as f64
        }
    }

    /// Cache hit fraction over all lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Jobs neither completed nor rejected — must be zero; anything else
    /// means the service dropped admitted work on the floor.
    pub fn lost(&self) -> u64 {
        self.generated
            .saturating_sub(self.completed)
            .saturating_sub(self.rejected)
    }

    /// The report's derived gauges and bookkeeping counters as a
    /// [`MetricsRegistry`] — the one list the bench harness renders metric
    /// samples from, so a new counter becomes a bench metric by being
    /// registered here.
    ///
    /// `deterministic` is true for the virtual-clock replay, whose every
    /// number is a pure function of the [`LoadSpec`]; the real pool's
    /// throughput and makespan are wall-clock and keep the `real_` names
    /// committed in the bench baselines. The bookkeeping counters (jobs,
    /// peak in-flight, cache traffic) are informational. The job counts
    /// replay identically on both cells; the cache split does only on the
    /// virtual clock, because on the real pool two workers can race to
    /// solve the same key, so it is deterministic only when the cell is.
    pub fn metrics_registry(&self, deterministic: bool) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        if deterministic {
            registry.gauge(
                "throughput_jobs_per_sec",
                self.throughput(),
                true,
                MetricDirection::HigherIsBetter,
            );
            registry.gauge(
                "fairness_ratio",
                self.fairness_ratio(),
                true,
                MetricDirection::LowerIsBetter,
            );
            registry.gauge(
                "cache_hit_rate",
                self.cache_hit_rate(),
                true,
                MetricDirection::HigherIsBetter,
            );
            registry.gauge(
                "rejection_rate",
                self.rejection_rate(),
                true,
                MetricDirection::LowerIsBetter,
            );
            registry.gauge(
                "makespan_secs",
                self.makespan_secs,
                true,
                MetricDirection::LowerIsBetter,
            );
        } else {
            registry.gauge(
                "real_throughput_jobs_per_sec",
                self.throughput(),
                false,
                MetricDirection::HigherIsBetter,
            );
            registry.gauge(
                "real_makespan_secs",
                self.makespan_secs,
                false,
                MetricDirection::LowerIsBetter,
            );
        }
        for (name, value, exact) in [
            ("jobs_generated", self.generated, true),
            ("jobs_completed", self.completed, true),
            ("jobs_rejected", self.rejected, true),
            ("peak_in_flight", self.peak_in_flight, true),
            ("cache_hits", self.cache_hits, deterministic),
            ("cache_misses", self.cache_misses, deterministic),
        ] {
            registry.counter(name, value, exact, MetricDirection::Informational);
        }
        registry
    }
}

/// Virtual seconds → the tracer's nanosecond timeline (a pure function of
/// the deterministic clock, so traced replays export bit-identically).
fn svc_ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// The per-tenant track for `tenant`, created on first use. One `String`
/// allocation per tenant per run — never on the per-event path. Shared
/// with the real pool's replay in [`crate::service`].
pub(crate) fn tenant_track<'t>(
    recorders: &'t mut BTreeMap<TenantId, TrackRecorder>,
    tracer: &Tracer,
    tenant: TenantId,
) -> &'t mut TrackRecorder {
    recorders.entry(tenant).or_insert_with(|| {
        tracer.recorder(Layer::Service, format!("tenant-{tenant}"), tenant as u64)
    })
}

/// A job executing on a simulated worker, keyed for the completion heap.
struct Executing {
    finish_secs: f64,
    seq: u64,
    tenant: TenantId,
    arrival_secs: f64,
}

impl PartialEq for Executing {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for Executing {}
impl PartialOrd for Executing {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Executing {
    /// Reversed on (time, seq) so the `BinaryHeap` max-heap pops the
    /// earliest completion first, with the sequence number as a total
    /// deterministic tie-break.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .finish_secs
            .total_cmp(&self.finish_secs)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Replays `spec` on the virtual clock and reports what happened.
pub fn run_virtual(spec: &LoadSpec) -> LoadReport {
    run_virtual_traced(spec).0
}

/// Like [`run_virtual`], also returning the event trace: one
/// [`Layer::Service`] track per tenant carrying job lifecycle spans,
/// admission verdicts, DRR dispatch turns and cache hits/misses on the
/// virtual clock. Empty (and free) when `spec.service.tracing` is off;
/// bit-identical across runs when it is on.
pub fn run_virtual_traced(spec: &LoadSpec) -> (LoadReport, TraceSnapshot) {
    spec.service
        .validate()
        .unwrap_or_else(|why| panic!("invalid service config: {why}"));
    let tracer = Tracer::new(spec.service.tracing);
    let traced = tracer.is_enabled();
    let mut recorders: BTreeMap<TenantId, TrackRecorder> = BTreeMap::new();
    let arrivals = spec.traffic.generate();
    let mut queues = TenantQueues::new(spec.service.tenant_queue_depth, spec.service.drr_quantum);
    let mut cache = ResultCache::new(spec.service.cache_capacity);
    let mut free_workers = spec.service.workers;
    let mut executing: BinaryHeap<Executing> = BinaryHeap::new();

    let mut in_flight = 0u64;
    let mut report = LoadReport {
        generated: arrivals.len() as u64,
        completed: 0,
        rejected: 0,
        rejected_tenant_full: 0,
        rejected_in_flight: 0,
        cache_hits: 0,
        cache_misses: 0,
        peak_in_flight: 0,
        in_flight_bound: spec.service.max_in_flight as u64,
        makespan_secs: 0.0,
        latencies: Vec::with_capacity(arrivals.len()),
        per_tenant_goodput: BTreeMap::new(),
        per_tenant_admitted: BTreeMap::new(),
        per_tenant_submitted: BTreeMap::new(),
    };

    let mut next_arrival = 0usize;
    let mut seq = 0u64;
    let mut now;

    loop {
        // Pick the next event; completions win ties so freed workers are
        // available to arrivals at the same instant.
        let completion_at = executing.peek().map(|e| e.finish_secs);
        let arrival_at = arrivals.get(next_arrival).map(|a| a.at_secs);
        let take_completion = match (completion_at, arrival_at) {
            (Some(c), Some(a)) => c <= a,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };

        if take_completion {
            let Some(done) = executing.pop() else {
                break;
            };
            now = done.finish_secs;
            free_workers += 1;
            in_flight -= 1;
            report.completed += 1;
            report.latencies.push(now - done.arrival_secs);
            *report.per_tenant_goodput.entry(done.tenant).or_default() += 1;
            report.makespan_secs = now;
            if traced {
                tenant_track(&mut recorders, &tracer, done.tenant).span_complete(
                    "job",
                    svc_ns(done.arrival_secs),
                    svc_ns(now),
                    done.seq,
                );
            }
        } else {
            let arrival = &arrivals[next_arrival];
            next_arrival += 1;
            now = arrival.at_secs;
            *report
                .per_tenant_submitted
                .entry(arrival.spec.tenant)
                .or_default() += 1;
            if in_flight >= spec.service.max_in_flight as u64 {
                report.rejected += 1;
                report.rejected_in_flight += 1;
                if traced {
                    tenant_track(&mut recorders, &tracer, arrival.spec.tenant).instant_at(
                        "reject_in_flight",
                        svc_ns(now),
                        in_flight,
                    );
                }
            } else {
                let pending = Pending {
                    id: seq,
                    spec: arrival.spec.clone(),
                    arrival_secs: now,
                };
                match queues.enqueue(pending) {
                    Ok(()) => {
                        in_flight += 1;
                        report.peak_in_flight = report.peak_in_flight.max(in_flight);
                        *report
                            .per_tenant_admitted
                            .entry(arrival.spec.tenant)
                            .or_default() += 1;
                        if traced {
                            tenant_track(&mut recorders, &tracer, arrival.spec.tenant).instant_at(
                                "admit",
                                svc_ns(now),
                                in_flight,
                            );
                        }
                    }
                    Err(AdmissionError::TenantQueueFull { .. }) => {
                        report.rejected += 1;
                        report.rejected_tenant_full += 1;
                        if traced {
                            tenant_track(&mut recorders, &tracer, arrival.spec.tenant).instant_at(
                                "reject_tenant_full",
                                svc_ns(now),
                                in_flight,
                            );
                        }
                    }
                    Err(other) => unreachable!("virtual admission cannot fail with {other}"),
                }
            }
        }

        // Hand queued jobs to idle workers.
        while free_workers > 0 {
            let Some(pending) = queues.dispatch() else {
                break;
            };
            let key = job_key(&pending.spec);
            let hit = cache.lookup(key).is_some();
            if traced {
                let track = tenant_track(&mut recorders, &tracer, pending.spec.tenant);
                track.instant_at("drr_turn", svc_ns(now), pending.id);
                track.instant_at(
                    if hit { "cache_hit" } else { "cache_miss" },
                    svc_ns(now),
                    pending.id,
                );
            }
            let duration = if hit {
                spec.cache_hit_cost_secs
            } else {
                let outcome = job::solve(&pending.spec, None);
                let duration = outcome.virtual_cost_secs;
                cache.insert(
                    key,
                    CachedSolve {
                        converged: outcome.converged,
                        sweeps: outcome.sweeps,
                        final_residual: outcome.final_residual,
                        virtual_cost_secs: outcome.virtual_cost_secs,
                        solution: outcome.solution,
                    },
                );
                duration
            };
            free_workers -= 1;
            seq += 1;
            executing.push(Executing {
                finish_secs: now + duration,
                seq,
                tenant: pending.spec.tenant,
                arrival_secs: pending.arrival_secs,
            });
        }
    }

    report.cache_hits = cache.hits();
    report.cache_misses = cache.misses();
    drop(recorders);
    (report, tracer.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn smoke_spec() -> LoadSpec {
        LoadSpec {
            service: ServiceConfig::default(),
            traffic: TrafficSpec::smoke(),
            cache_hit_cost_secs: 1e-6,
        }
    }

    #[test]
    fn the_smoke_load_loses_nothing_and_stays_bounded() {
        let report = run_virtual(&smoke_spec());
        assert_eq!(report.lost(), 0, "admitted jobs must all complete");
        assert_eq!(report.generated, 1_800);
        assert!(report.peak_in_flight <= report.in_flight_bound);
        assert!(
            report.peak_in_flight >= 1_000,
            "the opening burst must pile up ≥ 1000 concurrent jobs, got {}",
            report.peak_in_flight
        );
        assert!(report.makespan_secs > 0.0);
        assert_eq!(report.latencies.len() as u64, report.completed);
        assert!(report.latencies.iter().all(|l| *l >= 0.0 && l.is_finite()));
    }

    #[test]
    fn replays_are_bit_identical() {
        let a = run_virtual(&smoke_spec());
        let b = run_virtual(&smoke_spec());
        assert_eq!(a, b);
    }

    #[test]
    fn the_cache_hits_on_repeated_structures() {
        let report = run_virtual(&smoke_spec());
        assert!(report.cache_hits > 0);
        assert!(report.cache_misses > 0);
        let rate = report.cache_hit_rate();
        assert!(
            (0.2..0.95).contains(&rate),
            "hit rate {rate} outside the plausible band"
        );
    }

    #[test]
    fn fairness_stays_near_one_for_uniform_tenants() {
        let report = run_virtual(&smoke_spec());
        let ratio = report.fairness_ratio();
        assert!(
            (1.0..2.0).contains(&ratio),
            "uniform tenants should finish near-equal work, ratio {ratio}"
        );
    }

    #[test]
    fn a_tiny_in_flight_bound_sheds_instead_of_growing() {
        let mut spec = smoke_spec();
        spec.service.max_in_flight = 8;
        spec.service.tenant_queue_depth = 4;
        let report = run_virtual(&spec);
        assert!(report.rejected > 0);
        assert!(report.peak_in_flight <= 8);
        assert_eq!(report.lost(), 0);
        assert!(report.rejection_rate() > 0.0);
    }

    #[test]
    fn starved_tenants_flag_the_sentinel_ratio() {
        // Tenant 1 was admitted but finished nothing: a scheduler defect.
        let report = LoadReport {
            generated: 10,
            completed: 5,
            rejected: 0,
            rejected_tenant_full: 0,
            rejected_in_flight: 0,
            cache_hits: 0,
            cache_misses: 5,
            peak_in_flight: 10,
            in_flight_bound: 16,
            makespan_secs: 1.0,
            latencies: vec![0.1; 5],
            per_tenant_goodput: [(0, 5)].into_iter().collect(),
            per_tenant_admitted: [(0, 5), (1, 5)].into_iter().collect(),
            per_tenant_submitted: [(0, 5), (1, 5)].into_iter().collect(),
        };
        assert_eq!(report.fairness_ratio(), STARVED_FAIRNESS_RATIO);
        assert!(report.fairness_ratio().is_finite());
    }

    #[test]
    fn tenants_shed_entirely_at_admission_do_not_skew_fairness() {
        // Tenant 1's every submission was rejected at the door; the
        // scheduler never saw its jobs, so fairness covers tenant 0 only.
        let report = LoadReport {
            generated: 10,
            completed: 5,
            rejected: 5,
            rejected_tenant_full: 5,
            rejected_in_flight: 0,
            cache_hits: 0,
            cache_misses: 5,
            peak_in_flight: 5,
            in_flight_bound: 8,
            makespan_secs: 1.0,
            latencies: vec![0.1; 5],
            per_tenant_goodput: [(0, 5)].into_iter().collect(),
            per_tenant_admitted: [(0, 5)].into_iter().collect(),
            per_tenant_submitted: [(0, 5), (1, 5)].into_iter().collect(),
        };
        assert_eq!(report.fairness_ratio(), 1.0);
    }

    #[test]
    fn traced_replays_are_bit_identical_and_carry_service_events() {
        let mut spec = smoke_spec();
        spec.service.tracing = aiac_obs::TraceConfig::on();
        let (report_a, trace_a) = run_virtual_traced(&spec);
        let (report_b, trace_b) = run_virtual_traced(&spec);
        assert_eq!(report_a, report_b);
        assert_eq!(trace_a, trace_b, "virtual-clock traces must reproduce");
        assert!(!trace_a.is_empty());
        assert_eq!(trace_a.layers(), vec![Layer::Service]);
        let names: std::collections::BTreeSet<&str> = trace_a
            .tracks
            .iter()
            .flat_map(|t| t.ring.iter_in_order().map(|e| e.name))
            .collect();
        for required in ["job", "admit", "drr_turn", "cache_hit", "cache_miss"] {
            assert!(names.contains(required), "missing event {required:?}");
        }
        // the untraced run sees none of it
        let (_, off) = run_virtual_traced(&smoke_spec());
        assert!(off.is_empty());
    }

    #[test]
    fn the_metrics_registry_keeps_the_baseline_names() {
        let report = run_virtual(&smoke_spec());
        let virt = report.metrics_registry(true);
        let names: Vec<&str> = virt.snapshot().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "throughput_jobs_per_sec",
                "fairness_ratio",
                "cache_hit_rate",
                "rejection_rate",
                "makespan_secs",
                "jobs_generated",
                "jobs_completed",
                "jobs_rejected",
                "peak_in_flight",
                "cache_hits",
                "cache_misses",
            ]
        );
        assert!(virt.get("throughput_jobs_per_sec").unwrap().deterministic);
        let real = report.metrics_registry(false);
        assert!(real.get("real_makespan_secs").is_some());
        assert!(
            !real
                .get("real_throughput_jobs_per_sec")
                .unwrap()
                .deterministic
        );
        assert!(real.get("jobs_generated").unwrap().deterministic);
        // two real workers can race to solve one key, so only the virtual
        // clock fixes the hit / miss split
        for name in ["cache_hits", "cache_misses"] {
            assert!(virt.get(name).unwrap().deterministic, "{name}");
            assert!(!real.get(name).unwrap().deterministic, "{name}");
        }
    }

    #[test]
    fn load_specs_round_trip_through_json() {
        let spec = smoke_spec();
        let text = serde_json::to_string(&spec).unwrap();
        let back: LoadSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Admission keeps in-flight within the configured bound under
        /// arbitrary burst shapes, and no admitted job is ever lost.
        #[test]
        fn in_flight_never_exceeds_the_bound_under_bursts(
            seed in 0u64..1_000,
            max_in_flight in 4usize..64,
            depth in 2usize..32,
            initial_burst in 0usize..400,
            burst_prob in 0.0f64..0.5,
        ) {
            let service = ServiceConfig {
                workers: 3,
                max_in_flight,
                tenant_queue_depth: depth.min(max_in_flight),
                drr_quantum: 2,
                cache_capacity: 16,
                ..ServiceConfig::default()
            };
            let traffic = TrafficSpec {
                seed,
                jobs: 500,
                initial_burst,
                burst_prob,
                ..TrafficSpec::smoke()
            };
            let report = run_virtual(&LoadSpec {
                service,
                traffic,
                cache_hit_cost_secs: 1e-6,
            });
            prop_assert!(report.peak_in_flight <= max_in_flight as u64);
            prop_assert_eq!(report.lost(), 0);
            prop_assert_eq!(
                report.completed + report.rejected,
                report.generated
            );
        }
    }
}
