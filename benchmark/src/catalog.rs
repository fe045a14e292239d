//! The names the benchmark prints: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repo root lists exactly these (a unit test
//! compares the two, both directions).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The three kinds of workload; a metric names the kinds it is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Solver,
    Sim,
    Service,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sparse_bigblock",
        kind: Kind::Solver,
        why: "sparse n=6000 in 12 blocks of 500 rows: the per-block kernel (dense LU solve, residual) is >95% of a sweep, scheduler and mailbox almost none; a kernel optimisation shows here",
    },
    Workload {
        name: "sparse_manyblock",
        kind: Kind::Solver,
        why: "sparse n=24000 in 256 blocks of 94 rows, 7170 dependency edges: work shifts to assemble/allocation, mailbox and scheduling; a data-plane or scheduler win shows here, a kernel win is small",
    },
    Workload {
        name: "ring_sched",
        kind: Kind::Solver,
        why: "2048-block ring with a few-ns kernel: wall time and memory are pure core::runtime (pool, deque, mailbox, detector, per-block view); a linalg change must not move it",
    },
    Workload {
        name: "chem_steps",
        kind: Kind::Solver,
        why: "chemical 100x100 in 10 strips, 12 implicit-Euler steps = 12 short runs per solve: run start-up/tear-down and the Newton/GMRES kernel matter, unlike the single long runs",
    },
    Workload {
        name: "sim_grid",
        kind: Kind::Sim,
        why: "sparse n=1200/12 blocks on the 3-site grid through SimulatedRuntime, once per environment: single-threaded core::runtime::simulated + netsim + envs and none of the threaded code",
    },
    Workload {
        name: "svc_unique",
        kind: Kind::Service,
        why: "service traffic of never-repeating SparseLinear{256,8} jobs (cache always misses): per-job kernel build and solve set capacity; cache, DRR and admission do almost nothing",
    },
    Workload {
        name: "svc_hot",
        kind: Kind::Service,
        why: "service traffic over a pre-warmed 32-key hot set (every job hits the cache): admission, DRR, deque, cache lookup and result delivery are all the work; a solver speed-up must not move it",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Kinds of workload that measure it; on the others the run's calibration
    /// time stands in (see `calib.rs`).
    pub kinds: &'static [Kind],
}

const ALL: &[Kind] = &[Kind::Solver, Kind::Sim, Kind::Service];
const SOLVE: &[Kind] = &[Kind::Solver, Kind::Sim];
const SERVICE: &[Kind] = &[Kind::Service];

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kinds: ALL,
    },
    EndToEnd {
        name: "solve_seq_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kinds: ALL,
    },
    EndToEnd {
        name: "solve_sync_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kinds: SOLVE,
    },
    EndToEnd {
        name: "solve_async_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kinds: SOLVE,
    },
    EndToEnd {
        name: "svc_sat_jobs_per_s",
        unit: "jobs/s",
        better: Better::Higher,
        bound: 0.25,
        kinds: SERVICE,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        kinds: ALL,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, prefix = crate. Counts whose direction means nothing
/// are listed as lower-is-better (less work for the same result).
pub const PER_LAYER: [PerLayer; 99] = [
    // linalg: µbench / replay on the workload's own matrix and partition.
    lo("linalg.spmv_ns_per_nnz", "ns"),
    lo("linalg.residual_ns_per_nnz", "ns"),
    lo("linalg.dia_matvec_ns_per_nnz", "ns"),
    lo("linalg.jacobi_apply_ns_per_row", "ns"),
    lo("linalg.jacobi_factor_s", "s"),
    lo("linalg.gmres_ms", "ms"),
    hi("linalg.spmv_gflops", "GFLOP/s"),
    hi("linalg.spmv_gbps_computed", "GB/s"),
    hi("linalg.spmv_flop_per_byte", "flop/B"),
    hi("linalg.triad_gbps", "GB/s"),
    // solvers: replay of update_block_into over all blocks.
    lo("solvers.build_s", "s"),
    lo("solvers.update_us", "us"),
    lo("solvers.sweep_ms", "ms"),
    lo("solvers.assemble_frac", "ratio"),
    lo("solvers.chem_update_us", "us"),
    // core, read from the runs' reports.
    lo("core.iters_sync", "count"),
    lo("core.iters_async", "count"),
    lo("core.async_iter_ratio", "ratio"),
    lo("core.msgs_async", "count"),
    hi("core.coalesced_frac", "ratio"),
    lo("core.steals", "count"),
    lo("core.steal_miss_frac", "ratio"),
    lo("core.queue_wait_events", "count"),
    lo("core.payload_clones", "count"),
    lo("core.bytes_copied", "B"),
    lo("core.peak_mailbox_occupancy", "count"),
    hi("core.sync_efficiency", "ratio"),
    lo("core.async_over_sync", "ratio"),
    lo("core.async_wall_median_s", "s"),
    lo("core.seq_overhead_frac", "ratio"),
    // core, from the traced runs.
    hi("core.kernel_busy_frac.sync", "ratio"),
    hi("core.kernel_busy_frac.async", "ratio"),
    lo("core.self_frac.sync", "ratio"),
    lo("core.self_frac.async", "ratio"),
    // core, µbench.
    lo("core.run_overhead_us", "us"),
    lo("core.mailbox_publish_ns", "ns"),
    lo("core.mailbox_take_ns", "ns"),
    lo("core.mailbox_pingpong_ns", "ns"),
    lo("core.deque_push_pop_ns", "ns"),
    lo("core.deque_steal_ns", "ns"),
    lo("core.deque_steal_contended_ns", "ns"),
    // simulated runtime, netsim, envs.
    lo("simrt.wall_s.sync-mpi", "s"),
    lo("simrt.wall_s.async-pm2", "s"),
    lo("simrt.wall_s.async-mpi-mad", "s"),
    lo("simrt.wall_s.async-omniorb4", "s"),
    lo("simrt.wall_s.total", "s"),
    lo("simrt.us_per_iter", "us"),
    lo("simrt.us_per_msg", "us"),
    lo("simrt.iters", "count"),
    lo("simrt.msgs", "count"),
    lo("simrt.virtual_s.sync-mpi", "s"),
    lo("simrt.virtual_s.async-pm2", "s"),
    lo("simrt.virtual_s.async-mpi-mad", "s"),
    lo("simrt.virtual_s.async-omniorb4", "s"),
    lo("simrt.self_frac", "ratio"),
    lo("netsim.event_ns", "ns"),
    lo("netsim.sched_ns", "ns"),
    lo("netsim.transfer_ns", "ns"),
    lo("envs.cost_ns", "ns"),
    // service, µbench.
    lo("service.job_solve_ms", "ms"),
    lo("service.kernel_build_ms", "ms"),
    lo("service.build_frac", "ratio"),
    lo("service.cache_lookup_ns", "ns"),
    lo("service.cache_insert_ns", "ns"),
    lo("service.job_key_ns", "ns"),
    lo("service.drr_enq_disp_ns", "ns"),
    lo("service.start_stop_ms", "ms"),
    // service, seen by the driver.
    hi("service.max_rate", "jobs/s"),
    lo("service.submit_us", "us"),
    lo("service.submit_p99_us", "us"),
    hi("service.cache_hit_frac", "ratio"),
    lo("service.reject_frac", "ratio"),
    lo("service.dup_solve_frac", "ratio"),
    lo("service.util", "ratio"),
    lo("service.self_frac", "ratio"),
    lo("service.gen_lag_ms_p99", "ms"),
    lo("service.lat_p50_ms.r1", "ms"),
    lo("service.lat_p50_ms.r2", "ms"),
    lo("service.lat_p50_ms.r3", "ms"),
    lo("service.lat_p50_ms.r4", "ms"),
    lo("service.lat_p99_ms.r1", "ms"),
    lo("service.lat_p99_ms.r2", "ms"),
    lo("service.lat_p99_ms.r3", "ms"),
    lo("service.lat_p99_ms.r4", "ms"),
    lo("service.backlog_end.r1", "count"),
    lo("service.backlog_end.r2", "count"),
    lo("service.backlog_end.r3", "count"),
    lo("service.backlog_end.r4", "count"),
    lo("service.overload_shed_frac", "ratio"),
    lo("service.overload_drain_s", "s"),
    lo("service.peak_in_flight", "count"),
    // obs, µbench.
    lo("obs.emit_off_ns", "ns"),
    lo("obs.emit_on_ns", "ns"),
    lo("obs.snapshot_ms", "ms"),
    lo("obs.export_ms_per_kevent", "ms"),
    // the benchmark itself.
    lo("bench.trace_overhead_frac", "ratio"),
    lo("bench.calib_ms", "ms"),
    lo("bench.fail_frac", "ratio"),
    hi("bench.samples", "count"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, rendered from the tables above (`aiac-benchmark
/// manifest > BENCHMARK.json` at the repo root regenerates it).
pub fn manifest(run_seconds: u64) -> String {
    use serde::Value;
    let text = |s: &str| Value::Str(s.to_string());
    let entry = crate::outcome::object;
    let top = entry(vec![
        (
            "command",
            Value::Seq(COMMAND.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Seq(vec![text("benchmark")])),
        ("run_seconds", Value::U64(run_seconds)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| entry(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        entry(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        entry(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&top).expect("the value tree renders") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn committed() -> Vec<(String, Value)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let value: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        value.as_map().expect("top level is an object").to_vec()
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a Value {
        Value::lookup(entry.as_map().expect("entry is an object"), key)
            .unwrap_or_else(|| panic!("entry lacks {key}"))
    }

    fn names(list: &Value) -> Vec<String> {
        list.as_seq()
            .expect("a list")
            .iter()
            .map(|e| field(e, "name").as_str().expect("a name").to_string())
            .collect()
    }

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(committed, manifest(crate::runner::DEFAULT_SECONDS as u64));
    }

    #[test]
    fn the_manifest_has_exactly_the_contract_keys() {
        let keys: Vec<String> = committed().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn manifest_and_catalogue_agree_both_ways() {
        let manifest = committed();
        let get = |key: &str| Value::lookup(&manifest, key).expect("key present");

        let workloads = get("workloads");
        assert_eq!(
            names(workloads),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (entry, w) in workloads.as_seq().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "why").as_str(), Some(w.why), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let e2e = get("end_to_end");
        assert_eq!(
            names(e2e),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in e2e.as_seq().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                field(entry, "better").as_str(),
                Some(m.better.label()),
                "{}",
                m.name
            );
            assert_eq!(field(entry, "bound").as_f64(), Some(m.bound), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }

        let layers = get("per_layer");
        assert_eq!(
            names(layers),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in layers.as_seq().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                field(entry, "better").as_str(),
                Some(m.better.label()),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && WORKLOADS.len() <= 8);
    }
}
