//! The seven workloads, and the per-layer loops more than one of them uses.

pub mod sim;
pub mod solver;
pub mod svc;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::adapter::{self, Deque, IterativeKernel, LinalgFixture, Mailboxes, ObsProbe, Sparse};
use crate::catalog::Kind;
use crate::micro::time_calls;
use crate::outcome::{Ctx, Outcome};
use crate::spans::Recorder;
use crate::stats::fastest;
use crate::{calib, catalog, sysinfo};

/// Runs one workload in this process: the calibration loop, then the
/// workload's own set-up, measuring phase and checks.
pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    let workload = catalog::workload(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let calib_s = calib::calibrate();
    let mut out = match workload.kind {
        Kind::Solver => solver::run(workload.name, ctx),
        Kind::Sim => sim::run(workload.name, ctx),
        Kind::Service => svc::run(workload.name, ctx),
    };
    out.calib_s = calib_s;
    out.set("bench.calib_ms", calib_s * 1e3, calib::PASSES);
    out.set("bench.fail_frac", out.fail_frac(), out.attempted as usize);
    out
}

/// Sets up several times: at least three, then until `share` of the measuring
/// time is used, 25 at most (once in a smoke run). Each product is disposed
/// of before the next is made, so two never add to the memory peak. Returns
/// the last product, which is the one measured, the fastest set-up's seconds
/// and the number of set-ups.
pub fn set_up_repeatedly<T>(
    ctx: &Ctx,
    share: f64,
    mut set_up: impl FnMut() -> (T, f64),
    mut dispose: impl FnMut(T),
) -> (T, f64, usize) {
    let (mut product, first) = set_up();
    let mut seconds = vec![first];
    let begun = Instant::now();
    while !ctx.smoke
        && seconds.len() < 25
        && (seconds.len() < 3 || begun.elapsed().as_secs_f64() < share * ctx.seconds)
    {
        dispose(product);
        let (again, secs) = set_up();
        product = again;
        seconds.push(secs);
    }
    let setup_s = fastest(&seconds).expect("set-up times are finite");
    (product, setup_s, seconds.len())
}

/// Writes the workload's spans to `out/trace-<workload>.json`.
pub fn write_trace(recorder: &Recorder, ctx: &Ctx, out: &mut Outcome) {
    let path = ctx.out_dir.join(format!("trace-{}.json", out.workload));
    let written = std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut file = std::io::BufWriter::new(file);
            recorder.write_json(&mut file)?;
            std::io::Write::flush(&mut file)
        });
    match written {
        Ok(()) => println!(
            "  trace: {} spans -> {}",
            recorder.spans().len(),
            path.display()
        ),
        Err(err) => out.check(false, || {
            format!("could not write {}: {err}", path.display())
        }),
    }
}

/// Every block updated once, directly, pass after pass for `min_secs`; a
/// block's time in nanoseconds is its fastest pass.
pub fn replay_per_block(kernel: &dyn IterativeKernel, min_secs: f64) -> Vec<f64> {
    let begun = Instant::now();
    let mut passes: Vec<Vec<u64>> = Vec::new();
    while passes.len() < 3 || (begun.elapsed().as_secs_f64() < min_secs && passes.len() < 200) {
        passes.push(adapter::replay_updates(kernel));
    }
    (0..kernel.num_blocks())
        .map(|b| {
            let times: Vec<f64> = passes.iter().map(|p| p[b] as f64).collect();
            fastest(&times).expect("block times are finite")
        })
        .collect()
}

/// The STREAM-style reference the spmv numbers sit next to.
pub fn triad_reference(min_secs: f64, out: &mut Outcome) {
    let triad = calib::triad(min_secs);
    out.set("linalg.triad_gbps", triad.gbps, triad.passes);
    println!(
        "  triad footprint {:.0} MiB; last-level cache reported {} MiB: no DRAM-bandwidth or roofline claim",
        triad.footprint_mib,
        sysinfo::llc_mib().map_or("?".to_string(), |m| format!("{m:.0}")),
    );
}

/// `linalg.` and `solvers.` numbers of a sparse problem: isolated loops over
/// the public functions on the workload's own matrix and partition, next to
/// the replayed sweep (`sweep_ns`, summed over blocks). Returns the share of
/// an update spent in `residual` + `apply_block`.
pub fn sparse_layers(sparse: &Sparse, sweep_ns: f64, min_secs: f64, out: &mut Outcome) -> f64 {
    let mut fixture = LinalgFixture::build(sparse);
    let nnz = sparse.nnz() as f64;
    let n = sparse.n() as f64;
    out.set("linalg.jacobi_factor_s", fixture.jacobi_factor_s, 1);
    let spmv = time_calls(min_secs, || fixture.spmv());
    let residual = time_calls(min_secs, || fixture.residual_sweep());
    let dia = time_calls(min_secs, || fixture.dia_matvec());
    let jacobi = time_calls(min_secs, || fixture.jacobi_sweep());
    let mut converged = true;
    let gmres = time_calls(min_secs, || converged &= fixture.gmres());
    out.check(converged, || {
        "GMRES on the workload's matrix did not converge".to_string()
    });
    out.set(
        "linalg.spmv_ns_per_nnz",
        spmv.ns_per_call / nnz,
        spmv.batches,
    );
    out.set(
        "linalg.residual_ns_per_nnz",
        residual.ns_per_call / nnz,
        residual.batches,
    );
    out.set(
        "linalg.dia_matvec_ns_per_nnz",
        dia.ns_per_call / nnz,
        dia.batches,
    );
    out.set(
        "linalg.jacobi_apply_ns_per_row",
        jacobi.ns_per_call / n,
        jacobi.batches,
    );
    out.set("linalg.gmres_ms", gmres.ns_per_call * 1e-6, gmres.batches);
    // Computed from nnz and the array sizes, not measured traffic.
    let bytes = fixture.spmv_bytes_computed() as f64;
    out.set(
        "linalg.spmv_gflops",
        2.0 * nnz / spmv.ns_per_call,
        spmv.batches,
    );
    out.set(
        "linalg.spmv_gbps_computed",
        bytes / spmv.ns_per_call,
        spmv.batches,
    );
    out.set("linalg.spmv_flop_per_byte", 2.0 * nnz / bytes, 1);
    let linalg = ((residual.ns_per_call + jacobi.ns_per_call) / sweep_ns).min(1.0);
    out.set("solvers.assemble_frac", 1.0 - linalg, fixture.blocks());
    linalg
}

/// Publish on every block's out-edges, then take on every block's in-edges,
/// cycle after cycle. Returns nanoseconds per edge published and per payload
/// taken in the fastest cycle, and the cycle count.
pub fn mailbox_cycles(mailboxes: &Mailboxes, min_secs: f64) -> (f64, f64, usize) {
    let blocks = mailboxes.blocks();
    let (mut publish, mut take) = (Vec::new(), Vec::new());
    let begun = Instant::now();
    let mut iteration = 0u64;
    while begun.elapsed().as_secs_f64() < min_secs || publish.len() < 5 {
        iteration += 1;
        let started = Instant::now();
        let edges: usize = (0..blocks).map(|b| mailboxes.publish(b, iteration)).sum();
        let published = started.elapsed();
        let started = Instant::now();
        let taken: usize = (0..blocks).map(|b| mailboxes.take(b)).sum();
        let took = started.elapsed();
        publish.push(published.as_nanos() as f64 / edges.max(1) as f64);
        take.push(took.as_nanos() as f64 / taken.max(1) as f64);
    }
    (
        fastest(&publish).expect("publish times"),
        fastest(&take).expect("take times"),
        publish.len(),
    )
}

/// Two threads bounce a payload between two mutually dependent blocks.
/// Returns nanoseconds per round trip (fastest batch of trips) and the trips
/// timed, or `None` when the graph has no such pair. Every wait is bounded: a
/// payload that never comes back ends the loop instead of hanging the
/// benchmark.
pub fn mailbox_pingpong(
    mailboxes: &Mailboxes,
    min_secs: f64,
    nproc: usize,
) -> Option<(f64, usize)> {
    const TRIPS: u64 = 2_000;
    const PATIENCE: u64 = 50_000_000;
    let (ping, pong) = mailboxes.mutual_pair?;
    let relax = || {
        if nproc < 2 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    };
    let stop = AtomicBool::new(false);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // The echo side: whatever arrives at `pong` goes back from it.
            let mut iteration = 0u64;
            while !stop.load(Ordering::Acquire) {
                if mailboxes.take(pong) > 0 {
                    iteration += 1;
                    mailboxes.publish(pong, iteration);
                } else {
                    relax();
                }
            }
        });
        let begun = Instant::now();
        let mut iteration = 0u64;
        'timing: while begun.elapsed().as_secs_f64() < min_secs || samples.len() < 5 {
            let started = Instant::now();
            for _ in 0..TRIPS {
                iteration += 1;
                mailboxes.publish(ping, iteration);
                let mut waited = 0u64;
                while mailboxes.take(ping) == 0 {
                    relax();
                    waited += 1;
                    if waited > PATIENCE {
                        break 'timing;
                    }
                }
            }
            samples.push(started.elapsed().as_nanos() as f64 / TRIPS as f64);
        }
        stop.store(true, Ordering::Release);
    });
    let trips = samples.len() * TRIPS as usize;
    fastest(&samples).ok().map(|ns| (ns, trips))
}

/// `core.deque_*`: owner push+pop, uncontended steal, and steal while the
/// owner keeps pushing and popping on another thread.
pub fn deque_loops(min_secs: f64, out: &mut Outcome) {
    const BATCH: usize = 1024;
    let deque = Deque::new(4096);
    let push_pop = time_calls(min_secs, || {
        for i in 0..BATCH {
            deque.push(i);
        }
        for _ in 0..BATCH {
            std::hint::black_box(deque.pop());
        }
    });
    out.set(
        "core.deque_push_pop_ns",
        push_pop.ns_per_call / BATCH as f64,
        push_pop.batches,
    );

    let steal = time_calls(min_secs, || {
        for i in 0..BATCH {
            deque.push(i);
        }
        for _ in 0..BATCH {
            std::hint::black_box(deque.steal());
        }
    });
    // The pushes are in both loops; their half of push_pop is taken out.
    let steal_ns = (steal.ns_per_call - push_pop.ns_per_call / 2.0).max(0.0) / BATCH as f64;
    out.set("core.deque_steal_ns", steal_ns, steal.batches);

    let stop = AtomicBool::new(false);
    let stolen = AtomicU64::new(0);
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                i += 1;
                deque.push(i);
                deque.push(i);
                std::hint::black_box(deque.pop());
            }
        });
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < min_secs {
            for _ in 0..BATCH {
                if deque.steal().is_some() {
                    stolen.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        elapsed = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
    });
    let stolen = stolen.load(Ordering::Relaxed).max(1);
    out.set(
        "core.deque_steal_contended_ns",
        elapsed * 1e9 / stolen as f64,
        stolen as usize,
    );
}

/// `obs.` numbers: one emit with tracing off and on, then snapshot and
/// export of what the enabled probe recorded.
pub fn obs_probe(min_secs: f64, out: &mut Outcome) {
    let mut off = ObsProbe::new(false);
    let mut i = 0u64;
    let emit_off = time_calls(min_secs, || {
        i += 1;
        off.emit(std::hint::black_box(i));
    });
    out.set("obs.emit_off_ns", emit_off.ns_per_call, emit_off.batches);

    let mut on = ObsProbe::new(true);
    let emit_on = time_calls(min_secs, || {
        i += 1;
        on.emit(std::hint::black_box(i));
    });
    out.set("obs.emit_on_ns", emit_on.ns_per_call, emit_on.batches);
    let (snapshot_s, export_s, events) = on.snapshot_and_export();
    out.set("obs.snapshot_ms", snapshot_s * 1e3, 1);
    out.set(
        "obs.export_ms_per_kevent",
        export_s * 1e3 / (events.max(1) as f64 / 1e3),
        events as usize,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
    use std::collections::BTreeSet;

    /// Every name in the catalogue (and so in `BENCHMARK.json`) is printed by
    /// some workload, and every workload's result line carries exactly the
    /// catalogue's names — checked on smoke runs of all seven, both passes.
    /// (`Outcome::set` refuses a name outside the catalogue, which is the
    /// other direction.)
    #[test]
    fn the_workloads_print_exactly_the_catalogue() {
        let mut printed = BTreeSet::new();
        for workload in &WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    nproc: sysinfo::nproc(),
                    out_dir: crate::home().join("out").join("test"),
                };
                let out = run(workload.name, &ctx);
                assert!(out.correct(), "{}: {:?}", workload.name, out.failures);
                assert!(out.attempted >= 1);
                printed.extend(out.samples.keys().copied());

                let line: serde::Value = serde_json::from_str(&out.result_line(trace)).unwrap();
                let map = line.as_map().unwrap();
                let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let metrics = serde::Value::lookup(map, "metrics")
                    .unwrap()
                    .as_map()
                    .unwrap();
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let expected: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(names, expected, "{} trace {trace}", workload.name);
                if !trace {
                    for (name, entry) in metrics {
                        let value = serde::Value::lookup(entry.as_map().unwrap(), "value").unwrap();
                        assert!(
                            value.as_f64().unwrap() > 0.0,
                            "{}: {name} is zero",
                            workload.name
                        );
                    }
                }
                if trace {
                    let budget = out.budget.as_ref().expect("a traced run has a budget");
                    let sum: f64 = budget.layers.iter().map(|(_, s)| s).sum();
                    assert!(
                        (sum / budget.wall_s - 1.0).abs() <= 0.05,
                        "{}: shares sum to {sum} of {}",
                        workload.name,
                        budget.wall_s
                    );
                    assert!(ctx
                        .out_dir
                        .join(format!("trace-{}.json", workload.name))
                        .exists());
                }
            }
        }
        let catalogue: BTreeSet<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let missing: Vec<_> = catalogue.difference(&printed).collect();
        assert!(
            missing.is_empty(),
            "in the catalogue but never printed: {missing:?}"
        );
    }
}
