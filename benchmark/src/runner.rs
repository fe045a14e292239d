//! `run` and `aa`: the whole benchmark, one child process per workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Value;

use crate::catalog::{self, END_TO_END, WORKLOADS};
use crate::outcome::object;
use crate::stats::{median, quartiles, spread};
use crate::{home, sysinfo, Flags};

pub const DEFAULT_SEED: u64 = 42;
/// Seconds one workload measures for; `BENCHMARK.json` says the same.
pub const DEFAULT_SECONDS: f64 = 16.0;

/// What one child run gave back.
struct Child {
    /// Wall seconds of the whole child, set-up and checks included.
    wall_s: f64,
    /// The child's last line: what the driver sees.
    result: Value,
    /// The child's `--detail` file: every sample with its count.
    detail: Value,
    ok: bool,
}

fn lookup<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    Value::lookup(value.as_map()?, key)
}

/// The `value` of one metric of a result line.
fn metric(result: &Value, name: &str) -> Option<f64> {
    lookup(lookup(lookup(result, "metrics")?, name)?, "value")?.as_f64()
}

/// Runs one workload in a child process and echoes what it prints.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    quiet: bool,
) -> Result<Child, String> {
    let out_dir = home().join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let detail_path = out_dir.join(format!(
        "detail-{workload}-{}.json",
        if trace { "traced" } else { "untraced" }
    ));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail_path)
        .env("CARGO_MANIFEST_DIR", home())
        .stdout(Stdio::piped());
    if smoke {
        command.arg("--smoke");
    }
    let started = Instant::now();
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("the {workload} child printed nothing"))?;
    if !quiet {
        for line in &lines {
            println!("{line}");
        }
    }
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: last line is not JSON ({e}): {last}"))?;
    let keys: Vec<&str> = result
        .as_map()
        .map(|m| m.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{workload}: result line has keys {keys:?}"));
    }
    let detail_text = std::fs::read_to_string(&detail_path)
        .map_err(|e| format!("cannot read {}: {e}", detail_path.display()))?;
    let detail: Value = serde_json::from_str(&detail_text)
        .map_err(|e| format!("{}: {e}", detail_path.display()))?;
    let correct = lookup(&result, "correct")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    Ok(Child {
        wall_s,
        result,
        detail,
        ok: output.status.success() && correct,
    })
}

fn selected(flags: &Flags) -> Result<Vec<&'static str>, String> {
    match flags.value("--workload") {
        None => Ok(WORKLOADS.iter().map(|w| w.name).collect()),
        Some(name) => catalog::workload(name)
            .map(|w| vec![w.name])
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

/// The machine and the settings, recorded with every result file.
fn environment(seed: u64, seconds: f64) -> Vec<(&'static str, Value)> {
    vec![
        ("nproc", Value::U64(sysinfo::nproc() as u64)),
        ("cpu_model", Value::Str(sysinfo::cpu_model())),
        (
            "cache_kib",
            Value::Seq(
                sysinfo::cache_sizes_kib()
                    .into_iter()
                    .map(Value::U64)
                    .collect(),
            ),
        ),
        ("rustc", Value::Str(sysinfo::rustc_version())),
        ("git_revision", Value::Str(sysinfo::git_revision())),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
    ]
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("the value tree renders");
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `run`: every workload once (and once more traced), every metric printed,
/// every output checked. `Ok(false)` when any operation failed.
pub fn run(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.number("--seconds", DEFAULT_SECONDS)?;
    let smoke = flags.switch("--smoke");
    let traced = flags.switch("--traced");
    let names = selected(flags)?;

    let started = Instant::now();
    let mut all_ok = true;
    let mut records = Vec::new();
    let mut budget_rows = Vec::new();
    for name in &names {
        let untraced = child(name, seed, seconds, false, smoke, false)?;
        all_ok &= untraced.ok;
        let mut record = vec![
            ("workload", Value::Str(name.to_string())),
            ("wall_s", Value::F64(untraced.wall_s)),
            ("result", untraced.result),
            ("untraced", untraced.detail),
        ];
        if traced {
            let pass = child(name, seed, seconds, true, smoke, false)?;
            all_ok &= pass.ok;
            if let Some(budget) = lookup(&pass.detail, "budget").filter(|b| **b != Value::Null) {
                budget_rows.push((name.to_string(), budget.clone()));
            }
            record.push(("traced_wall_s", Value::F64(pass.wall_s)));
            record.push(("traced_result", pass.result));
            record.push(("traced", pass.detail));
        }
        records.push(object(record));
    }
    let total_wall_s = started.elapsed().as_secs_f64();

    if traced {
        let table = budget_table(&budget_rows);
        let path = home().join("out").join("time_budget.md");
        std::fs::write(&path, &table)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("\n{table}\nwritten to {}", path.display());
    }
    println!(
        "\n{} workload(s), total wall {total_wall_s:.1} s, {}",
        names.len(),
        if all_ok {
            "every output correct"
        } else {
            "SOME OUTPUTS WRONG (fail_frac > 0)"
        }
    );
    if let Some(path) = flags.value("--json") {
        let mut top = environment(seed, seconds);
        top.push(("smoke", Value::Bool(smoke)));
        top.push(("total_wall_s", Value::F64(total_wall_s)));
        top.push(("workloads", Value::Seq(records)));
        write_json(&PathBuf::from(path), &object(top))?;
    }
    Ok(all_ok)
}

/// The "where the time goes" table: one row per workload, the per-layer
/// shares of the traced pass's wall time.
fn budget_table(rows: &[(String, Value)]) -> String {
    let mut text = String::from(
        "# Where the time goes\n\n\
         Generated by `run --traced`. One row per workload: the wall time the traced pass\n\
         attributes, and each layer's share of it (a layer's self time: its spans minus their\n\
         children; kernel time is divided by the worker count so the shares are of wall time).\n\
         For the service rows the whole is the sum of the reference step's job latencies.\n\n\
         | workload | attributed | shares | sum |\n|---|---|---|---|\n",
    );
    for (name, budget) in rows {
        let wall = lookup(budget, "wall_s")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let layers = lookup(budget, "layers")
            .and_then(Value::as_map)
            .unwrap_or(&[]);
        let mut sum = 0.0;
        let shares: Vec<String> = layers
            .iter()
            .map(|(layer, secs)| {
                let share = secs.as_f64().unwrap_or(0.0) / wall.max(f64::MIN_POSITIVE);
                sum += share;
                format!("{layer} {:.1} %", share * 100.0)
            })
            .collect();
        text.push_str(&format!(
            "| `{name}` | {wall:.3} s | {} | {:.1} % |\n",
            shares.join(" · "),
            sum * 100.0
        ));
    }
    text
}

/// `aa`: the whole benchmark `runs` times in each of `sets` interleaved
/// sets, every run on another seed; fails when two sets' medians of an
/// end-to-end metric differ by more than its bound.
pub fn aa(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.number("--seconds", DEFAULT_SECONDS)?;
    let sets: usize = flags.number("--sets", 2)?;
    let runs: usize = flags.number("--runs", 5)?;
    if sets < 2 || runs < 2 {
        return Err("aa needs at least two sets of at least two runs".to_string());
    }
    let names = selected(flags)?;

    // values[(workload, metric)][set] = one value per run.
    let mut values: BTreeMap<(&str, &str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut all_ok = true;
    let started = Instant::now();
    for run in 0..runs {
        for set in 0..sets {
            let run_seed = seed + (run * sets + set) as u64;
            for name in &names {
                let child = child(name, run_seed, seconds, false, false, true)?;
                all_ok &= child.ok;
                for m in &END_TO_END {
                    let value = metric(&child.result, m.name)
                        .ok_or_else(|| format!("{name}: the result line lacks {}", m.name))?;
                    values
                        .entry((name, m.name))
                        .or_insert_with(|| vec![Vec::new(); sets])[set]
                        .push(value);
                }
                println!(
                    "aa: run {} of {runs}, set {} of {sets}, {name} (seed {run_seed}): {:.1} s",
                    run + 1,
                    set + 1,
                    child.wall_s
                );
            }
        }
    }

    println!("\n{:<18} {:<20} {:>5}  per-set median [q1 .. q3]  |  worst difference of medians vs bound  |  spread of all runs vs bound", "workload", "metric", "set");
    let mut rows = Vec::new();
    let mut within = true;
    for ((workload, name), per_set) in &values {
        let m = catalog::end_to_end(name).expect("a catalogue metric");
        let medians: Vec<f64> = per_set
            .iter()
            .map(|v| median(v).expect("run values"))
            .collect();
        let quartile_text: Vec<String> = per_set
            .iter()
            .zip(&medians)
            .map(|(v, med)| {
                let [q1, _, q3] = quartiles(v).expect("run values");
                format!("{med:.5} [{q1:.5} .. {q3:.5}]")
            })
            .collect();
        let mut worst = 0.0f64;
        for a in &medians {
            for b in &medians {
                worst = worst.max((a - b).abs() / a.abs().max(f64::MIN_POSITIVE));
            }
        }
        let all: Vec<f64> = per_set.iter().flatten().copied().collect();
        let spread_all = spread(&all).expect("run values");
        let holds = worst <= m.bound;
        within &= holds;
        println!(
            "{workload:<18} {name:<20} {:<60} | {worst:.3} vs {:.2} {} | {spread_all:.3}{}",
            quartile_text.join("  "),
            m.bound,
            if holds { "ok" } else { "EXCEEDED" },
            if name != &"setup_s" && spread_all > m.bound {
                " SPREAD ABOVE BOUND"
            } else {
                ""
            },
        );
        rows.push(object(vec![
            ("workload", Value::Str(workload.to_string())),
            ("metric", Value::Str(name.to_string())),
            ("unit", Value::Str(m.unit.to_string())),
            ("better", Value::Str(m.better.label().to_string())),
            ("bound", Value::F64(m.bound)),
            (
                "measured_on_this_workload",
                Value::Bool(catalog::workload(workload).is_some_and(|w| m.kinds.contains(&w.kind))),
            ),
            (
                "sets",
                Value::Seq(
                    per_set
                        .iter()
                        .map(|v| Value::Seq(v.iter().copied().map(Value::F64).collect()))
                        .collect(),
                ),
            ),
            (
                "medians",
                Value::Seq(medians.iter().copied().map(Value::F64).collect()),
            ),
            ("worst_median_difference", Value::F64(worst)),
            ("spread_all_runs", Value::F64(spread_all)),
            ("within_bound", Value::Bool(holds)),
        ]));
    }
    let total_wall_s = started.elapsed().as_secs_f64();
    println!(
        "\naa: {sets} sets x {runs} runs, total wall {total_wall_s:.0} s: {}{}",
        if within {
            "every end-to-end metric's medians agree within its bound"
        } else {
            "A METRIC'S MEDIANS DIFFER BY MORE THAN ITS BOUND"
        },
        if all_ok { "" } else { "; SOME OUTPUTS WRONG" },
    );
    if let Some(path) = flags.value("--json") {
        let mut top = environment(seed, seconds);
        top.push(("sets", Value::U64(sets as u64)));
        top.push(("runs", Value::U64(runs as u64)));
        top.push(("total_wall_s", Value::F64(total_wall_s)));
        top.push(("within_bounds", Value::Bool(within)));
        top.push(("metrics", Value::Seq(rows)));
        write_json(&PathBuf::from(path), &object(top))?;
    }
    Ok(within && all_ok)
}
