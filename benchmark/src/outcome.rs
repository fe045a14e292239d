//! What one workload run produced: named samples, the failure count, and the
//! time-budget row of a traced run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::Value;

use crate::calib;
use crate::catalog::{self, END_TO_END, PER_LAYER};

/// How one workload run was asked to run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Seconds the measuring phase may take.
    pub seconds: f64,
    /// Spans on, per-layer numbers measured.
    pub trace: bool,
    /// Tiny sizes, one repeat: correctness and schema only.
    pub smoke: bool,
    pub nproc: usize,
    /// Where the trace files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub value: f64,
    /// Timings (or operations) the value summarises.
    pub n: usize,
}

/// Per-layer shares of a traced run's wall time, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    pub wall_s: f64,
    /// `(layer, seconds)`; the seconds add up to `wall_s`.
    pub layers: Vec<(&'static str, f64)>,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    /// The sizes the workload ran at.
    pub size: String,
    pub samples: BTreeMap<&'static str, Sample>,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check, were refused, or did not converge.
    pub failed: u64,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    pub budget: Option<Budget>,
    /// The run's calibration time (see `calib.rs`), in seconds.
    pub calib_s: f64,
}

/// A JSON object with the given keys, in order.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Outcome {
    pub fn new(workload: &'static str, size: String) -> Self {
        assert!(
            catalog::workload(workload).is_some(),
            "{workload} is not in the catalogue"
        );
        Outcome {
            workload,
            size,
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            budget: None,
            calib_s: 0.0,
        }
    }

    /// Records a metric. The name must be in the catalogue: a name the
    /// benchmark prints and `BENCHMARK.json` lacks is a bug.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            catalog::end_to_end(name).is_some() || catalog::per_layer(name).is_some(),
            "{name} is not in the catalogue"
        );
        assert!(value.is_finite(), "{name} = {value} on {}", self.workload);
        self.samples.insert(name, Sample { value, n });
    }

    /// Records a metric only if the program reported it.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, n: usize) {
        if let Some(value) = value {
            self.set(name, value, n);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|s| s.value)
    }

    /// Counts one checked operation; `why` is evaluated only on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of a driver run: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. Untraced runs carry every end-to-end metric
    /// (the calibration time standing in where a metric is not measured on
    /// this kind of workload); traced runs carry every per-layer metric
    /// (zero where the workload does not exercise the layer or the program
    /// does not report the counter).
    pub fn result_line(&self, trace: bool) -> String {
        let metric = |value: f64, unit: &str| {
            object(vec![
                ("value", Value::F64(value)),
                ("unit", Value::Str(unit.to_string())),
            ])
        };
        let metrics: Vec<(String, Value)> = if trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        metric(self.get(m.name).unwrap_or(0.0), m.unit),
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .get(m.name)
                        .unwrap_or_else(|| calib::stand_in(self.calib_s, m.unit));
                    (m.name.to_string(), metric(value, m.unit))
                })
                .collect()
        };
        let line = object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("the value tree renders")
    }

    /// Everything measured, for `run` and `aa` to collect from the child.
    pub fn detail(&self, ctx: &Ctx, wall_s: f64) -> Value {
        let samples = self
            .samples
            .iter()
            .map(|(name, s)| {
                (
                    name.to_string(),
                    object(vec![
                        ("value", Value::F64(s.value)),
                        ("n", Value::U64(s.n as u64)),
                    ]),
                )
            })
            .collect();
        let budget = match &self.budget {
            None => Value::Null,
            Some(b) => object(vec![
                ("wall_s", Value::F64(b.wall_s)),
                (
                    "layers",
                    Value::Map(
                        b.layers
                            .iter()
                            .map(|(l, s)| (l.to_string(), Value::F64(*s)))
                            .collect(),
                    ),
                ),
            ]),
        };
        object(vec![
            ("workload", Value::Str(self.workload.to_string())),
            ("size", Value::Str(self.size.clone())),
            ("seed", Value::U64(ctx.seed)),
            ("trace", Value::Bool(ctx.trace)),
            ("wall_s", Value::F64(wall_s)),
            ("calib_s", Value::F64(self.calib_s)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "failures",
                Value::Seq(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("samples", Value::Map(samples)),
            ("budget", budget),
        ])
    }

    /// One line per measured metric: name, value, unit, sample count, bound.
    /// A smoke run prints the names only: its timings are not results.
    pub fn print(&self, smoke: bool) {
        println!("workload {} [{}]", self.workload, self.size);
        let line = |name: &str, unit: &str, bound: Option<f64>| {
            let Some(s) = self.samples.get(name) else {
                return;
            };
            let bound = bound.map_or(String::new(), |b| format!("  bound {b:.2}"));
            if smoke {
                println!("  {name:<34} measured  [{unit}]{bound}");
            } else {
                println!("  {name:<34} {:>16.6} {unit:<8} n={}{bound}", s.value, s.n);
            }
        };
        for m in &END_TO_END {
            line(m.name, m.unit, Some(m.bound));
        }
        for m in &PER_LAYER {
            line(m.name, m.unit, None);
        }
        println!(
            "  {:<34} {:>16.6} {:<8} n={}  bound 0.00",
            "fail_frac",
            self.fail_frac(),
            "ratio",
            self.attempted
        );
        for why in &self.failures {
            println!("  FAILED: {why}");
        }
    }
}
