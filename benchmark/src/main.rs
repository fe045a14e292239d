//! The wall-clock benchmark of aiac-rs.
//!
//! ```text
//! aiac-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! aiac-benchmark run [--workload W] [--seed N] [--seconds S] [--traced] [--smoke] [--json PATH]
//! aiac-benchmark aa [--sets 2] [--runs 5] [--seed N] [--seconds S] [--json PATH]
//! aiac-benchmark manifest                                        prints BENCHMARK.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: it measures one workload
//! for `--seconds`, checks every output, prints every metric by name and, as
//! its last line, one JSON object. `run` and `aa` start that form once per
//! workload in a child process, so each workload's peak memory is its own.

mod adapter;
mod arrivals;
mod calib;
mod catalog;
mod micro;
mod outcome;
mod ring;
mod runner;
mod spans;
mod stats;
mod sysinfo;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use outcome::Ctx;

/// `benchmark/`: where `out/` and `results/` live. Cargo sets the variable
/// when it runs the binary; a binary started by hand falls back to where it
/// was built.
pub fn home() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Command-line flags: `--name value` pairs and bare `--name` switches.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn switch(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// A numeric flag; a value that does not parse is a usage error.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read {text:?}")),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: aiac-benchmark --workload W --seed N --seconds S --trace 0|1\n       \
         aiac-benchmark run [--workload W] [--seed N] [--seconds S] [--traced] [--smoke] [--json PATH]\n       \
         aiac-benchmark aa [--sets 2] [--runs 5] [--seed N] [--seconds S] [--json PATH]\n\
         workloads: {}",
        catalog::WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match args.first().map(String::as_str) {
        Some("run") => ("run", Flags(args[1..].to_vec())),
        Some("aa") => ("aa", Flags(args[1..].to_vec())),
        Some("manifest") => {
            print!("{}", catalog::manifest(runner::DEFAULT_SECONDS as u64));
            return ExitCode::SUCCESS;
        }
        _ => ("one", Flags(args)),
    };
    let outcome = match command {
        "run" => runner::run(&flags),
        "aa" => runner::aa(&flags),
        _ => one(&flags),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("aiac-benchmark: {why}");
            usage()
        }
    }
}

/// One workload in this process. `Ok(false)` when an output was wrong.
fn one(flags: &Flags) -> Result<bool, String> {
    let name = flags.value("--workload").ok_or("--workload is required")?;
    let workload = catalog::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = flags.number("--seconds", runner::DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is out of range"));
    }
    let ctx = Ctx {
        seed: flags.number("--seed", runner::DEFAULT_SEED)?,
        seconds,
        trace: match flags.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
        },
        smoke: flags.switch("--smoke"),
        nproc: sysinfo::nproc(),
        out_dir: home().join("out"),
    };

    let started = Instant::now();
    let outcome = workloads::run(workload.name, &ctx);
    let wall_s = started.elapsed().as_secs_f64();

    println!(
        "nproc {}  seed {}  seconds {}  trace {}  wall {wall_s:.1} s",
        ctx.nproc, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    outcome.print(ctx.smoke);
    if let Some(path) = flags.value("--detail") {
        let text = serde_json::to_string_pretty(&outcome.detail(&ctx, wall_s))
            .expect("the value tree renders");
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", outcome.result_line(ctx.trace));
    Ok(outcome.correct())
}
