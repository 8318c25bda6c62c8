//! `ledger`: the repo's benchmark. One run measures one workload:
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! prints every metric by name with its unit, the provenance of the
//! numbers, and as its last line the result object `BENCHMARK.json`
//! describes. `--trace 0` measures the end-to-end metrics with spans
//! off; `--trace 1` runs the same workload at the same size with spans
//! on and reports the per-layer metrics.
//!
//! Two more modes run whole sets, each run in a child process of its
//! own so that peak RSS and the span registry start clean:
//! `--repeat K` runs K untraced seeds and one traced run per workload
//! and prints median, quartiles and spread against each bound, exiting
//! non-zero when a spread exceeds its bound; `--smoke` runs every
//! workload once at about 1/50 size with all checks on.
//!
//! See README.md for why these workloads and which layer moves what.

mod report;
mod serve;
mod trace;
mod train;

use mars_json::Json;
use report::{quartiles, Contract, Run};
use std::process::{Command, ExitCode};
use std::time::Instant;

pub struct Opts {
    pub seed: u64,
    /// How long the measured part lasts (serving) or is sized to last
    /// on the reference box (training).
    pub seconds: f64,
    pub traced: bool,
    /// About 1/50 of the work, to keep the ledger itself from rotting.
    pub smoke: bool,
}

impl Opts {
    /// Set-up is cheap and noisy, so it is repeated and its median
    /// reported.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

type Workload = fn(&Opts) -> Run;

const WORKLOADS: [(&str, Workload); 4] = [
    ("train_gnmt4", train::train_gnmt4),
    ("pretrain_corpus", train::pretrain_corpus),
    ("serve_hot", serve::serve_hot),
    ("serve_mixed", serve::serve_mixed),
];

struct Args {
    workload: Option<String>,
    opts: Opts,
    repeat: Option<usize>,
}

/// A flag's value, parsed and within range.
fn parsed<T: std::str::FromStr>(
    flag: &str,
    value: String,
    in_range: impl Fn(&T) -> bool,
) -> Result<T, String> {
    value.parse().ok().filter(in_range).ok_or(format!("{flag}: cannot use '{value}'"))
}

fn parse_args(contract: &Contract) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Opts { seed: 1, seconds: contract.run_seconds, traced: false, smoke: false },
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.opts.seed = parsed(&flag, value()?, |_| true)?,
            "--seconds" => args.opts.seconds = parsed(&flag, value()?, |&s| s > 0.0 && s <= 600.0)?,
            "--trace" => args.opts.traced = parsed::<u8>(&flag, value()?, |&t| t <= 1)? == 1,
            "--repeat" => args.repeat = Some(parsed(&flag, value()?, |&k| k >= 1)?),
            "--smoke" => args.opts.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload '{w}'; one of {}", names.join(", ")));
        }
    }
    if args.opts.smoke {
        args.opts.seconds = args.opts.seconds.min(0.5);
    }
    Ok(args)
}

/// One workload in this process: the mode the driver uses.
fn run_one(contract: &Contract, workload: &str, opts: &Opts) -> ExitCode {
    let (_, f) =
        WORKLOADS.iter().find(|(name, _)| *name == workload).expect("checked by parse_args");
    let t0 = Instant::now();
    let run = f(opts);

    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    let specs = if opts.traced { &contract.per_layer } else { &contract.end_to_end };
    for (name, value) in &run.values {
        if let Some(spec) = specs.iter().find(|s| s.name == *name) {
            println!("  {name:<36} {value:>16.6} {}", spec.unit);
        }
    }
    for (key, value) in &run.notes {
        println!("  {key}: {value}");
    }
    for (key, value) in trace::provenance() {
        println!("  provenance.{key}: {value}");
    }
    println!("  wall_s: {:.3}", t0.elapsed().as_secs_f64());
    for e in &run.errors {
        println!("  CHECK FAILED: {e}");
    }
    match run.result_line(contract, opts.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in a child process and parse its result line.
fn child(workload: &str, opts: &Opts, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}:\n{stdout}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e:?}"))?;
    if result["correct"].as_bool() != Some(true) {
        return Err(format!(
            "{workload} seed {seed} trace {}: not correct:\n{stdout}",
            u8::from(traced)
        ));
    }
    Ok(result)
}

/// `--repeat K` and `--smoke`: whole sets, one child process per run.
fn run_sets(contract: &Contract, args: &Args) -> Result<bool, String> {
    let k = args.repeat.unwrap_or(1);
    let mut within_bounds = true;
    for (workload, _) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let mut sets = Vec::with_capacity(k);
        for i in 0..k {
            sets.push(child(workload, &args.opts, args.opts.seed + i as u64, false)?);
        }
        let traced = child(workload, &args.opts, args.opts.seed, true)?;
        println!(
            "{workload}: {k} untraced run(s), seeds {}..{}",
            args.opts.seed,
            args.opts.seed + k as u64 - 1
        );
        for spec in &contract.end_to_end {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|r| r["metrics"][spec.name.as_str()]["value"].as_f64())
                .collect();
            if values.len() != k {
                return Err(format!("{workload}: a run did not report {}", spec.name));
            }
            let bound = spec.bound.expect("end-to-end metrics have bounds");
            if k < 2 {
                println!("  {:<14} {:>14.6} {}", spec.name, values[0], spec.unit);
                continue;
            }
            let [q1, q2, q3] = quartiles(&values);
            let spread = (q3 - q1) / q2;
            // The driver exempts the spread of set-up time.
            let ok = spread <= bound || spec.name == "setup_s";
            within_bounds &= ok;
            println!(
                "  {:<14} median {q2:>14.6} {:<5} q1 {q1:>14.6} q3 {q3:>14.6} spread {:>6.2}% of bound {:>4.1}%{}",
                spec.name,
                spec.unit,
                100.0 * spread,
                100.0 * bound,
                if ok { "" } else { "  EXCEEDED" },
            );
            let raw: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            println!("  {:<14} runs   {}", "", raw.join(" "));
        }
        println!("  traced run, seed {}:", args.opts.seed);
        for spec in &contract.per_layer {
            let value = traced["metrics"][spec.name.as_str()]["value"].as_f64().unwrap_or(f64::NAN);
            if value != 0.0 {
                println!("    {:<36} {value:>16.6} {}", spec.name, spec.unit);
            }
        }
    }
    Ok(within_bounds)
}

fn main() -> ExitCode {
    let contract = Contract::load();
    let args = match parse_args(&contract) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!("usage: ledger --workload NAME --seed N --seconds S --trace 0|1");
            eprintln!(
                "       ledger [--workload NAME] [--seed N] [--seconds S] (--repeat K | --smoke)"
            );
            return ExitCode::from(2);
        }
    };
    if args.repeat.is_none() && !(args.opts.smoke && args.workload.is_none()) {
        let Some(workload) = &args.workload else {
            eprintln!("ledger: name a workload, or use --repeat K or --smoke for whole sets");
            return ExitCode::from(2);
        };
        return run_one(&contract, workload, &args.opts);
    }
    match run_sets(&contract, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: a spread between sets exceeds its bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
