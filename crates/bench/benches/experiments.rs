//! Runs the paper's tables and figures at the axes given on the
//! command line; see the `mars_bench` crate doc.
//!
//! `cargo bench -p mars-bench --bench experiments -- all --budget 8 --seeds 1`
//! runs every table at a smoke budget.

use mars_bench::{report, Cells, Invocation, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let inv = Invocation::parse(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let cfg = &inv.cfg;
    if let Some(path) = &inv.telemetry {
        mars_telemetry::install_file(path)
            .map_err(|e| format!("cannot open telemetry sink '{path}': {e}"))?;
    }
    let dir = report::experiments_dir();
    let cells_file = "target/experiments/cells.jsonl";
    for exp in &inv.experiments {
        println!(
            "{} — profile {}, budget {}, seed {}, {} seeds",
            exp.name,
            cfg.profile.name(),
            cfg.budget,
            cfg.seed,
            cfg.seeds
        );
        let mut cells =
            Cells::open(&dir, cfg).map_err(|e| format!("cannot open {cells_file}: {e}"))?;
        let tables = (exp.run)(cfg, &mut cells)
            .map_err(|e| format!("cannot append to {cells_file}: {e}"))?;
        report::write(exp.name, cfg, &tables)
            .map_err(|e| format!("cannot write target/experiments/{}.json: {e}", exp.name))?;
        let (ran, reused) = cells.counts();
        eprintln!("{}: ran {ran} cells, reused {reused}", exp.name);
    }
    if mars_telemetry::uninstall() {
        println!("(telemetry written to {})", inv.telemetry.unwrap_or_default());
    }
    Ok(())
}
