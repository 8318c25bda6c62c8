//! Convert `fig7_curves.json` (written by the `fig7_curves` bench) into
//! SVG figures matching the paper's Fig. 7 layout.
//!
//! ```text
//! cargo bench -p mars-bench --bench fig7_curves
//! cargo run --release --example plot_fig7
//! # → target/experiments/fig7a.svg, fig7b.svg
//! ```

use mars::plot::{render, ChartConfig, Series};
use std::path::PathBuf;

fn main() {
    let Ok(text) = std::fs::read_to_string("target/experiments/fig7_curves.json") else {
        eprintln!(
            "target/experiments/fig7_curves.json not found — run \
             `cargo bench -p mars-bench --bench fig7_curves` first"
        );
        std::process::exit(1);
    };
    let data = mars::json::Json::parse(&text).expect("parse json");

    let out_dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&out_dir).expect("mkdir");

    for (fi, figure) in data.as_array().expect("array of figures").iter().enumerate() {
        let workload = figure["workload"].as_str().unwrap_or("?");
        let mut series_out = Vec::new();
        for s in figure["series"].as_array().expect("series array") {
            let label = s["agent"].as_str().unwrap_or("?").to_string();
            let samples = s["samples"].as_array().expect("samples");
            let best = s["best_so_far_s"].as_array().expect("best");
            let points: Vec<(f64, f64)> = samples
                .iter()
                .zip(best)
                .filter_map(|(x, y)| Some((x.as_f64()?, y.as_f64()?)))
                .collect();
            if !points.is_empty() {
                series_out.push(Series { label, points });
            }
        }
        let cfg = ChartConfig {
            title: format!(
                "Fig. 7{} — {workload}: best per-step runtime",
                (b'a' + fi as u8) as char
            ),
            x_label: "placements sampled (training steps)".into(),
            y_label: "best per-step runtime (s)".into(),
            width: 720,
            height: 420,
            log_y: false,
        };
        let svg = render(&cfg, &series_out);
        let file = out_dir.join(format!("fig7{}.svg", (b'a' + fi as u8) as char));
        std::fs::write(&file, svg).expect("write svg");
        println!("wrote {}", file.display());
    }
}
