//! One workload of the train/serve benchmark, in this process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Workloads: `train_nscaching`, `serve_hot`, `serve_churn`. The last line of standard output is the result as one JSON
//! object; the exit code is 1 when an output check failed. With `--trace 1`
//! the run records spans around the public calls it makes, derives the
//! per-layer metrics from them and writes the spans to
//! `<work-dir>/<workload>-<seed>.spans.tsv`. `perfbench/run.py` builds this
//! binary and is the benchmark's entry point.

mod cpu;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::{layer_times, spans_tsv, Tracer};

/// Command-line arguments of one run.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Requested measuring time; sizes the fixed work of the run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where generated inputs and the span dump are written.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "train_nscaching" => train::nscaching().run(&args, &mut tracer),
        // Serving runs whole on one CPU: on both vCPUs, whenever the shared
        // host was loaded, whole runs took 1.3 to 2.3 times as long; on one
        // CPU they held steady (see `cpu`).
        "serve_hot" => cpu::on_one_cpu(|| serve::hot().run(&args, &mut tracer)),
        "serve_churn" => cpu::on_one_cpu(|| serve::churn().run(&args, &mut tracer)),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        outcome.metric("trace.spans", tracer.spans().len() as f64);
        let unreached = outcome.fill_unreached_layers();
        println!(
            "not exercised by {} (reported as 0): {}",
            args.workload,
            unreached.join(" ")
        );
        for (name, layer) in layer_times(tracer.spans()) {
            println!(
                "span {name}: {} calls, total {:.6} s, self {:.6} s",
                layer.count,
                layer.total_ns as f64 * 1e-9,
                layer.self_ns as f64 * 1e-9
            );
        }
        let path = args
            .work_dir
            .join(format!("{}-{}.spans.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&args.work_dir)
            .and_then(|()| std::fs::write(&path, spans_tsv(tracer.spans())))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let json = outcome.to_json();
    println!("{json}");
    if json.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
