//! Outside-in benchmark of three user paths of the bright-silicon
//! reproduction: a paper co-simulation, a Monte Carlo yield study and
//! durable jobs through the scenario service. Every layer is timed from outside, around calls into the
//! public API of its crate; see `perfbench/README.md`.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records provenance and labels.

mod mc_yield;
mod measure;
mod paper_cosim;
mod serve_mixed;

use bright_jsonio::Value;
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics every workload reports (name, unit).
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("op_ms_p50", "ms"), ("work_per_s", "1/s")];

/// Per-layer metrics of the traced run (name, unit). Every workload
/// reports all of them; a layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("process.peak_rss_mb", "MB"),
    ("trace.coverage_pct", "%"),
    ("cosim.point_ms", "ms"),
    ("cosim.retarget_ms", "ms"),
    ("cosim.other_ms", "ms"),
    ("thermal.assemble_ms", "ms"),
    ("thermal.solve_ms", "ms"),
    ("flowcell.sweep_ms", "ms"),
    ("flowcell.point_ms", "ms"),
    ("flowcell.isothermal_ms", "ms"),
    ("pdn.assemble_ms", "ms"),
    ("pdn.solve_ms", "ms"),
    ("pdn.factor_ms", "ms"),
    ("pdn.direct_solve_ms", "ms"),
    ("flow.hydraulics_ms", "ms"),
    ("cosim.thermal_assemblies", "count"),
    ("cosim.cell_context_reuses", "count"),
    ("flowcell.context.op_builds", "count"),
    ("flowcell.context.coefficient_refreshes", "count"),
    ("thermal.session.solves", "count"),
    ("pdn.session.solves", "count"),
    ("montecarlo.sample_ms", "ms"),
    ("montecarlo.samples_per_s_2w", "1/s"),
    ("montecarlo.speedup_2w", "x"),
    ("montecarlo.cold_builds", "count"),
    ("montecarlo.retargets", "count"),
    ("montecarlo.geometry_cache_hits", "count"),
    ("montecarlo.geometry_cache_misses", "count"),
    ("montecarlo.geometry_cache_hit_ratio", "ratio"),
    ("service.submit_ms", "ms"),
    ("service.serve_ms.steady", "ms"),
    ("service.serve_ms.transient", "ms"),
    ("service.serve_ms.polarization", "ms"),
    ("service.job_ms_p90", "ms"),
    ("service.report_read_ms", "ms"),
    ("service.open_ms", "ms"),
    ("engine.serve_ms.steady", "ms"),
    ("engine.serve_ms.transient", "ms"),
    ("engine.serve_ms.polarization", "ms"),
    ("service.durability_ms", "ms"),
    ("service.journal_records", "count"),
    ("service.journal_bytes", "bytes"),
    ("service.store_bytes", "bytes"),
    ("engine.operators_built", "count"),
    ("engine.operator_reuses", "count"),
    ("engine.cell_contexts_built", "count"),
    ("engine.cell_context_reuses", "count"),
    ("service.dropped_records", "count"),
];

/// The environment knobs that switch library code paths: a result
/// measured under any of them is not a result of the default build.
const ENV_PREFIX: &str = "BRIGHT_";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The commit being measured: `git rev-parse HEAD` where the checkout
/// is a git repository, else `unknown`.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the library sources (`crates/**/*.rs` and every
/// `Cargo.toml`, in path order), which identifies the measured code
/// where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for path in &files {
        bytes.extend_from_slice(path.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x}", bright_jsonio::checksummed::fnv1a64(&bytes))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(ENV_PREFIX))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; these select non-default code paths",
            knobs.join(", ")
        );
        return ExitCode::from(3);
    }

    let run = match args.workload.as_str() {
        "paper_cosim" => paper_cosim::run,
        "mc_yield" => mc_yield::run,
        "serve_mixed" => serve_mixed::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(args.seed, args.seconds, args.trace);
    if args.trace {
        outcome.set("process.peak_rss_mb", measure::peak_rss_mb());
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: no operation completed in the measured window");
        return ExitCode::from(1);
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        // A per-layer metric a workload did not touch reads 0; an
        // end-to-end metric must always be measured.
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::from(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in outcome.metrics.keys() {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name),
            "metric {name} is missing from the metric tables"
        );
    }

    let provenance = Value::object([
        ("workload".into(), Value::String(args.workload.clone())),
        ("seed".into(), Value::String(args.seed.to_string())),
        ("seconds".into(), Value::Number(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "nproc".into(),
            Value::Number(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("git_revision".into(), Value::String(git_revision())),
        ("source_digest".into(), Value::String(source_digest())),
        (
            "build_profile".into(),
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ]);
    let labels = Value::object(
        outcome
            .labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), Value::String(v.clone()))),
    );
    println!(
        "{}",
        Value::object([("provenance".into(), provenance), ("labels".into(), labels),])
            .to_json_string()
    );
    let correct = outcome.failed == 0 && outcome.check_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
