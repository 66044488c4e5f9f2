//! `bright-serve` — operator CLI for the durable scenario service.
//!
//! The service state is a plain directory (`--store`): a write-ahead
//! journal plus checksummed spec/report/checkpoint files. Every
//! invocation opens the store through [`ScenarioService::open`], which
//! replays the journal — so pointing any command at a store that a
//! previous run left mid-crash recovers it as a side effect.
//!
//! ```text
//! bright-serve validate <spec.json>
//! bright-serve submit   --store <dir> <spec.json>
//! bright-serve run      --store <dir> [--drain]
//! bright-serve status   --store <dir> [<job-id>]
//! bright-serve report   --store <dir> <job-id>
//! ```
//!
//! `run` serves whatever is ready and exits; `run --drain` keeps going
//! until every job is terminal, waiting out retry backoffs. `status`
//! on a mid-flight transient job includes its streaming partial report
//! (segments integrated, peak so far) derived from the persisted
//! checkpoint. Its engine counters come from the store's `status.json`,
//! the snapshot the last `submit` or `run` wrote: the `status` process
//! itself has served nothing. Spec files are JSON (see
//! `docs/SERVICE.md` for the schema); sub-second validation never
//! touches the store.

#![forbid(unsafe_code)]

use bright_core::service::{JobId, JobSpec, JobStatus, ScenarioService};
use bright_core::{ServiceClock, ServiceConfig};
use bright_jsonio::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "bright-serve — durable scenario service operator CLI

USAGE:
    bright-serve validate <spec.json>
    bright-serve submit   --store <dir> <spec.json>
    bright-serve run      --store <dir> [--drain]
    bright-serve status   --store <dir> [<job-id>]
    bright-serve report   --store <dir> <job-id>

OPTIONS:
    --store <dir>            service store directory (created on first use)
    --queue-capacity <n>     admission bound (default 64)
    --cache-capacity <n>     engine worker-cache bound, 0 = unbounded (default 0)
    --drain                  (run) serve until every job is terminal
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum CliError {
    /// Bad invocation: print usage, exit 2.
    Usage(String),
    /// The command itself failed: exit 1.
    Failed(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn failed(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

/// Options shared by the store-touching commands.
struct Options {
    store: Option<PathBuf>,
    config: ServiceConfig,
    drain: bool,
    /// Positional operands after flag extraction.
    operands: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, CliError> {
    let mut out = Options {
        store: None,
        config: ServiceConfig::default(),
        drain: false,
        operands: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => {
                let dir = it.next().ok_or_else(|| usage("--store needs a directory"))?;
                out.store = Some(PathBuf::from(dir));
            }
            "--queue-capacity" => {
                out.config.queue_capacity = parse_count(it.next(), "--queue-capacity")?;
            }
            "--cache-capacity" => {
                out.config.cache_capacity = parse_count(it.next(), "--cache-capacity")?;
            }
            "--drain" => out.drain = true,
            other if other.starts_with("--") => {
                return Err(usage(format!("unknown option '{other}'")));
            }
            operand => out.operands.push(operand.to_owned()),
        }
    }
    Ok(out)
}

fn parse_count(value: Option<&String>, flag: &str) -> Result<usize, CliError> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| usage(format!("{flag} needs a non-negative integer")))
}

fn store(opts: &Options) -> Result<&Path, CliError> {
    opts.store
        .as_deref()
        .ok_or_else(|| usage("this command needs --store <dir>"))
}

fn open(opts: &Options) -> Result<ScenarioService, CliError> {
    ScenarioService::open(store(opts)?, opts.config.clone(), ServiceClock::System).map_err(failed)
}

fn read_spec(path: &str) -> Result<JobSpec, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
    JobSpec::from_json_str(&text).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

fn parse_id(text: &str) -> Result<JobId, CliError> {
    JobId::decode(text).ok_or_else(|| CliError::Failed(format!("'{text}' is not a job id")))
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage("no command given"));
    };
    let opts = parse(rest)?;
    match command.as_str() {
        "validate" => {
            let [path] = &opts.operands[..] else {
                return Err(usage("validate takes exactly one spec file"));
            };
            let spec = read_spec(path)?;
            spec.validate().map_err(failed)?;
            println!("ok: {} job on preset {}", spec.kind.tag(), spec.preset);
            Ok(())
        }
        "submit" => {
            let [path] = &opts.operands[..] else {
                return Err(usage("submit takes exactly one spec file"));
            };
            let spec = read_spec(path)?;
            let mut service = open(&opts)?;
            let id = service.submit(spec).map_err(failed)?;
            service.write_status().map_err(failed)?;
            println!("{id}");
            Ok(())
        }
        "run" => {
            if !opts.operands.is_empty() {
                return Err(usage("run takes no positional arguments"));
            }
            let mut service = open(&opts)?;
            if opts.drain {
                let summary = service.drain().map_err(failed)?;
                println!(
                    "drained: {} dispatched, {} done, {} failed, {} cancelled",
                    summary.dispatched, summary.completed, summary.failed, summary.cancelled
                );
            } else {
                let mut served = 0u64;
                while service.run_next().map_err(failed)?.is_some() {
                    served += 1;
                }
                service.write_status().map_err(failed)?;
                println!("served {served} ready jobs (use --drain to wait out backoffs)");
            }
            Ok(())
        }
        "status" => {
            let service = open(&opts)?;
            match &opts.operands[..] {
                [] => {
                    for (id, status) in service.statuses() {
                        println!("{id}  {}", describe(&service, id, &status));
                    }
                    let s = service.stats();
                    println!(
                        "service: {} submitted, {} done, {} failed, {} cancelled, {} retries, \
                         {} shed, {} resumed segments, {} cold re-runs",
                        s.submitted,
                        s.completed,
                        s.failed,
                        s.cancelled,
                        s.retries,
                        s.rejected_overloaded + s.rejected_deadline,
                        s.resumed_segments,
                        s.cold_reruns
                    );
                    println!("{}", engine_line(store(&opts)?));
                    Ok(())
                }
                [id] => {
                    let id = parse_id(id)?;
                    let status = service.status(id).map_err(failed)?;
                    println!("{id}  {}", describe(&service, id, &status));
                    Ok(())
                }
                _ => Err(usage("status takes at most one job id")),
            }
        }
        "report" => {
            let [id] = &opts.operands[..] else {
                return Err(usage("report takes exactly one job id"));
            };
            let id = parse_id(id)?;
            let service = open(&opts)?;
            let payload = service.report(id).map_err(failed)?;
            // A closed pipe (`report ... | head`) is a normal way to
            // consume a large report, not an error.
            use std::io::Write;
            let _ = writeln!(
                std::io::stdout(),
                "{}",
                payload.to_json().to_json_string_pretty()
            );
            Ok(())
        }
        other => Err(usage(format!("unknown command '{other}'"))),
    }
}

/// The `engine` line of `status`, read from the store's `status.json`:
/// the counters of the last process that served or submitted (a drain
/// keeps its cached workers there), not of this one, which has served
/// nothing.
fn engine_line(store: &Path) -> String {
    let path = store.join("status.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return "engine: no status.json snapshot in the store yet".to_owned();
        }
        Err(e) => return format!("engine: cannot read {}: {e}", path.display()),
    };
    let Some(engine) = Value::parse(&text).ok().and_then(|v| v.get("engine").cloned()) else {
        return format!("engine: {} holds no engine block", path.display());
    };
    let count = |key: &str| {
        engine
            .get(key)
            .and_then(Value::as_usize)
            .map_or_else(|| "?".to_owned(), |n| n.to_string())
    };
    let capacity = match count("cache_capacity").as_str() {
        "0" => "unbounded".to_owned(),
        other => other.to_owned(),
    };
    format!(
        "engine (from status.json): {} cached workers (capacity {capacity}), {} evicted, \
         {} recovered solves",
        count("cache_residents"),
        count("evicted_workers"),
        count("recovered_solves")
    )
}

/// One human line per job; queued transient jobs with resume state get
/// their streaming partial figures inline.
fn describe(service: &ScenarioService, id: JobId, status: &JobStatus) -> String {
    match status {
        JobStatus::Queued { not_before_ms } => match service.partial_report(id) {
            Some(p) => format!(
                "queued (resumable: {}/{} segments, peak {:.2} K, {} steps)",
                p.segments_done,
                p.segments_total,
                p.trace_peak.value(),
                p.steps
            ),
            None if *not_before_ms > 0 => format!("queued (backed off until {not_before_ms} ms)"),
            None => "queued".to_owned(),
        },
        JobStatus::Done => "done".to_owned(),
        JobStatus::Failed { error } => format!("failed: {error}"),
        JobStatus::Cancelled => "cancelled".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn options_parse_flags_and_operands() {
        let opts = parse(&strings(&[
            "--store",
            "/tmp/s",
            "--queue-capacity",
            "8",
            "--cache-capacity",
            "3",
            "--drain",
            "job.json",
        ]))
        .ok()
        .expect("parses");
        assert_eq!(opts.store.as_deref(), Some(std::path::Path::new("/tmp/s")));
        assert_eq!(opts.config.queue_capacity, 8);
        assert_eq!(opts.config.cache_capacity, 3);
        assert!(opts.drain);
        assert_eq!(opts.operands, vec!["job.json".to_owned()]);
    }

    #[test]
    fn bad_invocations_are_usage_errors() {
        assert!(matches!(parse(&strings(&["--store"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&strings(&["--queue-capacity", "lots"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&strings(&["--bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&strings(&["conquer"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&strings(&["status"])),
            Err(CliError::Usage(_))
        ));
    }
}
