//! The `bright-serve` binary end to end, on a store in the system temp
//! directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bright_serve_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs the CLI and returns its stdout, failing on a non-zero exit.
fn serve(args: &[&str], store: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bright-serve"))
        .args(args)
        .arg("--store")
        .arg(store)
        .output()
        .expect("bright-serve runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "bright-serve {args:?} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn engine_line(status: &str) -> &str {
    status
        .lines()
        .find(|l| l.starts_with("engine"))
        .expect("status prints an engine line")
}

#[test]
fn status_reports_the_drained_processs_cached_worker() {
    let dir = scratch("drained");
    let store = dir.join("store");
    let spec = dir.join("steady.json");
    std::fs::write(
        &spec,
        r#"{"preset":"power7_reduced","overrides":{},"job":{"kind":"steady"},"priority":"normal","max_retries":0}"#,
    )
    .expect("spec file");

    // A fresh store has no snapshot, and says so.
    assert_eq!(
        engine_line(&serve(&["status"], &store)),
        "engine: no status.json snapshot in the store yet"
    );
    serve(&["submit", spec.to_str().expect("utf-8 path")], &store);
    let drained = serve(&["run", "--drain"], &store);
    assert!(drained.contains("1 done"), "{drained}");
    // The draining process kept one steady worker; the `status`
    // process, which served nothing, reports that one.
    let status = serve(&["status"], &store);
    assert!(status.contains("  done"), "{status}");
    assert_eq!(
        engine_line(&status),
        "engine (from status.json): 1 cached workers (capacity unbounded), 0 evicted, \
         0 recovered solves"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
