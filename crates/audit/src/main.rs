//! CLI for the workspace invariant auditor.
//!
//! ```text
//! cargo run -p merlin-audit                       # audit the workspace
//! cargo run -p merlin-audit -- --root /path/to/workspace
//! cargo run -p merlin-audit -- --max-runtime-ms 10000
//! ```
//!
//! Findings go to stderr, the summary to stdout. Exit codes: `0` clean,
//! `1` any finding or the runtime guard exceeded, `2` usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use merlin_audit::audit_files;

/// Directories never scanned: build output, vendored shims, VCS metadata,
/// and the auditor's own seeded-violation corpus (its fixtures exist to
/// trip rules and must not reach the workspace audit).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".claude", "corpus"];

/// Workspace-relative path of the trace-name registry document.
const REGISTRY_DOC: &str = "docs/OBSERVABILITY.md";

fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    // Under `cargo run` the manifest dir is crates/audit; the workspace
    // root is two levels up. Fall back to the current directory.
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        if let Some(root) = Path::new(&manifest).parent().and_then(Path::parent) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

struct Options {
    root: Option<PathBuf>,
    max_runtime_ms: Option<u64>,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: None,
        max_runtime_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => opts.root = Some(PathBuf::from(p)),
                None => return Err("--root needs a path".to_owned()),
            },
            "--max-runtime-ms" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => opts.max_runtime_ms = Some(ms),
                Some(Err(_)) => return Err("--max-runtime-ms needs an integer".to_owned()),
                None => return Err("--max-runtime-ms needs a value".to_owned()),
            },
            "--help" | "-h" => {
                println!("usage: merlin-audit [--root <workspace>] [--max-runtime-ms <n>]");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let root = workspace_root(opts.root);
    let mut paths = Vec::new();
    if let Err(e) = collect_rs_files(&root, &mut paths) {
        eprintln!("error: walking {}: {e}", root.display());
        return ExitCode::from(2);
    }
    paths.sort();

    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for file in &paths {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(file) {
            Ok(source) => files.push((rel, source)),
            Err(e) => {
                eprintln!("error: reading {rel}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let scanned = files.len();

    let registry_text = std::fs::read_to_string(root.join(REGISTRY_DOC)).ok();
    if registry_text.is_none() {
        eprintln!("audit: note: {REGISTRY_DOC} not found; trace-name-registry rule skipped");
    }
    let registry_doc = registry_text.as_deref().map(|t| (REGISTRY_DOC, t));

    let violations = audit_files(&files, registry_doc);
    let elapsed_ms = started.elapsed().as_millis();

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!(
            "audit: {} finding(s); fix them or add `// audit:allow(<rule>)` with a reason",
            violations.len()
        );
        return ExitCode::FAILURE;
    }
    println!("audit: clean ({scanned} file(s) scanned, {elapsed_ms} ms)");
    if let Some(max) = opts.max_runtime_ms {
        if elapsed_ms > u128::from(max) {
            eprintln!("audit: runtime guard exceeded: {elapsed_ms} ms > {max} ms budget");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
