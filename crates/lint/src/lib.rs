//! `fpk-lint`: the workspace contract lint (DESIGN §3h).
//!
//! The determinism contracts this repository depends on — pinned RNG
//! draw order, bit-identity across `FPK_THREADS`, no `dyn` and no
//! allocation on the packet path — lived only in prose and were
//! guarded after the fact by golden tests. This crate makes them
//! machine-checked at review time:
//!
//! * **Nondeterminism sources** (`Instant`/`SystemTime`, `HashMap`/
//!   `HashSet`, `thread_rng`, `env::var`) are forbidden in `fpk-sim`
//!   and `fpk-scenarios` library code and in the worker pool
//!   (`fpk_numerics::par`), escape-hatched only by an
//!   explicit `// lint: allow(<rule>) — <justification>`.
//! * **Hot-path regions** (`// lint: hot-path arena(…)` …
//!   `// lint: end`) forbid `dyn` and heap-allocating calls, with the
//!   named arena containers exempt from growth checks.
//! * **The RNG draw-order audit** requires every engine draw site in
//!   `network.rs`/`workload.rs` to carry a `// draw: <label>` and
//!   cross-checks the annotated sequence against DESIGN §3f's
//!   machine-readable table, so doc and code cannot drift apart.
//!
//! Run it as `cargo run -p fpk-lint` (add `-- --deny` to fail on
//! findings, as CI does); `tests/workspace_clean.rs` wraps the same
//! pass as a tier-1 test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod rules;
pub mod scanner;

use rules::{AllowRecord, FileClass, Violation};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one pass over the workspace found.
#[derive(Debug)]
pub struct LintReport {
    /// All findings, ordered by (file, line).
    pub violations: Vec<Violation>,
    /// Every `lint: allow` escape hatch in lib code (budgeted: the
    /// workspace test caps these at 10).
    pub allows: Vec<AllowRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Classify a workspace-relative, `/`-separated path into the rule
/// families that apply to it (DESIGN §3h).
#[must_use]
pub fn classify(rel: &str) -> FileClass {
    let nondet = rel.starts_with("crates/simulator/src/")
        || rel.starts_with("crates/scenarios/src/")
        || rel == "crates/numerics/src/par.rs";
    // The event loop (`network.rs`) and the components it dispatches
    // to (`hop.rs`, `traffic.rs`) are one engine: all three carry the
    // panic audit and the draw audit, as does the workload samplers'
    // file.
    let engine = matches!(
        rel,
        "crates/simulator/src/network.rs"
            | "crates/simulator/src/hop.rs"
            | "crates/simulator/src/traffic.rs"
    );
    FileClass {
        nondet,
        panics: engine,
        draws: engine || rel == "crates/simulator/src/workload.rs",
    }
}

/// Run the full lint over the workspace rooted at `root`: every
/// `crates/*/src/**/*.rs` file plus the DESIGN §3f draw-order audit.
/// Vendored deps (`vendor/`) are exempt by construction.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();

    let mut violations: Vec<Violation> = Vec::new();
    let mut allows: Vec<AllowRecord> = Vec::new();
    let mut annotated: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        let class = classify(&rel);
        let report = rules::check_file(&rel, &src, class);
        violations.extend(report.violations);
        allows.extend(report.allows);
        if class.draws {
            let name = Path::new(&rel)
                .file_name()
                .expect("source path has a file name")
                .to_string_lossy()
                .into_owned();
            annotated.insert(name, report.draws);
        }
    }
    let design = fs::read_to_string(root.join("DESIGN.md"))?;
    violations.extend(audit::audit_draw_order(&design, &annotated));
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintReport {
        violations,
        allows,
        files_scanned: files.len(),
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::classify;

    #[test]
    fn nondet_scope_covers_sim_scenarios_and_the_pool() {
        for rel in [
            "crates/simulator/src/network.rs",
            "crates/scenarios/src/exec.rs",
            "crates/numerics/src/par.rs",
        ] {
            assert!(classify(rel).nondet, "{rel} must be nondet-checked");
        }
        for rel in [
            "crates/numerics/src/stats.rs",
            "crates/core/src/montecarlo.rs",
        ] {
            assert!(!classify(rel).nondet, "{rel} is outside the nondet scope");
        }
    }

    #[test]
    fn engine_components_get_the_panic_and_draw_audits() {
        for rel in [
            "crates/simulator/src/network.rs",
            "crates/simulator/src/hop.rs",
            "crates/simulator/src/traffic.rs",
        ] {
            let class = classify(rel);
            assert!(class.panics && class.draws, "{rel} is engine code");
        }
        let class = classify("crates/simulator/src/workload.rs");
        assert!(class.draws && !class.panics);
        let class = classify("crates/simulator/src/qdisc.rs");
        assert!(!class.draws && !class.panics);
    }
}
