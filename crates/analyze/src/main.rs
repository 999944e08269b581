//! `califorms-analyze` — CI entry point for the workspace determinism
//! linter.
//!
//! ```text
//! califorms-analyze --check [--root DIR] [--json PATH]   # lint pass
//! califorms-analyze --fix [--root DIR]                   # auto-fixes
//! ```
//!
//! `--check` exits non-zero iff any lint finding survives suppression;
//! `--json` additionally writes the machine-readable report for the CI
//! artifact. `--fix` applies the mechanical fixes (currently: inserting
//! `#![forbid(unsafe_code)]` where `missing-forbid-unsafe` fires) and
//! reports the rewritten files.

#![forbid(unsafe_code)]

use califorms_analyze::config::LintConfig;
use califorms_analyze::fix::apply_fixes;
use califorms_analyze::workspace::scan_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    check: bool,
    fix: bool,
    root: PathBuf,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        fix: false,
        root: PathBuf::from("."),
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--check" => args.check = true,
            "--fix" => args.fix = true,
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.check && !args.fix {
        return Err("pass --check and/or --fix".to_string());
    }
    Ok(args)
}

fn run_fix(args: &Args) -> Result<(), String> {
    let report = scan_workspace(&args.root, &LintConfig::default())
        .map_err(|e| format!("scan failed under {}: {e}", args.root.display()))?;
    let fixed = apply_fixes(&args.root, &report).map_err(|e| format!("applying fixes: {e}"))?;
    if fixed.is_empty() {
        println!("fix: nothing to do");
    } else {
        for path in &fixed {
            println!("fixed {path}");
        }
    }
    Ok(())
}

fn run_check(args: &Args) -> Result<bool, String> {
    let report = scan_workspace(&args.root, &LintConfig::default())
        .map_err(|e| format!("scan failed under {}: {e}", args.root.display()))?;
    print!("{}", report.render_human());
    if let Some(path) = &args.json {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("json report: {}", path.display());
    }
    Ok(report.clean)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("califorms-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    if args.fix {
        if let Err(e) = run_fix(&args) {
            eprintln!("califorms-analyze: {e}");
            return ExitCode::from(2);
        }
    }
    if args.check {
        match run_check(&args) {
            Ok(clean) => ok &= clean,
            Err(e) => {
                eprintln!("califorms-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
