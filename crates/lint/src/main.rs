//! CLI for the workspace lint. Usage:
//!
//! ```text
//! egeria-lint --workspace [--root DIR]     # lint the whole tree + manifest
//! egeria-lint [--root DIR] FILE...         # lint specific files
//! ```
//!
//! Exits 0 when there are no findings, 1 when there is any, 2 on
//! usage/config errors. The config is read from `<root>/lint.toml`;
//! `--root` defaults to the current directory (ci.sh runs from the repo
//! root).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut workspace = false;
    let mut root = PathBuf::from(".");
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root requires a directory"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag `{other}`"));
            }
            file => files.push(file.to_string()),
        }
    }
    if !workspace && files.is_empty() {
        return usage("pass --workspace or at least one file");
    }

    let cfg = match egeria_lint::load_config(&root) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("egeria-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let (findings, scanned) = if workspace {
        match egeria_lint::lint_tree(&root, &cfg) {
            Ok(report) => (report.findings, report.files_scanned),
            Err(e) => {
                eprintln!("egeria-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut findings = Vec::new();
        let mut scanned = 0usize;
        for file in &files {
            let src = match std::fs::read_to_string(root.join(file)) {
                Ok(src) => src,
                Err(e) => {
                    eprintln!("egeria-lint: cannot read {file}: {e}");
                    return ExitCode::from(2);
                }
            };
            findings.extend(egeria_lint::lint_source(file, &src, &cfg));
            scanned += 1;
        }
        (findings, scanned)
    };

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("egeria-lint: clean ({scanned} files scanned)");
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "egeria-lint: {} finding(s) in {scanned} scanned file(s)",
        findings.len()
    );
    ExitCode::FAILURE
}

const USAGE: &str = "usage: egeria-lint --workspace [--root DIR] | egeria-lint [--root DIR] FILE...";

fn usage(msg: &str) -> ExitCode {
    eprintln!("egeria-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
