//! CLI entry point for the repo-invariant static analyzer.
//!
//! Usage:
//!
//! ```text
//! resilient-analysis [--root <dir>]     # analyze the whole tree (default: cwd)
//! resilient-analysis <file.rs>...       # analyze specific files, judged against the cwd tree
//! resilient-analysis --list-rules       # print the rule catalogue
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use resilient_analysis::{all_rules, analyze_files, analyze_tree};

fn usage() -> &'static str {
    "usage: resilient-analysis [--list-rules] [--root <dir>] [<file.rs>...]\n\
     \n\
     With no arguments, analyzes every .rs file under the current directory\n\
     (skipping target/, vendor/ and the self-test fixtures). With files, reports\n\
     only those, judging orphan-pub against the tree under the current\n\
     directory. Exit code 0 on a clean tree, 1 on findings, 2 on usage or I/O\n\
     errors."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list-rules" => {
                for r in all_rules() {
                    println!("{:<22} {}", r.name(), r.summary());
                    println!("{:<22}   scope: {}", "", r.scope());
                }
                println!(
                    "\nwaive a single finding with a comment on (or directly above) its line:\n  \
                     // lint:allow(<rule>): <why this site is a sanctioned exception>"
                );
                return ExitCode::SUCCESS;
            }
            "--root" => match it.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--root needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            _ if a.starts_with('-') => {
                eprintln!("unknown flag `{a}`\n{}", usage());
                return ExitCode::from(2);
            }
            _ => files.push(a),
        }
    }
    if !files.is_empty() && root.is_some() {
        eprintln!(
            "--root and explicit files are mutually exclusive\n{}",
            usage()
        );
        return ExitCode::from(2);
    }
    let analysis = if files.is_empty() {
        let dir = root.unwrap_or_else(|| PathBuf::from("."));
        if !dir.is_dir() {
            eprintln!("not a directory: {}", dir.display());
            return ExitCode::from(2);
        }
        analyze_tree(&dir)
    } else {
        match analyze_files(Path::new("."), &files) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    };
    print!("{}", analysis.report());
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
