//! Self-tests for the analyzer: every fixture fires exactly its rule, the
//! waiver machinery behaves, the compiled binary's exit codes match the CI
//! contract, and — the point of the whole crate — the live tree is clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use resilient_analysis::{analyze_files, analyze_source, analyze_tree};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// The analyzer's reason to exist: the repository's own source obeys every
/// contract (modulo the documented, per-site-waived exceptions).
#[test]
fn live_tree_is_clean() {
    let analysis = analyze_tree(&repo_root());
    assert!(analysis.files > 50, "walked only {} files", analysis.files);
    assert!(
        analysis.findings.is_empty(),
        "live tree has findings:\n{}",
        analysis.report()
    );
}

#[test]
fn every_fixture_fires_exactly_its_rule() {
    let cases = [
        ("bad_collective_symmetry.rs", "collective-symmetry", 4),
        ("bad_safety_contract.rs", "safety-contract", 3),
        ("bad_virtual_time.rs", "virtual-time", 4),
        ("bad_charged_arithmetic.rs", "charged-arithmetic", 5),
        ("bad_hot_loop_alloc.rs", "hot-loop-alloc", 4),
    ];
    for (file, rule, expected) in cases {
        let analysis = analyze_files(&[fixture(file)]).expect("fixture readable");
        assert!(
            !analysis.findings.is_empty(),
            "{file}: fixture did not fire"
        );
        for d in &analysis.findings {
            assert_eq!(d.rule, rule, "{file}: unexpected cross-rule finding {d}");
        }
        assert_eq!(
            analysis.findings.len(),
            expected,
            "{file}: expected {expected} findings, got:\n{}",
            analysis.report()
        );
    }
}

#[test]
fn waiver_on_preceding_line_is_honored() {
    let src = "fn f() -> u128 {\n    \
               // lint:allow(virtual-time): test snippet exercising the waiver path\n    \
               Instant::now().elapsed().as_nanos()\n}\n";
    let (findings, waived) = analyze_source("crates/core/src/x.rs", src);
    assert!(findings.is_empty(), "waiver ignored: {findings:?}");
    assert_eq!(waived, 1);
}

/// The block kernel is a hot-loop module whose setup paths are sanctioned
/// per file: the same allocation is fine in `build_state`, a finding in a
/// step function, and `build_state` is no magic name anywhere else.
#[test]
fn block_kernel_setup_paths_may_allocate_but_its_steps_may_not() {
    let src = "fn build_state() -> Vec<f64> {\n    vec![0.0; 8]\n}\n\
               fn step_pipelined() -> Vec<f64> {\n    vec![0.0; 8]\n}\n";
    let (findings, _) = analyze_source("crates/core/src/kernel/block.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!((findings[0].rule, findings[0].line), ("hot-loop-alloc", 5));
    let (elsewhere, _) = analyze_source("crates/core/src/kernel/space.rs", src);
    assert_eq!(elsewhere.len(), 2, "{elsewhere:?}");
    // The fused sweeps are device ops: only the charging boundary calls
    // them (the kernel goes through `DistSpace::pipelined_sweep_block`,
    // which charges).
    for (file, call) in [
        ("block.rs", "ops.pipelined_pcg_sweep(a, b, aw, mw, v)"),
        ("cg.rs", "ops.pipelined_cg_sweep(a, b, aw, v)"),
    ] {
        let raw = format!("fn f(ops: &dyn LocalOps) {{\n    {call};\n}}\n");
        let (findings, _) = analyze_source(&format!("crates/core/src/kernel/{file}"), &raw);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "charged-arithmetic");
    }
}

#[test]
fn waiver_without_reason_does_not_silence() {
    let src = "fn f() -> u128 {\n    \
               // lint:allow(virtual-time)\n    \
               Instant::now().elapsed().as_nanos()\n}\n";
    let (findings, _) = analyze_source("crates/core/src/x.rs", src);
    let rules: Vec<&str> = findings.iter().map(|d| d.rule).collect();
    assert!(
        rules.contains(&"waiver-syntax") && rules.contains(&"virtual-time"),
        "expected both the malformed-waiver diagnostic and the original \
         finding, got {rules:?}"
    );
}

#[test]
fn waiver_for_a_different_rule_does_not_silence() {
    let src = "fn f() -> u128 {\n    \
               // lint:allow(hot-loop-alloc): wrong rule on purpose\n    \
               Instant::now().elapsed().as_nanos()\n}\n";
    let (findings, waived) = analyze_source("crates/core/src/x.rs", src);
    assert_eq!(waived, 0);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "virtual-time");
}

#[test]
fn binary_exit_codes_match_the_ci_contract() {
    let bin = env!("CARGO_BIN_EXE_resilient-analysis");

    let list = Command::new(bin).arg("--list-rules").output().expect("run");
    assert!(list.status.success());
    let stdout = String::from_utf8_lossy(&list.stdout);
    for rule in [
        "collective-symmetry",
        "safety-contract",
        "virtual-time",
        "charged-arithmetic",
        "hot-loop-alloc",
    ] {
        assert!(stdout.contains(rule), "--list-rules missing {rule}");
    }

    for file in [
        "bad_collective_symmetry.rs",
        "bad_safety_contract.rs",
        "bad_virtual_time.rs",
        "bad_charged_arithmetic.rs",
        "bad_hot_loop_alloc.rs",
    ] {
        let out = Command::new(bin).arg(fixture(file)).output().expect("run");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{file}: expected exit 1, stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    let clean = Command::new(bin)
        .arg("--root")
        .arg(repo_root())
        .output()
        .expect("run");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "clean-tree run failed, stdout:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );
}
