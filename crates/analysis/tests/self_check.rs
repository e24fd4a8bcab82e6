//! Self-tests for the analyzer: every fixture fires exactly its rule, the
//! waiver machinery behaves, the compiled binary's exit codes match the CI
//! contract, and — the point of the whole crate — the live tree is clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use resilient_analysis::{analyze_files, analyze_source, analyze_tree, Analysis};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// Analyze a throwaway tree of `(repo-relative path, source)` files.
fn analyze_mini_tree(name: &str, files: &[(&str, &str)]) -> Analysis {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    for (path, src) in files {
        let p = root.join(path);
        std::fs::create_dir_all(p.parent().expect("file has a directory")).expect("mkdir");
        std::fs::write(p, src).expect("write");
    }
    let analysis = analyze_tree(&root);
    let _ = std::fs::remove_dir_all(&root);
    analysis
}

/// `(path, line)` of every `orphan-pub` finding.
fn orphans(analysis: &Analysis) -> Vec<(&str, u32)> {
    analysis
        .findings
        .iter()
        .filter(|d| d.rule == "orphan-pub")
        .map(|d| (d.path.as_str(), d.line))
        .collect()
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
        ("bad_orphan_pub.rs", "orphan-pub", 4),
    ];
    for (file, rule, expected) in cases {
        let analysis = analyze_files(&repo_root(), &[fixture(file)]).expect("fixture readable");
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
        "orphan-pub",
    ] {
        assert!(stdout.contains(rule), "--list-rules missing {rule}");
    }

    for file in [
        "bad_collective_symmetry.rs",
        "bad_safety_contract.rs",
        "bad_virtual_time.rs",
        "bad_charged_arithmetic.rs",
        "bad_hot_loop_alloc.rs",
        "bad_orphan_pub.rs",
    ] {
        let out = Command::new(bin).arg(fixture(file)).output().expect("run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{file}: stdout:\n{stdout}");
        // The CI step's contract: the fixture fires its own rule, named
        // after the file.
        let rule = file[4..file.len() - 3].replace('_', "-");
        assert!(stdout.contains(&format!("[{rule}]")), "{file}:\n{stdout}");
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

const HELPER: &str = "pub fn helper() -> u32 {\n    1\n}\n";

#[test]
fn orphan_pub_used_only_by_its_own_unit_test_fires() {
    let own_test = format!(
        "{HELPER}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        \
         assert_eq!(super::helper(), 1);\n    }}\n}}\n"
    );
    let a = analyze_mini_tree("orphan_own_test", &[("crates/linalg/src/a.rs", &own_test)]);
    assert_eq!(
        orphans(&a),
        [("crates/linalg/src/a.rs", 1)],
        "{}",
        a.report()
    );
}

/// Listing a file keeps its own-test-only item an orphan (the tree's copy of
/// the file is not read a second time) while a caller elsewhere in the tree
/// still counts.
#[test]
fn orphan_pub_in_a_listed_file_is_judged_against_the_rest_of_the_tree() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("orphan_listed");
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/linalg/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    let own_test = format!(
        "{HELPER}pub fn shared() {{}}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    \
         fn t() {{\n        assert_eq!(super::helper(), 1);\n    }}\n}}\n"
    );
    std::fs::write(src.join("a.rs"), own_test).expect("write");
    std::fs::write(src.join("b.rs"), "fn f() {\n    super::a::shared();\n}\n").expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_resilient-analysis"))
        .current_dir(&root)
        .arg("crates/linalg/src/a.rs")
        .output()
        .expect("run");
    let _ = std::fs::remove_dir_all(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("crates/linalg/src/a.rs:1: [orphan-pub] `pub fn helper`"),
        "{stdout}"
    );
    assert!(
        stdout.contains("1 finding (0 waived) across 1 file"),
        "{stdout}"
    );
}

#[test]
fn orphan_pub_used_only_by_another_files_tests_does_not_fire() {
    let other = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                 assert_eq!(crate::a::helper(), 1);\n    }\n}\n";
    let a = analyze_mini_tree(
        "orphan_other_test",
        &[
            ("crates/linalg/src/a.rs", HELPER),
            ("crates/linalg/src/b.rs", other),
        ],
    );
    assert!(a.findings.is_empty(), "{}", a.report());
}

#[test]
fn orphan_pub_re_export_is_not_a_use() {
    let a = analyze_mini_tree(
        "orphan_re_export",
        &[
            ("crates/core/src/a.rs", HELPER),
            (
                "crates/core/src/lib.rs",
                "pub mod a;\npub use a::{helper};\n",
            ),
        ],
    );
    assert_eq!(orphans(&a), [("crates/core/src/a.rs", 1)], "{}", a.report());
}

#[test]
fn orphan_pub_same_named_definitions_do_not_hide_each_other() {
    let a = analyze_mini_tree(
        "orphan_same_name",
        &[
            ("crates/core/src/a.rs", HELPER),
            ("crates/faults/src/b.rs", HELPER),
        ],
    );
    assert_eq!(
        orphans(&a),
        [("crates/core/src/a.rs", 1), ("crates/faults/src/b.rs", 1)],
        "{}",
        a.report()
    );
}

#[test]
fn orphan_pub_mentioned_in_a_comment_or_string_fires() {
    let mention = "// helper() is documented here.\nfn f() -> &'static str {\n    \"helper\"\n}\n";
    let a = analyze_mini_tree(
        "orphan_mention",
        &[("crates/pde/src/a.rs", HELPER), ("examples/b.rs", mention)],
    );
    assert_eq!(orphans(&a), [("crates/pde/src/a.rs", 1)], "{}", a.report());
}

#[test]
fn orphan_pub_never_fires_on_types_or_outside_the_library_crates() {
    let types =
        "pub struct Lonely;\npub enum Kind {\n    A,\n}\npub trait Shape {}\npub type Id = u8;\n";
    let a = analyze_mini_tree(
        "orphan_types",
        &[
            ("crates/runtime/src/a.rs", types),
            ("crates/bench/src/bin/tool.rs", HELPER),
            ("crates/analysis/src/lib.rs", HELPER),
        ],
    );
    assert!(a.findings.is_empty(), "{}", a.report());
}

#[test]
fn orphan_pub_waiver_that_names_the_caller_silences() {
    let waived = format!("// lint:allow(orphan-pub): called by an out-of-tree tool\n{HELPER}");
    let a = analyze_mini_tree("orphan_waiver", &[("crates/bench/src/lib.rs", &waived)]);
    assert!(a.findings.is_empty(), "{}", a.report());
    assert_eq!(a.waived, 1);
}

/// Listing one library file reports only that file, but judges it against
/// the whole tree: `vector.rs`'s public kernels are called from other
/// crates, so they are not orphans.
#[test]
fn explicit_library_file_is_judged_against_the_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_resilient-analysis"))
        .current_dir(repo_root())
        .arg("crates/linalg/src/vector.rs")
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("across 1 file"), "{stdout}");
}
