//! The rule engine: file model, waiver handling, tree walking and reports.
//!
//! A [`SourceFile`] wraps one file's token stream with the pre-computed
//! views every rule needs — code-token indices, per-line classes, the
//! `#[cfg(test)]` regions, waiver comments, and the fixture `analysis-as:`
//! directive. [`analyze_tree`] walks the repository (skipping `target/`,
//! `vendor/` and the analyzer's own `tests/fixtures/`), runs every rule
//! over every file and then the cross-file pass over all of them, and
//! strips findings covered by a well-formed waiver
//! comment — `lint:allow`, rule name in parentheses, mandatory reason — on
//! the finding line or on the comment/attribute run immediately above it.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::all_rules;

/// One finding (or engine-level problem such as a malformed waiver).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (kebab-case, as printed by `--list-rules`).
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Human explanation: what fired and which invariant it breaks.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed waiver comment: `lint:allow`, rule in parentheses, reason.
#[derive(Debug, Clone)]
struct Waiver {
    line: u32,
    rule: String,
    reason_ok: bool,
}

/// Per-line lexical class, used by the SAFETY-comment and waiver look-up
/// walks.
#[derive(Debug, Default, Clone, Copy)]
struct LineClass {
    has_code: bool,
    has_comment: bool,
    /// First token on the line is `#` — an attribute line.
    attr_start: bool,
}

/// One lexed source file plus the derived views the rules consume.
pub struct SourceFile {
    /// Effective repo-relative path (the `analysis-as:` directive of a
    /// fixture overrides the on-disk path for rule scoping).
    pub path: String,
    /// Full token stream, comments included.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of the non-comment tokens.
    pub code: Vec<usize>,
    lines: BTreeMap<u32, LineClass>,
    waivers: Vec<Waiver>,
    /// Token-index ranges (inclusive start, inclusive end) of
    /// `#[cfg(test)]`-gated items.
    test_ranges: Vec<(usize, usize)>,
    /// Engine-level diagnostics discovered while parsing (malformed
    /// waivers); reported alongside rule findings.
    engine_diags: Vec<Diagnostic>,
}

/// The marker a waiver comment must carry.
const WAIVER_MARK: &str = "lint:allow(";
/// The fixture path-override directive (only honored under
/// `tests/fixtures/`).
const DIRECTIVE: &str = "analysis-as:";

impl SourceFile {
    /// Lex and index `src`. `disk_path` is the repo-relative on-disk path;
    /// for fixture files an `// analysis-as: <path>` directive in the
    /// leading comments replaces it for rule-scoping purposes.
    pub fn parse(disk_path: &str, src: &str) -> Self {
        let toks = lex(src);
        let mut path = disk_path.replace('\\', "/");
        if path.contains("tests/fixtures/") {
            for t in toks.iter().take_while(|t| t.is_comment()) {
                if let Some(rest) = t
                    .text
                    .find(DIRECTIVE)
                    .map(|p| &t.text[p + DIRECTIVE.len()..])
                {
                    let val = rest.trim().trim_end_matches("*/").trim();
                    if !val.is_empty() {
                        path = val.to_string();
                    }
                    break;
                }
            }
        }
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut lines: BTreeMap<u32, LineClass> = BTreeMap::new();
        for t in &toks {
            let e = lines.entry(t.line).or_default();
            if t.is_comment() {
                e.has_comment = true;
            } else {
                if !e.has_code && !e.has_comment && t.is(TokKind::Punct, "#") {
                    e.attr_start = true;
                }
                e.has_code = true;
            }
        }
        let mut engine_diags = Vec::new();
        let waivers = parse_waivers(&path, &toks, &mut engine_diags);
        let test_ranges = find_test_ranges(&toks, &code);
        Self {
            path,
            toks,
            code,
            lines,
            waivers,
            test_ranges,
            engine_diags,
        }
    }

    /// Is token index `ti` inside a `#[cfg(test)]`-gated item?
    pub fn in_test(&self, ti: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= ti && ti <= b)
    }

    /// Walk the comment/attribute run that ends just above `line` (and
    /// `line` itself) and report whether any comment satisfies `pred`.
    /// Attribute lines (`#[…]`) and doc comments are transparent, so a
    /// `// SAFETY:` comment above `#[target_feature]` still counts for the
    /// `unsafe fn` underneath.
    pub fn comment_run_above(&self, line: u32, pred: impl Fn(&str) -> bool) -> bool {
        // Same-line (trailing) comment first.
        if self.line_comment_matches(line, &pred) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            match self.lines.get(&l) {
                Some(c) if c.has_comment && !c.has_code => {
                    if self.line_comment_matches(l, &pred) {
                        return true;
                    }
                }
                Some(c) if c.attr_start => {}
                _ => return false,
            }
            l -= 1;
        }
        false
    }

    fn line_comment_matches(&self, line: u32, pred: &impl Fn(&str) -> bool) -> bool {
        self.toks
            .iter()
            .filter(|t| t.is_comment() && t.line == line)
            .any(|t| pred(&t.text))
    }

    /// Is the finding at `line` covered by a well-formed waiver for `rule`?
    fn waived(&self, rule: &str, line: u32) -> bool {
        let at = |l: u32| {
            self.waivers
                .iter()
                .any(|w| w.line == l && w.rule == rule && w.reason_ok)
        };
        if at(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            match self.lines.get(&l) {
                Some(c) if c.has_comment && !c.has_code => {
                    if at(l) {
                        return true;
                    }
                }
                Some(c) if c.attr_start => {}
                _ => return false,
            }
            l -= 1;
        }
        false
    }
}

/// Parse waiver comments; malformed ones (unknown rule, missing reason)
/// become `waiver-syntax` diagnostics so a typo can't silently disable a
/// contract.
fn parse_waivers(path: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) -> Vec<Waiver> {
    let known: HashSet<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    let mut out = Vec::new();
    for t in toks.iter().filter(|t| t.is_comment()) {
        let Some(pos) = t.text.find(WAIVER_MARK) else {
            continue;
        };
        let rest = &t.text[pos + WAIVER_MARK.len()..];
        let Some(close) = rest.find(')') else {
            diags.push(Diagnostic {
                rule: "waiver-syntax",
                path: path.to_string(),
                line: t.line,
                message: "unclosed `lint:allow(` waiver".into(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        let reason_ok = !reason.is_empty();
        if !known.contains(rule.as_str()) {
            diags.push(Diagnostic {
                rule: "waiver-syntax",
                path: path.to_string(),
                line: t.line,
                message: format!("waiver names unknown rule `{rule}` (see --list-rules)"),
            });
            continue;
        }
        if !reason_ok {
            diags.push(Diagnostic {
                rule: "waiver-syntax",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "waiver for `{rule}` has no reason — write `lint:allow({rule}): <why>`"
                ),
            });
        }
        out.push(Waiver {
            line: t.line,
            rule,
            reason_ok,
        });
    }
    out
}

/// Find `#[cfg(test)] <item> { … }` token ranges. The attribute may be
/// followed by further attributes, doc comments and visibility before the
/// item keyword; the region is the item's outermost brace pair. `mod t;`
/// (a `;` before any `{`) yields no region.
fn find_test_ranges(toks: &[Tok], code: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut ci = 0;
    while ci < code.len() {
        if is_cfg_test_attr(toks, code, ci) {
            // Scan forward to the first `{` before any `;`.
            let mut cj = ci;
            let mut open = None;
            while cj < code.len() {
                let t = &toks[code[cj]];
                if t.is(TokKind::Punct, ";") {
                    break;
                }
                if t.is(TokKind::Punct, "{") {
                    open = Some(cj);
                    break;
                }
                cj += 1;
            }
            if let Some(start) = open {
                let mut depth = 0i32;
                let mut ck = start;
                while ck < code.len() {
                    let t = &toks[code[ck]];
                    if t.is(TokKind::Punct, "{") {
                        depth += 1;
                    } else if t.is(TokKind::Punct, "}") {
                        depth -= 1;
                        if depth == 0 {
                            ranges.push((code[ci], code[ck]));
                            break;
                        }
                    }
                    ck += 1;
                }
                ci = ck;
            }
        }
        ci += 1;
    }
    ranges
}

/// Does the code token at position `ci` start a `#[cfg(test)]`-ish
/// attribute (`#` `[` … with both `cfg` and `test` inside the brackets)?
fn is_cfg_test_attr(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    if !toks[code[ci]].is(TokKind::Punct, "#") {
        return false;
    }
    let Some(&bi) = code.get(ci + 1) else {
        return false;
    };
    if !toks[bi].is(TokKind::Punct, "[") {
        return false;
    }
    let (mut saw_cfg, mut saw_test) = (false, false);
    let mut depth = 0i32;
    for &k in &code[ci + 1..] {
        let t = &toks[k];
        if t.is(TokKind::Punct, "[") {
            depth += 1;
        } else if t.is(TokKind::Punct, "]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident {
            saw_cfg |= t.text == "cfg";
            saw_test |= t.text == "test";
        }
    }
    saw_cfg && saw_test
}

/// Result of an analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings that survived waivers, sorted by path and line.
    pub findings: Vec<Diagnostic>,
    /// Number of findings silenced by well-formed waivers.
    pub waived: usize,
    /// Files analyzed.
    pub files: usize,
}

impl Analysis {
    /// Render the report the CLI prints: one `path:line: [rule] message`
    /// per finding plus a one-line summary.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "resilient-analysis: {} finding{} ({} waived) across {} file{}\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.waived,
            self.files,
            if self.files == 1 { "" } else { "s" },
        ));
        out
    }
}

/// Run every rule over `files` — the per-file checks, then the cross-file
/// pass — and strip the findings a well-formed waiver covers. `context`
/// holds the rest of the tree: the cross-file pass reads it, but nothing in
/// it is reported.
fn analyze(files: &[SourceFile], context: &[SourceFile]) -> Analysis {
    let rules = all_rules();
    let mut raw: Vec<Vec<Diagnostic>> = files
        .iter()
        .map(|file| {
            let mut diags = file.engine_diags.clone();
            for rule in &rules {
                rule.check(file, &mut diags);
            }
            diags
        })
        .collect();
    raw.resize(files.len() + context.len(), Vec::new());
    let tree: Vec<&SourceFile> = files.iter().chain(context).collect();
    for rule in &rules {
        rule.check_tree(&tree, &mut raw);
    }
    raw.truncate(files.len());
    let mut analysis = Analysis {
        files: files.len(),
        ..Analysis::default()
    };
    for (file, diags) in files.iter().zip(raw) {
        for d in diags {
            // `waiver-syntax` findings are not themselves waivable.
            if d.rule != "waiver-syntax" && file.waived(d.rule, d.line) {
                analysis.waived += 1;
            } else {
                analysis.findings.push(d);
            }
        }
    }
    analysis
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    analysis
}

/// Analyze one file's source under its (effective) repo-relative path, as
/// the only file of the tree. Returns surviving findings and the number
/// waived.
pub fn analyze_source(disk_path: &str, src: &str) -> (Vec<Diagnostic>, usize) {
    let analysis = analyze(&[SourceFile::parse(disk_path, src)], &[]);
    (analysis.findings, analysis.waived)
}

/// Should `path` (relative, `/`-separated) be analyzed at all?
fn walkable(rel: &str) -> bool {
    let skip_dirs = ["target/", "vendor/", ".git/"];
    if skip_dirs
        .iter()
        .any(|d| rel.starts_with(d) || rel.contains(&format!("/{d}")))
    {
        return false;
    }
    // The analyzer's self-test fixtures are bad on purpose.
    if rel.contains("tests/fixtures/") {
        return false;
    }
    rel.ends_with(".rs")
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if p.is_dir() {
            let base = rel.trim_end_matches('/');
            if ["target", "vendor", ".git"]
                .iter()
                .any(|d| base.ends_with(d))
                || rel.contains("tests/fixtures")
            {
                continue;
            }
            collect_rs_files(root, &p, out);
        } else if walkable(&rel) {
            out.push(p);
        }
    }
}

/// Parse every tracked `.rs` file under `root` whose canonical path is not
/// in `skip`, under its root-relative path.
fn parse_tree(root: &Path, skip: &[PathBuf]) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths);
    paths
        .iter()
        .filter(|p| p.canonicalize().map_or(true, |c| !skip.contains(&c)))
        .filter_map(|p| {
            let src = std::fs::read_to_string(p).ok()?;
            let rel = p.strip_prefix(root).unwrap_or(p).to_string_lossy();
            Some(SourceFile::parse(&rel.replace('\\', "/"), &src))
        })
        .collect()
}

/// Analyze every tracked `.rs` file under `root`.
pub fn analyze_tree(root: &Path) -> Analysis {
    analyze(&parse_tree(root, &[]), &[])
}

/// Analyze an explicit list of files (fixture `analysis-as:` directives are
/// honored; other paths are used as given). Only these files are reported,
/// but cross-file rules judge them against the tree under `root`, so a
/// `pub fn` that another file of that tree calls is not an orphan.
pub fn analyze_files(root: &Path, paths: &[String]) -> Result<Analysis, String> {
    let mut files = Vec::new();
    let mut listed = Vec::new();
    for p in paths {
        let src = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        files.push(SourceFile::parse(&p.replace('\\', "/"), &src));
        listed.extend(Path::new(p).canonicalize().ok());
    }
    Ok(analyze(&files, &parse_tree(root, &listed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_detection_spans_the_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let helper_ti = f
            .toks
            .iter()
            .position(|t| t.text == "helper")
            .expect("helper tok");
        let live_ti = f.toks.iter().position(|t| t.text == "live").unwrap();
        let after_ti = f.toks.iter().position(|t| t.text == "after").unwrap();
        assert!(f.in_test(helper_ti));
        assert!(!f.in_test(live_ti));
        assert!(!f.in_test(after_ti));
    }

    #[test]
    fn directive_only_honored_under_fixtures() {
        let src = "// analysis-as: crates/core/src/kernel/fake.rs\nfn f() {}\n";
        let fixture = SourceFile::parse("crates/analysis/tests/fixtures/bad_x.rs", src);
        assert_eq!(fixture.path, "crates/core/src/kernel/fake.rs");
        let normal = SourceFile::parse("crates/core/src/lib.rs", src);
        assert_eq!(normal.path, "crates/core/src/lib.rs");
    }

    #[test]
    fn malformed_waiver_is_reported() {
        let src = "// lint:allow(virtual-time)\nfn f() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.engine_diags.len(), 1);
        assert!(f.engine_diags[0].message.contains("no reason"));
    }

    #[test]
    fn unknown_rule_waiver_is_reported() {
        let src = "// lint:allow(no-such-rule): because\nfn f() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.engine_diags.len(), 1);
        assert!(f.engine_diags[0].message.contains("unknown rule"));
    }

    #[test]
    fn comment_run_walks_through_attributes() {
        let src = "// SAFETY: guarded by detection.\n#[target_feature(enable = \"avx\")]\nunsafe fn k() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.comment_run_above(3, |c| c.contains("SAFETY:")));
        assert!(!f.comment_run_above(3, |c| c.contains("NOPE")));
    }
}
