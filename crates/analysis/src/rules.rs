//! The repo-specific rules: six invariants clippy cannot express, each
//! grounded in a bug class this repository has already hit (see
//! `docs/analysis.md` for the catalogue).
//!
//! Rules are lexical by design. They work on the token stream — brace
//! regions, identifier patterns, comment obligations — which keeps them
//! dependency-free and fast, at the cost of being *approximate*: they
//! lexically over- and under-approximate the semantic invariant, and the
//! per-site waiver comment — `lint:allow`, rule name in parentheses,
//! mandatory reason — is the documented escape hatch for the sanctioned
//! exceptions.

use std::collections::HashMap;

use crate::engine::{Diagnostic, SourceFile};
use crate::lexer::{Tok, TokKind};

/// A single analysis rule.
pub trait Rule {
    /// Kebab-case rule name, as used in waivers and diagnostics.
    fn name(&self) -> &'static str;
    /// One-line description of the invariant.
    fn summary(&self) -> &'static str;
    /// Human description of where the rule applies.
    fn scope(&self) -> &'static str;
    /// Scan `f` and append findings.
    fn check(&self, _f: &SourceFile, _out: &mut Vec<Diagnostic>) {}
    /// Cross-file pass, run after every per-file `check`: `out[i]` collects
    /// the findings located in `files[i]`.
    fn check_tree(&self, _files: &[&SourceFile], _out: &mut [Vec<Diagnostic>]) {}
}

/// Every shipped rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(CollectiveSymmetry),
        Box::new(SafetyContract),
        Box::new(VirtualTimePurity),
        Box::new(ChargedArithmetic),
        Box::new(HotLoopAllocation),
        Box::new(OrphanPub),
    ]
}

/// Code token at code-position `ci` (indices into `f.code`).
fn ct(f: &SourceFile, ci: usize) -> Option<&Tok> {
    f.code.get(ci).map(|&i| &f.toks[i])
}

fn is_ident(f: &SourceFile, ci: usize, text: &str) -> bool {
    ct(f, ci).is_some_and(|t| t.is(TokKind::Ident, text))
}

fn is_punct(f: &SourceFile, ci: usize, text: &str) -> bool {
    ct(f, ci).is_some_and(|t| t.is(TokKind::Punct, text))
}

fn diag(rule: &'static str, f: &SourceFile, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: f.path.clone(),
        line,
        message,
    }
}

// ---------------------------------------------------------------------------
// Rule 1: collective-symmetry
// ---------------------------------------------------------------------------

/// Calls into the collective surface may not appear lexically inside a
/// branch conditioned on rank identity. This is the static face of the
/// desync deadlock fixed dynamically in the collective engine: if one rank
/// skips (or doubles) a collective the others entered, every survivor
/// blocks forever.
pub struct CollectiveSymmetry;

/// The collective surface of `CommBackend` + `KrylovSpace`: every one of
/// these must be executed by all ranks of the communicator, in the same
/// order.
const COLLECTIVES: &[&str] = &[
    "barrier",
    "allreduce",
    "allreduce_scalar",
    "global_dot",
    "allgather",
    "iallreduce",
    "wait_vector",
    "recovery_rendezvous",
    "shrink",
    "start_dots",
    "start_dots_tagged",
    "finish_dots",
    "fused_pairs",
    "persist_vector",
    "persist_scalar",
];

/// Identifiers that mark a condition as rank-identity-dependent.
const RANK_IDENTS: &[&str] = &["my_rank", "world_rank", "rank"];

impl Rule for CollectiveSymmetry {
    fn name(&self) -> &'static str {
        "collective-symmetry"
    }
    fn summary(&self) -> &'static str {
        "collectives may not be reached under a rank-identity branch"
    }
    fn scope(&self) -> &'static str {
        "crates/core/src/** (non-test code)"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !f.path.starts_with("crates/core/src/") {
            return;
        }
        // Stack of brace regions; `true` = lexically under a rank branch.
        let mut regions: Vec<bool> = Vec::new();
        let mut pending: Option<bool> = None;
        let mut else_flag = false;
        let mut ci = 0;
        while let Some(t) = ct(f, ci) {
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "if" | "while" | "match") => {
                    // Scan the condition/scrutinee up to the body-opening
                    // `{` (first `{` at zero paren/bracket depth).
                    let mut depth = 0i32;
                    let mut flag = else_flag;
                    else_flag = false;
                    let mut j = ci + 1;
                    while let Some(tj) = ct(f, j) {
                        match (tj.kind, tj.text.as_str()) {
                            (TokKind::Punct, "(" | "[") => depth += 1,
                            (TokKind::Punct, ")" | "]") => depth -= 1,
                            (TokKind::Punct, "{") if depth <= 0 => break,
                            (TokKind::Punct, ";") if depth <= 0 => break,
                            (TokKind::Ident, id) if RANK_IDENTS.contains(&id) => flag = true,
                            _ => {}
                        }
                        j += 1;
                    }
                    pending = Some(flag);
                }
                (TokKind::Punct, "{") => {
                    let flag = pending.take().unwrap_or(else_flag);
                    else_flag = false;
                    regions.push(flag);
                }
                (TokKind::Punct, "}") => {
                    let was = regions.pop().unwrap_or(false);
                    if was && is_ident(f, ci + 1, "else") {
                        // The other arm of a rank branch is just as
                        // asymmetric: only the complementary ranks run it.
                        else_flag = true;
                    }
                }
                (TokKind::Ident, name)
                    if COLLECTIVES.contains(&name)
                        && is_punct(f, ci + 1, "(")
                        && !is_ident_behind(f, ci, "fn")
                        && regions.iter().any(|&r| r)
                        && !f.in_test(f.code[ci]) =>
                {
                    out.push(diag(
                        self.name(),
                        f,
                        t.line,
                        format!(
                            "collective `{name}` is reached only under a rank-identity \
                             branch; every rank must enter every collective in the same \
                             order or the others deadlock"
                        ),
                    ));
                }
                _ => {}
            }
            ci += 1;
        }
    }
}

/// Is the code token immediately before `ci` the identifier `text`?
fn is_ident_behind(f: &SourceFile, ci: usize, text: &str) -> bool {
    ci > 0 && is_ident(f, ci - 1, text)
}

// ---------------------------------------------------------------------------
// Rule 2: safety-contract
// ---------------------------------------------------------------------------

/// Every `unsafe` site carries a `// SAFETY:` comment, and every
/// `#[target_feature]` function is only called from a file that performs
/// runtime feature detection (`is_x86_feature_detected!`) — the lexical
/// shadow of "the SIMD type is only constructed behind detection".
pub struct SafetyContract;

impl Rule for SafetyContract {
    fn name(&self) -> &'static str {
        "safety-contract"
    }
    fn summary(&self) -> &'static str {
        "unsafe sites need `// SAFETY:`; target_feature fns need a detection-guarded file"
    }
    fn scope(&self) -> &'static str {
        "all analyzed files"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        // Pass A: SAFETY comments on unsafe sites.
        for (ci, &ti) in f.code.iter().enumerate() {
            let t = &f.toks[ti];
            if !t.is(TokKind::Ident, "unsafe") {
                continue;
            }
            let kind = match ct(f, ci + 1) {
                Some(n) if n.is(TokKind::Punct, "{") => "unsafe block",
                Some(n) if n.is(TokKind::Ident, "fn") => "unsafe fn",
                Some(n) if n.is(TokKind::Ident, "impl") => "unsafe impl",
                Some(n) if n.is(TokKind::Ident, "trait") => "unsafe trait",
                _ => "unsafe site",
            };
            if !f.comment_run_above(t.line, |c| c.contains("SAFETY:")) {
                out.push(diag(
                    self.name(),
                    f,
                    t.line,
                    format!(
                        "{kind} without a `// SAFETY:` comment stating why the \
                         operation is sound"
                    ),
                ));
            }
        }
        // Pass B: #[target_feature] fns may only be called (from outside
        // another target_feature fn) in a file that does runtime detection.
        let tf = collect_target_feature_fns(f);
        if tf.is_empty() {
            return;
        }
        let detected = f
            .toks
            .iter()
            .any(|t| t.is(TokKind::Ident, "is_x86_feature_detected"));
        if detected {
            return;
        }
        for (ci, &ti) in f.code.iter().enumerate() {
            let t = &f.toks[ti];
            if t.kind != TokKind::Ident {
                continue;
            }
            let Some(fun) = tf.iter().find(|x| x.name == t.text) else {
                continue;
            };
            if !is_punct(f, ci + 1, "(") || is_ident_behind(f, ci, "fn") {
                continue;
            }
            if tf.iter().any(|x| x.body.contains(&ti)) {
                continue; // call from inside another target_feature fn
            }
            out.push(diag(
                self.name(),
                f,
                t.line,
                format!(
                    "`#[target_feature]` fn `{}` is called in a file with no \
                     `is_x86_feature_detected!` guard — executing it on a CPU \
                     without the feature is undefined behaviour",
                    fun.name
                ),
            ));
        }
    }
}

struct TfFn {
    name: String,
    /// Raw token-index range of the fn body (for call-site exemption).
    body: std::ops::RangeInclusive<usize>,
}

/// Collect `#[target_feature(…)] … fn <name>` declarations with their body
/// token ranges.
fn collect_target_feature_fns(f: &SourceFile) -> Vec<TfFn> {
    let mut found = Vec::new();
    let mut ci = 0;
    while ci < f.code.len() {
        if is_punct(f, ci, "#") && is_punct(f, ci + 1, "[") {
            // Walk the attribute, noting whether it is target_feature.
            let mut depth = 0i32;
            let mut is_tf = false;
            let mut cj = ci + 1;
            while let Some(tj) = ct(f, cj) {
                if tj.is(TokKind::Punct, "[") {
                    depth += 1;
                } else if tj.is(TokKind::Punct, "]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tj.is(TokKind::Ident, "target_feature") {
                    is_tf = true;
                }
                cj += 1;
            }
            if is_tf {
                // Skip further attributes/qualifiers to `fn name`.
                let mut ck = cj + 1;
                while let Some(tk) = ct(f, ck) {
                    if tk.is(TokKind::Ident, "fn") {
                        break;
                    }
                    if tk.is(TokKind::Punct, ";") || tk.is(TokKind::Punct, "}") {
                        ck = f.code.len();
                        break;
                    }
                    ck += 1;
                }
                if let Some(name_tok) = ct(f, ck + 1) {
                    if name_tok.kind == TokKind::Ident {
                        // Find the body braces.
                        let mut cb = ck + 2;
                        while let Some(tb) = ct(f, cb) {
                            if tb.is(TokKind::Punct, "{") {
                                break;
                            }
                            if tb.is(TokKind::Punct, ";") {
                                cb = f.code.len();
                                break;
                            }
                            cb += 1;
                        }
                        if cb < f.code.len() {
                            let mut depth = 0i32;
                            let mut ce = cb;
                            while let Some(te) = ct(f, ce) {
                                if te.is(TokKind::Punct, "{") {
                                    depth += 1;
                                } else if te.is(TokKind::Punct, "}") {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                ce += 1;
                            }
                            if ce < f.code.len() {
                                found.push(TfFn {
                                    name: name_tok.text.clone(),
                                    body: f.code[cb]..=f.code[ce],
                                });
                            }
                        }
                    }
                }
            }
            ci = cj;
        }
        ci += 1;
    }
    found
}

// ---------------------------------------------------------------------------
// Rule 3: virtual-time
// ---------------------------------------------------------------------------

/// `Instant`/`SystemTime` are forbidden outside the real-threads backend
/// (`crates/runtime/src/threads.rs`) and the bench crate: everything else
/// runs on the deterministic virtual clock, and a wall-clock read anywhere
/// in those paths silently destroys reproducibility and the simulator's
/// cost model.
pub struct VirtualTimePurity;

impl Rule for VirtualTimePurity {
    fn name(&self) -> &'static str {
        "virtual-time"
    }
    fn summary(&self) -> &'static str {
        "wall-clock sources only in the threads backend and the bench crate"
    }
    fn scope(&self) -> &'static str {
        "all files except crates/runtime/src/threads.rs and crates/bench/**"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        if f.path == "crates/runtime/src/threads.rs" || f.path.starts_with("crates/bench/") {
            return;
        }
        for &ti in &f.code {
            let t = &f.toks[ti];
            if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
                out.push(diag(
                    self.name(),
                    f,
                    t.line,
                    format!(
                        "wall-clock source `{}` outside the real-threads backend \
                         and bench crate — simulator paths must stay on the \
                         deterministic virtual clock",
                        t.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: charged-arithmetic
// ---------------------------------------------------------------------------

/// In `crates/core`, node-local arithmetic must flow through the space
/// (`space.ops()` / space methods) so the FLOP and check-flop ledgers stay
/// truthful. Direct `vector::*` level-1/SpMV calls — and ad-hoc backend
/// construction — bypass the charging surface and silently falsify every
/// overhead experiment.
pub struct ChargedArithmetic;

/// The level-1/SpMV functions whose direct use bypasses charging.
const VECTOR_FNS: &[&str] = &[
    "dot",
    "dot_pairs",
    "nrm2",
    "axpy",
    "scale",
    "xpby",
    "waxpby_into",
    "spmv_into",
];

/// `LocalOps` methods distinctive enough to police as method calls
/// (`.dot(`/`.scale(` are also the *charged* `KrylovSpace` surface, so only
/// names unique to the device-op layer are listed).
const LOCALOPS_METHODS: &[&str] = &[
    "dot_pairs",
    "waxpby_into",
    "msub_seq",
    "spmv_csr",
    "spmv_sell",
    "spmv_into",
    "nrm2",
    // Blocked (multi-RHS) kernels: same contract — only the charging
    // boundary may call them raw.
    "spmm_csr",
    "spmm_sell",
    "dot_blocks",
    "axpy_blocks",
    "xpby_blocks",
    "waxpby_blocks",
    "pipelined_pcg_sweep",
    "pipelined_cg_sweep",
];

/// Backend constructors: wired through solver/space options only.
const OPS_CTORS: &[&str] = &["scalar_ops", "simd_ops", "auto_ops"];

/// The sanctioned charging boundary: these files *implement* the charged
/// surface and therefore call the raw kernels.
const CHARGING_FILES: &[&str] = &[
    "crates/core/src/kernel/space.rs",
    "crates/core/src/distributed.rs",
];

/// Files additionally allowed to call the backend constructors (the
/// documented selection seam of `SolveOptions::local_ops`).
const OPS_CTOR_FILES: &[&str] = &["crates/core/src/kernel/spec.rs"];

impl Rule for ChargedArithmetic {
    fn name(&self) -> &'static str {
        "charged-arithmetic"
    }
    fn summary(&self) -> &'static str {
        "core arithmetic flows through space.ops()/space methods, never raw vector::*"
    }
    fn scope(&self) -> &'static str {
        "crates/core/src/** minus the charging boundary (kernel/space.rs, distributed.rs)"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !f.path.starts_with("crates/core/src/") {
            return;
        }
        let charging = CHARGING_FILES.contains(&f.path.as_str());
        let ctor_ok = charging || OPS_CTOR_FILES.contains(&f.path.as_str());
        let mut in_use = false;
        let mut use_names_vector = false;
        for (ci, &ti) in f.code.iter().enumerate() {
            let t = &f.toks[ti];
            if f.in_test(ti) {
                continue;
            }
            if t.is(TokKind::Ident, "use") {
                in_use = true;
                use_names_vector = false;
                continue;
            }
            if in_use {
                if t.is(TokKind::Punct, ";") {
                    in_use = false;
                } else if t.is(TokKind::Ident, "vector") {
                    use_names_vector = true;
                } else if !charging
                    && use_names_vector
                    && t.kind == TokKind::Ident
                    && VECTOR_FNS.contains(&t.text.as_str())
                {
                    out.push(diag(
                        self.name(),
                        f,
                        t.line,
                        format!(
                            "importing `vector::{}` invites uncharged arithmetic — \
                             route it through `space.ops()`/space methods so the \
                             FLOP ledger stays truthful",
                            t.text
                        ),
                    ));
                }
                continue;
            }
            if charging {
                continue;
            }
            // Qualified path `vector::f`.
            if t.is(TokKind::Ident, "vector")
                && is_punct(f, ci + 1, ":")
                && is_punct(f, ci + 2, ":")
            {
                if let Some(n) = ct(f, ci + 3) {
                    if n.kind == TokKind::Ident && VECTOR_FNS.contains(&n.text.as_str()) {
                        out.push(diag(
                            self.name(),
                            f,
                            n.line,
                            format!(
                                "direct call `vector::{}` bypasses the charging \
                                 surface — use `space.ops()`/space methods so the \
                                 FLOP ledger stays truthful",
                                n.text
                            ),
                        ));
                    }
                }
            }
            // Method calls unique to the device-op layer.
            if t.is(TokKind::Punct, ".") {
                if let Some(m) = ct(f, ci + 1) {
                    if m.kind == TokKind::Ident
                        && LOCALOPS_METHODS.contains(&m.text.as_str())
                        && is_punct(f, ci + 2, "(")
                    {
                        out.push(diag(
                            self.name(),
                            f,
                            m.line,
                            format!(
                                "`.{}(…)` calls the device-op layer directly — \
                                 node-local arithmetic must go through the space \
                                 so FLOPs are charged",
                                m.text
                            ),
                        ));
                    }
                }
            }
            // Ad-hoc backend construction.
            if !ctor_ok
                && t.kind == TokKind::Ident
                && OPS_CTORS.contains(&t.text.as_str())
                && is_punct(f, ci + 1, "(")
                && !is_ident_behind(f, ci, "fn")
            {
                out.push(diag(
                    self.name(),
                    f,
                    t.line,
                    format!(
                        "`{}()` constructs an op backend at a use site — backends \
                         are selected once through space/solver options",
                        t.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: hot-loop-alloc
// ---------------------------------------------------------------------------

/// The designated per-iteration modules must not heap-allocate vector
/// buffers (`Vec::new`, `vec![…]`, `.to_vec()`, `.clone()`): the PR 7
/// allocation audit moved every hot-path buffer into reusable scratch, and
/// this rule keeps it that way. Constructor/factory paths (`new`,
/// `with_*`, `from_*`, `persist_*`, `zeros_like`, `residual`) and the
/// per-file setup paths of `SETUP_FNS` are exempt — they are the
/// sanctioned allocation sites.
pub struct HotLoopAllocation;

/// Modules whose non-setup paths run once per Krylov iteration.
const HOT_FILES: &[&str] = &[
    "crates/core/src/kernel/space.rs",
    "crates/core/src/kernel/precond.rs",
    "crates/core/src/kernel/block.rs",
];
const HOT_PREFIXES: &[&str] = &["crates/core/src/rbsp/"];

/// Per-file setup paths on top of the constructor names: functions that run
/// once per solve or per (re)start of a recurrence, never per iteration.
const SETUP_FNS: &[(&str, &[&str])] = &[(
    "crates/core/src/kernel/block.rs",
    &["build_state", "run_block_cg"],
)];

fn exempt_fn(path: &str, name: &str) -> bool {
    name == "new"
        || name == "zeros_like"
        || name == "residual"
        || name.starts_with("with_")
        || name.starts_with("from_")
        || name.starts_with("persist_")
        || SETUP_FNS
            .iter()
            .any(|(file, fns)| *file == path && fns.contains(&name))
}

impl Rule for HotLoopAllocation {
    fn name(&self) -> &'static str {
        "hot-loop-alloc"
    }
    fn summary(&self) -> &'static str {
        "no per-iteration vector-buffer allocation in the designated hot-loop modules"
    }
    fn scope(&self) -> &'static str {
        "kernel/space.rs, kernel/precond.rs, kernel/block.rs, rbsp/* (non-test, non-setup paths)"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !(HOT_FILES.contains(&f.path.as_str())
            || HOT_PREFIXES.iter().any(|p| f.path.starts_with(p)))
        {
            return;
        }
        // Track the lexically-enclosing fn name per brace region.
        let mut stack: Vec<Option<String>> = Vec::new();
        let mut pending_fn: Option<String> = None;
        for (ci, &ti) in f.code.iter().enumerate() {
            let t = &f.toks[ti];
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "fn") => {
                    if let Some(n) = ct(f, ci + 1) {
                        if n.kind == TokKind::Ident {
                            pending_fn = Some(n.text.clone());
                        }
                    }
                }
                (TokKind::Punct, "{") => {
                    let inherited = stack.last().cloned().flatten();
                    stack.push(pending_fn.take().or(inherited));
                }
                (TokKind::Punct, "}") => {
                    stack.pop();
                }
                _ => {}
            }
            if f.in_test(ti) {
                continue;
            }
            let in_exempt = stack
                .last()
                .and_then(|n| n.as_deref())
                .is_some_and(|name| exempt_fn(&f.path, name));
            if in_exempt {
                continue;
            }
            let hit = if t.is(TokKind::Ident, "Vec")
                && is_punct(f, ci + 1, ":")
                && is_punct(f, ci + 2, ":")
                && is_ident(f, ci + 3, "new")
            {
                Some("Vec::new")
            } else if t.is(TokKind::Ident, "vec") && is_punct(f, ci + 1, "!") {
                Some("vec![…]")
            } else if t.is(TokKind::Punct, ".")
                && is_ident(f, ci + 1, "to_vec")
                && is_punct(f, ci + 2, "(")
            {
                Some(".to_vec()")
            } else if t.is(TokKind::Punct, ".")
                && is_ident(f, ci + 1, "clone")
                && is_punct(f, ci + 2, "(")
            {
                Some(".clone()")
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(diag(
                    self.name(),
                    f,
                    t.line,
                    format!(
                        "`{what}` allocates in a per-iteration module — reuse a \
                         scratch buffer or move the allocation to a setup path \
                         (PR 7 allocation audit)"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: orphan-pub
// ---------------------------------------------------------------------------

/// The public surface of a library crate must be named by code outside
/// that crate. The surface is what rustc cannot judge, because its user may
/// be another crate: every name a `pub use` list of a public module
/// re-exports (the crate root, `prelude`, `kernel`), and every `pub fn`,
/// `pub const` and `pub static` of a public module. Items of private
/// modules are rustc's business: `dead_code` and `unreachable_pub` see them,
/// fields, variants and methods included. Uses inside the crate do not
/// count (its unit tests included), and neither do comments, strings,
/// same-named definitions or another re-export list. Types a public module
/// defines are exempt: a public signature may be what needs them.
pub struct OrphanPub;

/// The library crates whose public surface must have users.
const ORPHAN_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/linalg/src/",
    "crates/runtime/src/",
    "crates/faults/src/",
    "crates/pde/src/",
    "crates/bench/src/",
];

/// Keywords whose next identifier is a definition, not a use.
const DEFINERS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

/// Which crates name an identifier: one, or more than one.
#[derive(Clone, Copy)]
enum Seen<'a> {
    One(&'a str),
    Many,
}

/// The crate a file belongs to, as a key: a library's `src/` directory, or
/// the file itself (a binary, test, example or bench is a crate of its own).
fn crate_of(path: &str) -> &str {
    match path.find("/src/") {
        Some(i) if path.starts_with("crates/") && !path[i..].starts_with("/src/bin/") => {
            &path[..i + "/src/".len()]
        }
        _ => path,
    }
}

/// The identifier index of the whole analyzed tree, built in one token
/// pass: for every identifier used as code, which crates use it.
fn use_index<'a>(files: &[&'a SourceFile]) -> HashMap<&'a str, Seen<'a>> {
    let mut index = HashMap::new();
    for f in files {
        let krate = crate_of(&f.path);
        let mut ci = 0;
        while let Some(t) = ct(f, ci) {
            if is_ident(f, ci, "pub") && is_ident(f, pub_prefix_end(f, ci), "use") {
                // A re-export list names items; it does not use them.
                while ct(f, ci).is_some_and(|t| !t.is(TokKind::Punct, ";")) {
                    ci += 1;
                }
                continue;
            }
            let defines = DEFINERS.iter().any(|d| is_ident_behind(f, ci, d));
            if t.kind == TokKind::Ident && !defines {
                index
                    .entry(t.text.as_str())
                    .and_modify(|s| {
                        if matches!(*s, Seen::One(k) if k != krate) {
                            *s = Seen::Many;
                        }
                    })
                    .or_insert(Seen::One(krate));
            }
            ci += 1;
        }
    }
    index
}

/// The position just after a `pub` or `pub(…)` at code position `ci`.
fn pub_prefix_end(f: &SourceFile, ci: usize) -> usize {
    if !is_punct(f, ci + 1, "(") {
        return ci + 1;
    }
    let mut cj = ci + 1;
    while ct(f, cj).is_some_and(|t| !t.is(TokKind::Punct, ")")) {
        cj += 1;
    }
    cj + 1
}

/// Is bare `pub` (not `pub(…)`) at code position `ci`, outside the tests?
fn bare_pub(f: &SourceFile, ci: usize) -> bool {
    is_ident(f, ci, "pub") && !is_punct(f, ci + 1, "(") && !f.in_test(f.code[ci])
}

/// Is the file at `path` a public module of its crate: the crate root, or
/// declared `pub mod` by a parent that is itself public?
fn public_module(path: &str, files: &[&SourceFile]) -> bool {
    let krate = crate_of(path);
    let Some(rel) = path.strip_prefix(krate).filter(|_| krate != path) else {
        return false;
    };
    if rel == "lib.rs" {
        return true;
    }
    let Some(module) = rel.strip_suffix("/mod.rs").or(rel.strip_suffix(".rs")) else {
        return false;
    };
    let (dir, name) = module.rsplit_once('/').unwrap_or(("", module));
    let parents = if dir.is_empty() {
        vec![format!("{krate}lib.rs")]
    } else {
        vec![format!("{krate}{dir}.rs"), format!("{krate}{dir}/mod.rs")]
    };
    files.iter().any(|p| {
        parents.contains(&p.path)
            && (0..p.code.len()).any(|ci| {
                bare_pub(p, ci)
                    && is_ident(p, ci + 1, "mod")
                    && is_ident(p, ci + 2, name)
                    && is_punct(p, ci + 3, ";")
            })
            && public_module(&p.path, files)
    })
}

/// The surface a public module declares outside its tests, as
/// `(kind, name token)`: every name its `pub use` lists export, and its
/// `pub fn`, `pub const` and `pub static` items.
fn public_items(f: &SourceFile) -> Vec<(&'static str, &Tok)> {
    let mut items = Vec::new();
    for ci in 0..f.code.len() {
        if !bare_pub(f, ci) {
            continue;
        }
        if is_ident(f, ci + 1, "use") {
            // The exported name of each leaf path: `a`, `b` in
            // `pub use m::{a, x as b};`.
            let mut cj = ci + 2;
            while let Some(t) = ct(f, cj).filter(|t| !t.is(TokKind::Punct, ";")) {
                let leaf = [",", "}", ";"].iter().any(|p| is_punct(f, cj + 1, p));
                if t.kind == TokKind::Ident && leaf && t.text != "self" {
                    items.push(("re-export", t));
                }
                cj += 1;
            }
            continue;
        }
        // Skip fn qualifiers: `const fn`, `unsafe`, `async`, `extern "C"`.
        let mut cj = ci + 1;
        while ["unsafe", "async", "extern"]
            .iter()
            .any(|q| is_ident(f, cj, q))
            || ct(f, cj).is_some_and(|t| t.kind == TokKind::Str)
            || (is_ident(f, cj, "const")
                && !ct(f, cj + 2).is_some_and(|t| t.is(TokKind::Punct, ":")))
        {
            cj += 1;
        }
        let kind = match ct(f, cj) {
            Some(t) if t.is(TokKind::Ident, "fn") => "pub fn",
            Some(t) if t.is(TokKind::Ident, "const") => "pub const",
            Some(t) if t.is(TokKind::Ident, "static") => "pub static",
            _ => continue,
        };
        if is_ident(f, cj, "static") && is_ident(f, cj + 1, "mut") {
            cj += 1;
        }
        if let Some(name) = ct(f, cj + 1).filter(|n| n.kind == TokKind::Ident) {
            items.push((kind, name));
        }
    }
    items
}

impl Rule for OrphanPub {
    fn name(&self) -> &'static str {
        "orphan-pub"
    }
    fn summary(&self) -> &'static str {
        "every re-exported name and public-module pub fn/const/static is named outside its crate"
    }
    fn scope(&self) -> &'static str {
        "public modules of crates/{core,linalg,runtime,faults,pde,bench}/src (non-test items)"
    }

    fn check_tree(&self, files: &[&SourceFile], out: &mut [Vec<Diagnostic>]) {
        let index = use_index(files);
        for (fi, f) in files.iter().enumerate() {
            if !ORPHAN_SCOPE.iter().any(|p| f.path.starts_with(p)) || !public_module(&f.path, files)
            {
                continue;
            }
            let krate = crate_of(&f.path);
            for (kind, name) in public_items(f) {
                let used_elsewhere = match index.get(name.text.as_str()) {
                    Some(Seen::Many) => true,
                    Some(&Seen::One(k)) => k != krate,
                    None => false,
                };
                if used_elsewhere {
                    continue;
                }
                let message = if kind == "re-export" {
                    format!(
                        "`{}` is re-exported, but no code outside this crate names \
                         it — drop it from the list",
                        name.text
                    )
                } else {
                    format!(
                        "`{kind} {}` is public surface that no code outside this \
                         crate names — make it `pub(crate)`, or delete it if the \
                         crate does not use it either",
                        name.text
                    )
                };
                out[fi].push(diag(self.name(), f, name.line, message));
            }
        }
    }
}
