//! # resilient-analysis
//!
//! A repo-invariant static analyzer: a hand-rolled Rust lexer (no `syn`,
//! consistent with the vendored-minimal-deps policy) feeding a lexical rule
//! engine that machine-checks the contracts the rest of the suite only
//! enforces dynamically — collective-order symmetry, `// SAFETY:` coverage
//! on unsafe sites, virtual-time purity, FLOP-ledger charging discipline,
//! the hot-loop allocation audit, and a public surface every item of which
//! has a caller.
//!
//! The crate is both a library (so `cargo test` runs the analyzer over the
//! live tree as a plain `#[test]`) and a binary (`resilient-analysis`) for
//! the CI gate. See `docs/analysis.md` for the rule catalogue and waiver
//! policy.

#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{analyze_files, analyze_source, analyze_tree, Analysis, Diagnostic, SourceFile};
pub use rules::{all_rules, Rule};
