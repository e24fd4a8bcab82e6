// analysis-as: crates/runtime/src/fixture_orphan.rs
// Fixture: public surface that no other file names. The four items marked
// "fires" must each fire `orphan-pub`: a use in this file (its unit tests
// included), in a comment or in a string is no reason to be `pub`. The
// type and the `pub(crate)` helper must not fire. The names are unique to
// this fixture, so the tree it is judged against never uses them.

/// Fires: only this file's unit test calls it.
pub fn only_tested() -> u32 {
    orphan_quota()
}

/// Fires: named only in this file.
pub const ORPHAN_LIMIT: u32 = 4;

/// Fires: named only by the string in `crate_visible`.
pub static ORPHAN_UNUSED: u32 = 0;

/// Fires: a `const fn` called only in this file.
pub const fn orphan_quota() -> u32 {
    ORPHAN_LIMIT
}

/// Types are exempt: a public signature may be what needs them.
pub struct Exported;

pub(crate) fn crate_visible() -> &'static str {
    "ORPHAN_UNUSED"
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tested_counts() {
        assert_eq!(super::only_tested(), 4);
    }
}
