//! Fixture gate: every rule must catch its deliberately-violating fixture
//! and accept its clean fixture. Fixtures are routed through a synthetic
//! daemon path so the full rule set applies regardless of where the fixture
//! files live on disk.

use fhclint::{lint_source_with, RuleSet, Violation};

fn lint_fixture(name: &str) -> Vec<Violation> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path} unreadable: {e}"));
    lint_source_with("crates/fhc/src/shardnet/fixture.rs", &src, RuleSet::all()).violations
}

fn unwaived_of(name: &str, rule: &str) -> usize {
    lint_fixture(name)
        .iter()
        .filter(|v| v.waived.is_none() && v.rule.name == rule)
        .count()
}

fn assert_clean(name: &str) {
    let open: Vec<_> = lint_fixture(name)
        .into_iter()
        .filter(|v| v.waived.is_none())
        .collect();
    assert!(open.is_empty(), "{name} should be clean, got: {open:#?}");
}

#[test]
fn r1_catches_violating_fixture() {
    // unwrap + unreachable! + panic! + expect, test module exempt.
    assert_eq!(unwaived_of("r1_no_panic_violating.rs", "no_panic"), 4);
}

#[test]
fn r1_accepts_clean_fixture() {
    assert_clean("r1_no_panic_clean.rs");
    // The clean fixture carries exactly one reasoned waiver.
    let waived: Vec<_> = lint_fixture("r1_no_panic_clean.rs")
        .into_iter()
        .filter(|v| v.waived.is_some())
        .collect();
    assert_eq!(waived.len(), 1);
}

#[test]
fn r2_catches_violating_fixture() {
    assert_eq!(
        unwaived_of("r2_socket_deadlines_violating.rs", "socket_deadlines"),
        1
    );
}

#[test]
fn r2_accepts_clean_fixture() {
    assert_clean("r2_socket_deadlines_clean.rs");
}

#[test]
fn r3_catches_violating_fixture() {
    // Both the turbofish and the bare channel() forms.
    assert_eq!(
        unwaived_of("r3_bounded_channels_violating.rs", "bounded_channels"),
        2
    );
}

#[test]
fn r3_accepts_clean_fixture() {
    assert_clean("r3_bounded_channels_clean.rs");
}

#[test]
fn w0_catches_stale_waivers() {
    // A waiver over a bound spawn handle and one trailing code that no
    // longer panics: both suppress nothing.
    let stale: Vec<_> = lint_fixture("w0_stale_waiver_violating.rs")
        .into_iter()
        .filter(|v| v.rule.name == "waiver_syntax")
        .collect();
    assert_eq!(stale.len(), 2, "{stale:#?}");
    assert!(stale
        .iter()
        .all(|v| v.waived.is_none() && v.message.contains("suppresses no violation")));
    assert_eq!(
        stale.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![8, 16]
    );
}

#[test]
fn r4_catches_violating_fixture() {
    // Plain discard, builder-chain discard, and `let _ =` discard.
    assert_eq!(
        unwaived_of("r4_join_or_detach_violating.rs", "join_or_detach"),
        3
    );
}

#[test]
fn r4_accepts_clean_fixture() {
    assert_clean("r4_join_or_detach_clean.rs");
}

#[test]
fn r5_catches_violating_fixture() {
    assert_eq!(
        unwaived_of("r5_codec_symmetry_violating.rs", "codec_symmetry"),
        1
    );
}

#[test]
fn r5_accepts_clean_fixture() {
    assert_clean("r5_codec_symmetry_clean.rs");
}

#[test]
fn r6_catches_violating_fixture() {
    assert_eq!(
        unwaived_of("r6_bounded_retry_violating.rs", "bounded_retry"),
        1
    );
}

#[test]
fn r6_accepts_clean_fixture() {
    assert_clean("r6_bounded_retry_clean.rs");
}

#[test]
fn violating_fixtures_flag_only_their_own_rule() {
    for (fixture, rule) in [
        ("r2_socket_deadlines_violating.rs", "socket_deadlines"),
        ("r3_bounded_channels_violating.rs", "bounded_channels"),
        ("r5_codec_symmetry_violating.rs", "codec_symmetry"),
        ("r6_bounded_retry_violating.rs", "bounded_retry"),
    ] {
        let stray: Vec<_> = lint_fixture(fixture)
            .into_iter()
            .filter(|v| v.waived.is_none() && v.rule.name != rule)
            .collect();
        assert!(stray.is_empty(), "{fixture} leaked other rules: {stray:#?}");
    }
}
