//! Seeded-violation corpus: every token-level rule has one positive
//! fixture that must fire and one negative fixture that must stay silent
//! for that rule.
//!
//! The fixtures live under `tests/corpus/` — a directory the workspace
//! scan skips, so the seeded violations never reach the real audit —
//! and are scanned here under synthetic paths inside each rule's scope.

use merlin_audit::{
    audit_files, scan_source, Violation, RULE_ATOMIC_ORDERING, RULE_DURATION_ARITH,
    RULE_PANIC_IN_DROP, RULE_TRACE_NAME_REGISTRY, RULE_UNCHECKED_ARITH,
};

fn fires(violations: &[Violation], rule: &str) -> bool {
    violations.iter().any(|v| v.rule == rule)
}

/// Scans the positive and negative fixture of `rule` under `path` and
/// asserts the rule fires on exactly the positive one.
fn check_pair(rule: &str, path: &str, pos: &str, neg: &str) {
    let pos_hits = scan_source(path, pos);
    assert!(
        fires(&pos_hits, rule),
        "{rule}: positive fixture produced no finding at {path}; got {pos_hits:?}"
    );
    let neg_hits = scan_source(path, neg);
    assert!(
        !fires(&neg_hits, rule),
        "{rule}: negative fixture tripped the rule at {path}: {neg_hits:?}"
    );
}

#[test]
fn unchecked_arith_corpus() {
    check_pair(
        RULE_UNCHECKED_ARITH,
        "crates/tech/src/fixture.rs",
        include_str!("corpus/unchecked-arith.pos.rs"),
        include_str!("corpus/unchecked-arith.neg.rs"),
    );
}

#[test]
fn duration_arith_corpus() {
    check_pair(
        RULE_DURATION_ARITH,
        "crates/resilience/src/fixture.rs",
        include_str!("corpus/duration-arith.pos.rs"),
        include_str!("corpus/duration-arith.neg.rs"),
    );
}

#[test]
fn atomic_ordering_corpus() {
    check_pair(
        RULE_ATOMIC_ORDERING,
        "crates/supervisor/src/fixture.rs",
        include_str!("corpus/atomic-ordering.pos.rs"),
        include_str!("corpus/atomic-ordering.neg.rs"),
    );
}

#[test]
fn panic_in_drop_corpus() {
    check_pair(
        RULE_PANIC_IN_DROP,
        "crates/resilience/src/fixture.rs",
        include_str!("corpus/panic-in-drop.pos.rs"),
        include_str!("corpus/panic-in-drop.neg.rs"),
    );
}

#[test]
fn trace_name_registry_corpus() {
    let registry = "<!-- trace-name-registry:begin -->\n\
                    flows.fixture.registered\n\
                    <!-- trace-name-registry:end -->\n";
    let doc = Some(("docs/OBSERVABILITY.md", registry));
    let path = "crates/flows/src/fixture.rs";

    let pos = vec![(
        path.to_owned(),
        include_str!("corpus/trace-name-registry.pos.rs").to_owned(),
    )];
    let pos_hits = audit_files(&pos, doc);
    assert!(
        fires(&pos_hits, RULE_TRACE_NAME_REGISTRY),
        "unregistered call-site name must be flagged; got {pos_hits:?}"
    );

    let neg = vec![(
        path.to_owned(),
        include_str!("corpus/trace-name-registry.neg.rs").to_owned(),
    )];
    let neg_hits = audit_files(&neg, doc);
    assert!(
        !fires(&neg_hits, RULE_TRACE_NAME_REGISTRY),
        "registered name tripped the registry rule: {neg_hits:?}"
    );
}

/// `SeqCst` is a warning only inside the DP hot-path crates; the same
/// source scanned under a supervisor path stays quiet.
#[test]
fn seqcst_flagged_in_hot_path_crates_only() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               /// Publishes the epoch.\n\
               pub fn publish(g: &AtomicU64) {\n    g.store(1, Ordering::SeqCst);\n}\n";
    assert!(fires(
        &scan_source("crates/core/src/fixture.rs", src),
        RULE_ATOMIC_ORDERING
    ));
    assert!(!fires(
        &scan_source("crates/supervisor/src/fixture.rs", src),
        RULE_ATOMIC_ORDERING
    ));
}
