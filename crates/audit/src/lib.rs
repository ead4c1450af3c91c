//! Workspace invariant auditor — the project's own rules.
//!
//! A dependency-free analysis pass over the workspace's Rust sources. A
//! hand-rolled lossless lexer ([`lexer`]) feeds a rule pack ([`rules`])
//! of line-pattern and token-window rules; [`engine`] holds the findings
//! and the allow markers. Generic hygiene (no `unwrap`, no production
//! `panic!`, lossy casts, undocumented items, the disallowed
//! `catch_unwind`, `process::exit`, `f64::total_cmp` and `Rc`) is
//! clippy's job: see `[workspace.lints]` in the root `Cargo.toml` and the
//! root `clippy.toml`. What is left states invariants only this project
//! has, plus `float-cmp`, which clippy cannot express.
//!
//! ## Rules
//!
//! In the DP hot-path crates (`core`, `curves`, `ptree`, `lttree`,
//! `vanginneken`, plus `trace`, whose RAII guards run inside every
//! instrumented hot loop, and `audit` itself):
//!
//! * `empty-expect` — `.expect("")` explains nothing,
//! * `float-eq` — no `==` against float literals outside tests,
//! * `float-cmp` — no raw `.partial_cmp(` call, tests included: order
//!   delays through the `merlin_tech::units` helpers (clippy rejects the
//!   `f64::total_cmp` half),
//! * `push-without-prune` — a function that pushes `CurvePoint`s must
//!   also reach a `prune()` call (every curve operator ends in a
//!   Definition-6 prune).
//!
//! Rules targeting the bug classes this repo has actually shipped:
//!
//! * `unchecked-arith` — bare subtraction on `len()`/count/index
//!   expressions with no `saturating_`/`checked_` call or emptiness
//!   guard (the PR 5 empty-buffer-library underflow),
//! * `duration-arith` — unclamped `Duration` multiplication/addition in
//!   the retry/backoff crates (the PR 5 `backoff` overflow panic),
//! * `atomic-ordering` — every atomic access names an explicit
//!   `Ordering`; `SeqCst` in the DP hot path is flagged,
//! * `panic-in-drop` — no panicking call inside `impl Drop`, anywhere,
//!   tests included (the trace collector's fallible-TLS discipline),
//! * `trace-name-registry` — every `merlin_trace` span/counter/histogram
//!   name used in code appears in the `docs/OBSERVABILITY.md` registry
//!   and vice versa.
//!
//! ## Allow markers
//!
//! A finding can be suppressed in place with `// audit:allow(<rule>)` on
//! the offending line, the comment lines directly above it, or above the
//! attribute stack (`#[derive(...)]`, `#[cfg(...)]`) of the offending
//! item. A marker that suppresses nothing is itself a finding
//! (`stale-allow`). There is no baseline: any finding fails the audit.

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{collect_allow_markers, AllowMarker, Violation};
pub use lexer::{lex, sanitize_source, TokKind, Token};
pub use rules::{
    is_dp_crate_path, is_trace_name_shaped, parse_trace_registry, DP_CRATE_PREFIXES,
    RULE_ATOMIC_ORDERING, RULE_DURATION_ARITH, RULE_EMPTY_EXPECT, RULE_FLOAT_CMP, RULE_FLOAT_EQ,
    RULE_PANIC_IN_DROP, RULE_PUSH_WITHOUT_PRUNE, RULE_STALE_ALLOW, RULE_TRACE_NAME_REGISTRY,
    RULE_UNCHECKED_ARITH,
};

use std::collections::BTreeSet;

/// Audits a set of files as one workspace.
///
/// `files` holds `(workspace-relative path, source text)` pairs.
/// `registry_doc`, when present, is the `(path, text)` of the
/// observability catalog; it enables the global `trace-name-registry`
/// rule. Findings come back allow-filtered and sorted by
/// `(path, line, rule)`; unused `audit:allow` markers surface as
/// `stale-allow` findings.
pub fn audit_files(
    files: &[(String, String)],
    registry_doc: Option<(&str, &str)>,
) -> Vec<Violation> {
    struct FileState<'a> {
        path: &'a str,
        src: &'a str,
        markers: Vec<AllowMarker>,
        findings: Vec<Violation>,
    }

    let mut states: Vec<FileState<'_>> = Vec::with_capacity(files.len());
    // (state index, line, name) of precise trace-emit call sites.
    let mut call_sites: Vec<(usize, usize, String)> = Vec::new();
    // Every trace-name-shaped literal seen anywhere in non-test code.
    let mut mentioned: BTreeSet<String> = BTreeSet::new();

    for (path, src) in files {
        let tokens = lex(src);
        let raw_lines: Vec<&str> = src.lines().collect();
        let sanitized = sanitize_source(src);
        let code_lines: Vec<String> = sanitized.lines().map(str::to_owned).collect();

        let (mut findings, in_test) = rules::line_rules(path, &raw_lines, &code_lines);
        let ctoks = rules::code_tokens(src, &tokens);
        rules::rule_unchecked_arith(path, &raw_lines, &ctoks, &in_test, &mut findings);
        rules::rule_duration_arith(path, &raw_lines, &ctoks, &in_test, &mut findings);
        rules::rule_atomic_ordering(path, &raw_lines, &ctoks, &in_test, &mut findings);
        rules::rule_panic_in_drop(path, &raw_lines, &ctoks, &mut findings);

        if registry_doc.is_some() {
            if let Some(names) = rules::collect_trace_names(path, &ctoks, &in_test) {
                for (line, name) in names.call_sites {
                    mentioned.insert(name.clone());
                    call_sites.push((states.len(), line, name));
                }
                mentioned.extend(names.mentioned);
            }
        }

        let markers = collect_allow_markers(src, &tokens);
        states.push(FileState {
            path,
            src,
            markers,
            findings,
        });
    }

    let mut all: Vec<Violation> = Vec::new();

    if let Some((doc_path, doc_text)) = registry_doc {
        let registry = parse_trace_registry(doc_text);
        let registered: BTreeSet<&str> = registry.iter().map(|(_, n)| n.as_str()).collect();
        for (sidx, line, name) in &call_sites {
            if !registered.contains(name.as_str()) {
                let path = states[*sidx].path.to_owned();
                states[*sidx].findings.push(Violation {
                    rule: RULE_TRACE_NAME_REGISTRY,
                    path,
                    line: *line,
                    snippet: format!("trace name `{name}` missing from the registry"),
                });
            }
        }
        for (doc_line, name) in &registry {
            if !mentioned.contains(name) {
                all.push(Violation {
                    rule: RULE_TRACE_NAME_REGISTRY,
                    path: doc_path.to_owned(),
                    line: *doc_line,
                    snippet: format!("registry name `{name}` is not emitted anywhere in code"),
                });
            }
        }
    }

    for mut st in states {
        let raw_lines: Vec<&str> = st.src.lines().collect();
        for v in st.findings {
            if !engine::is_allowed(v.rule, &raw_lines, &mut st.markers, v.line) {
                all.push(v);
            }
        }
        all.extend(st.markers.iter().filter(|m| !m.used).map(|m| Violation {
            rule: RULE_STALE_ALLOW,
            path: st.path.to_owned(),
            line: m.line,
            snippet: format!("audit:allow({}) suppresses nothing", m.rule),
        }));
    }

    all.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    all
}

/// Scans one file's source text and returns every rule finding.
///
/// `path` must be workspace-relative with forward slashes. This is the
/// single-file convenience wrapper over [`audit_files`]; the global
/// `trace-name-registry` rule does not run here.
pub fn scan_source(path: &str, source: &str) -> Vec<Violation> {
    audit_files(&[(path.to_owned(), source.to_owned())], None)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DP: &str = "crates/core/src/fixture.rs";

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn trace_crate_gets_full_hygiene() {
        assert!(is_dp_crate_path("crates/trace/src/lib.rs"));
        // The sanctioned collector pattern — fallible TLS access inside a
        // Drop impl — is clean under every rule; a panicking Drop is not.
        let ok = "impl Drop for SpanGuard {\n\
                  \x20   fn drop(&mut self) {\n\
                  \x20       let _ = COLLECTOR.try_with(|c| c.try_borrow_mut().ok().map(|_| ()));\n\
                  \x20   }\n\
                  }\n";
        assert!(scan_source("crates/trace/src/lib.rs", ok).is_empty());
        let bad = "impl Drop for SpanGuard {\n\
                   \x20   fn drop(&mut self) {\n\
                   \x20       COLLECTOR.with(|c| c.borrow_mut()).expect(\"\");\n\
                   \x20   }\n\
                   }\n";
        // `empty-expect` plus one `panic-in-drop` per panicking call
        // (`with`, `borrow_mut`, `expect`).
        assert_eq!(
            rules_of(&scan_source("crates/trace/src/lib.rs", bad)),
            vec![
                RULE_EMPTY_EXPECT,
                RULE_PANIC_IN_DROP,
                RULE_PANIC_IN_DROP,
                RULE_PANIC_IN_DROP
            ]
        );
    }

    #[test]
    fn non_dp_crate_is_exempt() {
        let src = "fn f() { x.expect(\"\"); if y == 0.0 { z(); } a.partial_cmp(&b); }\n";
        assert!(scan_source("crates/geom/src/fixture.rs", src).is_empty());
    }

    #[test]
    fn empty_expect_flagged() {
        let src = "fn f() { x.expect(\"\"); }\n";
        assert_eq!(rules_of(&scan_source(DP, src)), vec![RULE_EMPTY_EXPECT]);
    }

    #[test]
    fn nonempty_expect_ok() {
        let src = "fn f() { x.expect(\"queue is non-empty by loop guard\"); }\n";
        assert!(scan_source(DP, src).is_empty());
    }

    #[test]
    fn empty_expect_in_string_not_flagged() {
        let src = "fn f() { let m = \"please .expect(\\\"\\\") me\"; }\n";
        assert!(scan_source(DP, src).is_empty());
    }

    #[test]
    fn float_cmp_flagged() {
        let src = "fn f() { a.partial_cmp(&b); }\n";
        assert_eq!(rules_of(&scan_source(DP, src)), vec![RULE_FLOAT_CMP]);
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn t() { a.partial_cmp(&b).expect(\"finite\"); }\n}\n";
        assert_eq!(rules_of(&scan_source(DP, in_test)), vec![RULE_FLOAT_CMP]);
        let impl_src = "impl PartialOrd for P {\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None }\n}\n";
        assert!(scan_source(DP, impl_src).is_empty());
    }

    #[test]
    fn float_eq_flagged_outside_tests() {
        let src = "fn f() { if x == 0.0 { y(); } }\n";
        assert_eq!(rules_of(&scan_source(DP, src)), vec![RULE_FLOAT_EQ]);
        let src2 = "fn f() { if 1.5 != x { y(); } }\n";
        assert_eq!(rules_of(&scan_source(DP, src2)), vec![RULE_FLOAT_EQ]);
        let int_src = "fn f() { if x == 0 { y(); } }\n";
        assert!(scan_source(DP, int_src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { assert!(x == 0.0); }\n}\n";
        assert!(scan_source(DP, test_src).is_empty());
    }

    #[test]
    fn push_without_prune_flagged() {
        let src = "fn f(c: &mut Curve) {\n    c.push(CurvePoint::new(1, 2.0, 3, p));\n}\n";
        assert_eq!(
            rules_of(&scan_source(DP, src)),
            vec![RULE_PUSH_WITHOUT_PRUNE]
        );
    }

    #[test]
    fn push_with_prune_in_same_fn_ok() {
        let src =
            "fn f(c: &mut Curve) {\n    c.push(CurvePoint::new(1, 2.0, 3, p));\n    c.prune();\n}\n";
        assert!(scan_source(DP, src).is_empty());
    }

    #[test]
    fn push_in_test_code_ok() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(c: &mut Curve) { c.push(CurvePoint::new(1, 2.0, 3, p)); }\n}\n";
        assert!(scan_source(DP, src).is_empty());
        // Compound `#[cfg(all(test, ...))]` modules count as test code too.
        let compound = "#[cfg(all(test, feature = \"fault-inject\"))]\nmod tests {\n    fn t(c: &mut Curve) { c.push(CurvePoint::new(1, 2.0, 3, p)); }\n}\n";
        assert!(scan_source(DP, compound).is_empty());
    }

    #[test]
    fn integration_test_files_are_test_code() {
        let src = "fn helper() { assert!(x == 0.5); }\n\
                   #[test]\nfn t(c: &mut Curve) { c.push(CurvePoint::new(1, 2.0, 3, p)); }\n";
        assert!(scan_source("crates/curves/tests/props.rs", src).is_empty());
        // ... but an empty expect is still flagged there.
        let empty = "#[test]\nfn t() { x.expect(\"\"); }\n";
        assert_eq!(
            rules_of(&scan_source("crates/curves/tests/props.rs", empty)),
            vec![RULE_EMPTY_EXPECT]
        );
    }

    #[test]
    fn allow_marker_suppresses_same_line_and_preceding_line() {
        let same = "fn f() { x.expect(\"\"); } // audit:allow(empty-expect)\n";
        assert!(scan_source(DP, same).is_empty());
        let above = "// audit:allow(float-eq): exact sentinel\nfn f() { if x == 0.0 { y(); } }\n";
        assert!(scan_source(DP, above).is_empty());
        // A marker for the wrong rule suppresses nothing: the original
        // finding survives and the marker is reported stale.
        let wrong_rule = "// audit:allow(empty-expect)\nfn f() { if x == 0.0 { y(); } }\n";
        assert_eq!(
            rules_of(&scan_source(DP, wrong_rule)),
            vec![RULE_STALE_ALLOW, RULE_FLOAT_EQ]
        );
    }

    #[test]
    fn allow_marker_respected_above_attribute_stack() {
        let src = "// audit:allow(float-eq): exact sentinel\n\
                   #[inline]\n\
                   #[cfg(feature = \"strict\")]\n\
                   fn f() { if x == 0.0 { y(); } }\n";
        // The attribute stack sits between the marker and the finding
        // line; the marker must still bind.
        assert!(scan_source(DP, src).is_empty());
    }

    #[test]
    fn stale_allow_reported_for_unused_marker() {
        let src = "// audit:allow(float-eq): removed long ago\nfn f() { let x = 1; }\n";
        let got = scan_source(DP, src);
        assert_eq!(rules_of(&got), vec![RULE_STALE_ALLOW]);
        assert_eq!(got[0].line, 1);
    }

    #[test]
    fn token_rules_fire_through_scan_source() {
        let arith = "fn f(v: &[u32]) -> usize {\n    v.len() - 1\n}\n";
        assert_eq!(
            rules_of(&scan_source("crates/tech/src/fixture.rs", arith)),
            vec![RULE_UNCHECKED_ARITH]
        );
        let dur = "fn f(d: Duration) -> Duration {\n    d.mul_f64(2.0)\n}\n";
        assert_eq!(
            rules_of(&scan_source("crates/resilience/src/fixture.rs", dur)),
            vec![RULE_DURATION_ARITH]
        );
    }

    #[test]
    fn trace_registry_rule_both_directions() {
        let code = "fn run() {\n    merlin_trace::counter(\"core.construct.calls\", 1);\n    \
                    let _g = merlin_trace::span!(\"core.unregistered.name\");\n}\n";
        let doc = "<!-- trace-name-registry:begin -->\n\
                   core.construct.calls\n\
                   core.never.emitted\n\
                   <!-- trace-name-registry:end -->\n";
        let files = vec![("crates/flows/src/fixture.rs".to_owned(), code.to_owned())];
        let got = audit_files(&files, Some(("docs/OBSERVABILITY.md", doc)));
        let regs: Vec<&Violation> = got
            .iter()
            .filter(|v| v.rule == RULE_TRACE_NAME_REGISTRY)
            .collect();
        assert_eq!(regs.len(), 2, "got {got:?}");
        assert!(regs.iter().any(
            |v| v.path.ends_with("fixture.rs") && v.snippet.contains("core.unregistered.name")
        ));
        assert!(
            regs.iter()
                .any(|v| v.path == "docs/OBSERVABILITY.md"
                    && v.snippet.contains("core.never.emitted"))
        );
    }

    #[test]
    fn trace_registry_accepts_indirect_mentions() {
        // Names routed through locals/tuples (the flow-column emitter
        // pattern) count as mentioned, so the docs direction stays quiet.
        let code = "fn cols() -> (&'static str, u64) {\n    (\"flows.flow3.runs\", 1)\n}\n";
        let doc = "<!-- trace-name-registry:begin -->\n\
                   flows.flow3.runs\n\
                   <!-- trace-name-registry:end -->\n";
        let files = vec![("crates/flows/src/fixture.rs".to_owned(), code.to_owned())];
        let got = audit_files(&files, Some(("docs/OBSERVABILITY.md", doc)));
        assert!(got.is_empty(), "got {got:?}");
    }
}
