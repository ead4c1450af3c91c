//! The rule pack: line-pattern rules over the lexer's sanitized view and
//! token-window rules targeting the overflow/concurrency bug classes this
//! repo has actually shipped.

use std::collections::HashSet;

use crate::engine::Violation;
use crate::lexer::{TokKind, Token};

/// Rule name: `.expect("")` with an empty message.
pub const RULE_EMPTY_EXPECT: &str = "empty-expect";
/// Rule name: `==` against a float literal outside tests.
pub const RULE_FLOAT_EQ: &str = "float-eq";
/// Rule name: a raw `partial_cmp` call instead of the units helpers
/// (clippy's `disallowed-methods` covers `f64::total_cmp` but cannot name
/// a trait method for one type).
pub const RULE_FLOAT_CMP: &str = "float-cmp";
/// Rule name: `CurvePoint` pushes with no reachable `prune()` in the same
/// function.
pub const RULE_PUSH_WITHOUT_PRUNE: &str = "push-without-prune";
/// Rule name: unguarded `len()`/count subtraction that can underflow.
pub const RULE_UNCHECKED_ARITH: &str = "unchecked-arith";
/// Rule name: unclamped `Duration` multiplication/addition in retry and
/// backoff paths.
pub const RULE_DURATION_ARITH: &str = "duration-arith";
/// Rule name: atomic access without an explicit `Ordering`, or `SeqCst`
/// in the DP hot path.
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule name: panicking call inside an `impl Drop`.
pub const RULE_PANIC_IN_DROP: &str = "panic-in-drop";
/// Rule name: trace name used in code but missing from the
/// `docs/OBSERVABILITY.md` registry, or vice versa.
pub const RULE_TRACE_NAME_REGISTRY: &str = "trace-name-registry";
/// Rule name: an `audit:allow` marker that suppresses nothing.
pub const RULE_STALE_ALLOW: &str = "stale-allow";

/// Workspace-relative path prefixes of the crates under the
/// `empty-expect`, `float-eq`, `float-cmp` and `push-without-prune`
/// rules: the DP hot-path crates, `crates/trace/` (its RAII guards run
/// inside every instrumented hot loop) and `crates/audit/` itself. The
/// same crates opt into the root `[workspace.lints]`.
pub const DP_CRATE_PREFIXES: &[&str] = &[
    "crates/core/",
    "crates/curves/",
    "crates/ptree/",
    "crates/lttree/",
    "crates/vanginneken/",
    "crates/trace/",
    "crates/audit/",
];

/// Crates whose arithmetic feeds the DP's index/length math; the
/// `unchecked-arith` rule applies here (the buffer-library container in
/// `crates/tech/` is included — PR 5's `len() - 1` underflow lived on the
/// core/tech seam).
pub const UNCHECKED_ARITH_PREFIXES: &[&str] = &[
    "crates/core/",
    "crates/curves/",
    "crates/ptree/",
    "crates/lttree/",
    "crates/vanginneken/",
    "crates/trace/",
    "crates/audit/",
    "crates/tech/",
];

/// Retry/backoff crates where the `duration-arith` rule applies.
pub const DURATION_ARITH_PREFIXES: &[&str] = &["crates/resilience/", "crates/supervisor/"];

/// Hot-path crates where `Ordering::SeqCst` is flagged (a fence on every
/// DP iteration).
pub const HOT_PATH_PREFIXES: &[&str] = &["crates/core/", "crates/curves/"];

/// Crates excluded from trace-name collection: the collector itself uses
/// synthetic names, and the auditor's own fixtures would self-trip.
pub const TRACE_NAME_EXEMPT_PREFIXES: &[&str] = &["crates/trace/", "crates/audit/"];

/// Whether `path` (workspace-relative, forward slashes) belongs to a DP
/// hot-path crate.
pub fn is_dp_crate_path(path: &str) -> bool {
    DP_CRATE_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn has_prefix(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// A non-trivia token projected for rule matching: kind, lexeme, line.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CTok<'a> {
    pub kind: TokKind,
    pub text: &'a str,
    pub line: usize,
}

/// Projects the lossless token stream onto code tokens only.
pub(crate) fn code_tokens<'a>(src: &'a str, tokens: &[Token]) -> Vec<CTok<'a>> {
    tokens
        .iter()
        .filter(|t| !t.kind.is_trivia())
        .map(|t| CTok {
            kind: t.kind,
            text: t.text(src),
            line: t.line,
        })
        .collect()
}

fn is_punct(t: Option<&CTok<'_>>, c: &str) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Punct && t.text == c)
}

fn is_ident(t: Option<&CTok<'_>>, name: &str) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
}

fn ident_in(t: Option<&CTok<'_>>, names: &[&str]) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Ident && names.contains(&t.text))
}

/// Statement window around token `i`: back to just past the nearest
/// `;`/`{`/`}`, forward to the nearest `;`/`{`/`}` (exclusive), both
/// bounded so a pathological file stays linear.
fn stmt_bounds(toks: &[CTok<'_>], i: usize) -> (usize, usize) {
    const LIMIT: usize = 160;
    let mut lo = i;
    while lo > 0 && i - lo < LIMIT {
        let t = &toks[lo - 1];
        if t.kind == TokKind::Punct && matches!(t.text, ";" | "{" | "}") {
            break;
        }
        lo -= 1;
    }
    let mut hi = i;
    while hi + 1 < toks.len() && hi - i < LIMIT {
        let t = &toks[hi + 1];
        if t.kind == TokKind::Punct && matches!(t.text, ";" | "{" | "}") {
            break;
        }
        hi += 1;
    }
    (lo, hi)
}

fn window_has_ident(toks: &[CTok<'_>], lo: usize, hi: usize, names: &[&str]) -> bool {
    toks.iter()
        .take(hi.saturating_add(1))
        .skip(lo)
        .any(|t| t.kind == TokKind::Ident && names.contains(&t.text))
}

/// Index of the matching `)` for the `(` at `open`, or `None`.
fn matching_paren(toks: &[CTok<'_>], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

fn line_in_test(in_test: &[bool], line: usize) -> bool {
    in_test
        .get(line.saturating_sub(1))
        .copied()
        .unwrap_or(false)
}

fn finding(rule: &'static str, path: &str, raw_lines: &[&str], line: usize) -> Violation {
    Violation {
        rule,
        path: path.to_owned(),
        line,
        snippet: raw_lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default(),
    }
}

// ---------------------------------------------------------------------------
// Line rules (a per-line state machine fed by the lexer's sanitized view).
// ---------------------------------------------------------------------------

/// Whether `code` contains `==` or `!=` adjacent to a float literal.
fn has_float_literal_eq(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, w) in bytes.windows(2).enumerate() {
        if (w == b"==" || w == b"!=")
            && bytes.get(i.wrapping_sub(1)) != Some(&b'=')
            && bytes.get(i + 2) != Some(&b'=')
        {
            let left = code[..i].trim_end();
            let right = code[i + 2..].trim_start();
            if ends_with_float_literal(left) || starts_with_float_literal(right) {
                return true;
            }
        }
    }
    false
}

fn starts_with_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let mut saw_digit = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            saw_digit = true;
        } else if c == '.' && saw_digit {
            return true;
        } else if c == '_' && saw_digit {
            continue;
        } else {
            return false;
        }
    }
    false
}

fn ends_with_float_literal(s: &str) -> bool {
    let mut saw_digit = false;
    for c in s.chars().rev() {
        if c.is_ascii_digit() {
            saw_digit = true;
        } else if c == '.' && saw_digit {
            return true;
        } else if c == '_' && saw_digit {
            continue;
        } else {
            return false;
        }
    }
    false
}

/// Whether the sanitized line introduces a function definition.
fn is_fn_def(code: &str) -> bool {
    let t = code.trim_start();
    for prefix in ["fn ", "pub fn ", "async fn ", "const fn ", "unsafe fn "] {
        if t.starts_with(prefix) {
            return true;
        }
    }
    if let Some(pos) = code.find("fn ") {
        let before = code[..pos].trim();
        if before.is_empty() {
            return true;
        }
        let ok = before.split_whitespace().all(|w| {
            w == "pub"
                || w.starts_with("pub(")
                || w == "const"
                || w == "async"
                || w == "unsafe"
                || w.starts_with("extern")
        });
        return ok && (code[pos + 3..].contains('(') || code[pos + 3..].is_empty());
    }
    false
}

struct FnFrame {
    depth: usize,
    push_lines: Vec<usize>,
    has_prune: bool,
}

#[allow(clippy::too_many_arguments)]
fn track_braces(
    code: &str,
    depth: &mut usize,
    test_stack: &mut Vec<usize>,
    pending_test_attr: &mut bool,
    pending_fn: &mut bool,
    fn_stack: &mut Vec<FnFrame>,
    resolved_pushes: &mut HashSet<usize>,
) {
    for c in code.chars() {
        match c {
            '{' => {
                if *pending_test_attr {
                    test_stack.push(*depth);
                    *pending_test_attr = false;
                }
                if *pending_fn {
                    fn_stack.push(FnFrame {
                        depth: *depth,
                        push_lines: Vec::new(),
                        has_prune: false,
                    });
                    *pending_fn = false;
                }
                *depth += 1;
            }
            '}' => {
                *depth = depth.saturating_sub(1);
                if test_stack.last() == Some(depth) {
                    test_stack.pop();
                }
                while fn_stack.last().map(|f| f.depth) == Some(*depth) {
                    let frame = fn_stack.pop().expect("frame checked above");
                    if frame.has_prune {
                        resolved_pushes.extend(frame.push_lines);
                    }
                }
            }
            ';' => {
                *pending_fn = false;
            }
            _ => {}
        }
    }
}

/// Runs the line-pattern rules over the sanitized view, and returns
/// `(raw findings, per-line in-test flags)`. Findings are *unfiltered*:
/// allow-marker suppression happens centrally in the engine so stale
/// markers can be detected.
pub(crate) fn line_rules(
    path: &str,
    raw_lines: &[&str],
    code_lines: &[String],
) -> (Vec<Violation>, Vec<bool>) {
    let full = is_dp_crate_path(path);
    let whole_file_is_test = path.contains("/tests/") || path.contains("/benches/");

    let mut violations = Vec::new();
    let mut in_test_flags = vec![whole_file_is_test; raw_lines.len()];
    let mut depth: usize = 0;
    let mut test_stack: Vec<usize> = Vec::new();
    let mut pending_test_attr = false;
    let mut pending_fn = false;
    let mut fn_stack: Vec<FnFrame> = Vec::new();
    let mut resolved_pushes: HashSet<usize> = HashSet::new();
    let mut all_pushes: Vec<(usize, bool)> = Vec::new();

    for (idx, code) in code_lines.iter().enumerate() {
        let in_test = whole_file_is_test || !test_stack.is_empty();
        in_test_flags[idx] = in_test;

        if code.contains("#[cfg(test)]") || code.contains("cfg(all(test") {
            pending_test_attr = true;
        }
        if is_fn_def(code) {
            pending_fn = true;
        }

        if full {
            if code.contains(".expect(") && raw_lines[idx].contains(".expect(\"\")") {
                violations.push(finding(RULE_EMPTY_EXPECT, path, raw_lines, idx + 1));
            }
            if !in_test && has_float_literal_eq(code) {
                violations.push(finding(RULE_FLOAT_EQ, path, raw_lines, idx + 1));
            }
            if code.contains(".partial_cmp(") {
                violations.push(finding(RULE_FLOAT_CMP, path, raw_lines, idx + 1));
            }
            if code.contains(".push(CurvePoint") {
                for frame in &mut fn_stack {
                    frame.push_lines.push(idx);
                }
                all_pushes.push((idx, in_test));
            }
            if code.contains("prune(") {
                for frame in &mut fn_stack {
                    frame.has_prune = true;
                }
            }
        }
        track_braces(
            code,
            &mut depth,
            &mut test_stack,
            &mut pending_test_attr,
            &mut pending_fn,
            &mut fn_stack,
            &mut resolved_pushes,
        );
    }
    for frame in fn_stack {
        if frame.has_prune {
            resolved_pushes.extend(frame.push_lines);
        }
    }
    for (idx, in_test) in all_pushes {
        if !in_test && !resolved_pushes.contains(&idx) {
            violations.push(finding(RULE_PUSH_WITHOUT_PRUNE, path, raw_lines, idx + 1));
        }
    }
    (violations, in_test_flags)
}

// ---------------------------------------------------------------------------
// Token-window semantic rules.
// ---------------------------------------------------------------------------

/// Idents whose presence in the statement window marks a subtraction as
/// guarded (the arithmetic is explicit about the empty case).
const SUB_GUARDS: &[&str] = &[
    "saturating_sub",
    "checked_sub",
    "wrapping_sub",
    "saturating_add",
    "checked_add",
    "max",
];

/// How many lines above a `len() - …` site an emptiness guard
/// (`is_empty`, `len() >`, `len() !=` …) still counts as covering it.
const GUARD_LOOKBACK_LINES: usize = 14;

/// `unchecked-arith`: bare subtraction on `len()`/`count()` calls or
/// count/index-named locals, with no saturating/checked call in the
/// statement and no emptiness guard in the preceding window — the
/// PR 5 `len() - 1`-on-empty-library underflow class.
pub(crate) fn rule_unchecked_arith(
    path: &str,
    raw_lines: &[&str],
    toks: &[CTok<'_>],
    in_test: &[bool],
    out: &mut Vec<Violation>,
) {
    if !has_prefix(path, UNCHECKED_ARITH_PREFIXES) {
        return;
    }
    let guarded_above = |line: usize, ident: Option<&str>| -> bool {
        let lo = line.saturating_sub(GUARD_LOOKBACK_LINES);
        for (j, t) in toks.iter().enumerate() {
            if t.line < lo || t.line >= line {
                continue;
            }
            if t.kind == TokKind::Ident && t.text == "is_empty" {
                return true;
            }
            // `len() >`, `len() >=`, `len() !=`, `len() <` comparisons.
            if t.kind == TokKind::Ident
                && (t.text == "len" || t.text == "count")
                && is_punct(toks.get(j + 1), "(")
                && is_punct(toks.get(j + 2), ")")
                && toks.get(j + 3).is_some_and(|n| {
                    n.kind == TokKind::Punct && matches!(n.text, ">" | "<" | "!" | "=")
                })
            {
                return true;
            }
            // A comparison on the subtracted ident itself (`if idx == 0`,
            // `if idx > 0`, `idx != 0` …) dominates the subtraction.
            if let Some(name) = ident {
                if t.kind == TokKind::Ident
                    && t.text == name
                    && toks.get(j + 1).is_some_and(|n| {
                        n.kind == TokKind::Punct && matches!(n.text, ">" | "<" | "!" | "=")
                    })
                {
                    return true;
                }
            }
        }
        false
    };
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let mut hit_line = None;
        let mut hit_ident: Option<&str> = None;
        // `.len() - …` / `.count() - …` (excluding `->` arrows).
        if t.kind == TokKind::Punct
            && t.text == "."
            && ident_in(toks.get(i + 1), &["len", "count"])
            && is_punct(toks.get(i + 2), "(")
            && is_punct(toks.get(i + 3), ")")
            && is_punct(toks.get(i + 4), "-")
            && !is_punct(toks.get(i + 5), ">")
            && !is_punct(toks.get(i + 5), "=")
        {
            hit_line = Some(toks[i + 1].line);
        }
        // `<count-ish ident> - 1`.
        if hit_line.is_none()
            && t.kind == TokKind::Ident
            && (t.text.ends_with("count")
                || t.text.ends_with("idx")
                || t.text.ends_with("index")
                || t.text == "n_sinks")
            && is_punct(toks.get(i + 1), "-")
            && toks
                .get(i + 2)
                .is_some_and(|n| n.kind == TokKind::Int && n.text == "1")
        {
            hit_line = Some(t.line);
            hit_ident = Some(t.text);
        }
        if let Some(line) = hit_line {
            if !line_in_test(in_test, line) {
                let (lo, hi) = stmt_bounds(toks, i);
                if !window_has_ident(toks, lo, hi, SUB_GUARDS) && !guarded_above(line, hit_ident) {
                    out.push(finding(RULE_UNCHECKED_ARITH, path, raw_lines, line));
                }
            }
        }
        i += 1;
    }
}

/// Idents that mark Duration arithmetic as capped.
const DURATION_GUARDS: &[&str] = &[
    "min",
    "clamp",
    "checked_mul",
    "saturating_mul",
    "checked_add",
    "saturating_add",
];

/// `duration-arith`: `Duration::mul_f64`-family calls, or arithmetic
/// directly on a `Duration::from_*` constructor, with no cap in the
/// statement — the PR 5 `RetryPolicy::backoff` overflow-panic class.
pub(crate) fn rule_duration_arith(
    path: &str,
    raw_lines: &[&str],
    toks: &[CTok<'_>],
    in_test: &[bool],
    out: &mut Vec<Violation>,
) {
    if !has_prefix(path, DURATION_ARITH_PREFIXES) {
        return;
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        let mut hit_line = None;
        // `.mul_f64(` / `.mul_f32(`.
        if t.kind == TokKind::Punct
            && t.text == "."
            && ident_in(toks.get(i + 1), &["mul_f64", "mul_f32"])
            && is_punct(toks.get(i + 2), "(")
        {
            hit_line = Some(toks[i + 1].line);
        }
        // `Duration::from_*(…) *` / `… +`.
        if hit_line.is_none()
            && t.kind == TokKind::Ident
            && t.text == "Duration"
            && is_punct(toks.get(i + 1), ":")
            && is_punct(toks.get(i + 2), ":")
            && toks
                .get(i + 3)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text.starts_with("from_"))
            && is_punct(toks.get(i + 4), "(")
        {
            if let Some(close) = matching_paren(toks, i + 4) {
                if toks
                    .get(close + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && matches!(n.text, "*" | "+"))
                {
                    hit_line = Some(t.line);
                }
            }
        }
        if let Some(line) = hit_line {
            if !line_in_test(in_test, line) {
                let (lo, hi) = stmt_bounds(toks, i);
                if !window_has_ident(toks, lo, hi, DURATION_GUARDS) {
                    out.push(finding(RULE_DURATION_ARITH, path, raw_lines, line));
                }
            }
        }
    }
}

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];
const ORDERING_NAMES: &[&str] = &[
    "Ordering", "Relaxed", "Acquire", "Release", "AcqRel", "SeqCst",
];

/// `atomic-ordering`: in any file that names an `Atomic*` type, every
/// `load`/`store`/`swap`/`fetch_*`/`compare_exchange` call must spell an
/// explicit `Ordering` in its arguments; and `SeqCst` inside the DP
/// hot-path crates is flagged (a full fence per DP iteration needs a
/// written justification via `audit:allow`).
pub(crate) fn rule_atomic_ordering(
    path: &str,
    raw_lines: &[&str],
    toks: &[CTok<'_>],
    in_test: &[bool],
    out: &mut Vec<Violation>,
) {
    let mentions_atomic = toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.starts_with("Atomic"));
    if mentions_atomic {
        for i in 0..toks.len() {
            if !(toks[i].kind == TokKind::Punct
                && toks[i].text == "."
                && ident_in(toks.get(i + 1), ATOMIC_METHODS)
                && is_punct(toks.get(i + 2), "("))
            {
                continue;
            }
            let line = toks[i + 1].line;
            if line_in_test(in_test, line) {
                continue;
            }
            let Some(close) = matching_paren(toks, i + 2) else {
                continue;
            };
            let named = toks[i + 2..=close]
                .iter()
                .any(|t| t.kind == TokKind::Ident && ORDERING_NAMES.contains(&t.text));
            if !named {
                out.push(finding(RULE_ATOMIC_ORDERING, path, raw_lines, line));
            }
        }
    }
    if has_prefix(path, HOT_PATH_PREFIXES) {
        for t in toks {
            if t.kind == TokKind::Ident && t.text == "SeqCst" && !line_in_test(in_test, t.line) {
                out.push(finding(RULE_ATOMIC_ORDERING, path, raw_lines, t.line));
            }
        }
    }
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];
const PANICKY_METHODS: &[&str] = &[
    "unwrap",
    "unwrap_err",
    "expect",
    "expect_err",
    "borrow",
    "borrow_mut",
    "with",
];

/// `panic-in-drop`: no panicking call inside an `impl Drop` block,
/// anywhere in the workspace, tests included — a panic in `Drop` during
/// unwind aborts the process, which is how tracing (or any RAII guard)
/// turns into a crash amplifier. The sanctioned pattern is fallible
/// access: `try_with`, `try_borrow_mut`, `let _ = …`.
pub(crate) fn rule_panic_in_drop(
    path: &str,
    raw_lines: &[&str],
    toks: &[CTok<'_>],
    out: &mut Vec<Violation>,
) {
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "impl") {
            i += 1;
            continue;
        }
        // Scan ahead to the impl body's `{`, checking for `Drop … for`.
        let mut brace = None;
        let mut saw_drop = false;
        let mut saw_for_after_drop = false;
        for (j, t) in toks.iter().enumerate().skip(i + 1).take(39) {
            if t.kind == TokKind::Punct && t.text == "{" {
                brace = Some(j);
                break;
            }
            if t.kind == TokKind::Ident && t.text == "Drop" {
                saw_drop = true;
            } else if saw_drop && t.kind == TokKind::Ident && t.text == "for" {
                saw_for_after_drop = true;
            }
        }
        let Some(open) = brace else {
            i += 1;
            continue;
        };
        if !(saw_drop && saw_for_after_drop) {
            i = open + 1;
            continue;
        }
        // Brace-match to the end of the impl block.
        let mut depth = 0usize;
        let mut end = toks.len();
        for (j, t) in toks.iter().enumerate().skip(open) {
            if t.kind == TokKind::Punct {
                match t.text {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            end = j;
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        for j in open..end {
            let t = &toks[j];
            if t.kind != TokKind::Ident {
                continue;
            }
            let hit = (PANIC_MACROS.contains(&t.text) && is_punct(toks.get(j + 1), "!"))
                || (PANICKY_METHODS.contains(&t.text)
                    && j > 0
                    && is_punct(toks.get(j - 1), ".")
                    && is_punct(toks.get(j + 1), "("));
            if hit {
                out.push(finding(RULE_PANIC_IN_DROP, path, raw_lines, t.line));
            }
        }
        i = end.max(open + 1);
    }
}

// ---------------------------------------------------------------------------
// Trace-name registry (global rule).
// ---------------------------------------------------------------------------

/// Crate-prefix whitelist a trace-name-shaped literal must start with.
const TRACE_NAME_PREFIXES: &[&str] = &[
    "cli.",
    "core.",
    "curves.",
    "flows.",
    "resilience.",
    "server.",
    "supervisor.",
];

/// Whether a string literal's content is shaped like a trace name.
pub fn is_trace_name_shaped(s: &str) -> bool {
    TRACE_NAME_PREFIXES.iter().any(|p| s.starts_with(p))
        && !s.contains("..")
        && !s.ends_with('.')
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_')
}

/// Strips the quotes (and `b`/`r#` fences) off a string-literal lexeme.
pub(crate) fn str_content(lexeme: &str) -> &str {
    let s = lexeme
        .trim_start_matches('b')
        .trim_start_matches('r')
        .trim_start_matches('#');
    let s = s.strip_prefix('"').unwrap_or(s);
    let s = s.trim_end_matches('#');
    s.strip_suffix('"').unwrap_or(s)
}

/// Trace names observed in one file: precise call-site names (the literal
/// is the name argument of `merlin_trace::span!` / `counter` / `observe`)
/// and loosely "mentioned" name-shaped literals (covers names routed
/// through locals/tuples, like the flow-column emitter).
#[derive(Clone, Debug, Default)]
pub struct TraceNames {
    /// `(line, name)` for literals directly at an emit call site.
    pub call_sites: Vec<(usize, String)>,
    /// Every name-shaped string literal in non-test code.
    pub mentioned: Vec<String>,
}

/// Collects trace names from one file's tokens. Returns `None` for files
/// exempt from collection (the trace/bench/audit crates, test code).
pub(crate) fn collect_trace_names(
    path: &str,
    toks: &[CTok<'_>],
    in_test: &[bool],
) -> Option<TraceNames> {
    if has_prefix(path, TRACE_NAME_EXEMPT_PREFIXES) {
        return None;
    }
    if path.contains("/tests/") || path.contains("/benches/") {
        return None;
    }
    let mut names = TraceNames::default();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Str {
            let content = str_content(t.text);
            if !line_in_test(in_test, t.line) && is_trace_name_shaped(content) {
                names.mentioned.push(content.to_owned());
                // Call-site detection: `span ! ( "name"` or
                // `merlin_trace :: counter ( "name"` / `observe ( "name"`.
                let at_call = (i >= 3
                    && is_ident(toks.get(i - 3), "span")
                    && is_punct(toks.get(i - 2), "!")
                    && is_punct(toks.get(i - 1), "("))
                    || (i >= 2
                        && ident_in(toks.get(i - 2), &["counter", "observe"])
                        && is_punct(toks.get(i - 1), "("));
                if at_call {
                    names.call_sites.push((t.line, content.to_owned()));
                }
            }
        }
    }
    Some(names)
}

/// Parses the machine-readable registry block out of
/// `docs/OBSERVABILITY.md`: lines between
/// `<!-- trace-name-registry:begin -->` and
/// `<!-- trace-name-registry:end -->`, ignoring blank lines, fences and
/// comments. Returns `(1-based line, name)` pairs.
pub fn parse_trace_registry(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut inside = false;
    for (i, line) in doc.lines().enumerate() {
        let t = line.trim();
        if t.contains("trace-name-registry:begin") {
            inside = true;
            continue;
        }
        if t.contains("trace-name-registry:end") {
            inside = false;
            continue;
        }
        if inside && !t.is_empty() && !t.starts_with("```") && !t.starts_with('#') {
            out.push((i + 1, t.to_owned()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_name_shape() {
        assert!(is_trace_name_shaped("curves.prune.calls"));
        assert!(is_trace_name_shaped("core.merlin.cycle_breaks"));
        assert!(!is_trace_name_shaped("Curves.prune"));
        assert!(!is_trace_name_shaped("curves..prune"));
        assert!(!is_trace_name_shaped("curves.prune."));
        assert!(!is_trace_name_shaped("not a name"));
        assert!(!is_trace_name_shaped("mycrate.phase"));
    }

    #[test]
    fn str_content_strips_fences() {
        assert_eq!(str_content("\"abc\""), "abc");
        assert_eq!(str_content("r#\"abc\"#"), "abc");
        assert_eq!(str_content("b\"abc\""), "abc");
    }

    #[test]
    fn registry_parse() {
        let doc = "\
intro text
<!-- trace-name-registry:begin -->
```text
cli.solve
core.construct
```
<!-- trace-name-registry:end -->
outro `core.never` text
";
        let names = parse_trace_registry(doc);
        assert_eq!(
            names,
            vec![
                (4, "cli.solve".to_owned()),
                (5, "core.construct".to_owned())
            ]
        );
    }
}
