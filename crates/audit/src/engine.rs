//! Rule framework: findings and `// audit:allow(<rule>)` suppression.

use std::fmt;

use crate::lexer::{TokKind, Token};

/// One rule finding at a specific source line.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Rule name (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line for the report.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.snippet
        )
    }
}

/// An `// audit:allow(<rule>)` marker found in a file's comments.
#[derive(Clone, Debug)]
pub struct AllowMarker {
    /// 1-based line the marker comment occupies.
    pub line: usize,
    /// The rule name inside the parentheses (not validated here).
    pub rule: String,
    /// Whether any finding consulted and was suppressed by this marker.
    pub used: bool,
}

/// Extracts every `audit:allow(<rule>)` marker from the comment tokens of
/// a lexed file. Markers outside comments (e.g. inside string literals)
/// are deliberately ignored: an allow must be visible as a comment. Doc
/// comments (`///`, `//!`, `/** */`) are also skipped — prose *describing*
/// the marker syntax is not a suppression.
pub fn collect_allow_markers(src: &str, tokens: &[Token]) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for tok in tokens {
        if !tok.kind.is_comment() {
            continue;
        }
        if matches!(
            tok.kind,
            TokKind::LineComment { doc: true } | TokKind::BlockComment { doc: true }
        ) {
            continue;
        }
        let text = tok.text(src);
        for (off, raw_line) in text.split('\n').enumerate() {
            let line = tok.line + off;
            let mut rest = raw_line;
            while let Some(at) = rest.find("audit:allow(") {
                let tail = &rest[at + "audit:allow(".len()..];
                if let Some(close) = tail.find(')') {
                    out.push(AllowMarker {
                        line,
                        rule: tail[..close].to_owned(),
                        used: false,
                    });
                    rest = &tail[close + 1..];
                } else {
                    break;
                }
            }
        }
    }
    out
}

/// Whether `trimmed` is (the start of) an attribute line — `#[derive(...)]`,
/// `#[cfg(...)]`, `#[inline]` — or an attribute continuation ending in `)]`.
fn is_attribute_line(trimmed: &str) -> bool {
    trimmed.starts_with("#[")
        || trimmed.starts_with("#![")
        || (trimmed.ends_with(")]") && !trimmed.contains("//"))
}

/// Suppression check: a finding at `line` (1-based) is allowed when a
/// marker for its rule sits on the same line, on the directly preceding
/// comment line, or on a comment line above the finding's attribute stack
/// (so one marker can cover a `fn` buried under `#[derive(...)]` /
/// `#[cfg(...)]` attributes). Matching markers are flagged `used` so stale
/// ones can be reported.
pub fn is_allowed(
    rule: &str,
    raw_lines: &[&str],
    markers: &mut [AllowMarker],
    line: usize,
) -> bool {
    let mut hit = false;
    let matches_at = |l: usize, markers: &mut [AllowMarker]| -> bool {
        let mut any = false;
        for m in markers.iter_mut() {
            if m.line == l && m.rule == rule {
                m.used = true;
                any = true;
            }
        }
        any
    };
    // Same line.
    if matches_at(line, markers) {
        hit = true;
    }
    // Walk upward over the attribute stack (if any) and the contiguous
    // comment block directly above the finding: a marker on any line of
    // that block binds (justifications often wrap onto several comment
    // lines). The walk stops at the first code or blank line, so a marker
    // can never leak past unrelated code.
    let mut j = line;
    while j > 1 {
        j -= 1;
        let idx = j - 1; // raw_lines is 0-based
        let Some(text) = raw_lines.get(idx) else {
            break;
        };
        let trimmed = text.trim_start();
        if is_attribute_line(trimmed) {
            continue;
        }
        if trimmed.starts_with("//") {
            if matches_at(j, markers) {
                hit = true;
            }
            continue;
        }
        break;
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn allow_markers_collected_from_comments_only() {
        let src = "// audit:allow(float-eq): reason\nlet s = \"audit:allow(empty-expect)\";\n";
        let toks = lex(src);
        let markers = collect_allow_markers(src, &toks);
        assert_eq!(markers.len(), 1);
        assert_eq!(markers[0].rule, "float-eq");
        assert_eq!(markers[0].line, 1);
    }

    #[test]
    fn allow_skips_attribute_stack() {
        let src = "\
// audit:allow(float-eq): fires through the derive stack
#[derive(Clone, Debug)]
#[cfg(feature = \"x\")]
fn f() { x == 0.5 }
";
        let toks = lex(src);
        let raw: Vec<&str> = src.lines().collect();
        let mut markers = collect_allow_markers(src, &toks);
        assert!(is_allowed("float-eq", &raw, &mut markers, 4));
        assert!(markers[0].used);
        // A different rule is not covered.
        assert!(!is_allowed("empty-expect", &raw, &mut markers, 4));
    }

    #[test]
    fn allow_does_not_leak_past_code_lines() {
        let src = "// audit:allow(float-eq)\nlet y = 1;\nlet z = y == 0.5;\n";
        let toks = lex(src);
        let raw: Vec<&str> = src.lines().collect();
        let mut markers = collect_allow_markers(src, &toks);
        assert!(!is_allowed("float-eq", &raw, &mut markers, 3));
        assert!(!markers[0].used);
    }
}
