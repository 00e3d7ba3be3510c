//! Waiver comments: the only way to silence a rule.
//!
//! A violation is waived by a comment of the exact shape
//!
//! ```text
//! // ascend-lint: allow(rule-id[, rule-id…]) -- reason the invariant holds
//! ```
//!
//! either trailing on the offending line or on the line(s) immediately
//! above it. The `-- reason` clause is **mandatory**: a waiver without a
//! justification is itself a violation ([`crate::rules::INVALID_WAIVER`]),
//! as is a waiver that no violation ever matched
//! ([`crate::rules::UNUSED_WAIVER`]) — stale waivers must not accumulate.

use crate::lexer::Tok;

/// One parsed (or rejected) waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule ids the waiver names.
    pub rules: Vec<String>,
    /// Line of the comment itself.
    pub line: u32,
    /// Line the waiver covers in addition to its own: the next line that
    /// holds code (for the comment-above style).
    pub covers: u32,
    /// `None` if well-formed; `Some(why)` if the comment looked like a
    /// waiver but is malformed (missing reason, bad syntax).
    pub malformed: Option<String>,
    /// Set by the engine when a violation consumed the waiver.
    pub used: bool,
}

/// The marker every waiver comment carries.
pub const MARKER: &str = "ascend-lint:";

/// Extracts waivers from a token stream.
///
/// Only plain comments (`//`, `/* */`) can carry waivers: doc comments
/// (`///`, `//!`, `/**`, `/*!`) are documentation — a rule example quoted
/// in docs must never act as (or be flagged as) a live waiver.
pub fn extract(toks: &[Tok]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (idx, tok) in toks.iter().enumerate() {
        if tok.is_code() || !tok.text.contains(MARKER) || is_doc_comment(&tok.text) {
            continue;
        }
        let covers = toks[idx + 1..]
            .iter()
            .find(|t| t.is_code() && t.line > tok.line)
            .map(|t| t.line)
            .unwrap_or(tok.line);
        match parse(&tok.text) {
            Ok(rules) => waivers.push(Waiver {
                rules,
                line: tok.line,
                covers,
                malformed: None,
                used: false,
            }),
            Err(why) => waivers.push(Waiver {
                rules: Vec::new(),
                line: tok.line,
                covers,
                malformed: Some(why),
                used: false,
            }),
        }
    }
    waivers
}

/// Whether a comment is a doc comment (`///`, `//!`, `/**`, `/*!`).
/// `////…` banner lines and bare `/**/` are plain comments per Rust's
/// grammar, but treating them as docs is fine here — no one writes a
/// waiver in either form.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Parses the body of a waiver comment, returning the rule ids.
fn parse(comment: &str) -> Result<Vec<String>, String> {
    let Some(at) = comment.find(MARKER) else {
        return Err("missing `ascend-lint:` marker".to_string());
    };
    let body = comment[at + MARKER.len()..].trim();
    let Some(rest) = body.strip_prefix("allow") else {
        return Err(format!(
            "expected `allow(rule) -- reason` after `{MARKER}`, got `{body}`"
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after `allow`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(` list".to_string());
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("empty rule list in `allow()`".to_string());
    }
    let tail = rest[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("--") else {
        return Err("missing mandatory `-- reason` clause".to_string());
    };
    if reason.trim().is_empty() {
        return Err("empty `-- reason` clause; justify the waiver".to_string());
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn well_formed_waiver_parses_rules_and_coverage() {
        let toks = lex(
            "// ascend-lint: allow(no-blocking-under-lock) -- guarded by the loop above\n\
             let x = y.unwrap();",
        );
        let ws = extract(&toks);
        assert_eq!(ws.len(), 1);
        assert!(ws[0].malformed.is_none());
        assert_eq!(ws[0].rules, ["no-blocking-under-lock"]);
        assert_eq!(ws[0].line, 1);
        assert_eq!(ws[0].covers, 2);
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let toks = lex(
            "let x = y.unwrap(); // ascend-lint: allow(no-blocking-under-lock) -- total by clamp",
        );
        let ws = extract(&toks);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].line, 1);
    }

    #[test]
    fn multiple_rules_split_on_commas() {
        let ws = extract(&lex(
            "// ascend-lint: allow(lock-order, no-blocking-under-lock) -- report timing\nf();",
        ));
        assert_eq!(ws[0].rules, ["lock-order", "no-blocking-under-lock"]);
    }

    #[test]
    fn missing_reason_is_malformed() {
        for bad in [
            "// ascend-lint: allow(no-blocking-under-lock)",
            "// ascend-lint: allow(no-blocking-under-lock) --",
            "// ascend-lint: allow(no-blocking-under-lock) --   ",
        ] {
            let ws = extract(&lex(bad));
            assert_eq!(ws.len(), 1, "{bad}");
            assert!(ws[0].malformed.is_some(), "{bad}");
        }
    }

    #[test]
    fn bad_syntax_is_malformed_not_ignored() {
        for bad in [
            "// ascend-lint: deny(x) -- nope",
            "// ascend-lint: allow() -- empty",
            "// ascend-lint: allow(unclosed -- reason",
            "// ascend-lint: something else",
        ] {
            let ws = extract(&lex(bad));
            assert_eq!(ws.len(), 1, "{bad}");
            assert!(ws[0].malformed.is_some(), "{bad}");
        }
    }

    #[test]
    fn marker_inside_a_string_is_not_a_waiver() {
        let ws = extract(&lex(r#"let s = "ascend-lint: allow(x) -- fake";"#));
        assert!(ws.is_empty());
    }

    #[test]
    fn doc_comments_never_carry_waivers() {
        for doc in [
            "/// ascend-lint: allow(no-blocking-under-lock) -- doc example\nf();",
            "//! ascend-lint: allow(no-blocking-under-lock) -- module docs\nf();",
            "/** ascend-lint: allow(no-blocking-under-lock) -- block docs */\nf();",
        ] {
            assert!(extract(&lex(doc)).is_empty(), "{doc}");
        }
    }

    #[test]
    fn unrelated_comments_are_not_waivers() {
        let ws = extract(&lex("// plain comment about linting in general\nf();"));
        assert!(ws.is_empty());
    }
}
