//! Renderings of a lint run: the default text form and GitHub Actions
//! workflow commands (`--format github`, annotations land on the
//! offending line in the PR diff).

use crate::workspace::Outcome;

/// Evaluates the gate: one rendered line per violation (empty = the gate
/// passes).
pub fn check(outcome: &Outcome) -> Vec<String> {
    outcome.violations.iter().map(|v| v.render()).collect()
}

/// Escapes message *data* for a GitHub workflow command.
fn gh_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command *property* value (file, title), which
/// additionally reserves `:` and `,`.
fn gh_prop(s: &str) -> String {
    gh_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// The `--format github` rendering: one `::error` annotation per
/// violation anchored at its file and line, and a final plain summary
/// line for the job log.
pub fn render_github(outcome: &Outcome) -> String {
    let mut out = String::new();
    for v in &outcome.violations {
        out.push_str(&format!(
            "::error file={},line={},title={}::{}\n",
            gh_prop(&v.path),
            v.line,
            gh_prop(&format!("ascend-lint {}", v.rule)),
            gh_data(&v.msg)
        ));
    }
    if outcome.violations.is_empty() {
        out.push_str(&format!(
            "ascend-lint: OK — {} files, {} active waivers\n",
            outcome.files, outcome.waivers
        ));
    } else {
        out.push_str(&format!(
            "ascend-lint: FAIL — {} problem(s)\n",
            outcome.violations.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Violation, NO_BLOCKING_UNDER_LOCK};

    fn outcome(violations: Vec<Violation>) -> Outcome {
        Outcome {
            violations,
            files: 3,
            waivers: 1,
        }
    }

    fn blocking_violation() -> Violation {
        Violation {
            rule: NO_BLOCKING_UNDER_LOCK,
            path: "crates/core/src/serve.rs".into(),
            line: 9,
            msg: "`recv` may block while lock guard(s) `core:rx` are held".into(),
        }
    }

    #[test]
    fn clean_run_passes_and_says_none() {
        let o = outcome(Vec::new());
        assert!(check(&o).is_empty());
        let text = render_github(&o);
        assert_eq!(text, "ascend-lint: OK — 3 files, 1 active waivers\n");
    }

    #[test]
    fn deny_violation_fails_with_file_line_location() {
        let errors = check(&outcome(vec![blocking_violation()]));
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("crates/core/src/serve.rs:9"));
        assert!(errors[0].contains(NO_BLOCKING_UNDER_LOCK));
    }

    #[test]
    fn github_format_annotates_the_offending_line() {
        let text = render_github(&outcome(vec![blocking_violation()]));
        assert!(
            text.contains(
                "::error file=crates/core/src/serve.rs,line=9,title=ascend-lint no-blocking-under-lock::"
            ),
            "{text}"
        );
        assert!(text.contains("ascend-lint: FAIL — 1 problem(s)"));
    }

    #[test]
    fn github_format_escapes_message_data() {
        let mut v = blocking_violation();
        v.msg = "50% done\nsecond line".into();
        let text = render_github(&outcome(vec![v]));
        assert!(text.contains("50%25 done%0Asecond line"), "{text}");
        // The annotation stays on one physical line.
        let ann = text.lines().next().unwrap();
        assert!(ann.ends_with("second line"), "{ann}");
    }
}
