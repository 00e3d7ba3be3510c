//! Renderings of a lint run: the default text form and GitHub Actions
//! workflow commands (`--format github`, annotations land on the
//! offending line in the PR diff).

use crate::baseline::{self, Baseline};
use crate::workspace::Outcome;

/// The `--check` result: pass/fail plus the lines to print.
#[derive(Debug)]
pub struct CheckResult {
    /// Lines describing failures (empty = gate passes).
    pub errors: Vec<String>,
    /// Non-fatal notes (ratchet improvements to commit).
    pub notes: Vec<String>,
}

impl CheckResult {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Evaluates the gate: deny violations fail, ratchet growth fails,
/// ratchet shrinkage is a note.
pub fn check(outcome: &Outcome, baseline: &Baseline) -> CheckResult {
    let mut errors: Vec<String> = outcome.deny.iter().map(|v| v.render()).collect();
    let (growth, improvements) = baseline::compare(&outcome.ratchet_counts(), baseline);
    errors.extend(growth);
    CheckResult {
        errors,
        notes: improvements,
    }
}

/// The full `--report` listing: every violation (deny and ratcheted),
/// grouped and counted.
pub fn full_report(outcome: &Outcome, baseline: &Baseline) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "ascend-lint: scanned {} files, {} active waivers\n\n",
        outcome.files, outcome.waivers
    ));
    if outcome.deny.is_empty() {
        out.push_str("deny-class violations: none\n");
    } else {
        out.push_str(&format!("deny-class violations: {}\n", outcome.deny.len()));
        for v in &outcome.deny {
            out.push_str(&format!("  {}\n", v.render()));
        }
    }
    out.push('\n');
    if outcome.ratchet.is_empty() {
        out.push_str("ratcheted violations: none\n");
    } else {
        out.push_str("ratcheted violations (baselined, may only decrease):\n");
        for ((rule, krate), vs) in &outcome.ratchet {
            let allowed = baseline
                .get(&(rule.clone(), krate.clone()))
                .copied()
                .unwrap_or(0);
            out.push_str(&format!(
                "  {rule} in `{krate}`: {} (baseline {allowed})\n",
                vs.len()
            ));
            for v in vs {
                out.push_str(&format!("    {}\n", v.render()));
            }
        }
    }
    out
}

/// Escapes message *data* for a GitHub workflow command.
fn gh_data(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escapes a workflow-command *property* value (file, title), which
/// additionally reserves `:` and `,`.
fn gh_prop(s: &str) -> String {
    gh_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// The `--format github` rendering: one `::error` annotation per deny
/// violation anchored at its file and line, ratchet growth anchored at
/// the baseline file, ratchet improvements as `::notice`, and a final
/// plain summary line for the job log.
pub fn render_github(outcome: &Outcome, baseline: &Baseline) -> String {
    let mut out = String::new();
    for v in &outcome.deny {
        out.push_str(&format!(
            "::error file={},line={},title={}::{}\n",
            gh_prop(&v.path),
            v.line,
            gh_prop(&format!("ascend-lint {}", v.rule)),
            gh_data(&v.msg)
        ));
    }
    let (growth, improvements) = baseline::compare(&outcome.ratchet_counts(), baseline);
    for g in &growth {
        out.push_str(&format!(
            "::error file={},line=1,title=ascend-lint ratchet::{}\n",
            baseline::BASELINE_PATH,
            gh_data(g)
        ));
    }
    for n in &improvements {
        out.push_str(&format!(
            "::notice file={},line=1,title=ascend-lint ratchet::{}\n",
            baseline::BASELINE_PATH,
            gh_data(n)
        ));
    }
    let problems = outcome.deny.len() + growth.len();
    if problems == 0 {
        out.push_str(&format!(
            "ascend-lint: OK — {} files, {} active waivers\n",
            outcome.files, outcome.waivers
        ));
    } else {
        out.push_str(&format!("ascend-lint: FAIL — {problems} problem(s)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Violation, NO_PANIC_HOT, NO_PANIC_LIB};
    use std::collections::BTreeMap;

    fn outcome(deny: Vec<Violation>, ratchet_n: usize) -> Outcome {
        let mut ratchet = BTreeMap::new();
        if ratchet_n > 0 {
            let vs: Vec<Violation> = (0..ratchet_n)
                .map(|i| Violation {
                    rule: NO_PANIC_LIB,
                    path: "crates/vit/src/model.rs".into(),
                    crate_name: "vit".into(),
                    line: i as u32 + 1,
                    msg: "x".into(),
                })
                .collect();
            ratchet.insert((NO_PANIC_LIB.to_string(), "vit".to_string()), vs);
        }
        Outcome {
            deny,
            ratchet,
            files: 3,
            waivers: 1,
        }
    }

    fn hot_violation() -> Violation {
        Violation {
            rule: NO_PANIC_HOT,
            path: "crates/core/src/serve.rs".into(),
            crate_name: "core".into(),
            line: 9,
            msg: "`.unwrap()` panics".into(),
        }
    }

    #[test]
    fn clean_run_passes_and_says_none() {
        let o = outcome(Vec::new(), 0);
        let r = check(&o, &Baseline::new());
        assert!(r.ok());
        let text = full_report(&o, &Baseline::new());
        assert!(text.contains("deny-class violations: none"));
        assert!(text.contains("ratcheted violations: none"));
    }

    #[test]
    fn deny_violation_fails_with_file_line_location() {
        let o = outcome(vec![hot_violation()], 0);
        let r = check(&o, &Baseline::new());
        assert!(!r.ok());
        assert!(r.errors[0].contains("crates/core/src/serve.rs:9"));
        assert!(r.errors[0].contains(NO_PANIC_HOT));
    }

    #[test]
    fn ratchet_within_baseline_passes_and_over_fails() {
        let baseline: Baseline = [((NO_PANIC_LIB.to_string(), "vit".to_string()), 2)]
            .into_iter()
            .collect();
        assert!(check(&outcome(Vec::new(), 2), &baseline).ok());
        let r = check(&outcome(Vec::new(), 3), &baseline);
        assert!(!r.ok());
        assert!(r.errors[0].contains("exceed the baseline"));
        // Shrink: ok but noted.
        let r = check(&outcome(Vec::new(), 1), &baseline);
        assert!(r.ok());
        assert_eq!(r.notes.len(), 1);
    }

    #[test]
    fn report_lists_ratcheted_locations() {
        let baseline: Baseline = [((NO_PANIC_LIB.to_string(), "vit".to_string()), 2)]
            .into_iter()
            .collect();
        let text = full_report(&outcome(Vec::new(), 2), &baseline);
        assert!(text.contains("no-panic-in-lib in `vit`: 2 (baseline 2)"));
        assert!(text.contains("crates/vit/src/model.rs:1"));
    }

    #[test]
    fn github_format_annotates_the_offending_line() {
        let text = render_github(&outcome(vec![hot_violation()], 0), &Baseline::new());
        assert!(
            text.contains(
                "::error file=crates/core/src/serve.rs,line=9,title=ascend-lint no-panic-in-hot-path::"
            ),
            "{text}"
        );
        assert!(text.contains("ascend-lint: FAIL — 1 problem(s)"));
    }

    #[test]
    fn github_format_escapes_message_data() {
        let mut v = hot_violation();
        v.msg = "50% done\nsecond line".into();
        let text = render_github(&outcome(vec![v], 0), &Baseline::new());
        assert!(text.contains("50%25 done%0Asecond line"), "{text}");
        // The annotation stays on one physical line.
        let ann = text.lines().next().unwrap();
        assert!(ann.ends_with("second line"), "{ann}");
    }

    #[test]
    fn github_format_anchors_ratchet_growth_at_the_baseline_file() {
        let text = render_github(&outcome(Vec::new(), 3), &Baseline::new());
        assert!(
            text.contains("::error file=crates/lint/baseline.tsv,line=1,title=ascend-lint ratchet::"),
            "{text}"
        );
        // Improvements are notices, and a clean run says OK.
        let baseline: Baseline = [((NO_PANIC_LIB.to_string(), "vit".to_string()), 2)]
            .into_iter()
            .collect();
        let text = render_github(&outcome(Vec::new(), 1), &baseline);
        assert!(text.contains("::notice file=crates/lint/baseline.tsv"), "{text}");
        assert!(text.contains("ascend-lint: OK"), "{text}");
    }
}
