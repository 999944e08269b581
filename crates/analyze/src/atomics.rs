//! The `atomic-ordering` audit.
//!
//! The simulator's determinism argument leans on `SeqCst` everywhere:
//! the single total order keeps any concurrency reasoning honest.
//! Relaxed orderings are occasionally justified — but
//! each one is a proof obligation, so every non-`SeqCst` `Ordering::…`
//! mention in a result-bearing crate must carry an adjacent
//!
//! ```text
//! // analyze::order(<why this ordering is sound>)
//! ```
//!
//! comment on the same line or the line above, or it becomes an
//! `atomic-ordering` finding. Test modules are exempt (tests may probe
//! weak orderings deliberately), as are `use` statements (importing
//! `Ordering::Relaxed` is not yet using it).

use crate::callgraph::Workspace;
use crate::config::LintConfig;
use crate::diagnostics::Finding;

/// Non-`SeqCst` memory orderings that demand a justification.
const WEAK_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// Runs the audit and returns raw findings (unsuppressed).
pub fn run(ws: &Workspace, config: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pf in &ws.files {
        if !config.is_result_bearing(&pf.path) {
            continue;
        }
        let t = &pf.toks.tokens;
        // Lines carrying an `analyze::order(<reason>)` justification.
        let order_lines: Vec<u32> = pf
            .toks
            .comments
            .iter()
            .filter(|c| {
                let text = c.text.trim();
                text.strip_prefix("analyze::order(")
                    .and_then(|rest| rest.split_once(')'))
                    .is_some_and(|(reason, _)| !reason.trim().is_empty())
            })
            .map(|c| c.line)
            .collect();
        for i in 0..t.len() {
            if !t[i].is_ident("Ordering") || pf.in_test_range(i) {
                continue;
            }
            let weak = t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3)
                    .and_then(|x| x.ident())
                    .is_some_and(|id| WEAK_ORDERINGS.contains(&id));
            if !weak || in_use_statement(t, i) {
                continue;
            }
            let ord = t[i + 3].ident().unwrap_or_default();
            let line = t[i].line;
            if order_lines.iter().any(|&l| l == line || l + 1 == line) {
                continue;
            }
            findings.push(Finding {
                lint: "atomic-ordering".to_string(),
                path: pf.path.clone(),
                line,
                col: t[i].col,
                message: format!(
                    "non-SeqCst atomic ordering `Ordering::{ord}` without justification"
                ),
                snippet: pf
                    .source
                    .lines()
                    .nth(line as usize - 1)
                    .unwrap_or("")
                    .to_string(),
                help: "every weak ordering in a result-bearing crate is a proof \
                       obligation: justify it with `// analyze::order(<reason>)` on \
                       this line or the line above, or use SeqCst"
                    .to_string(),
            });
        }
    }
    findings
}

/// Whether token `i` sits inside a `use …;` statement. Walks back to the
/// statement start; a `{` preceded by `::` is a grouped use-tree
/// (`use a::{B, C}`) and does not end the scan, any other `{`/`;` does.
fn in_use_statement(t: &[crate::tokenizer::Token], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        k -= 1;
        if t[k].is_ident("use") {
            return true;
        }
        if t[k].is_punct(';') {
            return false;
        }
        if t[k].is_punct('{') && !(k > 0 && t[k - 1].is_punct(':')) {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Finding> {
        let ws =
            Workspace::from_sources(vec![("crates/sim/src/x.rs".to_string(), src.to_string())]);
        run(&ws, &LintConfig::default())
    }

    #[test]
    fn unjustified_relaxed_is_a_finding() {
        let findings = run_on("fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "atomic-ordering");
        assert!(findings[0].message.contains("Relaxed"));
    }

    #[test]
    fn seqcst_is_always_fine() {
        let findings = run_on("fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn order_annotation_on_same_or_previous_line_justifies() {
        let findings = run_on(
            "fn f(a: &AtomicU64) {\n\
                 // analyze::order(monotonic counter, readers tolerate staleness)\n\
                 a.load(Ordering::Relaxed);\n\
                 a.store(1, Ordering::Release); // analyze::order(publishes after init)\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn empty_reason_does_not_justify() {
        let findings = run_on(
            "fn f(a: &AtomicU64) {\n\
                 // analyze::order()\n\
                 a.load(Ordering::Relaxed);\n\
             }",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn use_statements_and_test_modules_are_exempt() {
        let findings = run_on(
            "use std::sync::atomic::Ordering::Relaxed;\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn probe(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
