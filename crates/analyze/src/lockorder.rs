//! The `lock-order` pass: a workspace-wide deadlock lint over named
//! lock classes.
//!
//! Per function it detects lock acquisitions — zero-argument `.lock()` /
//! `.read()` / `.write()` method calls — and tracks the source span over
//! which each guard is held:
//! a `let`-bound guard lives until `drop(name)` or the end of its block,
//! a temporary until the end of its statement. Held-lock sets are then
//! propagated through the call graph (a call made while holding `A`
//! inherits every class the callee's transitive closure acquires), and
//! every "acquire `B` while holding `A`" pair becomes an edge `A → B` in
//! a lock-class graph. Any cycle in that graph is reported as a
//! `lock-order` finding whose witness spells out each edge's acquisition
//! chain with file:line:col sites.
//!
//! Lock classes are `(crate, canonical name)` pairs; the canonical name
//! comes from [`LintConfig::lock_class`], which maps raw field names
//! (`tracks`) onto their protocol names (`telemetry-recorder`).
//! Same-class nesting (e.g. two slots of one lock array) is deliberately
//! not reported: ordering within a class (say, by index) is beyond a
//! static lint.

use crate::callgraph::{CallGraph, Workspace};
use crate::config::LintConfig;
use crate::diagnostics::Finding;
use crate::tokenizer::Token;
use std::collections::{BTreeMap, BTreeSet};

/// One detected acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acq {
    /// Crate-qualified class id (`sim:telemetry-recorder`).
    class: String,
    /// Display name (`telemetry-recorder`).
    display: String,
    /// Token index of the acquiring call.
    tok: usize,
    /// Token index at which the guard is released (exclusive).
    release: usize,
    line: u32,
    col: u32,
}

/// A transitive acquisition recorded in a function summary.
#[derive(Debug, Clone)]
struct SummaryAcq {
    display: String,
    /// Human steps from the summarised function down to the acquisition.
    chain: Vec<String>,
}

/// One lock-class edge with its first witness.
#[derive(Debug, Clone)]
struct Edge {
    /// Steps describing the edge: holder acquisition, then the chain to
    /// the second acquisition.
    steps: Vec<String>,
    /// Anchor span (the holder acquisition site).
    path: String,
    line: u32,
    col: u32,
}

/// Runs the pass and returns raw findings (suppression is applied by the
/// caller, per file).
pub fn run(ws: &Workspace, cg: &CallGraph, config: &LintConfig) -> Vec<Finding> {
    // Phase 1: per-function acquisitions with hold scopes.
    let mut acqs: Vec<Vec<Acq>> = Vec::with_capacity(cg.fns.len());
    for r in &cg.fns {
        let pf = &ws.files[r.file];
        let item = &pf.fns[r.item];
        acqs.push(item.body.map_or(Vec::new(), |(lo, hi)| {
            find_acquisitions(&pf.toks.tokens, lo, hi, &pf.crate_name, config)
        }));
    }

    // Phase 2: transitive acquire summaries (class → witness chain).
    let mut summary: Vec<BTreeMap<String, SummaryAcq>> = acqs
        .iter()
        .enumerate()
        .map(|(f, list)| {
            let r = cg.fns[f];
            let pf = &ws.files[r.file];
            let fname = &pf.fns[r.item].name;
            let mut m = BTreeMap::new();
            for a in list {
                m.entry(a.class.clone()).or_insert_with(|| SummaryAcq {
                    display: a.display.clone(),
                    chain: vec![format!(
                        "`{}` acquired at {}:{}:{} (in `{fname}`)",
                        a.display, pf.path, a.line, a.col
                    )],
                });
            }
            m
        })
        .collect();
    loop {
        let mut changed = false;
        for f in 0..cg.fns.len() {
            for e in &cg.edges[f] {
                let callee: Vec<(String, SummaryAcq)> = summary[e.to]
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                for (class, sa) in callee {
                    if summary[f].contains_key(&class) {
                        continue;
                    }
                    let r = cg.fns[e.to];
                    let callee_name = &ws.files[r.file].fns[r.item].name;
                    let caller = cg.fns[f];
                    let mut chain = vec![format!(
                        "via call to `{callee_name}` at {}:{}:{}",
                        ws.files[caller.file].path, e.line, e.col
                    )];
                    chain.extend(sa.chain.iter().cloned());
                    summary[f].insert(
                        class,
                        SummaryAcq {
                            display: sa.display,
                            chain,
                        },
                    );
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 3: edges — direct nested acquisitions and held-across calls.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let mut add_edge = |from: &Acq, to_class: &str, steps: Vec<String>, path: &str| {
        edges
            .entry((from.class.clone(), to_class.to_string()))
            .or_insert_with(|| Edge {
                steps,
                path: path.to_string(),
                line: from.line,
                col: from.col,
            });
    };
    let mut display: BTreeMap<String, String> = BTreeMap::new();
    for (f, facqs) in acqs.iter().enumerate() {
        let r = cg.fns[f];
        let pf = &ws.files[r.file];
        let fname = &pf.fns[r.item].name;
        for a in facqs {
            display.insert(a.class.clone(), a.display.clone());
        }
        let held_at = |tok: usize| -> Vec<&Acq> {
            facqs
                .iter()
                .filter(|a| a.tok < tok && tok < a.release)
                .collect()
        };
        // Nested direct acquisitions.
        for a in facqs {
            for h in held_at(a.tok) {
                if h.class == a.class {
                    continue;
                }
                add_edge(
                    h,
                    &a.class,
                    vec![
                        format!(
                            "`{}` acquired at {}:{}:{} (in `{fname}`)",
                            h.display, pf.path, h.line, h.col
                        ),
                        format!(
                            "`{}` acquired at {}:{}:{} while `{}` is held",
                            a.display, pf.path, a.line, a.col, h.display
                        ),
                    ],
                    &pf.path,
                );
            }
        }
        // Calls made while holding a lock inherit the callee's closure.
        for e in &cg.edges[f] {
            let callee_summary = &summary[e.to];
            if callee_summary.is_empty() {
                continue;
            }
            let cr = cg.fns[e.to];
            let callee_name = &ws.files[cr.file].fns[cr.item].name;
            for h in held_at(e.tok) {
                for (class, sa) in callee_summary {
                    if *class == h.class {
                        continue;
                    }
                    display.insert(class.clone(), sa.display.clone());
                    let mut steps = vec![
                        format!(
                            "`{}` acquired at {}:{}:{} (in `{fname}`)",
                            h.display, pf.path, h.line, h.col
                        ),
                        format!(
                            "call to `{callee_name}` at {}:{}:{} while `{}` is held",
                            pf.path, e.line, e.col, h.display
                        ),
                    ];
                    steps.extend(sa.chain.iter().cloned());
                    add_edge(h, class, steps, &pf.path);
                }
            }
        }
    }

    // Phase 4: cycle detection over the class graph.
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for start in adj.keys().copied() {
        let Some(cycle) = find_cycle(&adj, start) else {
            continue;
        };
        let members: BTreeSet<String> = cycle.iter().map(|c| (*c).clone()).collect();
        if !reported.insert(members) {
            continue;
        }
        let name = |c: &String| display.get(c).cloned().unwrap_or_else(|| c.clone());
        let ring: Vec<String> = cycle.iter().map(|c| format!("`{}`", name(c))).collect();
        let mut witness = Vec::new();
        for w in cycle.windows(2) {
            let e = &edges[&((*w[0]).clone(), (*w[1]).clone())];
            witness.push(e.steps.join(", then "));
        }
        let anchor = &edges[&((*cycle[0]).clone(), (*cycle[1]).clone())];
        findings.push(Finding {
            lint: "lock-order".to_string(),
            path: anchor.path.clone(),
            line: anchor.line,
            col: anchor.col,
            // `cycle` is the closed path `start, …, start`, so the ring
            // already ends where it began.
            message: format!("lock-order cycle: {}", ring.join(" → ")),
            snippet: snippet_for(ws, &anchor.path, anchor.line),
            help: format!(
                "two call paths acquire these locks in opposite orders and can \
                 deadlock; witness: {}",
                witness.join("; and back: ")
            ),
        });
    }
    findings
}

/// Source line `line` of the file at `path` (for the finding snippet).
fn snippet_for(ws: &Workspace, path: &str, line: u32) -> String {
    ws.file_index(path)
        .and_then(|fi| ws.files[fi].source.lines().nth(line as usize - 1))
        .unwrap_or("")
        .to_string()
}

/// BFS from `start` back to itself; returns the node path
/// `start, ..., start` of the first cycle found.
fn find_cycle<'a>(
    adj: &BTreeMap<&'a String, Vec<&'a String>>,
    start: &'a String,
) -> Option<Vec<&'a String>> {
    let mut parent: BTreeMap<&String, &String> = BTreeMap::new();
    let mut queue: Vec<&String> = vec![start];
    let mut qi = 0;
    while qi < queue.len() {
        let n = queue[qi];
        qi += 1;
        for &m in adj.get(n).map(Vec::as_slice).unwrap_or_default() {
            if m == start {
                // Reconstruct start → ... → n → start.
                let mut path = vec![start];
                let mut rev = vec![n];
                let mut cur = n;
                while cur != start {
                    cur = parent[cur];
                    rev.push(cur);
                }
                rev.pop(); // drop the duplicated start
                path.extend(rev.into_iter().rev());
                path.push(start);
                return Some(path);
            }
            if !parent.contains_key(m) && m != start {
                parent.insert(m, n);
                queue.push(m);
            }
        }
    }
    None
}

/// Scans a body token range for acquisitions with hold scopes.
fn find_acquisitions(
    t: &[Token],
    lo: usize,
    hi: usize,
    crate_name: &str,
    config: &LintConfig,
) -> Vec<Acq> {
    let mut out = Vec::new();
    for i in lo..hi {
        let Some(id) = t[i].ident() else { continue };
        let raw = if (id == "lock" || id == "read" || id == "write")
            && i > 0
            && t[i - 1].is_punct('.')
            && crate::parser::empty_call_parens(t, i + 1)
        {
            receiver_class(t, i - 1, lo)
        } else {
            None
        };
        let Some(raw) = raw else { continue };
        let display = config.lock_class(&raw);
        let release = guard_release(t, i, lo, hi);
        out.push(Acq {
            class: format!("{crate_name}:{display}"),
            display,
            tok: i,
            release,
            line: t[i].line,
            col: t[i].col,
        });
    }
    out
}

/// The lock class of a `.lock()` receiver: the field/binding ident just
/// before the dot (skipping one `[...]` index group).
fn receiver_class(t: &[Token], dot: usize, lo: usize) -> Option<String> {
    let mut k = dot.checked_sub(1)?;
    if t[k].is_punct(']') {
        let mut depth = 0usize;
        loop {
            if t[k].is_punct(']') {
                depth += 1;
            } else if t[k].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == lo {
                return None;
            }
            k -= 1;
        }
        k = k.checked_sub(1)?;
    }
    t[k].ident().map(str::to_string)
}

/// Exclusive token index at which the guard created at `i` is released.
fn guard_release(t: &[Token], i: usize, lo: usize, hi: usize) -> usize {
    // Find the statement start and check for a `let` binding.
    let mut s = i;
    while s > lo {
        if t[s - 1].is_punct(';') || t[s - 1].is_punct('{') || t[s - 1].is_punct('}') {
            break;
        }
        s -= 1;
    }
    let bound = (s..i)
        .find(|&k| t[k].is_ident("let"))
        .and_then(|k| (k + 1..i).find_map(|m| t[m].ident().filter(|&id| id != "mut")));
    match bound {
        Some(name) if name != "_" => {
            // Held until `drop(name)` or the end of the enclosing block.
            let mut depth = 0i32;
            for k in i..hi {
                if t[k].is_punct('{') {
                    depth += 1;
                } else if t[k].is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        return k;
                    }
                } else if t[k].is_ident("drop")
                    && t.get(k + 1).is_some_and(|x| x.is_punct('('))
                    && t.get(k + 2).is_some_and(|x| x.is_ident(name))
                    && t.get(k + 3).is_some_and(|x| x.is_punct(')'))
                {
                    return k;
                }
            }
            hi
        }
        _ => {
            // Temporary: held to the end of the statement (the next `;`
            // at this level, the end of a statement-level block
            // expression, or the enclosing close brace).
            let mut depth = 0i32;
            let mut k = i + 1;
            while k < hi {
                if t[k].is_punct('(') || t[k].is_punct('{') || t[k].is_punct('[') {
                    depth += 1;
                } else if t[k].is_punct(')') || t[k].is_punct(']') {
                    depth -= 1;
                    if depth < 0 {
                        return k;
                    }
                } else if t[k].is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        return k;
                    }
                    if depth == 0 {
                        // End of a `match`/`if` block at statement level,
                        // unless the expression continues.
                        let cont = t.get(k + 1).is_some_and(|x| {
                            x.is_ident("else") || x.is_punct('.') || x.is_punct('?')
                        });
                        if !cont {
                            return k + 1;
                        }
                    }
                } else if depth == 0 && t[k].is_punct(';') {
                    return k;
                }
                k += 1;
            }
            hi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
                .collect(),
        );
        let cg = CallGraph::build(&ws);
        run(&ws, &cg, &LintConfig::default())
    }

    #[test]
    fn ab_ba_within_one_file_is_a_cycle_with_both_sites() {
        let findings = run_on(&[(
            "crates/sim/src/x.rs",
            "fn forward(a: &M, b: &M) {\n\
                 let _ga = a_lock.lock();\n\
                 let _gb = b_lock.lock();\n\
             }\n\
             fn backward(a: &M, b: &M) {\n\
                 let _gb = b_lock.lock();\n\
                 let _ga = a_lock.lock();\n\
             }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.lint, "lock-order");
        assert!(f.message.contains("a_lock") && f.message.contains("b_lock"));
        assert!(f.help.contains("crates/sim/src/x.rs:2:"), "{}", f.help);
        assert!(f.help.contains("crates/sim/src/x.rs:6:"), "{}", f.help);
    }

    #[test]
    fn consistent_order_is_clean() {
        let findings = run_on(&[(
            "crates/sim/src/x.rs",
            "fn one(a: &M, b: &M) { let _ga = a_lock.lock(); let _gb = b_lock.lock(); }\n\
             fn two(a: &M, b: &M) { let _ga = a_lock.lock(); let _gb = b_lock.lock(); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cycle_through_a_callee_is_found() {
        let findings = run_on(&[(
            "crates/sim/src/x.rs",
            "fn outer() { let _g = a_lock.lock(); helper(); }\n\
             fn helper() { let _g = b_lock.lock(); }\n\
             fn other() { let _g = b_lock.lock(); let _g2 = a_lock.lock(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].help.contains("call to `helper`"),
            "{}",
            findings[0].help
        );
    }

    #[test]
    fn temporary_guards_release_at_the_statement_end() {
        // The temporary guard from the first statement is gone by the
        // time the second lock is taken: no edge, no cycle.
        let findings = run_on(&[(
            "crates/sim/src/x.rs",
            "fn one(a: &M, b: &M) { a_lock.lock(); let _gb = b_lock.lock(); }\n\
             fn two(a: &M, b: &M) { b_lock.lock(); let _ga = a_lock.lock(); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn drop_ends_the_held_scope() {
        let findings = run_on(&[(
            "crates/sim/src/x.rs",
            "fn one(a: &M, b: &M) { let g = a_lock.lock(); drop(g); let _gb = b_lock.lock(); }\n\
             fn two(a: &M, b: &M) { let g = b_lock.lock(); drop(g); let _ga = a_lock.lock(); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn aliases_name_the_lock_classes() {
        let findings = run_on(&[(
            "crates/sim/src/x.rs",
            "fn one() { let _t = tracks[0].lock(); journal.lock().push(1); }\n\
             fn two() { let _j = journal.lock(); tracks[1].lock().take(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("telemetry-recorder"));
        assert!(findings[0].message.contains("journal"));
    }

    #[test]
    fn same_class_nesting_is_not_reported() {
        let findings = run_on(&[(
            "crates/sim/src/x.rs",
            "fn one() { let _a = slots[0].lock(); let _b = slots[1].lock(); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn rwlock_read_write_participate() {
        let findings = run_on(&[(
            "crates/sim/src/x.rs",
            "fn one() { let _r = table.read(); let _g = journal.lock(); }\n\
             fn two() { let _g = journal.lock(); let _w = table.write(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("table"));
        assert!(findings[0].message.contains("journal"));
    }
}
