//! A lightweight item-level parser on top of the [`crate::tokenizer`]:
//! just enough syntactic structure for whole-workspace analysis.
//!
//! Per file it recovers:
//!
//! * every `fn` item — name, enclosing `impl` owner (best effort), the
//!   token range of its body, and whether it lives under `#[cfg(test)]`;
//! * the call expressions inside each body (direct calls, method calls,
//!   `Path::assoc` calls), which feed the workspace call graph.
//!
//! Like the tokenizer, this is deliberately *not* a full parser: closures
//! are scanned as part of their enclosing function, nested `fn` items
//! inside bodies are attributed to the outer item, and exotic headers
//! (`impl dyn Trait`, fully-qualified `<A as B>::c` calls) degrade to
//! "no owner"/"unknown qualifier" rather than failing. The passes built
//! on top are tuned to under-approximate, never to crash.

use crate::tokenizer::{tokenize, Token, Tokenized};

/// How a call expression names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(...)` — a free-function call.
    Direct,
    /// `recv.method(...)` — a method call on some receiver.
    Method,
    /// `Owner::assoc(...)` — a path call; the qualifier is the segment
    /// directly before the final `::` (`None` when it isn't an ident,
    /// e.g. `<A as B>::c`).
    Path(Option<String>),
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// How the callee is named.
    pub kind: CallKind,
    /// The callee name (the ident before the `(`).
    pub name: String,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The name after `fn`.
    pub name: String,
    /// Enclosing `impl` type name, if any (`impl Foo`, `impl T for Foo`
    /// both record `Foo`).
    pub owner: Option<String>,
    /// Token range of the body, exclusive of the braces. `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the item is test-only (`#[cfg(test)]` module or attr).
    pub in_test: bool,
    /// Call expressions inside the body, in token order.
    pub calls: Vec<CallSite>,
}

/// One parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// The crate the file belongs to (`crates/<name>/src/...`).
    pub crate_name: String,
    /// The raw source (for snippets).
    pub source: String,
    /// The token stream and comment side channel.
    pub toks: Tokenized,
    /// Every `fn` item, in token order.
    pub fns: Vec<FnItem>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "in", "as", "loop", "move", "let", "else",
    "break", "continue", "where", "unsafe", "impl", "dyn", "ref", "mut",
];

/// What an open brace belongs to, for owner/test tracking.
enum Scope {
    /// `impl <owner> { ... }` (owner best-effort).
    Impl(Option<String>),
    /// A `#[cfg(test)] mod` body.
    TestMod,
    /// Anything else (plain `mod`, expression braces at item level).
    Other,
}

/// Parses one file into items. `path` must be repo-relative with
/// forward slashes; the crate name is its `crates/<name>` segment.
pub fn parse_file(path: &str, source: &str) -> ParsedFile {
    let toks = tokenize(source);
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();
    let mut pf = ParsedFile {
        path: path.to_string(),
        crate_name,
        source: source.to_string(),
        toks,
        fns: Vec::new(),
    };
    let t = &pf.toks.tokens;
    let mut fns = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_cfg_test = false;
    let mut i = 0usize;
    while i < t.len() {
        // Attributes: `#[...]` may mark the next item `#[cfg(test)]`;
        // inner `#![...]` attributes are skipped without effect.
        if t[i].is_punct('#') {
            let mut j = i + 1;
            let inner = t.get(j).is_some_and(|x| x.is_punct('!'));
            if inner {
                j += 1;
            }
            if t.get(j).is_some_and(|x| x.is_punct('[')) {
                let (end, mut saw_cfg, mut saw_test) = (skip_group(t, j, '[', ']'), false, false);
                for tok in &t[j..end.min(t.len())] {
                    saw_cfg |= tok.is_ident("cfg");
                    saw_test |= tok.is_ident("test");
                }
                if !inner && saw_cfg && saw_test {
                    pending_cfg_test = true;
                }
                i = end;
                continue;
            }
        }
        if t[i].is_ident("impl") {
            if let Some(open) = (i + 1..t.len()).find(|&j| t[j].is_punct('{') || t[j].is_punct(';'))
            {
                if t[open].is_punct('{') {
                    scopes.push(Scope::Impl(impl_owner(t, i, open)));
                    pending_cfg_test = false;
                    i = open + 1;
                    continue;
                }
            }
        }
        if t[i].is_ident("mod") {
            if let Some(open) = (i + 1..t.len()).find(|&j| t[j].is_punct('{') || t[j].is_punct(';'))
            {
                if t[open].is_punct('{') {
                    scopes.push(if pending_cfg_test {
                        Scope::TestMod
                    } else {
                        Scope::Other
                    });
                    pending_cfg_test = false;
                    i = open + 1;
                    continue;
                }
            }
        }
        if t[i].is_ident("fn") {
            if let Some(name_tok) = t.get(i + 1).filter(|x| x.ident().is_some()) {
                let name = name_tok.ident().unwrap_or_default().to_string();
                let owner = scopes.iter().rev().find_map(|s| match s {
                    Scope::Impl(o) => o.clone(),
                    _ => None,
                });
                let in_test =
                    pending_cfg_test || scopes.iter().any(|s| matches!(s, Scope::TestMod));
                // Find the body open brace (or `;` for a bodyless decl),
                // skipping the argument parens and any generics.
                let mut j = i + 2;
                let mut body = None;
                while j < t.len() {
                    if t[j].is_punct('(') {
                        j = skip_group(t, j, '(', ')');
                    } else if t[j].is_punct('<') {
                        j = skip_angles(t, j);
                    } else if t[j].is_punct('{') {
                        let close = skip_group(t, j, '{', '}');
                        body = Some((j + 1, close.saturating_sub(1)));
                        j = close;
                        break;
                    } else if t[j].is_punct(';') {
                        j += 1;
                        break;
                    } else {
                        j += 1;
                    }
                }
                let calls = body.map_or(Vec::new(), |(lo, hi)| extract_calls(t, lo, hi));
                fns.push(FnItem {
                    name,
                    owner,
                    body,
                    in_test,
                    calls,
                });
                pending_cfg_test = false;
                i = j;
                continue;
            }
        }
        if t[i].is_punct('{') {
            scopes.push(Scope::Other);
        } else if t[i].is_punct('}') {
            scopes.pop();
        }
        if t[i].ident().is_some() {
            pending_cfg_test = false;
        }
        i += 1;
    }
    pf.fns = fns;
    pf
}

/// Index just past the group opened by the `open` punct at `at`.
fn skip_group(t: &[Token], at: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = at;
    while j < t.len() {
        if t[j].is_punct(open) {
            depth += 1;
        } else if t[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    t.len()
}

/// Index just past the `<...>` group opened at `at` (a `>` right after a
/// `-` is an arrow, not a close).
fn skip_angles(t: &[Token], at: usize) -> usize {
    let mut depth = 0usize;
    let mut j = at;
    while j < t.len() {
        if t[j].is_punct('<') {
            depth += 1;
        } else if t[j].is_punct('>') && !(j > 0 && t[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    t.len()
}

/// Best-effort `impl` owner: the last path ident of the implemented-on
/// type (`impl Foo<T>`, `impl Trait for a::b::Foo` both give `Foo`).
fn impl_owner(t: &[Token], start: usize, open: usize) -> Option<String> {
    let mut j = start + 1;
    if t.get(j).is_some_and(|x| x.is_punct('<')) {
        j = skip_angles(t, j);
    }
    // If a top-level `for` splits trait from type, the type starts after it.
    let mut k = j;
    let mut ty_start = j;
    while k < open {
        if t[k].is_punct('<') {
            k = skip_angles(t, k);
            continue;
        }
        if t[k].is_ident("for") {
            ty_start = k + 1;
        }
        k += 1;
    }
    let mut owner = None;
    let mut k = ty_start;
    while k < open {
        if t[k].is_punct('<') {
            k = skip_angles(t, k);
            continue;
        }
        if t[k].is_ident("where") {
            break;
        }
        if let Some(id) = t[k].ident() {
            if id != "dyn" && id != "mut" {
                owner = Some(id.to_string());
            }
        }
        k += 1;
    }
    owner
}

/// Call expressions in the body token range `[lo, hi)`.
fn extract_calls(t: &[Token], lo: usize, hi: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in lo..hi {
        let Some(name) = t[i].ident() else { continue };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `name(` or turbofish `name::<...>(`.
        let after = if t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_punct('<'))
        {
            skip_angles(t, i + 3)
        } else {
            i + 1
        };
        if after >= hi || !t[after].is_punct('(') {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &t[p]);
        let kind = match prev {
            Some(p) if p.is_punct('.') => CallKind::Method,
            Some(p) if p.is_punct(':') && i >= 2 && t[i - 2].is_punct(':') => {
                let q = i
                    .checked_sub(3)
                    .and_then(|p| t[p].ident())
                    .map(str::to_string);
                CallKind::Path(q)
            }
            Some(p) if p.is_ident("fn") => continue, // nested definition
            _ => CallKind::Direct,
        };
        out.push(CallSite {
            kind,
            name: name.to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/sim/src/x.rs", src)
    }

    #[test]
    fn free_fns_and_methods_carry_owners() {
        let pf = parse(
            "fn free() {}\n\
             struct Foo;\n\
             impl Foo { fn method(&self) {} }\n\
             impl std::fmt::Display for Foo { fn fmt(&self) {} }",
        );
        let names: Vec<(String, Option<String>)> = pf
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".to_string(), None),
                ("method".to_string(), Some("Foo".to_string())),
                ("fmt".to_string(), Some("Foo".to_string())),
            ]
        );
        assert_eq!(pf.crate_name, "sim");
    }

    #[test]
    fn generic_impl_headers_resolve_the_type_not_the_params() {
        let pf = parse("impl<T: Clone> Stack<T> { fn push2(&mut self, v: T) {} }");
        assert_eq!(pf.fns[0].owner.as_deref(), Some("Stack"));
    }

    #[test]
    fn calls_are_classified() {
        let pf = parse(
            "fn f(x: &X) {\n\
                helper(1);\n\
                x.method(2);\n\
                Foo::assoc(3);\n\
                turbo::<u64>(4);\n\
             }",
        );
        let calls: Vec<(String, CallKind)> = pf.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.kind.clone()))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("helper".to_string(), CallKind::Direct),
                ("method".to_string(), CallKind::Method),
                ("assoc".to_string(), CallKind::Path(Some("Foo".to_string()))),
                ("turbo".to_string(), CallKind::Direct),
            ]
        );
    }

    #[test]
    fn cfg_test_modules_and_fns_are_marked() {
        let pf = parse(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() {}\n\
                 #[test]\n\
                 fn case() { helper(); }\n\
             }\n\
             fn prod2() {}",
        );
        let by_name = |n: &str| pf.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("prod").in_test);
        assert!(by_name("helper").in_test);
        assert!(by_name("case").in_test);
        assert!(!by_name("prod2").in_test);
    }

    #[test]
    fn bodyless_trait_methods_have_no_body() {
        let pf = parse("trait T { fn decl(&self); fn with_default(&self) { self.decl(); } }");
        let decl = pf.fns.iter().find(|f| f.name == "decl").unwrap();
        assert!(decl.body.is_none());
        let def = pf.fns.iter().find(|f| f.name == "with_default").unwrap();
        assert!(def.body.is_some());
        assert_eq!(def.calls.len(), 1);
    }

    #[test]
    fn where_clauses_and_return_generics_do_not_break_body_detection() {
        let pf = parse(
            "fn f<T>(v: Vec<T>) -> Option<Vec<T>> where T: Clone { inner(v) }\n\
             fn g() {}",
        );
        assert_eq!(pf.fns.len(), 2);
        assert_eq!(pf.fns[0].calls.len(), 1);
        assert_eq!(pf.fns[0].calls[0].name, "inner");
    }
}
