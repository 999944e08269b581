//! The workspace model and call graph.
//!
//! [`Workspace`] holds every parsed source file; [`CallGraph`] flattens
//! their `fn` items into one node list and resolves each call site to
//! candidate callees by suffix name matching:
//!
//! * direct calls resolve to free functions of that name;
//! * method calls resolve to functions of that name that have an `impl`
//!   owner;
//! * `Owner::assoc` path calls resolve to functions whose owner matches
//!   the qualifier (`Self::` uses the caller's own owner; a lowercase
//!   qualifier is treated as a module path, i.e. like a direct call).
//!
//! When candidates exist in the caller's own crate, resolution is
//! restricted to them — cross-crate edges only form for names the
//! caller's crate doesn't define. Test-only functions are excluded from
//! both ends of every edge. This is a deliberate over/under-approximation
//! trade: good enough to carry hot-path reachability across call
//! boundaries, cheap enough to run on every CI push.

use crate::parser::{parse_file, CallKind, ParsedFile};
use std::collections::BTreeMap;

/// All parsed files, in lexicographic path order.
#[derive(Debug)]
pub struct Workspace {
    /// Parsed files (sorted by path).
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    /// Parses `(path, source)` pairs into a workspace model. The input
    /// is sorted by path so downstream IDs are deterministic.
    pub fn from_sources(mut files: Vec<(String, String)>) -> Self {
        files.sort();
        Self {
            files: files.iter().map(|(p, s)| parse_file(p, s)).collect(),
        }
    }

    /// Index of the file with `path`, if present.
    pub fn file_index(&self, path: &str) -> Option<usize> {
        self.files.iter().position(|f| f.path == path)
    }
}

/// A function node: `(file index, fn index within the file)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`ParsedFile::fns`].
    pub item: usize,
}

/// The flattened call graph over non-test functions.
#[derive(Debug)]
pub struct CallGraph {
    /// Flat node list, in (file, item) order.
    pub fns: Vec<FnRef>,
    /// Flat ids of the resolved callees per flat id, in call-site order.
    pub edges: Vec<Vec<usize>>,
    flat_of: BTreeMap<(usize, usize), usize>,
}

impl CallGraph {
    /// Builds the graph for `ws`.
    pub fn build(ws: &Workspace) -> Self {
        let mut fns = Vec::new();
        let mut flat_of = BTreeMap::new();
        for (fi, pf) in ws.files.iter().enumerate() {
            for (ii, item) in pf.fns.iter().enumerate() {
                if item.in_test {
                    continue;
                }
                flat_of.insert((fi, ii), fns.len());
                fns.push(FnRef { file: fi, item: ii });
            }
        }
        // Name index over non-test fns.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (flat, r) in fns.iter().enumerate() {
            by_name
                .entry(&ws.files[r.file].fns[r.item].name)
                .or_default()
                .push(flat);
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (flat, r) in fns.iter().enumerate() {
            for call in &ws.files[r.file].fns[r.item].calls {
                edges[flat].extend(resolve(ws, &fns, &by_name, r, call));
            }
        }
        Self {
            fns,
            edges,
            flat_of,
        }
    }

    /// Flat id of `(file, item)`, if the fn is a (non-test) node.
    pub fn flat(&self, file: usize, item: usize) -> Option<usize> {
        self.flat_of.get(&(file, item)).copied()
    }

    /// BFS over call edges from `roots`; the map records, for every
    /// reached node, the flat id it was first reached from (`None` for
    /// the roots themselves) — enough to reconstruct a witness chain.
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(r) {
                v.insert(None);
                queue.push(r);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let f = queue[qi];
            qi += 1;
            for &to in &self.edges[f] {
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(to) {
                    v.insert(Some(f));
                    queue.push(to);
                }
            }
        }
        parent
    }

    /// `weave_turn → run_quantum_local → commit`-style chain from
    /// a reachability root to `f`, given the parent map.
    pub fn chain(
        &self,
        ws: &Workspace,
        parents: &BTreeMap<usize, Option<usize>>,
        f: usize,
    ) -> String {
        let mut names = Vec::new();
        let mut cur = Some(f);
        while let Some(c) = cur {
            let r = self.fns[c];
            names.push(ws.files[r.file].fns[r.item].name.clone());
            cur = parents.get(&c).copied().flatten();
        }
        names.reverse();
        names.join(" → ")
    }
}

/// Resolves one call to candidate flat ids (possibly empty). Candidates
/// from the caller's crate shadow all others.
fn resolve(
    ws: &Workspace,
    fns: &[FnRef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: &FnRef,
    call: &crate::parser::CallSite,
) -> Vec<usize> {
    let Some(all) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let caller_crate = &ws.files[caller.file].crate_name;
    let matches_kind = |flat: &usize| -> bool {
        let r = fns[*flat];
        let owner = ws.files[r.file].fns[r.item].owner.as_deref();
        match &call.kind {
            CallKind::Direct => owner.is_none(),
            CallKind::Method => owner.is_some(),
            CallKind::Path(q) => {
                let q = match q.as_deref() {
                    // `Self::assoc` — the caller's own impl type.
                    Some("Self") => ws.files[caller.file].fns[caller.item].owner.clone(),
                    other => other.map(str::to_string),
                };
                match q {
                    // Lowercase-initial qualifier: a module path, so the
                    // target is a free fn (`ck::put_mask(...)`).
                    Some(q) if q.chars().next().is_some_and(char::is_lowercase) => owner.is_none(),
                    Some(q) => owner == Some(q.as_str()),
                    // `<A as B>::c` and friends: accept any owner-having fn.
                    None => owner.is_some(),
                }
            }
        }
    };
    let mut candidates: Vec<usize> = all.iter().copied().filter(|f| matches_kind(f)).collect();
    let same_crate: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|f| &ws.files[fns[*f].file].crate_name == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        candidates = same_crate;
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
                .collect(),
        )
    }

    fn fn_flat(ws: &Workspace, cg: &CallGraph, name: &str) -> usize {
        cg.fns
            .iter()
            .position(|r| ws.files[r.file].fns[r.item].name == name)
            .unwrap_or_else(|| panic!("fn {name} not in graph"))
    }

    #[test]
    fn direct_and_method_calls_resolve_through_one_level() {
        let ws = ws(&[(
            "crates/sim/src/a.rs",
            "fn root() { helper(); }\n\
             fn helper() { s.deep(); }\n\
             struct S;\n\
             impl S { fn deep(&self) {} }",
        )]);
        let cg = CallGraph::build(&ws);
        let root = fn_flat(&ws, &cg, "root");
        let reach = cg.reachable(&[root]);
        assert!(reach.contains_key(&fn_flat(&ws, &cg, "helper")));
        assert!(reach.contains_key(&fn_flat(&ws, &cg, "deep")));
        assert_eq!(
            cg.chain(&ws, &reach, fn_flat(&ws, &cg, "deep")),
            "root → helper → deep"
        );
    }

    #[test]
    fn same_crate_candidates_shadow_cross_crate_ones() {
        let ws = ws(&[
            (
                "crates/sim/src/a.rs",
                "fn root() { x.step(); }\nstruct A;\nimpl A { fn step(&self) { simside(); } }\nfn simside() {}",
            ),
            (
                "crates/core/src/b.rs",
                "struct B;\nimpl B { fn step(&self) { coreside(); } }\nfn coreside() {}",
            ),
        ]);
        let cg = CallGraph::build(&ws);
        let reach = cg.reachable(&[fn_flat(&ws, &cg, "root")]);
        assert!(reach.contains_key(&fn_flat(&ws, &cg, "simside")));
        assert!(!reach.contains_key(&fn_flat(&ws, &cg, "coreside")));
    }

    #[test]
    fn cross_crate_resolution_engages_when_the_name_is_foreign() {
        let ws = ws(&[
            ("crates/sim/src/a.rs", "fn root() { spill(); }"),
            (
                "crates/core/src/b.rs",
                "fn spill() { fill_inner(); }\nfn fill_inner() {}",
            ),
        ]);
        let cg = CallGraph::build(&ws);
        let reach = cg.reachable(&[fn_flat(&ws, &cg, "root")]);
        assert!(reach.contains_key(&fn_flat(&ws, &cg, "fill_inner")));
    }

    #[test]
    fn test_fns_are_invisible_to_the_graph() {
        let ws = ws(&[(
            "crates/sim/src/a.rs",
            "fn root() { helper(); }\n\
             #[cfg(test)]\n\
             mod tests { fn helper() {} }",
        )]);
        let cg = CallGraph::build(&ws);
        let root = fn_flat(&ws, &cg, "root");
        // The only `helper` is test-only, so the call resolves nowhere.
        assert_eq!(cg.reachable(&[root]).len(), 1);
    }

    #[test]
    fn self_path_calls_use_the_callers_owner() {
        let ws = ws(&[(
            "crates/sim/src/a.rs",
            "struct S;\nimpl S {\n fn a(&self) { Self::b(); }\n fn b() { marker(); }\n}\nfn marker() {}",
        )]);
        let cg = CallGraph::build(&ws);
        let reach = cg.reachable(&[fn_flat(&ws, &cg, "a")]);
        assert!(reach.contains_key(&fn_flat(&ws, &cg, "marker")));
    }
}
