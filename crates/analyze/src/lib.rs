//! # califorms-analyze
//!
//! Static analysis for the Califorms workspace — the tooling that turns
//! the repo's central invariant, *same seed ⇒ bit-identical results
//! across every core count, quantum size and weave batch*, from a
//! dynamically-tested property (the `califorms-oracle` differential
//! harness catches violations after they ship) into a
//! structurally-enforced one (DESIGN.md §12).
//!
//! Two subsystems:
//!
//! * **The workspace lint pass** ([`lint`], over a lightweight Rust
//!   [`tokenizer`]) enforces repo-specific determinism invariants on
//!   `crates/*/src`: no default-hasher `HashMap`/`HashSet` in
//!   result-bearing crates, no host timing or OS randomness in
//!   simulated-result paths, no thread spawns,
//!   `#![forbid(unsafe_code)]` in every crate root, and no
//!   iteration over nondeterministic maps. Findings carry rustc-style
//!   file:line spans ([`diagnostics`]), render as human diagnostics or
//!   a versioned, byte-stable JSON report, and can be suppressed inline
//!   with `// analyze::allow(<lint-name>): <reason>`. [`fix`] applies
//!   the mechanical remediations.
//! * **The call-graph pass** builds a whole-workspace call graph
//!   ([`parser`] + [`callgraph`]) and reasons across function
//!   boundaries: [`hotpath`] bases the hot-path lints
//!   (`hot-path-unwrap`, `hot-path-alloc`, `hot-path-blocking`) on
//!   reachability from the replay hot-path roots.
//!
//! CI entry point: `cargo run -p califorms-analyze -- --check` (lints the
//! workspace, exits non-zero on findings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod diagnostics;
pub mod fix;
pub mod hotpath;
pub mod lint;
pub mod parser;
pub mod tokenizer;
pub mod workspace;

pub use config::LintConfig;
pub use diagnostics::{Finding, Report};
pub use lint::{lint_source, SourceContext};
pub use workspace::{analyze_sources, scan_workspace};
