//! The multi-core runtime: configuration, deterministic runtime counters
//! and host-side phase timing (DESIGN.md §10).
//!
//! * [`RuntimeConfig`] — weave batching and quantum sizing knobs.
//! * [`RuntimeStats`] — counters derived purely from simulated state
//!   (quanta, weave turns, batched/contended transactions). They are
//!   **bit-identical** across runs and
//!   across packed/unpacked replay, so they ride inside
//!   [`crate::stats::MulticoreStats`] and the determinism assertions.
//! * [`RuntimeTiming`] — host wall-clock per phase (bound / weave /
//!   quantum-boundary bookkeeping). Host timing varies from run to run,
//!   so it lives on [`crate::multicore::MulticoreOutcome`], *outside* the
//!   stats that must compare equal.

/// How the cycle-quantum length evolves over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantumSizing {
    /// The quantum stays at [`crate::multicore::MulticoreConfig::quantum`]
    /// for the whole run — the reproducible default.
    Fixed,
    /// The quantum adapts to observed coherence traffic, within
    /// `[min, max]` cycles: it doubles after a quantum with **zero**
    /// cross-core coherence events (disjoint working sets barely
    /// synchronise) and halves after a quantum with more than
    /// [`ADAPTIVE_SHRINK_THRESHOLD`] of them (contended lines interleave
    /// finely). Decisions read only simulated state, so adaptive runs are
    /// still bit-identical for a given seed and configuration.
    Adaptive {
        /// Smallest quantum the controller may shrink to (cycles).
        min: f64,
        /// Largest quantum the controller may grow to (cycles).
        max: f64,
    },
}

/// Cross-core coherence events per quantum above which an
/// [`QuantumSizing::Adaptive`] quantum halves.
pub const ADAPTIVE_SHRINK_THRESHOLD: u64 = 32;

/// Knobs of the multi-core runtime, carried by
/// [`crate::multicore::MulticoreConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Quantum sizing policy (default: [`QuantumSizing::Fixed`], the
    /// pre-existing behaviour, for reproducibility).
    pub quantum_sizing: QuantumSizing,
    /// Most coherence transactions one core may retire in a single weave
    /// turn. A run of *private* transactions (no other core involved)
    /// costs one turn instead of one turn each; a contended transaction
    /// always ends the turn so intra-quantum ping-pong keeps its
    /// transaction-granular round-robin. `1` reproduces the strict
    /// one-transaction-per-turn weave.
    pub weave_batch: u32,
}

impl RuntimeConfig {
    /// Default batching depth of a weave turn.
    pub const DEFAULT_WEAVE_BATCH: u32 = 64;
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            quantum_sizing: QuantumSizing::Fixed,
            weave_batch: Self::DEFAULT_WEAVE_BATCH,
        }
    }
}

/// Deterministic counters of the multi-core runtime. Every field is a
/// function of simulated state only, so they participate in the
/// bit-identity comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Cycle quanta executed.
    pub quanta: u64,
    /// Core quantum-boundary crossings: `quanta × cores`. Kept because
    /// the checkpoint format records it and the restore checks it.
    pub barrier_waits: u64,
    /// Weave turns taken (one core's slice of the round-robin in which it
    /// made progress).
    pub weave_turns: u64,
    /// Coherence transactions executed in the weave phase.
    pub weave_transactions: u64,
    /// Weave transactions that rode an earlier transaction's turn — the
    /// savings of [`RuntimeConfig::weave_batch`] over the strict
    /// one-transaction-per-turn weave.
    pub batched_transactions: u64,
    /// Weave transactions that involved another core (recall,
    /// invalidation, cross-core upgrade) and therefore ended their turn.
    /// `weave_transactions − contended_transactions` is the private
    /// traffic the weave merely orders, rather than arbitrates.
    pub contended_transactions: u64,
}

/// Host wall-clock spent per phase — the breakdown the bench bins emit so
/// scaling regressions are diagnosable from the JSON artifact. Host time
/// is inherently scheduling-dependent, so this lives outside
/// [`RuntimeStats`] and outside every bit-identity comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeTiming {
    /// Seconds in the bound phase (every core's private-L1 fast path).
    pub bound_s: f64,
    /// Seconds in the weave phase.
    pub weave_s: f64,
    /// Seconds of quantum-boundary bookkeeping: the quantum counters,
    /// the adaptive-quantum step and the fast-forward over empty quanta
    /// (checkpoint capture excluded).
    pub barrier_s: f64,
    /// Per-core / per-quantum breakdown of [`Self::weave_s`]. Populated
    /// only on telemetry-enabled runs (empty otherwise — plain runs don't
    /// pay for per-turn clock reads).
    pub weave_breakdown: crate::stats::WeaveTimingBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runtime_is_fixed_quantum() {
        let cfg = RuntimeConfig::default();
        assert_eq!(cfg.quantum_sizing, QuantumSizing::Fixed);
        assert_eq!(cfg.weave_batch, RuntimeConfig::DEFAULT_WEAVE_BATCH);
    }
}
