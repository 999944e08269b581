//! Integration tests of the multi-core replay runtime (DESIGN.md §10):
//! bit-identical determinism across quantum sizes (fixed, short,
//! adaptive) and weave batching depths, per-core pack replay
//! equivalence, and the zero-cross-core-coherence guarantee for
//! disjoint working sets.

use califorms_sim::multicore::{MulticoreConfig, MulticoreEngine, MulticoreOutcome};
use califorms_sim::{HierarchyConfig, QuantumSizing, TraceOp, TracePack, LINE_BYTES};

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A pseudo-random shard mixing shared loads/stores, private traffic,
/// `CFORM`s and compute — enough entropy that any scheduling leak in the
/// runtime would show up as diverging stats.
fn chaotic_shard(core: u64, seed: u64, n: usize) -> Vec<TraceOp> {
    const SHARED: u64 = 0x9000_0000;
    let mut s = seed ^ core.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let x = xorshift(&mut s);
        let shared_addr = SHARED + (x >> 8) % 256 * LINE_BYTES + (x >> 24) % 8 * 8;
        match x % 10 {
            0..=4 => ops.push(TraceOp::Load {
                addr: shared_addr,
                size: 8,
            }),
            5..=6 => ops.push(TraceOp::Store {
                addr: shared_addr,
                size: 8,
            }),
            7 => ops.push(TraceOp::Store {
                addr: 0xA000_0000 + core * 0x10_0000 + (x >> 16) % 4096 * 8,
                size: 8,
            }),
            8 => ops.push(TraceOp::Exec((x % 24) as u32)),
            _ => ops.push(TraceOp::Cform {
                line_addr: SHARED + (x >> 8) % 256 * LINE_BYTES,
                attrs: 1 << (x % 64),
                mask: 1 << (x % 64),
            }),
        }
    }
    ops
}

fn chaotic_shards(cores: u64, seed: u64, n: usize) -> Vec<Vec<TraceOp>> {
    (0..cores).map(|c| chaotic_shard(c, seed, n)).collect()
}

/// A per-core streaming shard over a private region `c * 16 MB` apart:
/// loads sweep lines, stores dirty every fourth line, nothing is ever
/// shared.
fn disjoint_shard(core: u64, lines: u64) -> Vec<TraceOp> {
    let base = 0x4000_0000 + core * 0x100_0000;
    let mut ops = Vec::with_capacity(lines as usize * 2);
    for i in 0..lines {
        let addr = base + i * LINE_BYTES;
        ops.push(TraceOp::Load { addr, size: 8 });
        if i % 4 == 0 {
            ops.push(TraceOp::Store {
                addr: addr + 8,
                size: 8,
            });
        }
        ops.push(TraceOp::Exec(6));
    }
    ops
}

fn assert_identical(a: &MulticoreOutcome, b: &MulticoreOutcome) {
    assert_eq!(a.stats, b.stats, "stats (incl. runtime counters) diverged");
    assert_eq!(a.exceptions, b.exceptions, "exception lists diverged");
}

#[test]
fn determinism_holds_across_quantum_sizings() {
    let configs: [(&str, MulticoreConfig); 3] = [
        (
            "1k fixed",
            MulticoreConfig::westmere(4).with_quantum(1_000.0),
        ),
        ("10k fixed", MulticoreConfig::westmere(4)),
        (
            "adaptive",
            MulticoreConfig::westmere(4).with_adaptive_quantum(),
        ),
    ];
    for (name, cfg) in configs {
        let run = || MulticoreEngine::new(cfg).run(chaotic_shards(4, 0xDEAD_BEEF, 3_000));
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats, "{name}: runs must be bit-identical");
        assert_eq!(a.exceptions, b.exceptions, "{name}");
        assert!(
            a.stats.runtime.quanta > 0 && a.stats.runtime.weave_transactions > 0,
            "{name}: the machine must actually have run"
        );
    }
}

#[test]
fn weave_batching_depths_are_each_deterministic() {
    for batch in [1u32, 8, 64] {
        let cfg = MulticoreConfig::westmere(2).with_weave_batch(batch);
        let run = || MulticoreEngine::new(cfg).run(chaotic_shards(2, 99, 2_000));
        assert_identical(&run(), &run());
    }
    // batch == 1 reproduces the strict one-transaction-per-turn weave:
    // no transaction ever rides another's turn.
    let strict = MulticoreEngine::new(MulticoreConfig::westmere(2).with_weave_batch(1))
        .run(chaotic_shards(2, 99, 2_000));
    assert_eq!(strict.stats.runtime.batched_transactions, 0);
}

#[test]
fn disjoint_working_sets_need_zero_cross_core_coherence() {
    let shards: Vec<_> = (0..4).map(|c| disjoint_shard(c, 2_000)).collect();
    let out = MulticoreEngine::new(MulticoreConfig::westmere(4)).run(shards);
    // Every miss is private: the weave orders transactions but never
    // arbitrates between cores.
    let coh = &out.stats.combined.coherence;
    assert_eq!(coh.invalidations, 0, "disjoint sets never invalidate");
    assert_eq!(coh.cache_to_cache_transfers, 0);
    assert_eq!(coh.upgrades_s_to_m, 0, "no line is ever Shared");
    assert_eq!(
        out.stats.runtime.contended_transactions, 0,
        "no weave transaction may involve a second core"
    );
    assert!(
        out.stats.runtime.batched_transactions > 0,
        "private miss runs must batch into shared weave turns"
    );
    // And the run completed: every shard's memory ops were committed.
    assert_eq!(
        out.stats.combined.loads + out.stats.combined.stores,
        4 * (2_000 + 500),
        "all ops committed"
    );
}

#[test]
fn per_core_packs_replay_bit_identically() {
    for cores in [1usize, 2, 4] {
        let shards: Vec<_> = (0..cores as u64).map(|c| disjoint_shard(c, 500)).collect();
        let packs: Vec<TracePack> = shards
            .iter()
            .map(|s| TracePack::from_ops(s.iter().copied()))
            .collect();
        let unpacked = MulticoreEngine::new(MulticoreConfig::westmere(cores)).run(shards);
        let packed = MulticoreEngine::new(MulticoreConfig::westmere(cores)).run_packs(&packs);
        assert_identical(&unpacked, &packed);
    }
}

#[test]
fn adaptive_quantum_grows_over_coherence_free_runs() {
    // The shards are sequential sweeps: with the stream prefetcher on
    // they finish within two quanta either way, and this test is about
    // quantum sizing, not miss latency.
    let fixed_cfg = MulticoreConfig {
        hierarchy: HierarchyConfig {
            stream_prefetcher: false,
            ..HierarchyConfig::westmere()
        },
        ..MulticoreConfig::westmere(2)
    };
    let adaptive_cfg = fixed_cfg.with_adaptive_quantum();
    assert!(matches!(
        adaptive_cfg.runtime.quantum_sizing,
        QuantumSizing::Adaptive { .. }
    ));
    let shards = || (0..2).map(|c| disjoint_shard(c, 4_000)).collect::<Vec<_>>();
    let fixed = MulticoreEngine::new(fixed_cfg).run(shards());
    let adaptive = MulticoreEngine::new(adaptive_cfg).run(shards());
    // No coherence traffic → the quantum doubles up to 16x → far fewer
    // barriers for the same simulated work.
    assert!(
        adaptive.stats.runtime.quanta < fixed.stats.runtime.quanta,
        "adaptive ({}) must cross fewer barriers than fixed ({})",
        adaptive.stats.runtime.quanta,
        fixed.stats.runtime.quanta
    );
    // Architectural results are unaffected by quantum sizing here: with
    // no cross-core traffic, per-core replay is quantum-invariant.
    assert_eq!(adaptive.stats.combined.loads, fixed.stats.combined.loads);
    assert_eq!(adaptive.stats.combined.cycles, fixed.stats.combined.cycles);
}

/// Regression: the empty-quantum fast-forward must handle a core whose
/// cycle count lands **exactly** on a quantum boundary. Cores run while
/// `cycles < quantum_end`, so `cycles == quantum_end` cannot run in that
/// quantum and the skip must step one boundary further — an off-by-one
/// in either direction shows up as a wrong `rt.quanta`.
///
/// Westmere's 4-wide core makes `Exec(4n)` cost exactly `n` cycles, so
/// the landing point is exact in f64 (small integers).
#[test]
fn fast_forward_handles_a_trace_landing_exactly_on_the_boundary() {
    let cfg = MulticoreConfig::westmere(2).with_quantum(1_000.0);
    // Core 0 commits one huge Exec landing exactly on a boundary, then
    // one trailing instruction; core 1 finishes in the first quantum.
    for boundary_cycles in [2_000u64, 5_000, 1_000_000] {
        let shards = vec![
            vec![
                TraceOp::Exec((boundary_cycles * 4) as u32),
                TraceOp::Exec(4),
            ],
            vec![TraceOp::Exec(4)],
        ];
        let out = MulticoreEngine::new(cfg).run(shards);
        // Quantum 1 runs the huge Exec (and all of core 1); every
        // boundary it sails over is skipped — `cycles == quantum_end`
        // is *not* runnable, so the landing boundary is skipped too —
        // and exactly one more quantum commits the trailing Exec.
        assert_eq!(
            out.stats.runtime.quanta, 2,
            "boundary_cycles={boundary_cycles}: empty quanta must be \
             fast-forwarded, including the exact-landing one"
        );
        assert_eq!(
            out.stats.combined.cycles,
            boundary_cycles as f64 + 1.0,
            "boundary_cycles={boundary_cycles}"
        );
        assert_eq!(out.stats.combined.instructions, boundary_cycles * 4 + 4 + 4);
    }
    // One cycle short of the boundary: the landing quantum *is*
    // runnable, so nothing extra is skipped and the count is identical.
    let shards = vec![
        vec![TraceOp::Exec(2_000 * 4 - 4), TraceOp::Exec(4)],
        vec![TraceOp::Exec(4)],
    ];
    let out = MulticoreEngine::new(cfg).run(shards);
    assert_eq!(out.stats.runtime.quanta, 2);
    assert_eq!(out.stats.combined.cycles, 2_000.0);
}

#[test]
fn barrier_waits_track_quanta_and_cores() {
    for cores in [2usize, 4] {
        let out = MulticoreEngine::new(MulticoreConfig::westmere(cores)).run(chaotic_shards(
            cores as u64,
            5,
            1_000,
        ));
        assert_eq!(
            out.stats.runtime.barrier_waits,
            out.stats.runtime.quanta * cores as u64
        );
        assert!(out.timing.bound_s >= 0.0 && out.timing.weave_s >= 0.0);
    }
}
