//! Packed replay is bit-identical to unpacked replay: the same trace run
//! through `Engine::run` (iterator over a `Vec<TraceOp>`) and through
//! `Engine::run_pack` (batch-decoded from the binary pack) must produce
//! the same stats — every counter and every cycle — and the same
//! exception list; likewise for `MulticoreEngine::run` vs `run_pack`
//! under the deterministic round-robin sharding. And the multi-core
//! engine at one core is the single-core engine: both replay the same
//! memory stack, so every counter, cycles included, and every exception
//! agree.

use califorms_sim::multicore::shard_ops;
use califorms_sim::tracepack::TracePack;
use califorms_sim::{Engine, MulticoreConfig, MulticoreEngine, SimOutcome, SimStats, TraceOp};
use proptest::prelude::*;

/// Replays `pack` on `MulticoreEngine::westmere(1)` and returns the
/// first mismatch with the single-core outcome `single`, if any: the
/// combined stats, core 0's stats (the per-core fields) and the
/// exception list must all be equal.
fn one_core_mismatch(pack: &TracePack, single: &SimOutcome) -> Option<String> {
    let mc = MulticoreEngine::new(MulticoreConfig::westmere(1)).run_pack(pack);
    let s = &single.stats;
    let core0 = [SimStats {
        cycles: s.cycles,
        instructions: s.instructions,
        loads: s.loads,
        stores: s.stores,
        cforms: s.cforms,
        stores_suppressed: s.stores_suppressed,
        exceptions_delivered: s.exceptions_delivered,
        exceptions_suppressed: s.exceptions_suppressed,
        l1d: s.l1d,
        ..SimStats::default()
    }];
    if mc.stats.combined != *s {
        Some(format!("combined {:?} != {:?}", mc.stats.combined, s))
    } else if mc.stats.per_core != core0 {
        Some(format!("per-core {:?} != {core0:?}", mc.stats.per_core))
    } else if mc.exceptions != [single.exceptions.clone()] {
        Some("exceptions differ".to_string())
    } else {
        None
    }
}

/// A trace shaped like real workload output: mixed strided loads/stores,
/// CFORMs installing and removing spans, mask windows, exec gaps — and
/// rogue accesses so the exception path is exercised too.
fn mixed_trace(ops: usize, seed: u64) -> Vec<TraceOp> {
    mixed_trace_with(ops, seed, true)
}

/// `with_masks = false` yields a shard-safe trace: round-robin sharding
/// sends each op to a different core, so `MaskPush`/`MaskPop` pairs would
/// split across cores and unbalance their per-core mask stacks (see the
/// `shard_ops` docs).
fn mixed_trace_with(ops: usize, seed: u64, with_masks: bool) -> Vec<TraceOp> {
    let mut state = seed | 1;
    let mut roll = move |m: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % m
    };
    let mut trace = Vec::with_capacity(ops);
    let mut mask_depth = 0u32;
    for i in 0..ops {
        let addr = 0x10_0000 + roll(1 << 16);
        trace.push(match roll(100) {
            0..=39 => TraceOp::Load {
                addr,
                size: 1 << roll(4),
            },
            40..=69 => TraceOp::Store {
                addr,
                size: 1 << roll(4),
            },
            70..=79 => TraceOp::Exec(roll(40) as u32),
            80..=86 => TraceOp::Cform {
                line_addr: addr & !63,
                attrs: 0x7F << 56,
                mask: 0x7F << 56,
            },
            87..=91 => TraceOp::CformNt {
                line_addr: addr & !63,
                attrs: 0,
                mask: 0x7F << 56,
            },
            92..=94 if with_masks => {
                mask_depth += 1;
                TraceOp::MaskPush
            }
            95..=97 if with_masks && mask_depth > 0 => {
                mask_depth -= 1;
                TraceOp::MaskPop
            }
            92..=97 => TraceOp::Exec(1),
            // Rogue probe into the span tail: may fault, exercising the
            // exception list equality.
            _ => TraceOp::Load {
                addr: (addr & !63) + 56 + roll(7),
                size: 1,
            },
        });
        // Periodic line-crossing accesses.
        if i % 97 == 0 {
            trace.push(TraceOp::Load {
                addr: (addr & !63) + 60,
                size: 8,
            });
        }
    }
    trace
}

#[test]
fn packed_single_core_replay_is_bit_identical() {
    let trace = mixed_trace(20_000, 7);
    let pack = TracePack::from_ops(trace.iter().copied());
    assert_eq!(pack.len_ops() as usize, trace.len());

    let unpacked = Engine::westmere().run(trace.iter().copied());
    let packed = Engine::westmere().run_pack(&pack);
    assert_eq!(unpacked.stats, packed.stats);
    assert_eq!(unpacked.exceptions, packed.exceptions);
    assert!(
        unpacked.stats.exceptions_delivered > 0,
        "the trace must exercise the exception path for the comparison to mean anything"
    );
    assert_eq!(one_core_mismatch(&pack, &packed), None);
}

#[test]
fn streamed_reader_replay_is_bit_identical() {
    use califorms_sim::tracepack::{TracePackReader, TracePackWriter};
    let trace = mixed_trace(5_000, 11);
    let mut w = TracePackWriter::new(Vec::new()).unwrap();
    for &op in &trace {
        w.write_op(op).unwrap();
    }
    let bytes = w.finish().unwrap();

    let unpacked = Engine::westmere().run(trace.iter().copied());
    let mut reader = TracePackReader::new(bytes.as_slice()).unwrap();
    let streamed = Engine::westmere().run_reader(&mut reader).unwrap();
    assert_eq!(unpacked.stats, streamed.stats);
    assert_eq!(unpacked.exceptions, streamed.exceptions);
}

#[test]
fn packed_multicore_replay_is_bit_identical() {
    for cores in [1usize, 2, 4] {
        let trace = mixed_trace_with(8_000, 13, false);
        let pack = TracePack::from_ops(trace.iter().copied());

        let unpacked = MulticoreEngine::new(MulticoreConfig::westmere(cores))
            .run(shard_ops(trace.iter().copied(), cores));
        let packed = MulticoreEngine::new(MulticoreConfig::westmere(cores)).run_pack(&pack);
        assert_eq!(
            unpacked.stats.combined, packed.stats.combined,
            "combined stats must match at {cores} cores"
        );
        assert_eq!(unpacked.stats.per_core, packed.stats.per_core);
        assert_eq!(unpacked.exceptions, packed.exceptions);
    }
}

#[test]
fn shard_ops_round_robin_is_deterministic_and_complete() {
    let trace = mixed_trace(1_000, 3);
    let shards = shard_ops(trace.iter().copied(), 3);
    assert_eq!(shards.len(), 3);
    assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), trace.len());
    // Op i lands on core i % 3.
    for (i, &op) in trace.iter().enumerate() {
        assert_eq!(shards[i % 3][i / 3], op);
    }
    assert_eq!(shards, shard_ops(trace.iter().copied(), 3));
}

proptest! {
    /// Bit-identity holds for arbitrary (valid) random traces, not just
    /// the hand-shaped mix above.
    #[test]
    fn packed_replay_matches_for_random_traces(seed in any::<u64>()) {
        let trace = mixed_trace(2_000, seed);
        let pack = TracePack::from_ops(trace.iter().copied());
        let unpacked = Engine::westmere().run(trace.iter().copied());
        let packed = Engine::westmere().run_pack(&pack);
        prop_assert_eq!(one_core_mismatch(&pack, &packed), None);
        prop_assert_eq!(unpacked.stats, packed.stats);
        prop_assert_eq!(unpacked.exceptions, packed.exceptions);
    }
}

/// FNV-1a 64 over the `Debug` rendering of `value`, then over `extra`.
fn fnv1a_debug(value: &impl std::fmt::Debug, extra: &[u8]) -> u64 {
    format!("{value:?}")
        .bytes()
        .chain(extra.iter().copied())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Pins the replay results of the four SPEC profiles the `spec_1c`
/// benchmark workload replays (5k steady-state ops each after the
/// profile's warm-up, seed 1, the intelligent 1–7 B policy) across commits, three ways each:
/// `Engine::run_pack`, `Engine::run_pack_checkpointed` (whose checkpoint
/// bytes are hashed too, so the serialized LRU stamps and directory are
/// pinned) and a 2-core `MulticoreEngine::try_run_pack`. The other
/// bit-identity tests compare two paths of the same build; this one
/// compares against hashes recorded before a hot-path change, so a
/// speed-up that moves a cycle, a counter, an exception or a checkpoint
/// byte fails here. A deliberate model change updates the table and
/// says why.
#[test]
fn spec_profile_replays_match_pinned_hashes() {
    use califorms_layout::InsertionPolicy;
    use califorms_sim::{CoreConfig, HierarchyConfig};
    use califorms_workloads::{generate, spec, WorkloadConfig};

    // (profile, run_pack, run_pack_checkpointed + bytes, 2-core run).
    const PINNED: [(&str, u64, u64, u64); 4] = [
        (
            "hmmer",
            17_884_016_452_808_331_820,
            15_685_836_001_802_697_164,
            1_931_353_943_431_435_881,
        ),
        (
            "libquantum",
            11_238_023_645_697_598_284,
            3_490_591_031_137_082_196,
            3_669_408_343_273_419_559,
        ),
        (
            "mcf",
            13_746_270_347_049_112_077,
            15_515_492_425_297_378_830,
            600_678_447_296_922_481,
        ),
        (
            "omnetpp",
            8_582_957_036_997_095_367,
            12_194_261_731_460_370_124,
            2_035_594_534_095_904_307,
        ),
    ];
    let mut got = Vec::new();
    // (califormed fills single-core, S→M upgrades at 2 cores): the pin
    // must cover the conversion layer and the upgrade path.
    let mut coverage = (0, 0);
    for (name, ..) in PINNED {
        let profile = spec::by_name(name).expect("SPEC profile exists");
        let cfg = WorkloadConfig::with_policy(InsertionPolicy::intelligent_1_to(7), 5_000, 1);
        let w = generate(&profile, &cfg);
        let pack = w.to_pack();
        let engine = || {
            Engine::new(
                HierarchyConfig::westmere(),
                CoreConfig::westmere().with_overlap(w.overlap),
            )
        };
        let plain = engine().run_pack(&pack);
        // About four checkpoints per pack.
        let batches = pack.len_ops().div_ceil(Engine::REPLAY_BATCH as u64);
        let (ckpt, checkpoints) = engine().run_pack_checkpointed(&pack, batches.div_ceil(5));
        assert_eq!(
            plain, ckpt,
            "{name}: checkpointing must not perturb the run"
        );
        assert!(
            !checkpoints.is_empty(),
            "{name}: the pack must span a checkpoint"
        );
        let mc = MulticoreEngine::new(MulticoreConfig::westmere(2).with_overlap(w.overlap))
            .try_run_pack(&pack)
            .expect("2-core replay");
        coverage.0 += plain.stats.fills;
        coverage.1 += mc.stats.combined.coherence.upgrades_s_to_m;
        got.push((
            name,
            fnv1a_debug(&(&plain.stats, &plain.exceptions), &[]),
            fnv1a_debug(&(&ckpt.stats, &ckpt.exceptions), &checkpoints.concat()),
            fnv1a_debug(&(&mc.stats, &mc.exceptions), &[]),
        ));
    }
    assert!(coverage.0 > 0 && coverage.1 > 0, "{coverage:?}");
    assert_eq!(got, PINNED);
}
