//! The benchmark's four workloads: how each is built from a seed, which
//! public entry point replays it, and the untimed twin its output must
//! match. Why each workload exists is recorded in `perfbench/README.md`.

use crate::trace::Tracer;
use califorms_layout::InsertionPolicy;
use califorms_sim::{
    CoreConfig, Engine, HierarchyConfig, MulticoreConfig, MulticoreEngine, MulticoreOutcome,
    RunError, RuntimeStats, RuntimeTiming, SimOutcome, SimStats, TraceOp, TracePack,
};
use califorms_workloads::{
    generate, generate_mt, spec, MtPattern, MtWorkloadConfig, WorkloadConfig,
};

/// Simulated cores of every multi-core workload: one worker thread per
/// core, matching the two CPUs the benchmark was calibrated on.
pub const CORES: usize = 2;

/// The SPEC stand-ins of `spec_1c`: L1-resident, streaming, DRAM-bound,
/// and spill/fill/CFORM-heavy.
pub const SPEC_PROFILES: [&str; 4] = ["hmmer", "libquantum", "mcf", "omnetpp"];

/// Checkpoints a checkpointed run takes; the resume point is the one
/// nearest the middle of the run.
pub const CHECKPOINTS: u64 = 8;

/// `mc_lock_2c`'s quantum: short enough that the lock line ping-pongs
/// between the cores thousands of times per run.
const LOCK_QUANTUM: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Spec1c,
    McHot2c,
    McLock2c,
    McStreamCkpt2c,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Spec1c,
        Kind::McHot2c,
        Kind::McLock2c,
        Kind::McStreamCkpt2c,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Spec1c => "spec_1c",
            Kind::McHot2c => "mc_hot_2c",
            Kind::McLock2c => "mc_lock_2c",
            Kind::McStreamCkpt2c => "mc_stream_ckpt_2c",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn multicore(self) -> bool {
        self != Kind::Spec1c
    }
}

/// Workload size. `Tiny` exists for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// Steady-state ops per SPEC profile, or ops per core for the
    /// multi-core patterns.
    fn ops(self, kind: Kind) -> usize {
        match (self, kind) {
            (Size::Tiny, _) => 3_000,
            (Size::Full, Kind::Spec1c) => 150_000,
            (Size::Full, Kind::McHot2c) => 500_000,
            (Size::Full, Kind::McLock2c) => 150_000,
            (Size::Full, Kind::McStreamCkpt2c) => 400_000,
        }
    }
}

/// A generated workload: its packs and the engine configuration.
pub struct Workload {
    pub kind: Kind,
    /// `spec_1c`: one pack per profile. `mc_hot_2c`/`mc_lock_2c`: one pack
    /// per core. `mc_stream_ckpt_2c`: the one pack the cores share.
    pub packs: Vec<TracePack>,
    /// Memory-level parallelism of the core model, per pack.
    overlaps: Vec<f64>,
    /// `mc_hot_2c`/`mc_lock_2c` only: the per-core shards interleaved
    /// into one pack. The checkpointing entry points replay one shared
    /// pack, so `resume_s` and the checkpoint metrics are measured on this
    /// pack (same ops, round-robin sharded).
    pub joined: Option<TracePack>,
    pub generate_s: f64,
    pub encode_s: f64,
}

/// What one replay produced, reduced to what the benchmark checks and
/// reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Hash of every statistic and exception the run returned.
    pub digest: u64,
    pub counts: Counts,
    pub runtime: RuntimeStats,
    pub timing: RuntimeTiming,
}

/// Deterministic event counts summed over a workload's traces.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub cycles: f64,
    pub instructions: u64,
    pub l1d_hits: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub l3_misses: u64,
    pub dram_accesses: u64,
    pub spills: u64,
    pub fills: u64,
    pub cforms: u64,
    pub directory_lookups: u64,
    pub invalidations: u64,
    pub upgrades_s_to_m: u64,
    pub c2c_transfers: u64,
    pub califormed_transfers: u64,
}

impl Counts {
    fn add(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.instructions += s.instructions;
        self.l1d_hits += s.l1d.hits;
        self.l1d_misses += s.l1d.misses;
        self.l2_misses += s.l2.misses;
        self.l3_misses += s.l3.misses;
        self.dram_accesses += s.dram_accesses;
        self.spills += s.spills;
        self.fills += s.fills;
        self.cforms += s.cforms;
        self.directory_lookups += s.coherence.directory_lookups;
        self.invalidations += s.coherence.invalidations;
        self.upgrades_s_to_m += s.coherence.upgrades_s_to_m;
        self.c2c_transfers += s.coherence.cache_to_cache_transfers;
        self.califormed_transfers += s.coherence.califormed_transfers;
    }
}

/// FNV-1a over the `Debug` rendering, which covers every field of the
/// stats (per-core, combined, runtime counters, weave breakdown) and
/// every recorded exception.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

fn single_core(outcomes: &[SimOutcome]) -> Outcome {
    let mut counts = Counts::default();
    for o in outcomes {
        counts.add(&o.stats);
    }
    Outcome {
        digest: digest(&outcomes),
        counts,
        runtime: RuntimeStats::default(),
        timing: RuntimeTiming::default(),
    }
}

fn multicore(o: MulticoreOutcome) -> Outcome {
    let mut counts = Counts::default();
    counts.add(&o.stats.combined);
    Outcome {
        digest: digest(&(&o.stats, &o.exceptions)),
        counts,
        runtime: o.stats.runtime,
        timing: o.timing,
    }
}

/// The pack's ops in a `Vec` of exactly their size, so the twin's input
/// does not grow by doubling.
fn decode(pack: &TracePack) -> Vec<TraceOp> {
    let mut ops = Vec::with_capacity(usize::try_from(pack.len_ops()).expect("op count fits usize"));
    ops.extend(pack.iter());
    ops
}

/// Round-robin interleaving of per-core shards into one op stream.
fn interleave(shards: &[Vec<TraceOp>]) -> Vec<TraceOp> {
    let longest = shards.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| shards.iter().filter_map(move |s| s.get(i).copied()))
        .collect()
}

impl Workload {
    /// Generates the workload from `seed` and encodes its packs, timing
    /// both steps.
    pub fn build(kind: Kind, seed: u64, size: Size, tr: &mut Tracer) -> Workload {
        let ops = size.ops(kind);
        let mut generate_s = 0.0;
        let mut encode_s = 0.0;
        let mut packs = Vec::new();
        let mut overlaps = Vec::new();
        let mut joined = None;
        let policy = InsertionPolicy::intelligent_1_to(7);
        let profiles: &[&'static str] = match kind {
            Kind::Spec1c => &SPEC_PROFILES,
            Kind::McStreamCkpt2c => &["libquantum"],
            Kind::McHot2c | Kind::McLock2c => &[],
        };
        for &name in profiles {
            let profile = spec::by_name(name).expect("SPEC profile exists");
            let (w, g) = tr.time("workloads.generate", || {
                generate(&profile, &WorkloadConfig::with_policy(policy, ops, seed))
            });
            let (pack, e) = tr.time("tracepack.encode", || w.to_pack());
            generate_s += g;
            encode_s += e;
            packs.push(pack);
            overlaps.push(w.overlap);
        }
        if matches!(kind, Kind::McHot2c | Kind::McLock2c) {
            let pattern = if kind == Kind::McHot2c {
                MtPattern::SharedTableHot
            } else {
                MtPattern::LockContention
            };
            let cfg = MtWorkloadConfig {
                pattern,
                cores: CORES,
                ops_per_core: ops,
                seed,
                califormed: true,
            };
            let (w, g) = tr.time("workloads.generate_mt", || generate_mt(&cfg));
            let (shard_packs, e) = tr.time("tracepack.encode", || w.to_packs());
            let (pack, e2) = tr.time("tracepack.encode", || {
                TracePack::from_ops(interleave(&w.shards))
            });
            generate_s += g;
            encode_s += e + e2;
            overlaps = vec![w.overlap; shard_packs.len()];
            packs = shard_packs;
            joined = Some(pack);
        }
        Workload {
            kind,
            packs,
            overlaps,
            joined,
            generate_s,
            encode_s,
        }
    }

    pub fn ops(&self) -> u64 {
        self.packs.iter().map(TracePack::len_ops).sum()
    }

    pub fn pack_bytes(&self) -> u64 {
        self.packs.iter().map(|p| p.bytes().len() as u64).sum()
    }

    /// The single-core engine for pack `i`.
    fn engine(&self, i: usize) -> Engine {
        Engine::new(
            HierarchyConfig::westmere(),
            CoreConfig::westmere().with_overlap(self.overlaps[i]),
        )
    }

    fn mc_config(&self) -> MulticoreConfig {
        let cfg = MulticoreConfig {
            hierarchy: HierarchyConfig::westmere(),
            ..MulticoreConfig::westmere(CORES)
        }
        .with_overlap(self.overlaps[0]);
        if self.kind == Kind::McLock2c {
            cfg.with_quantum(LOCK_QUANTUM)
        } else {
            cfg
        }
    }

    /// The pack the checkpointing entry points replay, for multi-core
    /// workloads.
    fn shared_pack(&self) -> &TracePack {
        self.joined.as_ref().unwrap_or(&self.packs[0])
    }

    /// The untimed twin of the timed replay: `Engine::run` or
    /// `MulticoreEngine::run` over the decoded `Vec`s, with the seconds
    /// each simulation took (decoding excluded), one entry per trace
    /// single-core and one in all multi-core.
    pub fn twin(&self, tr: &mut Tracer) -> Result<(Outcome, Vec<f64>), RunError> {
        let shards = match self.kind {
            Kind::Spec1c => {
                let mut secs = Vec::new();
                let outcomes: Vec<SimOutcome> = (0..self.packs.len())
                    .map(|i| {
                        let ops = decode(&self.packs[i]);
                        let (o, s) = tr.time("twin.engine.run", || self.engine(i).run(ops));
                        secs.push(s);
                        o
                    })
                    .collect();
                return Ok((single_core(&outcomes), secs));
            }
            Kind::McHot2c | Kind::McLock2c => self.packs.iter().map(decode).collect(),
            Kind::McStreamCkpt2c => {
                // `shard_ops`' round robin into shards of exactly their
                // size, so the twin's input does not grow by doubling.
                let pack = &self.packs[0];
                let n = usize::try_from(pack.len_ops()).expect("op count fits usize");
                let mut shards: Vec<Vec<TraceOp>> = (0..CORES)
                    .map(|c| Vec::with_capacity((n + CORES - 1 - c) / CORES))
                    .collect();
                for (i, op) in pack.iter().enumerate() {
                    shards[i % CORES].push(op);
                }
                shards
            }
        };
        let cfg = self.mc_config();
        let (o, s) = tr.time("twin.multicore.run", || {
            MulticoreEngine::new(cfg).try_run(shards)
        });
        Ok((multicore(o?), vec![s]))
    }

    /// The timed replay behind `sim_mops`. `mc_stream_ckpt_2c` runs
    /// checkpointed every `intervals[0]` quanta and keeps its checkpoints.
    pub fn replay(&self, tr: &mut Tracer, intervals: &[u64]) -> Result<Replay, RunError> {
        match self.kind {
            Kind::Spec1c => {
                let mut secs = 0.0;
                let outcomes: Vec<SimOutcome> = (0..self.packs.len())
                    .map(|i| {
                        let (o, s) = tr.time("sim.engine.run_pack", || {
                            self.engine(i).run_pack(&self.packs[i])
                        });
                        secs += s;
                        o
                    })
                    .collect();
                Ok(Replay {
                    outcome: single_core(&outcomes),
                    checkpoints: Vec::new(),
                    secs,
                })
            }
            Kind::McHot2c | Kind::McLock2c => {
                let cfg = self.mc_config();
                let (o, secs) = tr.time("sim.multicore.run_packs", || {
                    MulticoreEngine::new(cfg).try_run_packs(&self.packs)
                });
                Ok(Replay {
                    outcome: multicore(o?),
                    checkpoints: Vec::new(),
                    secs,
                })
            }
            Kind::McStreamCkpt2c => self.run_checkpointed(tr, intervals),
        }
    }

    /// Replays the shared pack (multi-core) or each profile pack
    /// (single-core) with a checkpoint every `intervals[i]` quanta or
    /// decode batches, kept in memory.
    pub fn run_checkpointed(&self, tr: &mut Tracer, intervals: &[u64]) -> Result<Replay, RunError> {
        if self.kind.multicore() {
            let mut ckpts = Vec::new();
            let cfg = self.mc_config();
            let (o, secs) = tr.time("sim.checkpoint.run_pack_checkpointed", || {
                MulticoreEngine::new(cfg).try_run_pack_checkpointed_with(
                    self.shared_pack(),
                    intervals[0],
                    |b| ckpts.push(b),
                )
            });
            Ok(Replay {
                outcome: multicore(o?),
                checkpoints: vec![Checkpoints::keep(ckpts)],
                secs,
            })
        } else {
            let mut outcomes = Vec::new();
            let mut checkpoints = Vec::new();
            let mut secs = 0.0;
            for (i, &interval) in intervals.iter().enumerate() {
                let ((o, c), s) = tr.time("sim.checkpoint.run_pack_checkpointed", || {
                    self.engine(i)
                        .run_pack_checkpointed(&self.packs[i], interval)
                });
                outcomes.push(o);
                checkpoints.push(Checkpoints::keep(c));
                secs += s;
            }
            Ok(Replay {
                outcome: single_core(&outcomes),
                checkpoints,
                secs,
            })
        }
    }

    /// The plain (uncheckpointed) replay of the pack(s) that
    /// [`Self::run_checkpointed`] replays, with its seconds.
    pub fn run_plain(&self, tr: &mut Tracer) -> Result<(Outcome, f64), RunError> {
        if self.kind.multicore() {
            let cfg = self.mc_config();
            let (o, secs) = tr.time("sim.multicore.run_pack", || {
                MulticoreEngine::new(cfg).try_run_pack(self.shared_pack())
            });
            Ok((multicore(o?), secs))
        } else {
            let r = self.replay(tr, &[])?;
            Ok((r.outcome, r.secs))
        }
    }

    /// Resumes from one checkpoint per checkpointed run and runs to the
    /// end, with the seconds that took.
    pub fn resume(&self, tr: &mut Tracer, ckpts: &[&[u8]]) -> Result<(Outcome, f64), RunError> {
        if self.kind.multicore() {
            let (o, secs) = tr.time("sim.checkpoint.try_resume_pack", || {
                MulticoreEngine::try_resume_pack(self.shared_pack(), ckpts[0])
            });
            Ok((multicore(o?), secs))
        } else {
            let mut outcomes = Vec::new();
            let mut secs = 0.0;
            for (pack, c) in self.packs.iter().zip(ckpts) {
                let (o, s) = tr.time("sim.checkpoint.resume_pack", || {
                    Engine::resume_pack(pack, c)
                });
                outcomes.push(o?);
                secs += s;
            }
            Ok((single_core(&outcomes), secs))
        }
    }
}

/// One replay: its outcome, what each of its checkpointed runs kept of
/// its checkpoints (nothing when the replay takes none), and its seconds
/// in the engine.
pub struct Replay {
    pub outcome: Outcome,
    pub checkpoints: Vec<Option<Checkpoints>>,
    pub secs: f64,
}

/// What the benchmark keeps of one checkpointed run's checkpoints: how
/// many it took, their total size, and the two it resumes from.
pub struct Checkpoints {
    pub count: usize,
    pub bytes: usize,
    /// The checkpoint nearest the middle of the run.
    pub mid: Vec<u8>,
    /// The last checkpoint, for `checkpoint.restore_s`.
    pub last: Vec<u8>,
}

impl Checkpoints {
    /// `None` when the run took no checkpoint.
    fn keep(mut all: Vec<Vec<u8>>) -> Option<Checkpoints> {
        let count = all.len();
        let bytes = all.iter().map(Vec::len).sum();
        let last = all.pop()?;
        let mid = if count == 1 {
            last.clone()
        } else {
            all.swap_remove(count.div_ceil(2) - 1)
        };
        Some(Checkpoints {
            count,
            bytes,
            mid,
            last,
        })
    }
}

/// The untimed twins and checkpoints a run is checked against.
pub struct Reference {
    /// Digest every timed replay must reproduce.
    pub replay: u64,
    /// Digest every resumed run must reproduce: the straight-through run
    /// of the pack(s) it resumes.
    pub resumed: u64,
    /// Checkpoint interval of each checkpointed run: decode batches per
    /// profile single-core, quanta multi-core.
    pub intervals: Vec<u64>,
    /// The checkpoints of each checkpointed run of the reference replay.
    pub runs: Vec<Checkpoints>,
}

impl Reference {
    /// Runs the twins, failing with a message when two paths that must
    /// agree do not.
    pub fn build(w: &Workload, tr: &mut Tracer) -> Result<Reference, String> {
        let err = |e: RunError| format!("reference run failed: {e}");
        let replay = w.twin(tr).map_err(err)?.0.digest;
        let (resumed, intervals) = if w.kind.multicore() {
            let (plain, _) = w.run_plain(tr).map_err(err)?;
            if w.kind == Kind::McStreamCkpt2c && plain.digest != replay {
                return Err("run_pack differs from run over the Vec shards".into());
            }
            (
                plain.digest,
                vec![(plain.runtime.quanta / CHECKPOINTS).max(1)],
            )
        } else {
            let intervals = w
                .packs
                .iter()
                .map(|p| {
                    let batches = p.len_ops().div_ceil(Engine::REPLAY_BATCH as u64);
                    (batches / CHECKPOINTS).max(1)
                })
                .collect();
            (replay, intervals)
        };
        let checked = w.run_checkpointed(tr, &intervals).map_err(err)?;
        if checked.outcome.digest != resumed {
            return Err("checkpointed run differs from the plain run".into());
        }
        let runs = checked
            .checkpoints
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("a checkpointed run took no checkpoint")?;
        Ok(Reference {
            replay,
            resumed,
            intervals,
            runs,
        })
    }

    pub fn midpoints(&self) -> Vec<&[u8]> {
        self.runs.iter().map(|r| r.mid.as_slice()).collect()
    }

    pub fn lasts(&self) -> Vec<&[u8]> {
        self.runs.iter().map(|r| r.last.as_slice()).collect()
    }

    /// Checkpoints one checkpointed replay takes.
    pub fn checkpoint_count(&self) -> usize {
        self.runs.iter().map(|r| r.count).sum()
    }

    /// Mean size of those checkpoints in bytes.
    pub fn checkpoint_bytes(&self) -> f64 {
        self.runs.iter().map(|r| r.bytes).sum::<usize>() as f64 / self.checkpoint_count() as f64
    }
}
