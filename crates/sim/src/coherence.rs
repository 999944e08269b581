//! MESI directory coherence over per-core califormed L1 data caches.
//!
//! Multi-core layout of the Califorms hierarchy (DESIGN.md §7): every core
//! owns a private L1D holding lines in the *califorms-bitvector* format,
//! and all cores share the sentinel-format L2/L3/DRAM levels
//! ([`SharedLevels`]). A full-map directory (conceptually co-located with
//! the shared L2 tags) tracks, per line, which cores cache it and whether
//! one of them holds it exclusively.
//!
//! The protocol is MESI:
//!
//! * **M**odified — sole copy, dirty; the directory records the owner.
//! * **E**xclusive — sole copy, clean; a silent local E→M upgrade on the
//!   first store (the directory cannot distinguish E from M and does not
//!   need to).
//! * **S**hared — one of possibly many clean copies.
//! * **I**nvalid — not resident (absence from the L1).
//!
//! The Califorms-specific part is what happens on every transfer across an
//! L1 boundary: a recall from a remote owner runs the **real** Algorithm 1
//! spill (bitvector → sentinel) in the source L1 and the Algorithm 2 fill
//! (sentinel → bitvector) in the destination L1, exactly as a hardware
//! implementation would — the shared levels and the interconnect only ever
//! carry sentinel-format lines. Because spill/fill are exact inverses and
//! the canonical line type zeroes data under security bytes, the
//! security-byte zeroing invariant survives every invalidation, downgrade
//! and cache-to-cache transfer (property-tested in
//! `crates/sim/tests/multicore.rs`).

use crate::cache::{SetAssocCache, Slot};
use crate::engine::with_store_data;
use crate::hierarchy::{
    kmap_exception, line_chunks, load_violation, store_violation, HierarchyConfig, LevelBank,
    LineMap, MemResult, SharedLevels,
};
use crate::stats::{CacheStats, CoherenceStats, SimStats};
use crate::trace::TraceOp;
use crate::{line_base, line_offset, LINE_BYTES};
use califorms_core::{
    fill_canonical, range_mask, spill_canonical, CformInstruction, L1Line, L2Line,
};

/// MESI residency state of a line in one core's L1 (absence = Invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// Sole copy, dirty.
    Modified,
    /// Sole copy, clean (silently upgradable to M).
    Exclusive,
    /// Possibly one of many clean copies.
    Shared,
}

impl Mesi {
    /// Whether this state permits a store without a directory transaction.
    pub fn writable(self) -> bool {
        matches!(self, Mesi::Modified | Mesi::Exclusive)
    }
}

/// One L1 entry: the bitvector-format line plus its MESI state.
#[derive(Debug, Clone, Copy)]
pub struct CoherentLine {
    /// The line in L1 (califorms-bitvector) format.
    pub line: L1Line,
    /// Current MESI state.
    pub state: Mesi,
}

/// Latency parameters of the coherence fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// Cycles to consult the directory on an L1 miss or upgrade (charged
    /// on top of whatever services the request).
    pub directory_latency: u32,
    /// Cycles for a cache-to-cache transfer: probe the remote L1, spill,
    /// move the line across the interconnect, fill.
    pub cache_to_cache_latency: u32,
    /// Cycles for an S→M upgrade that must invalidate remote sharers.
    pub upgrade_latency: u32,
}

impl CoherenceConfig {
    /// Defaults in line with the Table 3 machine: directory lookup rides
    /// the L2 pipeline, a remote-L1 recall costs about two L2 trips.
    pub fn westmere() -> Self {
        Self {
            directory_latency: 2,
            cache_to_cache_latency: 15,
            upgrade_latency: 11,
        }
    }
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        Self::westmere()
    }
}

/// Full-map directory entry for one line.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bit `c` set ⇒ core `c` has a copy.
    sharers: u64,
    /// `Some(c)` ⇒ core `c` holds the line in M or E (then
    /// `sharers == 1 << c`).
    owner: Option<usize>,
}

/// One core's private L1D with its MESI states — the per-core slice of the
/// L1 boundary.
///
/// This type owns everything a core may touch without a directory
/// transaction: during the bound phase of a quantum
/// ([`crate::multicore::MulticoreEngine`]) the `try_*` methods below
/// complete only the accesses that need none (hits with sufficient MESI
/// permission). Everything else returns `None` and is replayed through
/// [`CoherentHierarchy`] in the deterministic weave phase.
///
/// The core's stream prefetcher lives here too: a detector of four
/// sequential miss streams, consulted on every L1 miss. It only shortens
/// the miss latency and never moves a line, so it needs no coherence.
#[derive(Debug)]
pub struct CoreL1 {
    cache: SetAssocCache<CoherentLine>,
    /// Last-missed-line trackers (4 independent streams).
    streams: [u64; 4],
    stream_cursor: usize,
}

impl CoreL1 {
    fn new(cfg: &HierarchyConfig) -> Self {
        Self {
            cache: SetAssocCache::new(cfg.l1d_size, cfg.l1d_ways, cfg.l1d_latency),
            streams: [u64::MAX; 4],
            stream_cursor: 0,
        }
    }

    /// Detects sequential miss streams: returns true when `line_addr`
    /// continues one of the tracked streams (the prefetcher would already
    /// have the line in flight), updating the trackers either way.
    fn stream_hit(&mut self, line_addr: u64) -> bool {
        for s in &mut self.streams {
            if line_addr == s.wrapping_add(LINE_BYTES) {
                *s = line_addr;
                return true;
            }
        }
        self.streams[self.stream_cursor] = line_addr;
        self.stream_cursor = (self.stream_cursor + 1) % self.streams.len();
        false
    }

    /// Hit/miss/eviction counters of this L1.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Lines currently resident (telemetry occupancy numerator).
    pub fn resident_lines(&self) -> usize {
        self.cache.resident_lines()
    }

    /// Line-slot capacity (telemetry occupancy denominator).
    pub fn capacity_lines(&self) -> usize {
        self.cache.capacity_lines()
    }

    /// Whether all lines covered by `[addr, addr + len)` are resident
    /// (`write` additionally requires M or E on each).
    fn servable_locally(&self, addr: u64, len: usize, write: bool) -> bool {
        line_chunks(addr, len).all(|(line_addr, ..)| {
            matches!(self.cache.peek(line_addr), Some(e) if !write || e.state.writable())
        })
    }

    /// Completes a load entirely within this L1 **without materialising
    /// the data** — the replay hot path only needs latency and exception.
    /// Returns what the probe learned if any covered line is absent.
    ///
    /// Single-line accesses (the trace-pack common case) take a one-scan
    /// fast path: probe once, count the hit only if the access completes
    /// locally, one bit-vector AND for the security check.
    pub(crate) fn try_load_quiet(
        &mut self,
        addr: u64,
        len: usize,
        pc: u64,
    ) -> Result<MemResult, Probe> {
        let offset = line_offset(addr);
        if len != 0 && offset + len <= LINE_BYTES as usize {
            let line_addr = line_base(addr);
            let latency = self.cache.latency;
            let (_, hit) = self.cache.probe(line_addr).ok_or(Probe::Absent)?;
            let bv = hit.value.line.bitvector();
            self.cache.stats.hits += 1;
            return Ok(MemResult::quiet(
                latency,
                load_violation(bv & range_mask(offset, len), line_addr, pc),
            ));
        }
        if !self.servable_locally(addr, len, false) {
            return Err(Probe::Unprobed);
        }
        let mut exception = None;
        for (line_addr, offset, chunk) in line_chunks(addr, len) {
            // analyze::allow(hot-path-unwrap): residency checked by the enclosing probe
            let e = self.cache.access(line_addr).expect("checked resident");
            let bv = e.line.bitvector();
            if exception.is_none() {
                exception = load_violation(bv & range_mask(offset, chunk), line_addr, pc);
            }
        }
        Ok(MemResult::quiet(self.cache.latency, exception))
    }

    /// Completes a `len`-byte store of the replay payload entirely within
    /// this L1, or returns what the probe learned if any covered line is
    /// absent or lacks write permission. The payload is built only once
    /// the store is known to complete here.
    ///
    /// Single-line stores take a one-scan fast path: probe once, check
    /// MESI write permission, write and mark dirty through the same
    /// entry handle.
    pub(crate) fn try_store(&mut self, addr: u64, len: usize, pc: u64) -> Result<MemResult, Probe> {
        let offset = line_offset(addr);
        if len != 0 && offset + len <= LINE_BYTES as usize {
            let line_addr = line_base(addr);
            let latency = self.cache.latency;
            let (slot, hit) = self.cache.probe(line_addr).ok_or(Probe::Absent)?;
            if !hit.value.state.writable() {
                // S-state store: the upgrade (and its hit count) belongs
                // to whichever phase runs the directory transaction.
                return Err(Probe::ReadOnly(slot));
            }
            let exception =
                match with_store_data(addr, len, |data| hit.value.line.store(offset, data)) {
                    Ok(()) => {
                        hit.value.state = Mesi::Modified; // silent E→M
                        *hit.dirty = true;
                        None
                    }
                    Err(e) => Some(store_violation(e, line_addr, pc)),
                };
            self.cache.stats.hits += 1;
            return Ok(MemResult::quiet(latency, exception));
        }
        if !self.servable_locally(addr, len, true) {
            return Err(Probe::Unprobed);
        }
        let cache = &mut self.cache;
        let mut exception = None;
        with_store_data(addr, len, |bytes| {
            let mut consumed = 0usize;
            for (line_addr, offset, chunk) in line_chunks(addr, len) {
                // analyze::allow(hot-path-unwrap): residency checked by the enclosing probe
                let e = cache.access_entry(line_addr).expect("checked resident");
                match e.value.line.store(offset, &bytes[consumed..][..chunk]) {
                    Ok(()) => {
                        e.value.state = Mesi::Modified; // silent E→M
                        *e.dirty = true;
                    }
                    Err(e) => {
                        exception.get_or_insert_with(|| store_violation(e, line_addr, pc));
                    }
                }
                consumed += chunk;
            }
        });
        Ok(MemResult::quiet(self.cache.latency, exception))
    }

    /// Completes a `CFORM` entirely within this L1 (the line must be held
    /// M or E), or returns what the probe learned. One probe scan, like
    /// the store path.
    pub(crate) fn try_cform(
        &mut self,
        insn: &CformInstruction,
        pc: u64,
    ) -> Result<MemResult, Probe> {
        let latency = self.cache.latency;
        let (slot, hit) = self.cache.probe(insn.line_addr).ok_or(Probe::Absent)?;
        if !hit.value.state.writable() {
            return Err(Probe::ReadOnly(slot));
        }
        let exception = match insn.execute(hit.value.line.line_mut()) {
            Ok(_) => {
                hit.value.state = Mesi::Modified;
                *hit.dirty = true;
                None
            }
            Err(err) => Some(kmap_exception(err, insn.line_addr, pc)),
        };
        self.cache.stats.hits += 1;
        Ok(MemResult::quiet(latency, exception))
    }
}

/// What a failed L1 fast-path probe learned about the op's line. It is
/// handed from [`crate::cpu::CoreState::try_local`] to
/// [`CoherentHierarchy::transact`], which runs right after it, so a
/// single-line miss or upgrade scans its L1 set only in the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The op's one line is not resident.
    Absent,
    /// The op's one line is resident at this slot without write
    /// permission (Shared).
    ReadOnly(Slot),
    /// Not probed as one line: a line-crossing access, or a non-temporal
    /// CFORM, which never completes in the L1.
    Unprobed,
}

/// Per-bank coherence-side state: the directory shard covering one
/// [`LevelBank`]'s lines, plus the counters whose events are attributable
/// to a single bank.
#[derive(Debug, Default)]
pub(crate) struct BankExt {
    /// Directory shard: full-map entries for this bank's lines.
    dir: LineMap<DirEntry>,
    /// Directory consultations against this shard.
    lookups: u64,
    /// S→M upgrades resolved through this shard.
    upgrades: u64,
    /// L1→L2 spill conversions of califormed lines into this bank.
    spills: u64,
    /// L2→L1 fill conversions of califormed lines out of this bank.
    fills: u64,
    /// Weave transactions whose line lives in this shard.
    weave_transactions: u64,
    /// Of those, transactions that rode an earlier transaction's turn.
    weave_batched: u64,
    /// Of those, transactions that involved another core.
    weave_contended: u64,
}

/// Public snapshot of one directory shard's counters — the per-shard
/// telemetry lanes ([`CoherentHierarchy::coherence_totals`] sums the
/// lookup/upgrade columns away; the weave split used to be one global
/// total in [`crate::runtime::RuntimeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryShardStats {
    /// Directory consultations against this shard.
    pub lookups: u64,
    /// S→M upgrades resolved through this shard.
    pub upgrades: u64,
    /// L1→L2 spill conversions of califormed lines into this shard's bank.
    pub spills: u64,
    /// L2→L1 fill conversions of califormed lines out of this shard's bank.
    pub fills: u64,
    /// Weave transactions whose line lives in this shard.
    pub weave_transactions: u64,
    /// Of those, transactions that rode an earlier transaction's turn.
    pub weave_batched: u64,
    /// Of those, transactions that involved another core.
    pub weave_contended: u64,
}

/// The multi-core hierarchy: N per-core L1Ds kept coherent by a MESI
/// directory over the shared sentinel-format L2/L3/DRAM. The shared
/// levels and the directory are sharded into banks (see [`LevelBank`]),
/// which the weave breakdown reports per shard.
#[derive(Debug)]
pub struct CoherentHierarchy {
    cfg: HierarchyConfig,
    ccfg: CoherenceConfig,
    l1s: Vec<CoreL1>,
    shared: SharedLevels,
    /// Per-bank directory shards + bank-attributable counters.
    exts: Vec<BankExt>,
    /// Cross-core coherence-traffic counters (weave-phase only; the
    /// per-bank `lookups`/`upgrades`/`spills`/`fills` are merged in by
    /// [`Self::coherence_totals`]).
    coherence: CoherenceStats,
}

/// Largest bank count the coherent hierarchy shards into.
const MAX_BANKS: usize = 8;

/// Largest power-of-two divisor of `n` (1 for odd `n`).
fn pow2_divisor(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        1 << n.trailing_zeros()
    }
}

/// Bank count for a configuration: the largest power of two ≤
/// [`MAX_BANKS`] **dividing** the L1, L2 and L3 set counts (for the
/// power-of-two set counts `SetAssocCache` enforces this is just their
/// minimum, capped). Dividing the **L1** set count is what guarantees
/// an L1 victim always lives in the same bank as the line that evicted
/// it (same L1 set ⇒ same line index modulo the bank count), so a
/// private-miss transaction never has to touch a foreign bank to
/// retire a victim.
fn bank_count(cfg: &HierarchyConfig) -> usize {
    let line = LINE_BYTES as usize;
    let l1_sets = cfg.l1d_size / (cfg.l1d_ways * line);
    let l2_sets = cfg.l2_size / (cfg.l2_ways * line);
    let l3_sets = cfg.l3_size / (cfg.l3_ways * line);
    MAX_BANKS
        .min(pow2_divisor(l1_sets))
        .min(pow2_divisor(l2_sets))
        .min(pow2_divisor(l3_sets))
}

impl CoherentHierarchy {
    /// Builds a coherent hierarchy with `cores` private L1Ds.
    ///
    /// One core has no directory: nothing to keep coherent, so no
    /// directory latency is charged and no lookup counted, and the
    /// hierarchy is exactly the single-core machine of the paper figures.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ cores ≤ 64` (the directory's sharer set is one
    /// machine word, as in real full-map directories of this scale).
    pub fn new(cfg: HierarchyConfig, ccfg: CoherenceConfig, cores: usize) -> Self {
        assert!(
            (1..=64).contains(&cores),
            "directory supports 1..=64 cores, got {cores}"
        );
        let banks = bank_count(&cfg);
        Self {
            l1s: (0..cores).map(|_| CoreL1::new(&cfg)).collect(),
            shared: SharedLevels::banked(cfg, banks),
            exts: (0..banks).map(|_| BankExt::default()).collect(),
            cfg,
            ccfg,
            coherence: CoherenceStats::default(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1s.len()
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Mutable access to the per-core L1 slices.
    pub fn l1s_mut(&mut self) -> &mut [CoreL1] {
        &mut self.l1s
    }

    /// Read-only view of the per-core L1 slices.
    pub fn l1s(&self) -> &[CoreL1] {
        &self.l1s
    }

    /// Mutable access to one core's L1.
    pub fn l1_mut(&mut self, c: usize) -> &mut CoreL1 {
        &mut self.l1s[c]
    }

    /// L1→L2 spill conversions of califormed lines (all cores, all banks).
    pub fn spills(&self) -> u64 {
        self.exts.iter().map(|e| e.spills).sum()
    }

    /// L2→L1 fill conversions of califormed lines (all cores, all banks).
    pub fn fills(&self) -> u64 {
        self.exts.iter().map(|e| e.fills).sum()
    }

    /// The full coherence-traffic counters: the weave-phase cross-core
    /// events plus the per-bank directory lookup and upgrade counts.
    pub fn coherence_totals(&self) -> CoherenceStats {
        let mut c = self.coherence;
        c.directory_lookups += self.exts.iter().map(|e| e.lookups).sum::<u64>();
        c.upgrades_s_to_m += self.exts.iter().map(|e| e.upgrades).sum::<u64>();
        c
    }

    /// Monotonic count of coherence events that involved more than one
    /// core (invalidations + cache-to-cache transfers). The weave uses
    /// deltas of this to detect whether a transaction was contended, and
    /// the adaptive quantum controller to measure a quantum's contention
    /// — both purely simulated state.
    pub(crate) fn cross_core_events(&self) -> u64 {
        self.coherence.invalidations + self.coherence.cache_to_cache_transfers
    }

    /// Attributes one weave transaction on `line_addr` to the directory
    /// shard holding the line (called by the weave after each committed
    /// transaction; purely simulated state, so the split is
    /// deterministic).
    pub(crate) fn note_weave_txn(&mut self, line_addr: u64, batched: bool, contended: bool) {
        let ext = &mut self.exts[self.shared.bank_of(line_addr)];
        ext.weave_transactions += 1;
        ext.weave_batched += u64::from(batched);
        ext.weave_contended += u64::from(contended);
    }

    /// Per-shard directory counters (telemetry and the weave breakdown).
    pub fn shard_stats(&self) -> Vec<DirectoryShardStats> {
        self.exts
            .iter()
            .map(|e| DirectoryShardStats {
                lookups: e.lookups,
                upgrades: e.upgrades,
                spills: e.spills,
                fills: e.fills,
                weave_transactions: e.weave_transactions,
                weave_batched: e.weave_batched,
                weave_contended: e.weave_contended,
            })
            .collect()
    }

    /// Per-bank shared-level counters (delegates to
    /// [`SharedLevels::bank_stats`]).
    pub fn bank_level_stats(&self) -> Vec<crate::hierarchy::BankLevelStats> {
        self.shared.bank_stats()
    }

    /// Spills `line` back into `bank` (running the real
    /// bitvector→sentinel conversion). `dirty` decides whether the L2
    /// copy is marked dirty.
    fn writeback_into(
        bank: &mut LevelBank,
        ext: &mut BankExt,
        line_addr: u64,
        line: &L1Line,
        dirty: bool,
    ) {
        let spilled = spill_canonical(line);
        if spilled.califormed {
            ext.spills += 1;
        }
        bank.insert_l2(line_addr, spilled, dirty);
    }

    /// Retires core `c`'s victim line (L1 capacity eviction), writing a
    /// dirty victim back through the spill path. The caller supplies the
    /// victim's own bank. With a `directory`, core `c` leaves the line's
    /// entry: one hash operation in the common case (sole resident core
    /// evicts → entry removed); the entry is reinserted only when other
    /// cores still share the line.
    fn retire_victim(
        bank: &mut LevelBank,
        ext: &mut BankExt,
        directory: bool,
        c: usize,
        line_addr: u64,
        victim: CoherentLine,
        dirty: bool,
    ) {
        if directory {
            let mut entry = ext
                .dir
                .remove(&line_addr)
                // analyze::allow(hot-path-unwrap): coherence invariant: every resident line has a directory entry
                .expect("resident lines are in the directory");
            entry.sharers &= !(1u64 << c);
            if entry.sharers != 0 {
                if entry.owner == Some(c) {
                    entry.owner = None;
                }
                ext.dir.insert(line_addr, entry);
            }
        }
        if dirty {
            Self::writeback_into(bank, ext, line_addr, &victim.line, true);
        }
    }

    /// Whether there is a directory: one core has nothing to keep
    /// coherent, so its directory shards stay empty and cost nothing.
    fn has_directory(&self) -> bool {
        self.l1s.len() > 1
    }

    /// Consults directory shard `b`, returning the lookup latency
    /// (nothing is charged or counted without a directory).
    fn directory_lookup(&mut self, b: usize) -> u32 {
        if !self.has_directory() {
            return 0;
        }
        self.exts[b].lookups += 1;
        self.ccfg.directory_latency
    }

    /// Fills `line_addr` into core `c`'s L1 in `state` straight from its
    /// bank `b` (no other core holds it), retiring the L1 victim, and
    /// returns the fetch latency capped at `fetch_cap` and the line's L1
    /// slot. The bank count divides the L1 set count, so the victim (same
    /// L1 set) provably lives in the same bank as the line.
    fn fill_private(
        &mut self,
        c: usize,
        line_addr: u64,
        b: usize,
        state: Mesi,
        fetch_cap: u32,
    ) -> (u32, Slot) {
        let directory = self.has_directory();
        let bank = self.shared.bank_mut(line_addr);
        let (l2line, fetch_latency) = bank.fetch(line_addr);
        let ext = &mut self.exts[b];
        if l2line.califormed {
            ext.fills += 1;
        }
        let line = fill_canonical(&l2line);
        let (slot, victim) =
            self.l1s[c]
                .cache
                .insert_slot(line_addr, CoherentLine { line, state }, false);
        if let Some(victim) = victim {
            Self::retire_victim(
                bank,
                ext,
                directory,
                c,
                victim.line_addr,
                victim.value,
                victim.dirty,
            );
        }
        (fetch_latency.min(fetch_cap), slot)
    }

    /// The MESI state machine: makes `line_addr` resident in core `c`'s
    /// L1 with read (`write == false`) or write permission, returning the
    /// latency beyond the L1 hit latency and the line's L1 slot. `probe`
    /// is what a fast-path probe of this line already learned; only an
    /// [`Probe::Unprobed`] line is looked up again. Either way this counts
    /// the one architectural L1 access.
    fn ensure_state(&mut self, c: usize, line_addr: u64, write: bool, probe: Probe) -> (u32, Slot) {
        let b = self.shared.bank_of(line_addr);
        let cache = &mut self.l1s[c].cache;
        let found = match probe {
            Probe::Absent => None,
            Probe::ReadOnly(slot) => Some(slot),
            Probe::Unprobed => cache.find(line_addr),
        };
        // Fast path: already resident with sufficient permission.
        if let Some(slot) = cache.count_access(found) {
            match (cache.entry(slot).value.state, write) {
                (_, false) | (Mesi::Modified, true) | (Mesi::Exclusive, true) => return (0, slot),
                (Mesi::Shared, true) => {
                    // S→M upgrade: invalidate every other sharer.
                    let mut latency = self.directory_lookup(b);
                    let ext = &mut self.exts[b];
                    ext.upgrades += 1;
                    let entry = ext
                        .dir
                        .get_mut(&line_addr)
                        // analyze::allow(hot-path-unwrap): coherence invariant: shared lines keep their directory entry
                        .expect("shared lines are in the directory");
                    let others = entry.sharers & !(1u64 << c);
                    entry.sharers = 1 << c;
                    entry.owner = Some(c);
                    if others != 0 {
                        latency += self.ccfg.upgrade_latency;
                        for o in 0..self.l1s.len() {
                            if others >> o & 1 == 1 {
                                // Shared copies are clean: drop silently.
                                self.l1s[o].cache.invalidate(line_addr);
                                self.coherence.invalidations += 1;
                            }
                        }
                    }
                    self.l1s[c].cache.entry(slot).value.state = Mesi::Modified;
                    return (latency, slot);
                }
            }
        }

        // Miss. The core's stream detector sees every miss; on a hit it
        // caps the shared-level fetch latency at the prefetch residual.
        let fetch_cap = if self.cfg.stream_prefetcher && self.l1s[c].stream_hit(line_addr) {
            self.cfg.prefetch_residual
        } else {
            u32::MAX
        };
        let private_state = if write {
            Mesi::Modified
        } else {
            Mesi::Exclusive
        };
        if !self.has_directory() {
            return self.fill_private(c, line_addr, b, private_state, fetch_cap);
        }
        // Consult the directory shard (one hash op for the whole
        // transaction — the entry is created and updated in place).
        let mut latency = self.directory_lookup(b);
        let entry = self.exts[b].dir.entry(line_addr).or_default();
        let remote_owner = entry.owner.filter(|&o| o != c);
        let remote_sharers = entry.sharers & !(1u64 << c);

        if remote_owner.is_none() && remote_sharers == 0 {
            // No other core involved: the transaction touches only this
            // core's L1 and the line's own bank — the private case the
            // weave batches and the adaptive quantum grows over.
            entry.sharers = 1 << c;
            entry.owner = Some(c);
            let (fetch, slot) = self.fill_private(c, line_addr, b, private_state, fetch_cap);
            return (latency + fetch, slot);
        }

        let l2line = if let Some(o) = remote_owner {
            // Cache-to-cache: recall the line from the remote owner's L1.
            // The spill conversion runs in the source L1 either way; on a
            // read the owner keeps a Shared copy, on a write it is
            // invalidated.
            latency += self.ccfg.cache_to_cache_latency;
            self.coherence.cache_to_cache_transfers += 1;
            let (owner_line, owner_dirty) = if write {
                let (victim, dirty) = self.l1s[o]
                    .cache
                    .invalidate(line_addr)
                    // analyze::allow(hot-path-unwrap): directory owner state implies the line is in that L1
                    .expect("directory says owner has the line");
                self.coherence.invalidations += 1;
                (victim.line, dirty)
            } else {
                let e = self.l1s[o]
                    .cache
                    .peek_mut(line_addr)
                    // analyze::allow(hot-path-unwrap): directory owner state implies the line is in that L1
                    .expect("directory says owner has the line");
                e.state = Mesi::Shared;
                let line = e.line;
                let dirty = self.l1s[o].cache.is_dirty(line_addr).unwrap_or(false);
                self.l1s[o].cache.clear_dirty(line_addr);
                (line, dirty)
            };
            let spilled = spill_canonical(&owner_line);
            if spilled.califormed {
                self.exts[b].spills += 1;
                self.coherence.califormed_transfers += 1;
            }
            self.shared.insert_l2(line_addr, spilled, owner_dirty);
            spilled
        } else {
            if write {
                // Write to a line shared (clean) by others: invalidate.
                latency += self.ccfg.upgrade_latency;
                for o in 0..self.l1s.len() {
                    if remote_sharers >> o & 1 == 1 {
                        self.l1s[o].cache.invalidate(line_addr);
                        self.coherence.invalidations += 1;
                    }
                }
            }
            let (line, fetch_latency) = self.shared.fetch(line_addr);
            latency += fetch_latency.min(fetch_cap);
            line
        };

        if l2line.califormed {
            self.exts[b].fills += 1;
        }
        let l1line = fill_canonical(&l2line);
        let entry = self.exts[b].dir.entry(line_addr).or_default();
        let state = if write {
            entry.sharers = 1 << c;
            entry.owner = Some(c);
            Mesi::Modified
        } else {
            entry.sharers |= 1 << c;
            entry.owner = None;
            Mesi::Shared
        };
        let (slot, victim) = self.l1s[c].cache.insert_slot(
            line_addr,
            CoherentLine {
                line: l1line,
                state,
            },
            false,
        );
        if let Some(victim) = victim {
            let vb = self.shared.bank_of(victim.line_addr);
            Self::retire_victim(
                self.shared.bank_mut(victim.line_addr),
                &mut self.exts[vb],
                true,
                c,
                victim.line_addr,
                victim.value,
                victim.dirty,
            );
        }
        (latency, slot)
    }

    /// Performs a load by core `c` **without materialising the data** —
    /// the replay hot path only needs latency and exception. Timing, LRU,
    /// stats and exception behaviour are identical to [`Self::load`].
    pub fn load_quiet(&mut self, c: usize, addr: u64, len: usize, pc: u64) -> MemResult {
        self.load_quiet_probed(c, addr, len, pc, Probe::Unprobed)
    }

    /// [`Self::load_quiet`] of an access whose line `probe` describes.
    fn load_quiet_probed(
        &mut self,
        c: usize,
        addr: u64,
        len: usize,
        pc: u64,
        probe: Probe,
    ) -> MemResult {
        let mut latency = 0u32;
        let mut exception = None;
        for (line_addr, offset, chunk) in line_chunks(addr, len) {
            let (extra, slot) = self.ensure_state(c, line_addr, false, probe);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let bv = self.l1s[c].cache.touch(slot).value.line.bitvector();
            if exception.is_none() {
                exception = load_violation(bv & range_mask(offset, chunk), line_addr, pc);
            }
        }
        MemResult::quiet(latency, exception)
    }

    /// Performs a load by core `c` (line-crossing loads are split).
    pub fn load(&mut self, c: usize, addr: u64, len: usize, pc: u64) -> MemResult {
        let mut latency = 0u32;
        let mut data = Vec::with_capacity(len);
        let mut exception = None;
        for (line_addr, offset, chunk) in line_chunks(addr, len) {
            let (extra, slot) = self.ensure_state(c, line_addr, false, Probe::Unprobed);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let r = self.l1s[c].cache.touch(slot).value.line.load(offset, chunk);
            data.extend_from_slice(&r.data);
            if exception.is_none() {
                // `violating_bytes` is relative to the chunk, not the line.
                exception = load_violation(r.violating_bytes, line_addr + offset as u64, pc);
            }
        }
        MemResult {
            latency,
            data,
            exception,
        }
    }

    /// Performs a store by core `c`; on a security-byte violation the
    /// store to that line is suppressed and the exception reported.
    pub fn store(&mut self, c: usize, addr: u64, bytes: &[u8], pc: u64) -> MemResult {
        self.store_probed(c, addr, bytes, pc, Probe::Unprobed)
    }

    /// [`Self::store`] of an access whose line `probe` describes.
    fn store_probed(
        &mut self,
        c: usize,
        addr: u64,
        bytes: &[u8],
        pc: u64,
        probe: Probe,
    ) -> MemResult {
        let mut latency = 0u32;
        let mut exception = None;
        let mut consumed = 0usize;
        for (line_addr, offset, chunk) in line_chunks(addr, bytes.len()) {
            let (extra, slot) = self.ensure_state(c, line_addr, true, probe);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let e = self.l1s[c].cache.touch(slot);
            match e
                .value
                .line
                .store(offset, &bytes[consumed..consumed + chunk])
            {
                Ok(()) => {
                    e.value.state = Mesi::Modified;
                    *e.dirty = true;
                }
                Err(e) => {
                    exception.get_or_insert_with(|| store_violation(e, line_addr, pc));
                }
            }
            consumed += chunk;
        }
        MemResult::quiet(latency, exception)
    }

    /// Executes a `CFORM` by core `c` (write-allocate: the line is pulled
    /// into the core's L1 in M state first, like a store).
    pub fn cform(&mut self, c: usize, insn: &CformInstruction, pc: u64) -> MemResult {
        self.cform_probed(c, insn, pc, Probe::Unprobed)
    }

    /// [`Self::cform`] on a line `probe` describes.
    fn cform_probed(
        &mut self,
        c: usize,
        insn: &CformInstruction,
        pc: u64,
        probe: Probe,
    ) -> MemResult {
        let (extra, slot) = self.ensure_state(c, insn.line_addr, true, probe);
        let latency = self.cfg.l1d_latency + extra;
        let e = self.l1s[c].cache.touch(slot);
        let exception = match insn.execute(e.value.line.line_mut()) {
            Ok(_) => {
                e.value.state = Mesi::Modified;
                *e.dirty = true;
                None
            }
            Err(err) => Some(kmap_exception(err, insn.line_addr, pc)),
        };
        MemResult::quiet(latency, exception)
    }

    /// Executes a **non-temporal** `CFORM` by core `c`: every L1 copy is
    /// recalled/invalidated (write-back through the spill conversion where
    /// dirty) and the line is updated in place at the shared L2 without
    /// re-entering any L1. Only copies in *other* cores' L1s are coherence
    /// traffic (an invalidation, and a cache-to-cache recall if dirty);
    /// dropping the requester's own copy is a local write-back.
    pub fn cform_nt(&mut self, c: usize, insn: &CformInstruction, pc: u64) -> MemResult {
        let line_addr = insn.line_addr;
        let b = self.shared.bank_of(line_addr);
        let mut latency = self.directory_lookup(b);
        self.exts[b].dir.remove(&line_addr);
        for o in 0..self.l1s.len() {
            if let Some((victim, dirty)) = self.l1s[o].cache.invalidate(line_addr) {
                let remote = o != c;
                self.coherence.invalidations += u64::from(remote);
                if dirty {
                    Self::writeback_into(
                        self.shared.bank_mut(line_addr),
                        &mut self.exts[b],
                        line_addr,
                        &victim.line,
                        true,
                    );
                    if remote {
                        latency += self.ccfg.cache_to_cache_latency;
                    }
                }
            }
        }
        let (l2line, extra) = self.shared.fetch(line_addr);
        latency += extra;
        let mut l1line = fill_canonical(&l2line);
        let exception = match insn.execute(l1line.line_mut()) {
            Ok(_) => {
                let spilled = spill_canonical(&l1line);
                self.shared.insert_l2(line_addr, spilled, true);
                None
            }
            Err(err) => Some(kmap_exception(err, line_addr, pc)),
        };
        MemResult::quiet(self.cfg.l1d_latency + latency, exception)
    }

    /// Executes the memory op `op` by core `c` through the full
    /// hierarchy: the transaction an op falls back to when
    /// [`crate::cpu::CoreState::try_local`] cannot retire it from the L1.
    /// `probe` is what that failed attempt learned, and must describe the
    /// L1 as it still is: both engines transact right after it.
    ///
    /// # Panics
    ///
    /// Panics on `Exec` and mask ops, which never reach the hierarchy.
    pub(crate) fn transact(&mut self, c: usize, op: TraceOp, probe: Probe, pc: u64) -> MemResult {
        match op {
            TraceOp::Load { addr, size } => {
                self.load_quiet_probed(c, addr, size as usize, pc, probe)
            }
            TraceOp::Store { addr, size } => with_store_data(addr, size as usize, |data| {
                self.store_probed(c, addr, data, pc, probe)
            }),
            TraceOp::Cform {
                line_addr,
                attrs,
                mask,
            } => self.cform_probed(c, &CformInstruction::new(line_addr, attrs, mask), pc, probe),
            TraceOp::CformNt {
                line_addr,
                attrs,
                mask,
            } => self.cform_nt(c, &CformInstruction::new(line_addr, attrs, mask), pc),
            TraceOp::Exec(..) | TraceOp::MaskPush | TraceOp::MaskPop => {
                unreachable!("local ops retire without a transaction")
            }
        }
    }

    /// Writes one line back to DRAM and drops every cached copy — every
    /// core's L1 copy and its directory entry included — the building
    /// block of page swap-out and of the OS and DMA views of memory
    /// (they must see the line's current content and metadata bit in
    /// memory).
    pub fn evict_line_to_dram(&mut self, line_addr: u64) {
        let b = self.shared.bank_of(line_addr);
        self.exts[b].dir.remove(&line_addr);
        let mut l1_copy = None;
        for l1 in &mut self.l1s {
            if let Some((copy, _)) = l1.cache.invalidate(line_addr) {
                // An owner's copy is the only one; Shared copies are
                // identical, so the first is as good as any.
                l1_copy.get_or_insert(copy.line);
            }
        }
        self.shared.evict_to_dram(line_addr); // drop stale copies
        if let Some(line) = l1_copy {
            let spilled = spill_canonical(&line);
            if spilled.califormed {
                self.exts[b].spills += 1;
            }
            self.shared.set_dram_line(line_addr, spilled);
        }
    }

    /// Reads a line's DRAM copy (sentinel format; the *califormed?* bit
    /// conceptually lives in the spare ECC bits).
    pub fn dram_line(&self, line_addr: u64) -> L2Line {
        self.shared.dram_line(line_addr)
    }

    /// Overwrites a line's DRAM copy (page swap-in path).
    pub fn set_dram_line(&mut self, line_addr: u64, line: L2Line) {
        self.shared.set_dram_line(line_addr, line);
    }

    /// Removes a line from DRAM entirely (its page was swapped out).
    pub fn remove_dram_line(&mut self, line_addr: u64) {
        self.shared.remove_dram_line(line_addr);
    }

    /// Functional view of the line holding `addr`: the authoritative copy
    /// is the owning core's L1 if any, then any Shared L1 copy (they are
    /// identical), then the shared levels. No timing, LRU or counter
    /// effects.
    fn peek_line(&self, addr: u64) -> L1Line {
        let line_addr = line_base(addr);
        match self.l1s.iter().find_map(|l1| l1.cache.peek(line_addr)) {
            Some(e) => e.line,
            None => fill_canonical(&self.shared.peek_line(line_addr)),
        }
    }

    /// Functional snapshot of a line's canonical *(data, security-mask)*
    /// state through the coherent machine (freshest copy: an owning L1
    /// first, then the shared levels) — no timing, LRU or stats effects.
    /// The differential oracle (`califorms-oracle`) diffs final memory
    /// and blacklist state against this.
    pub fn snapshot_line(&self, line_addr: u64) -> califorms_core::CaliformedLine {
        *self.peek_line(line_addr).line()
    }

    /// Functional read of one byte (security bytes read as zero).
    pub fn peek_byte(&self, addr: u64) -> u8 {
        self.peek_line(addr).line().data()[line_offset(addr)]
    }

    /// Whether `addr` currently marks a security byte.
    pub fn peek_is_security_byte(&self, addr: u64) -> bool {
        self.peek_line(addr)
            .line()
            .is_security_byte(line_offset(addr))
    }

    /// The current security mask of the line holding `addr`.
    pub fn peek_mask(&self, addr: u64) -> u64 {
        self.peek_line(addr).line().security_mask()
    }

    /// MESI state of a line in core `c`'s L1 (`None` = Invalid/absent).
    pub fn l1_state(&self, c: usize, line_addr: u64) -> Option<Mesi> {
        self.l1s[c].cache.peek(line_addr).map(|e| e.state)
    }

    /// Copies the shared-level and coherence counters into `stats` (the
    /// whole-machine "combined" block of
    /// [`crate::stats::MulticoreStats`]).
    pub fn export_stats(&self, stats: &mut SimStats) {
        self.shared.export_stats(stats);
        let mut l1d = CacheStats::default();
        for l1 in &self.l1s {
            let s = l1.stats();
            l1d.hits += s.hits;
            l1d.misses += s.misses;
            l1d.evictions += s.evictions;
            l1d.writebacks += s.writebacks;
        }
        stats.l1d = l1d;
        stats.spills = self.spills();
        stats.fills = self.fills();
        stats.coherence = self.coherence_totals();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint state (DESIGN.md §14). Implemented here (not in `checkpoint`)
// because the coherent hierarchy's fields are private.
// ---------------------------------------------------------------------------

use crate::checkpoint::{self as ck, CheckpointError};

/// Stable wire tags for [`Mesi`] (absence from the cache = Invalid).
fn mesi_tag(state: Mesi) -> u8 {
    match state {
        Mesi::Modified => 0,
        Mesi::Exclusive => 1,
        Mesi::Shared => 2,
    }
}

fn put_coherent_line(w: &mut ck::Wr, line: &CoherentLine) {
    ck::put_l1_line(w, &line.line);
    w.u8(mesi_tag(line.state));
}

fn get_coherent_line(r: &mut ck::Rd<'_>) -> ck::Result<CoherentLine> {
    let line = ck::get_l1_line(r)?;
    let state = match r.u8()? {
        0 => Mesi::Modified,
        1 => Mesi::Exclusive,
        2 => Mesi::Shared,
        _ => return Err(CheckpointError::Corrupt("unknown MESI state tag")),
    };
    Ok(CoherentLine { line, state })
}

impl CoreL1 {
    /// One core's record: stream trackers, then the cache.
    fn save_state(&self, w: &mut ck::Wr) {
        for s in self.streams {
            w.u64(s);
        }
        w.u64(self.stream_cursor as u64);
        ck::put_cache(w, &self.cache, put_coherent_line);
    }

    fn restore_state(&mut self, r: &mut ck::Rd<'_>) -> ck::Result<()> {
        for s in &mut self.streams {
            *s = r.u64()?;
        }
        let cursor = r.u64()?;
        if cursor >= self.streams.len() as u64 {
            return Err(CheckpointError::Corrupt("stream cursor out of range"));
        }
        self.stream_cursor = cursor as usize;
        ck::get_cache(r, &mut self.cache, get_coherent_line)
    }
}

impl BankExt {
    fn save_state(&self, w: &mut ck::Wr) {
        // Directory entries in canonical form: sorted by line address
        // (`LineMap` iteration order is insertion-history-dependent, the
        // sort buys byte-identical checkpoints for equal states).
        let mut entries: Vec<(u64, DirEntry)> = self.dir.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|&(addr, _)| addr);
        w.u64(entries.len() as u64);
        for (addr, e) in entries {
            w.u64(addr);
            w.u64(e.sharers);
            match e.owner {
                Some(o) => {
                    w.bool(true);
                    w.u64(o as u64);
                }
                None => w.bool(false),
            }
        }
        w.u64(self.lookups);
        w.u64(self.upgrades);
        w.u64(self.spills);
        w.u64(self.fills);
        w.u64(self.weave_transactions);
        w.u64(self.weave_batched);
        w.u64(self.weave_contended);
    }

    fn restore_state(r: &mut ck::Rd<'_>, cores: usize) -> ck::Result<Self> {
        let n = r.count()?;
        let mut dir = LineMap::default();
        let mut prev = None;
        for _ in 0..n {
            let addr = r.u64()?;
            if addr % LINE_BYTES != 0 {
                return Err(CheckpointError::Corrupt("directory line address unaligned"));
            }
            if prev.is_some_and(|p| addr <= p) {
                return Err(CheckpointError::Corrupt(
                    "directory entries out of canonical order",
                ));
            }
            prev = Some(addr);
            let sharers = r.u64()?;
            if sharers == 0 {
                return Err(CheckpointError::Corrupt("directory entry with no sharers"));
            }
            if cores < 64 && sharers >> cores != 0 {
                return Err(CheckpointError::Corrupt(
                    "directory sharer beyond the core count",
                ));
            }
            let owner = if r.bool()? {
                let o = r.u64()? as usize;
                if o >= cores || sharers != 1u64 << o {
                    return Err(CheckpointError::Corrupt(
                        "directory owner inconsistent with its sharer set",
                    ));
                }
                Some(o)
            } else {
                None
            };
            dir.insert(addr, DirEntry { sharers, owner });
        }
        Ok(Self {
            dir,
            lookups: r.u64()?,
            upgrades: r.u64()?,
            spills: r.u64()?,
            fills: r.u64()?,
            weave_transactions: r.u64()?,
            weave_batched: r.u64()?,
            weave_contended: r.u64()?,
        })
    }
}

impl CoherentHierarchy {
    /// Serializes the full mutable coherent-machine state (the
    /// `SEC_COHERENT` payload): per-core L1s with their MESI states and
    /// stream trackers, the shared levels, every directory shard, and the
    /// coherence counters.
    /// The configuration travels separately in `SEC_CONFIG`.
    pub(crate) fn save_state(&self, w: &mut ck::Wr) {
        w.u64(self.l1s.len() as u64);
        for l1 in &self.l1s {
            l1.save_state(w);
        }
        self.shared.save_state(w);
        w.u64(self.exts.len() as u64);
        for ext in &self.exts {
            ext.save_state(w);
        }
        w.u64(self.coherence.invalidations);
        w.u64(self.coherence.upgrades_s_to_m);
        w.u64(self.coherence.cache_to_cache_transfers);
        w.u64(self.coherence.califormed_transfers);
        w.u64(self.coherence.directory_lookups);
    }

    /// Rebuilds a coherent hierarchy from a `SEC_COHERENT` payload
    /// against `cfg`/`ccfg`/`cores` (already decoded from `SEC_CONFIG` /
    /// `SEC_META`).
    pub(crate) fn restore_state(
        cfg: HierarchyConfig,
        ccfg: CoherenceConfig,
        cores: usize,
        r: &mut ck::Rd<'_>,
    ) -> ck::Result<Self> {
        let mut h = CoherentHierarchy::new(cfg, ccfg, cores);
        if r.count()? != cores {
            return Err(CheckpointError::ConfigMismatch("per-core L1 count"));
        }
        for l1 in &mut h.l1s {
            l1.restore_state(r)?;
        }
        h.shared.restore_state(r)?;
        if r.count()? != h.exts.len() {
            return Err(CheckpointError::ConfigMismatch("directory shard count"));
        }
        for ext in &mut h.exts {
            *ext = BankExt::restore_state(r, cores)?;
        }
        h.coherence.invalidations = r.u64()?;
        h.coherence.upgrades_s_to_m = r.u64()?;
        h.coherence.cache_to_cache_transfers = r.u64()?;
        h.coherence.califormed_transfers = r.u64()?;
        h.coherence.directory_lookups = r.u64()?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use califorms_core::AccessKind;

    fn coh(cores: usize) -> CoherentHierarchy {
        CoherentHierarchy::new(
            HierarchyConfig::westmere(),
            CoherenceConfig::westmere(),
            cores,
        )
    }

    #[test]
    fn first_reader_gets_exclusive_second_demotes_to_shared() {
        let mut h = coh(2);
        h.store(0, 0x1000, &[1, 2, 3, 4], 0);
        assert_eq!(h.l1_state(0, 0x1000), Some(Mesi::Modified));
        let r = h.load(1, 0x1000, 4, 1);
        assert_eq!(r.data, vec![1, 2, 3, 4], "dirty data travels core-to-core");
        assert_eq!(h.l1_state(0, 0x1000), Some(Mesi::Shared));
        assert_eq!(h.l1_state(1, 0x1000), Some(Mesi::Shared));
        assert_eq!(h.coherence_totals().cache_to_cache_transfers, 1);
    }

    #[test]
    fn cold_read_is_exclusive_and_silently_upgrades() {
        let mut h = coh(2);
        h.load(0, 0x2000, 8, 0);
        assert_eq!(h.l1_state(0, 0x2000), Some(Mesi::Exclusive));
        // The silent E→M store needs no directory transaction.
        let lookups = h.coherence_totals().directory_lookups;
        h.store(0, 0x2000, &[9], 1);
        assert_eq!(h.l1_state(0, 0x2000), Some(Mesi::Modified));
        assert_eq!(h.coherence_totals().directory_lookups, lookups);
    }

    #[test]
    fn store_to_shared_line_upgrades_and_invalidates() {
        let mut h = coh(4);
        for c in 0..4 {
            h.load(c, 0x3000, 8, 0);
        }
        assert_eq!(h.l1_state(3, 0x3000), Some(Mesi::Shared));
        h.store(1, 0x3000, &[7], 1);
        assert_eq!(h.l1_state(1, 0x3000), Some(Mesi::Modified));
        for c in [0usize, 2, 3] {
            assert_eq!(h.l1_state(c, 0x3000), None, "core {c} invalidated");
        }
        assert_eq!(h.coherence_totals().upgrades_s_to_m, 1);
        assert_eq!(h.coherence_totals().invalidations, 3);
    }

    #[test]
    fn write_request_recalls_and_invalidates_remote_owner() {
        let mut h = coh(2);
        h.store(0, 0x4000, &[1; 8], 0);
        h.store(1, 0x4000, &[2; 8], 1);
        assert_eq!(h.l1_state(0, 0x4000), None);
        assert_eq!(h.l1_state(1, 0x4000), Some(Mesi::Modified));
        assert_eq!(h.load(1, 0x4000, 8, 2).data, vec![2; 8]);
        assert_eq!(h.coherence_totals().invalidations, 1);
    }

    #[test]
    fn califormed_line_transfer_runs_conversions_and_preserves_mask() {
        let mut h = coh(2);
        h.store(0, 0x5000, &[5; 16], 0);
        let insn = CformInstruction::set(0x5000, 0b1111 << 20);
        assert!(h.cform(0, &insn, 1).exception.is_none());
        let (spills0, fills0) = (h.spills(), h.fills());
        // Core 1 reads a normal part of the line: recall runs spill+fill.
        let r = h.load(1, 0x5000, 8, 2);
        assert!(r.exception.is_none());
        assert_eq!(r.data, vec![5; 8]);
        assert_eq!(h.spills(), spills0 + 1, "recall spilled in the source L1");
        assert_eq!(
            h.fills(),
            fills0 + 1,
            "fill converted in the destination L1"
        );
        assert_eq!(h.coherence_totals().califormed_transfers, 1);
        assert_eq!(h.peek_mask(0x5000), 0b1111 << 20, "mask survived transfer");
    }

    #[test]
    fn cross_core_probe_traps_at_exact_byte() {
        let mut h = coh(2);
        h.cform(0, &CformInstruction::set(0x6000, 1 << 21), 0);
        assert_eq!(h.l1_state(0, 0x6000), Some(Mesi::Modified));
        let r = h.load(1, 0x6000 + 21, 1, 7);
        let exc = r.exception.expect("probe must trap");
        assert_eq!(exc.fault_addr, 0x6015);
        assert_eq!(exc.access, AccessKind::Load);
        assert_eq!(r.data, vec![0], "security byte reads zero on the far core");
    }

    #[test]
    fn invalidation_preserves_zeroing_invariant() {
        let mut h = coh(2);
        h.store(0, 0x7000, &[0xAB; 32], 0);
        h.cform(0, &CformInstruction::set(0x7000, 0xFF << 8), 1);
        // Remote write forces recall+invalidate of the dirty califormed
        // line; the surviving copy must still zero bytes 8..16.
        h.store(1, 0x7000, &[0xCD; 4], 2);
        for off in 8..16 {
            assert!(h.peek_is_security_byte(0x7000 + off));
            assert_eq!(h.peek_byte(0x7000 + off), 0);
        }
        assert_eq!(h.peek_byte(0x7000), 0xCD);
        assert_eq!(h.peek_byte(0x7000 + 16), 0xAB);
    }

    #[test]
    fn try_local_ops_complete_only_with_permission() {
        let mut h = coh(2);
        h.load(0, 0x8000, 8, 0); // E in core 0
        let l1 = &mut h.l1s_mut()[0];
        assert!(l1.try_load_quiet(0x8000, 8, 1).is_ok());
        assert!(l1.try_store(0x8000, 1, 2).is_ok(), "E is writable");
        assert_eq!(
            l1.try_load_quiet(0x9000, 8, 3),
            Err(Probe::Absent),
            "miss defers"
        );
        assert_eq!(
            l1.try_load_quiet(0x9000 - 4, 8, 3),
            Err(Probe::Unprobed),
            "a line-crossing miss is not probed as one line"
        );
        // Demote to Shared via a second reader; local store must defer.
        h.load(1, 0x8000, 8, 4);
        let l1 = &mut h.l1s_mut()[0];
        assert!(l1.try_load_quiet(0x8000, 8, 5).is_ok());
        assert!(
            matches!(l1.try_store(0x8000, 1, 6), Err(Probe::ReadOnly(_))),
            "S is not writable"
        );
    }

    /// A store that upgrades a Shared line through the probe's slot, and
    /// one that misses through an absent probe, leave every counter, the
    /// LRU clock and the line exactly as the public (unprobed) entry
    /// points do.
    #[test]
    fn probed_transactions_match_unprobed_ones() {
        let run = |probed: bool| {
            let mut h = coh(2);
            h.load(0, 0x8000, 8, 0);
            h.load(1, 0x8000, 8, 1); // both Shared
            for (i, addr) in [0x8000u64, 0x9000].into_iter().enumerate() {
                let op = TraceOp::Store { addr, size: 8 };
                let pc = 2 + i as u64;
                let r = if probed {
                    let probe = h.l1s_mut()[0].try_store(addr, 8, pc).unwrap_err();
                    h.transact(0, op, probe, pc)
                } else {
                    // The fast-path probe ticks the LRU clock either way.
                    h.l1s_mut()[0].cache.probe(addr);
                    crate::engine::with_store_data(addr, 8, |d| h.store(0, addr, d, pc))
                };
                assert!(r.exception.is_none());
            }
            let mut stats = SimStats::default();
            h.export_stats(&mut stats);
            let mut w = ck::Wr::checkpoint();
            h.save_state(&mut w);
            (format!("{stats:?}"), w.finish())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn nt_cform_invalidates_every_copy_and_hits_below() {
        let mut h = coh(3);
        h.store(0, 0xA000, &[3; 8], 0);
        h.load(1, 0xA000, 8, 1);
        h.load(2, 0xA000, 8, 2);
        let r = h.cform_nt(0, &CformInstruction::set(0xA000, 1 << 40), 3);
        assert!(r.exception.is_none());
        for c in 0..3 {
            assert_eq!(h.l1_state(c, 0xA000), None, "core {c} dropped its copy");
        }
        assert!(h.peek_is_security_byte(0xA000 + 40));
        assert_eq!(h.peek_byte(0xA000), 3, "data survived");
    }

    #[test]
    fn capacity_eviction_updates_directory() {
        let mut h = coh(2);
        let target = 0xB000u64;
        h.store(0, target, &[9; 8], 0);
        // Thrash core 0's set (64 sets × 64 B × 64 sets-stride = 4096).
        for i in 1..=16u64 {
            h.load(0, target + i * 4096, 8, 0);
        }
        assert_eq!(h.l1_state(0, target), None, "victim evicted");
        // A fresh read by core 1 must come from the shared levels (no
        // stale directory entry pointing at core 0).
        let r = h.load(1, target, 8, 1);
        assert_eq!(r.data, vec![9; 8]);
        assert_eq!(h.l1_state(1, target), Some(Mesi::Exclusive));
    }

    #[test]
    fn single_core_behaves_like_flat_hierarchy() {
        let mut h = coh(1);
        let r = h.load(0, 0x4000, 1, 0);
        assert_eq!(r.latency, 4 + 7 + 27 + 300, "one core has no directory");
        let r = h.load(0, 0x4000, 1, 0);
        assert_eq!(r.latency, 4);
        assert_eq!(h.coherence_totals(), CoherenceStats::default());
    }

    #[test]
    fn nt_cform_charges_cache_to_cache_only_for_remote_dirty_copies() {
        let ccfg = CoherenceConfig::westmere();
        let insn = CformInstruction::set(0xC000, 1 << 9);
        let unset = CformInstruction::new(0xC000, 0, 1 << 9);
        // Baseline: NT-CFORM of a line no L1 holds (L2 hit after a first
        // NT-CFORM brought it there).
        let mut h = coh(2);
        h.cform_nt(0, &insn, 0);
        let cold = h.cform_nt(0, &unset, 1).latency;
        // Core 0 NT-CFORMs its own dirty line: a local write-back.
        let mut h = coh(2);
        h.cform_nt(0, &insn, 0);
        h.store(0, 0xC000, &[1], 1);
        let own = h.cform_nt(0, &unset, 2);
        assert_eq!(own.latency, cold, "own dirty copy is written back locally");
        assert_eq!(h.coherence_totals().invalidations, 0);
        // Core 1 NT-CFORMs core 0's dirty line: a cache-to-cache recall.
        let mut h = coh(2);
        h.cform_nt(0, &insn, 0);
        h.store(0, 0xC000, &[1], 1);
        let remote = h.cform_nt(1, &unset, 2);
        assert_eq!(remote.latency, cold + ccfg.cache_to_cache_latency);
        assert_eq!(h.coherence_totals().invalidations, 1);
        assert_eq!(h.peek_byte(0xC000), 1, "dirty data survived both ways");
    }

    #[test]
    fn stream_prefetcher_caps_sequential_miss_latency() {
        let mut h = coh(2);
        let cold = 4 + 2 + 7 + 27 + 300;
        assert_eq!(h.load(0, 0x10_0000, 8, 0).latency, cold);
        // The next line continues core 0's stream: only the residual.
        assert_eq!(h.load(0, 0x10_0040, 8, 0).latency, 4 + 2 + 2);
        // Core 1 has its own detector, which has seen nothing yet.
        assert_eq!(h.load(1, 0x20_0040, 8, 0).latency, cold);
    }
}
