//! Core timing model.
//!
//! A deliberately simple out-of-order abstraction: the core retires up to
//! `width` instructions per cycle, and a fraction `overlap` of every
//! beyond-L1 memory latency is hidden by the instruction window (memory
//! level parallelism + independent work). L1 hits are fully pipelined.
//!
//! This is the standard first-order model for trace-driven studies: it
//! does not predict absolute IPC, but it propagates *relative* changes in
//! cache behaviour — which is all the paper's Figures 4 and 10–12 measure
//! — and it lets workload profiles express their memory-boundedness
//! through `overlap` (a pointer-chasing workload hides almost nothing; a
//! streaming workload hides almost everything).
//!
//! `CoreState` is the one per-core model both engines step: the
//! architectural state of a core (pc, clock, counters, exception mask)
//! and the rule for retiring each op. [`crate::engine::Engine`] owns one,
//! [`crate::multicore::MulticoreEngine`] one per core.

use crate::checkpoint::{self as ck, CheckpointError};
use crate::coherence::CoreL1;
use crate::engine::{with_store_data, Engine};
use crate::hierarchy::MemResult;
use crate::stats::SimStats;
use crate::trace::TraceOp;
use califorms_core::{CaliformsException, CformInstruction, ExceptionMask};

/// Core timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Retire width (instructions per cycle), Westmere-like default 4.
    pub width: u32,
    /// Fraction of beyond-L1 miss latency hidden by the OoO window,
    /// in `[0, 1)`.
    pub overlap: f64,
}

impl CoreConfig {
    /// Westmere-like defaults: 4-wide, 60 % of miss latency hidden.
    pub fn westmere() -> Self {
        Self {
            width: 4,
            overlap: 0.6,
        }
    }

    /// Same core with a different overlap (workload-specific
    /// memory-boundedness).
    pub fn with_overlap(self, overlap: f64) -> Self {
        assert!((0.0..1.0).contains(&overlap), "overlap must be in [0,1)");
        Self { overlap, ..self }
    }

    /// Cycles to retire `n` plain instructions.
    pub fn exec_cycles(&self, n: u64) -> f64 {
        n as f64 / f64::from(self.width)
    }

    /// Stall cycles charged for a memory access of total `latency`, given
    /// the L1 hit latency `l1_latency`: L1 hits are free (pipelined);
    /// beyond-L1 latency is charged at `1 − overlap`.
    pub fn memory_stall(&self, latency: u32, l1_latency: u32) -> f64 {
        if latency <= l1_latency {
            0.0
        } else {
            f64::from(latency - l1_latency) * (1.0 - self.overlap)
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::westmere()
    }
}

/// The architectural state of one simulated core: its timing model, the
/// index of the last retired op (`pc`), the clock, the op counters, the
/// exception mask and the delivered exceptions.
#[derive(Debug)]
pub(crate) struct CoreState {
    pub(crate) cfg: CoreConfig,
    l1d_latency: u32,
    mask: ExceptionMask,
    pub(crate) cycles: f64,
    instructions: u64,
    loads: u64,
    stores: u64,
    cforms: u64,
    stores_suppressed: u64,
    pub(crate) exceptions: Vec<CaliformsException>,
    pub(crate) pc: u64,
}

impl CoreState {
    /// A core at reset; `l1d_latency` is the L1 hit latency the stall
    /// model treats as free.
    pub(crate) fn new(cfg: CoreConfig, l1d_latency: u32) -> Self {
        Self {
            cfg,
            l1d_latency,
            mask: ExceptionMask::new(),
            cycles: 0.0,
            instructions: 0,
            loads: 0,
            stores: 0,
            cforms: 0,
            stores_suppressed: 0,
            exceptions: Vec::new(),
            pc: 0,
        }
    }

    fn account_memory(&mut self, latency: u32) {
        self.cycles += self.cfg.exec_cycles(1) + self.cfg.memory_stall(latency, self.l1d_latency);
    }

    fn deliver(&mut self, exception: Option<CaliformsException>) {
        if let Some(exc) = exception {
            if let Some(delivered) = self.mask.filter(exc) {
                if self.exceptions.len() < Engine::MAX_RECORDED_EXCEPTIONS {
                    self.exceptions.push(delivered);
                }
            }
        }
    }

    /// Retires the memory op `op`, which the hierarchy completed with `r`.
    #[inline]
    pub(crate) fn commit(&mut self, op: &TraceOp, r: MemResult) {
        match op {
            TraceOp::Load { .. } => self.loads += 1,
            TraceOp::Store { .. } => {
                self.stores += 1;
                if r.exception.is_some() {
                    self.stores_suppressed += 1;
                }
            }
            TraceOp::Cform { .. } | TraceOp::CformNt { .. } => self.cforms += 1,
            _ => {}
        }
        self.pc += 1;
        self.instructions += op.instruction_count();
        self.account_memory(r.latency);
        self.deliver(r.exception);
    }

    /// Retires the non-memory op `op`, which costs `cycles`.
    fn commit_exec(&mut self, op: &TraceOp, cycles: f64) {
        self.pc += 1;
        self.instructions += op.instruction_count();
        self.cycles += cycles;
    }

    /// Retires `op` if it completes without a coherence transaction: plain
    /// `Exec`, mask ops, and accesses the core's private L1 `l1` serves
    /// with sufficient MESI permission. Returns `false`, with nothing
    /// changed, for an op that needs
    /// [`crate::coherence::CoherentHierarchy::transact`].
    #[inline]
    pub(crate) fn try_local(&mut self, l1: &mut CoreL1, op: TraceOp) -> bool {
        // The op about to retire gets the next pc.
        let pc = self.pc + 1;
        let r = match op {
            TraceOp::Exec(n) => {
                let c = self.cfg.exec_cycles(u64::from(n));
                self.commit_exec(&op, c);
                return true;
            }
            TraceOp::MaskPush => {
                let c = self.cfg.exec_cycles(1);
                self.commit_exec(&op, c);
                self.mask.push_allow_all();
                return true;
            }
            TraceOp::MaskPop => {
                let c = self.cfg.exec_cycles(1);
                self.commit_exec(&op, c);
                self.mask.pop_window();
                return true;
            }
            TraceOp::Load { addr, size } => l1.try_load_quiet(addr, size as usize, pc),
            TraceOp::Store { addr, size } => {
                with_store_data(addr, size as usize, |data| l1.try_store(addr, data, pc))
            }
            TraceOp::Cform {
                line_addr,
                attrs,
                mask,
            } => l1.try_cform(&CformInstruction::new(line_addr, attrs, mask), pc),
            // Non-temporal CFORMs operate below the L1 across every
            // core's copy: always a transaction.
            TraceOp::CformNt { .. } => None,
        };
        match r {
            Some(r) => {
                self.commit(&op, r);
                true
            }
            None => false,
        }
    }

    /// The architectural part of this core's [`SimStats`] (the hierarchy
    /// adds its own counters).
    pub(crate) fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.cycles,
            instructions: self.instructions,
            loads: self.loads,
            stores: self.stores,
            cforms: self.cforms,
            stores_suppressed: self.stores_suppressed,
            exceptions_delivered: self.mask.delivered_count(),
            exceptions_suppressed: self.mask.suppressed_count(),
            ..SimStats::default()
        }
    }

    /// Writes this core's checkpoint record (its timing model comes from
    /// the configuration section).
    pub(crate) fn save(&self, w: &mut ck::Wr) {
        w.u64(self.pc);
        w.f64(self.cycles);
        w.u64(self.instructions);
        w.u64(self.loads);
        w.u64(self.stores);
        w.u64(self.cforms);
        w.u64(self.stores_suppressed);
        ck::put_mask(w, &self.mask);
        ck::put_exceptions(w, &self.exceptions);
    }

    /// Reads a record written by [`Self::save`] into a core with the
    /// given timing model.
    pub(crate) fn restore(
        r: &mut ck::Rd<'_>,
        cfg: CoreConfig,
        l1d_latency: u32,
    ) -> ck::Result<Self> {
        let core = Self {
            pc: r.u64()?,
            cycles: r.f64()?,
            instructions: r.u64()?,
            loads: r.u64()?,
            stores: r.u64()?,
            cforms: r.u64()?,
            stores_suppressed: r.u64()?,
            mask: ck::get_mask(r)?,
            exceptions: ck::get_exceptions(r)?,
            ..Self::new(cfg, l1d_latency)
        };
        if !core.cycles.is_finite() || core.cycles < 0.0 {
            return Err(CheckpointError::Corrupt("core cycle count is invalid"));
        }
        if core.exceptions.len() > Engine::MAX_RECORDED_EXCEPTIONS {
            return Err(CheckpointError::Corrupt(
                "recorded exceptions exceed the engine cap",
            ));
        }
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_cycles_respect_width() {
        let c = CoreConfig::westmere();
        assert!((c.exec_cycles(8) - 2.0).abs() < 1e-12);
        assert!((c.exec_cycles(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn l1_hits_are_free() {
        let c = CoreConfig::westmere();
        assert_eq!(c.memory_stall(4, 4), 0.0);
        assert_eq!(c.memory_stall(3, 4), 0.0);
    }

    #[test]
    fn misses_are_charged_at_one_minus_overlap() {
        let c = CoreConfig::westmere().with_overlap(0.5);
        assert!((c.memory_stall(4 + 7, 4) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn zero_overlap_charges_full_latency() {
        let c = CoreConfig::westmere().with_overlap(0.0);
        assert!((c.memory_stall(238, 4) - 234.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "overlap must be in")]
    fn overlap_out_of_range_panics() {
        CoreConfig::westmere().with_overlap(1.0);
    }
}
