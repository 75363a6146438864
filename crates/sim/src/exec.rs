//! The predecoded execution fast path.
//!
//! [`Machine::run`]'s tier dispatch (see [`crate::tier`]) steps here
//! when [`ExecPath::Fast`](crate::ExecPath::Fast) is configured (the
//! default). The fast path is **cycle-exact** with the reference
//! implementation in `machine.rs` — same architectural state, same PMU
//! counters, same sample stream, bundle for bundle — but removes the
//! per-step costs that dominate the reference loop:
//!
//! - **no `Bundle` clone per step**: the bundle address resolves to a
//!   [`CodeLoc`](crate::code::CodeLoc) (two compares and an index
//!   computation) and slots are copied out of the dense
//!   [`CodeStore`](crate::CodeStore) arena on demand;
//! - **no per-slot heap allocation**: scoreboard read sets are
//!   predecoded into fixed-size arrays padded with always-ready
//!   registers, so the stall walk is a fixed-trip loop over plain
//!   indices instead of a fresh `Vec<Gr>` per instruction;
//! - **nop fast-skip**: a predecoded flag retires nops without
//!   predicate, scoreboard, or execute work (predication of a nop has
//!   no architectural or timing effect, so the skip is exact);
//! - **sampling checks hoisted**: when sampling is off, the run loop
//!   contains no sample-buffer or sample-due checks at all;
//! - **quiet blocks**: while `cycle >= quiet_at` (no scoreboard read
//!   can stall), code made of *quiet* bundles — only nops, `alloc`,
//!   single-cycle integer ops, compares, `br` and `br.cond` — runs one
//!   straight-line [`QuietBlock`] at a time from the code store's op
//!   arena, with the block's instruction fetches, retirement and
//!   pairing / taken-branch timing settled once per block, and without
//!   the per-slot scoreboard walk, slot copy, full `Op` match or
//!   fault/halt checks (see `Machine::quiet_run`).
//!
//! Instruction semantics are not duplicated: both paths call the same
//! `Machine::exec_slot_op` / `retire_bundle` helpers, and quiet blocks
//! call `Machine::exec_int`, the integer semantics `exec_slot_op`
//! itself uses, so the fast path cannot drift on what an instruction
//! *does* — only on how the bundle is fetched and scheduled, which is
//! exactly what the golden cycle-exactness tests, the sampled
//! `tests/quiet_run.rs` harness and the per-path differential fuzz
//! smoke pin down.

use isa::{Addr, Insn, Pc};

use crate::code::{CodeStore, QuietBlock, QuietOp, FLAG_FR_READS};
use crate::machine::{Fault, Machine};

impl Machine {
    /// Executes one bundle from the predecoded store. `SAMPLING` is a
    /// compile-time split so the common (unsampled) instantiation is
    /// branchless with respect to sampling. The fast tier's step
    /// ([`crate::tier::Fast`] dispatches here); the threaded tier also
    /// calls it for cold code while regions warm up toward compilation.
    pub(crate) fn step_bundle_fast<const SAMPLING: bool>(&mut self) {
        let bundle_addr = self.ip;
        let Some(loc) = self.store.locate(bundle_addr) else {
            self.fault = Some(Fault::UnmappedFetch(bundle_addr));
            return;
        };

        // Instruction fetch.
        let istall = self.caches.ifetch(bundle_addr.0, self.cycle);
        if istall > 0 {
            self.pmu.counters.l1i_misses += 1;
            self.pmu.counters.stall_icache += istall;
            self.cycle += istall;
            self.half_bundle = false;
        }

        let mut taken: Option<Addr> = None;
        let fall_through = bundle_addr.offset_bundles(1);
        // One arena lookup and one copy of the executable payload per
        // step (slots + masks, not the generation tag): slot accesses
        // below are plain stack reads with no pool/static dispatch or
        // bounds checks.
        let (slots, cond_branch_mask, nop_mask) = {
            let db = self.store.decoded(loc);
            (db.slots, db.cond_branch_mask, db.nop_mask)
        };

        for slot in 0..3u8 {
            self.pmu.counters.retired += 1;

            if nop_mask & (1 << slot) != 0 {
                continue;
            }
            let ds = &slots[slot as usize];

            // Qualifying predicate.
            if let Some(qp) = ds.insn.qp {
                if !self.pr[qp.index()] {
                    continue;
                }
            }

            // Scoreboard: identical stall order to the reference path
            // (GR reads in `gr_reads()` order, then FR reads in op
            // order); padded entries index always-ready registers and
            // are guaranteed no-ops.
            for r in ds.gr_reads {
                let ready = self.gr_ready[r as usize];
                if ready > self.cycle {
                    self.stall_until(ready, self.gr_source[r as usize]);
                }
            }
            if ds.flags & FLAG_FR_READS != 0 {
                for f in ds.fr_reads {
                    let ready = self.fr_ready[f as usize];
                    if ready > self.cycle {
                        self.stall_until(ready, self.fr_source[f as usize]);
                    }
                }
            }

            self.exec_slot_op(
                ds.insn,
                Pc::new(bundle_addr, slot),
                fall_through,
                &mut taken,
            );
            if self.fault.is_some() || taken.is_some() || self.halted {
                break;
            }
        }

        // A fault freezes the machine at the faulting instruction:
        // earlier slots keep their effects, the ip does not advance,
        // and no sample is taken.
        if self.fault.is_some() {
            self.pmu.counters.cycles = self.cycle;
            return;
        }

        // Record fall-through outcomes of predicated-off conditional
        // branches; the predecoded mask skips the scan for the common
        // branch-free bundle.
        if taken.is_none() && cond_branch_mask != 0 {
            let insns: [Insn; 3] = [slots[0].insn, slots[1].insn, slots[2].insn];
            self.record_off_cond_branches(&insns, bundle_addr, fall_through);
        }

        if SAMPLING {
            self.retire_bundle(bundle_addr, fall_through, taken);
        } else {
            // No sampling configured: `take_sample` would be a
            // guaranteed no-op, so skip straight to the shared advance.
            self.advance_after_bundle(fall_through, taken);
        }
    }

    /// The fast tier's quiet run: executes whole quiet blocks, one
    /// after another, from `ip`. The caller guarantees
    /// `cycle >= quiet_at`; quiet results are ready in their issuing
    /// cycle, so the watermark stays behind the clock and every
    /// scoreboard read a block skips would be a no-op.
    ///
    /// A block runs only when it runs whole with nothing to observe
    /// inside it:
    ///
    /// - it cannot reach the stop bound: its `n` bundles advance the
    ///   clock by at most `⌈n/2⌉ + taken_branch_penalty`, and that must
    ///   stay below `min(cycle_limit, next sample point)` (0 while the
    ///   sample buffer is full), so no bundle of it would stop the run
    ///   or take a sample;
    /// - every L1I line it covers is its set's most recently used line
    ///   ([`Hierarchy::ifetch_resident`](crate::Hierarchy::ifetch_resident)),
    ///   so each of its fetches is a hit that changes no cache state.
    ///
    /// The run returns, with nothing half done, at the first block that
    /// fails either test or at a bundle that enters no block (unmapped
    /// or not quiet). The caller then steps that bundle on the generic
    /// path, so stops, samples and L1I misses all happen there.
    pub(crate) fn quiet_run(&mut self, cycle_limit: u64) {
        debug_assert!(self.cycle >= self.quiet_at);
        // Samples are only taken when due, and `next_at` only moves
        // when one is taken, so one bound covers both stops.
        let stop_at = match (&self.samples, &self.config.sampling) {
            (Some(ss), Some(cfg)) => {
                if ss.buffer.len() >= cfg.buffer_capacity {
                    0
                } else {
                    cycle_limit.min(ss.next_at)
                }
            }
            _ => cycle_limit,
        };
        // The code store is moved out for the duration of the run (a
        // small move, no allocation) so block ops can be borrowed in
        // place while the machine state mutates; nothing in the loop
        // touches code.
        let mut store = std::mem::take(&mut self.store);
        let penalty = self.config.taken_branch_penalty;
        while let Some(block) = store.quiet_block(self.ip) {
            let n = block.bundles;
            if self.cycle + n.div_ceil(2) + penalty >= stop_at
                || !self
                    .caches
                    .ifetch_resident(block.entry.0, block.last().0, n)
            {
                break;
            }
            self.run_block(&store, &block);
        }
        self.store = store;
    }

    /// Executes `block` whole; [`Machine::quiet_run`] has checked that
    /// it may, and has counted its instruction fetches.
    #[inline(always)]
    fn run_block(&mut self, store: &CodeStore, block: &QuietBlock) {
        let n = block.bundles;
        let last = block.last();
        // Every slot retires, nops and predicated-off ones included, up
        // to and including a taken branch, which only the last bundle
        // can hold.
        let mut retired = 3 * n;
        let mut taken: Option<Addr> = None;
        for q in store.block_ops(block) {
            if !self.pr[q.qp as usize] {
                continue;
            }
            match q.op {
                QuietOp::Int(op) => self.exec_int::<true>(q.int(op)),
                QuietOp::Br | QuietOp::BrCond => {
                    let target = Addr(q.imm as u64);
                    self.pmu.record_branch(Pc::new(last, q.slot), target, true);
                    taken = Some(target);
                    retired = 3 * (n - 1) + u64::from(q.slot) + 1;
                    break;
                }
            }
        }
        self.pmu.counters.retired += retired;

        // Predicated-off `br.cond`s record a not-taken outcome, judged
        // on the predicates as the bundle leaves them — the rule of
        // `record_off_cond_branches`.
        let fall_through = last.offset_bundles(1);
        if taken.is_none() {
            for q in store.last_bundle_ops(block) {
                if q.op == QuietOp::BrCond && !self.pr[q.qp as usize] {
                    self.pmu
                        .record_branch(Pc::new(last, q.slot), fall_through, false);
                }
            }
        }

        // The first n - 1 bundles fall through: two bundles issue per
        // cycle, so the clock advances once per completed pair, counting
        // a half-issued pair left by the previous bundle. The last
        // bundle takes the shared per-bundle rule.
        let halves = n - 1 + u64::from(self.half_bundle);
        self.cycle += halves / 2;
        self.half_bundle = halves % 2 == 1;
        self.advance_after_bundle(fall_through, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecPath, MachineConfig, StopReason};
    use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};

    /// A 100-iteration integer-only loop, then a load, then halt.
    fn quiet_loop_then_load(exec_path: ExecPath) -> Machine {
        let mut a = Asm::new();
        a.movl(Gr(9), 100);
        a.label("loop");
        a.addi(Gr(9), Gr(9), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "loop");
        a.movl(Gr(10), crate::DATA_BASE as i64);
        a.ld(AccessSize::U8, Gr(11), Gr(10), 0);
        a.halt();
        let config = MachineConfig {
            exec_path,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(a.finish(CODE_BASE).unwrap(), config);
        m.mem_mut().alloc(64, 64);
        m
    }

    #[test]
    fn quiet_run_runs_whole_blocks_up_to_the_first_loud_bundle() {
        let mut m = quiet_loop_then_load(ExecPath::Fast);
        m.quiet_run(u64::MAX);
        assert_eq!(m.retired(), 0, "cold code: the entry line is not resident");
        // A few generic steps make the loop's line resident.
        for _ in 0..4 {
            m.step_bundle_fast::<false>();
        }
        let stepped = m.retired();
        m.quiet_run(u64::MAX);
        assert!(
            m.retired() > stepped + 200,
            "the remaining iterations ran as blocks"
        );
        assert_eq!(m.gr(Gr(9)), 0, "the loop finished");
        assert_eq!(m.store.quiet_block(m.ip), None, "stopped at the load");
        assert!(m.quiet_at <= m.cycle, "quiet results are ready at once");

        // The reference tier, stepped to the same retired count, is in
        // the same state.
        let mut r = quiet_loop_then_load(ExecPath::Reference);
        while r.retired() < m.retired() {
            r.step_bundle();
        }
        let state = |m: &Machine| {
            let c = &m.pmu.counters;
            let timing = (m.cycles(), m.half_bundle, c.retired, c.branches);
            (timing, m.ip, m.caches().cache_stats())
        };
        assert_eq!(state(&r), state(&m));
    }

    #[test]
    fn quiet_run_leaves_a_block_that_could_reach_the_stop_bound() {
        let mut m = quiet_loop_then_load(ExecPath::Fast);
        assert_eq!(m.run(10), StopReason::CycleLimit);
        let (start, limit) = (m.cycles(), m.cycles() + 9);
        m.quiet_run(limit);
        assert!(m.cycles() > start, "blocks ran");
        assert!(m.cycles() < limit, "no block reaches the bound");
        let next = m.store.quiet_block(m.ip).expect("still in the loop");
        assert!(
            m.cycles() + next.bundles.div_ceil(2) + m.config.taken_branch_penalty >= limit,
            "it stops at the first block that could reach the bound"
        );
        // The generic steps then stop on the same bundle as the
        // reference tier.
        assert_eq!(m.run(limit), StopReason::CycleLimit);
        let mut r = quiet_loop_then_load(ExecPath::Reference);
        assert_eq!(r.run(10), StopReason::CycleLimit);
        assert_eq!(r.run(limit), StopReason::CycleLimit);
        assert_eq!(
            (r.cycles(), r.retired(), r.ip),
            (m.cycles(), m.retired(), m.ip)
        );
    }
}
