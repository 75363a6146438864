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
//! - **quiet run**: while `cycle >= quiet_at` (no scoreboard read can
//!   stall), consecutive *quiet* bundles — only nops, `alloc`,
//!   single-cycle integer ops, compares, `br` and `br.cond` — execute
//!   from their compact [`QuietForm`](crate::code::QuietForm), across
//!   taken branches, without the per-slot scoreboard walk, slot copy,
//!   full `Op` match or fault/halt checks (see `Machine::quiet_run`).
//!
//! Instruction semantics are not duplicated: both paths call the same
//! `Machine::exec_slot_op` / `retire_bundle` helpers, and the quiet run
//! calls `Machine::exec_int`, the integer semantics `exec_slot_op`
//! itself uses, so the fast path cannot drift on what an instruction
//! *does* — only on how the bundle is fetched and scheduled, which is
//! exactly what the golden cycle-exactness tests, the sampled
//! `tests/quiet_run.rs` harness and the per-path differential fuzz
//! smoke pin down.

use isa::{Addr, Insn, Pc};

use crate::code::{QuietOp, FLAG_FR_READS};
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

    /// The fast tier's quiet run: executes consecutive quiet bundles
    /// from their [`QuietForm`](crate::code::QuietForm)s, starting at
    /// `ip`. The caller guarantees `cycle >= quiet_at`; single-cycle
    /// integer results are ready in their issuing cycle, so the
    /// watermark never passes the clock during the run and every
    /// scoreboard read would be a no-op — the skipped stall walk is
    /// exact, and the bundle's timing is just the instruction fetch
    /// plus the shared pairing / taken-branch rule.
    ///
    /// Stop protocol: after each bundle that ends at or past
    /// `cycle_limit`, or at or past the next sample point (the sample
    /// is taken there, exactly as `retire_bundle` would), the run
    /// returns `true` and the caller hands control back to
    /// `Machine::drive`, so every stop lands on the same bundle as a
    /// bundle-at-a-time tier. It returns `false` — with no stop check
    /// pending — when the bundle at `ip` is unmapped or not quiet; the
    /// caller then steps that bundle on the generic path.
    pub(crate) fn quiet_run<const SAMPLING: bool>(&mut self, cycle_limit: u64) -> bool {
        debug_assert!(self.cycle >= self.quiet_at);
        // Samples are only taken when due, and `next_at` only moves
        // when one is taken, so one bound covers both stops. A caller
        // that resumes with the buffer still full gets its overflow
        // stop after one bundle, as `drive` would give it.
        let stop_at = match (&self.samples, &self.config.sampling) {
            (Some(ss), Some(cfg)) if SAMPLING => {
                if ss.buffer.len() >= cfg.buffer_capacity {
                    0
                } else {
                    cycle_limit.min(ss.next_at)
                }
            }
            _ => cycle_limit,
        };
        // The code store is moved out for the duration of the run (a
        // few-word move, no allocation) so the forms can be borrowed in
        // place while the machine state mutates; nothing in the loop
        // touches code.
        let store = std::mem::take(&mut self.store);
        let stopped = self.quiet_bundles::<SAMPLING>(&store, stop_at);
        self.store = store;
        stopped
    }

    /// The loop of [`Machine::quiet_run`] over a borrowed code store.
    #[inline(always)]
    fn quiet_bundles<const SAMPLING: bool>(
        &mut self,
        store: &crate::code::CodeStore,
        stop_at: u64,
    ) -> bool {
        loop {
            let bundle_addr = self.ip;
            let Some(loc) = store.locate(bundle_addr) else {
                return false;
            };
            let Some(form) = &store.decoded(loc).quiet else {
                return false;
            };

            let istall = self.caches.ifetch(bundle_addr.0, self.cycle);
            if istall > 0 {
                self.pmu.counters.l1i_misses += 1;
                self.pmu.counters.stall_icache += istall;
                self.cycle += istall;
                self.half_bundle = false;
            }

            // Every slot retires, nops and predicated-off ones included,
            // up to and including a taken branch.
            let mut retired = 3;
            let mut taken: Option<Addr> = None;
            let fall_through = bundle_addr.offset_bundles(1);
            for q in form.slots() {
                if !self.pr[q.qp as usize] {
                    continue;
                }
                match q.op {
                    QuietOp::Int(op) => self.exec_int(q.int(op)),
                    QuietOp::Br | QuietOp::BrCond => {
                        let target = Addr(q.imm as u64);
                        self.pmu
                            .record_branch(Pc::new(bundle_addr, q.slot), target, true);
                        taken = Some(target);
                        retired = u64::from(q.slot) + 1;
                        break;
                    }
                }
            }
            self.pmu.counters.retired += retired;

            // Predicated-off `br.cond`s record a not-taken outcome,
            // judged on the predicates as the bundle leaves them — the
            // rule of `record_off_cond_branches`.
            if taken.is_none() {
                for q in form.slots() {
                    if q.op == QuietOp::BrCond && !self.pr[q.qp as usize] {
                        self.pmu
                            .record_branch(Pc::new(bundle_addr, q.slot), fall_through, false);
                    }
                }
            }

            self.advance_after_bundle(fall_through, taken);
            if self.cycle >= stop_at {
                if SAMPLING {
                    self.take_sample(Pc::new(bundle_addr, 0));
                }
                return true;
            }
        }
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
    fn quiet_run_covers_the_loop_and_stops_at_the_first_loud_bundle() {
        let mut m = quiet_loop_then_load(ExecPath::Fast);
        assert!(!m.quiet_run::<false>(u64::MAX), "runs until a loud bundle");
        assert_eq!(m.gr(Gr(9)), 0, "every iteration ran in one quiet run");
        let loud = m.store.locate(m.ip).unwrap();
        assert!(m.store.decoded(loud).quiet.is_none());
        assert!(m.quiet_at <= m.cycle, "quiet results are ready at once");
    }

    #[test]
    fn quiet_run_returns_after_the_bundle_that_reaches_the_cycle_limit() {
        let mut m = quiet_loop_then_load(ExecPath::Fast);
        assert!(m.quiet_run::<false>(20));
        assert!(m.cycles() >= 20);
        // The reference tier, stepped bundle by bundle, stops on the
        // same bundle.
        let mut r = quiet_loop_then_load(ExecPath::Reference);
        assert_eq!(r.run(20), StopReason::CycleLimit);
        assert_eq!(
            (r.cycles(), r.retired(), r.ip),
            (m.cycles(), m.retired(), m.ip)
        );
    }
}
