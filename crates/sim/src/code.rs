//! The predecoded code store backing the execution fast path.
//!
//! [`Machine::step_bundle`](crate::Machine) (the reference path)
//! re-resolves and clones a [`Bundle`] from the program image on every
//! executed bundle, and re-derives each slot's scoreboard sources with
//! heap-allocating [`Op::gr_reads`](isa::Op::gr_reads) calls. The
//! [`CodeStore`] removes all of that from the hot loop: every mapped
//! bundle address is resolved **once** into a dense arena of
//! [`DecodedBundle`]s — one flat vector for the static code segment,
//! one for the trace pool — so execution indexes by slot number and
//! reads precomputed, fixed-size register-read lists.
//!
//! Patching keeps the store coherent via **generation-tagged
//! invalidation**: every mutation ([`CodeStore::replace`],
//! [`CodeStore::install_pool`]) bumps the store generation and
//! re-decodes exactly the touched entries, tagging them with the new
//! generation. The hot loop therefore needs no validity check at all —
//! a decoded entry is stale only in the window *inside* a patch
//! operation, never between steps — while tests can assert that a
//! patch really did fix up its entry by comparing tags.
//!
//! The store also builds the fast tier's **quiet blocks** (see
//! [`QuietBlock`]) on first use, into a flat op arena. Every generation
//! bump drops all built blocks, so a block can never outlive a patch of
//! any bundle it covers.

use isa::{Addr, Bundle, CmpOp, Insn, Op, Program, TRACE_POOL_BASE};

/// Slot flag: the instruction is a no-op (of any slot kind) and can be
/// retired without predicate, scoreboard, or execute work.
pub const FLAG_NOP: u8 = 1 << 0;
/// Slot flag: the instruction reads floating-point registers and needs
/// the FP scoreboard walk.
pub const FLAG_FR_READS: u8 = 1 << 1;

/// One predecoded instruction slot: the instruction plus its scoreboard
/// read sets, resolved to plain register indices.
///
/// Read lists are padded with always-ready registers (`r0` for general
/// registers, `f0` for floating point: neither is ever written, so
/// their ready cycle stays 0 forever). Padding lets the fast path walk
/// a fixed-size array with no length branch, and a padded entry is a
/// guaranteed no-op in the stall check.
#[derive(Debug, Clone, Copy)]
pub struct DecodedSlot {
    /// The instruction itself.
    pub insn: Insn,
    /// General registers read (scoreboard sources), `r0`-padded.
    /// No operation reads more than two general registers.
    pub gr_reads: [u8; 2],
    /// Floating-point registers read, `f0`-padded (`fma` reads three).
    pub fr_reads: [u8; 3],
    /// `FLAG_*` bits.
    pub flags: u8,
}

impl DecodedSlot {
    fn decode(insn: Insn) -> DecodedSlot {
        let mut gr_reads = [0u8; 2];
        let reads = insn.op.gr_reads();
        debug_assert!(reads.len() <= 2, "no op reads more than two GRs");
        for (i, r) in reads.iter().take(2).enumerate() {
            gr_reads[i] = r.index() as u8;
        }
        let fr_reads = match insn.op {
            Op::Fma { a, b, c, .. } => [a.index() as u8, b.index() as u8, c.index() as u8],
            Op::Fadd { a, b, .. } | Op::Fmul { a, b, .. } => [a.index() as u8, b.index() as u8, 0],
            Op::Stf { s, .. } | Op::Getf { s, .. } => [s.index() as u8, 0, 0],
            _ => [0u8; 3],
        };
        let mut flags = 0u8;
        if insn.is_nop() {
            flags |= FLAG_NOP;
        }
        if fr_reads != [0u8; 3] {
            flags |= FLAG_FR_READS;
        }
        DecodedSlot {
            insn,
            gr_reads,
            fr_reads,
            flags,
        }
    }
}

/// The operation of a single-cycle integer instruction: an ALU op that
/// writes a general register, or a compare that writes a predicate
/// pair. See [`IntInsn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntOp {
    /// `x + y` (wrapping).
    Add,
    /// `x - y` (wrapping).
    Sub,
    /// `(x << count) + y` (wrapping add).
    Shladd(u8),
    /// `x & y`.
    And,
    /// `x | y`.
    Or,
    /// `x ^ y`.
    Xor,
    /// Compare `x` against `y`: the true target gets the result, the
    /// false target its complement.
    Cmp(CmpOp),
}

/// A single-cycle integer instruction (`add`/`adds`/`sub`/`shladd`/
/// `and`/`or`/`xor`/`mov`/`movl`/`cmp`/`cmp.i`) in one pre-resolved
/// shape: the operands are `x = gr[a]` and `y = gr[b] + imm`. Register
/// forms carry `imm = 0`; immediate forms read `b = r0` (always 0); `mov`
/// is `adds d = 0, s` and `movl` is `adds d = imm, r0`, as on Itanium.
///
/// [`IntInsn::from_op`] is the only mapping from [`Op`] to this form
/// and `Machine::exec_int` the only place its semantics live; the
/// generic slot executor and quiet blocks both go through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntInsn {
    /// The operation.
    pub op: IntOp,
    /// Destination general register, or the true predicate of a compare.
    pub d: u8,
    /// The false predicate of a compare (unused by ALU ops).
    pub pf: u8,
    /// First source register.
    pub a: u8,
    /// Second source register (`r0` for immediate forms).
    pub b: u8,
    /// Immediate added to the second operand (0 for register forms).
    pub imm: i64,
}

impl IntInsn {
    /// The pre-resolved form of `op`, or `None` when `op` is not a
    /// single-cycle integer instruction.
    #[inline(always)]
    pub fn from_op(op: &Op) -> Option<IntInsn> {
        let alu = |op, d: isa::Gr, a: isa::Gr, b: isa::Gr, imm| IntInsn {
            op,
            d: d.0,
            pf: 0,
            a: a.0,
            b: b.0,
            imm,
        };
        let cmp = |op, pt: isa::Pr, pf: isa::Pr, a: isa::Gr, b: isa::Gr, imm| IntInsn {
            op: IntOp::Cmp(op),
            d: pt.0,
            pf: pf.0,
            a: a.0,
            b: b.0,
            imm,
        };
        let r0 = isa::Gr(0);
        Some(match *op {
            Op::Add { d, a, b } => alu(IntOp::Add, d, a, b, 0),
            Op::AddI { d, a, imm } => alu(IntOp::Add, d, a, r0, imm),
            Op::Sub { d, a, b } => alu(IntOp::Sub, d, a, b, 0),
            Op::Shladd { d, a, count, b } => alu(IntOp::Shladd(count), d, a, b, 0),
            Op::And { d, a, b } => alu(IntOp::And, d, a, b, 0),
            Op::Or { d, a, b } => alu(IntOp::Or, d, a, b, 0),
            Op::Xor { d, a, b } => alu(IntOp::Xor, d, a, b, 0),
            Op::Mov { d, s } => alu(IntOp::Add, d, s, r0, 0),
            Op::MovL { d, imm } => alu(IntOp::Add, d, r0, r0, imm),
            Op::Cmp { op, pt, pf, a, b } => cmp(op, pt, pf, a, b, 0),
            Op::CmpI { op, pt, pf, a, imm } => cmp(op, pt, pf, a, r0, imm),
            _ => return None,
        })
    }
}

/// What one op of a quiet block does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuietOp {
    /// A single-cycle integer instruction; its operands are the
    /// [`IntInsn`] fields of the slot ([`QuietSlot::int`]).
    Int(IntOp),
    /// `br` to `imm`.
    Br,
    /// `br.cond` to `imm`: its predicated-off outcome is recorded.
    BrCond,
}

/// One effectful slot of a quiet bundle, flattened to 16 bytes: an
/// [`IntInsn`]'s fields, or a branch whose target is `imm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietSlot {
    /// The slot's operation.
    pub op: QuietOp,
    /// Qualifying predicate index; 0 (`p0`, hardwired true) when the
    /// instruction is unpredicated.
    pub qp: u8,
    /// Slot number within the bundle (0–2).
    pub slot: u8,
    /// [`IntInsn::d`].
    pub d: u8,
    /// [`IntInsn::pf`].
    pub pf: u8,
    /// [`IntInsn::a`].
    pub a: u8,
    /// [`IntInsn::b`].
    pub b: u8,
    /// [`IntInsn::imm`], or the branch target address.
    pub imm: i64,
}

impl QuietSlot {
    /// The quiet form of `insn` in slot `slot`: `Ok(None)` for a nop or
    /// `alloc` (no effect), `Err(())` when the instruction is outside
    /// the quiet set (memory, floating point, call/return, halt).
    fn of(insn: &Insn, slot: u8) -> Result<Option<QuietSlot>, ()> {
        let mut q = QuietSlot {
            op: QuietOp::Br,
            qp: insn.qp.map_or(0, |p| p.0),
            slot,
            d: 0,
            pf: 0,
            a: 0,
            b: 0,
            imm: 0,
        };
        match insn.op {
            Op::Nop(_) | Op::Alloc => return Ok(None),
            Op::Br { target } => q.imm = target.0 as i64,
            Op::BrCond { target } => {
                q.op = QuietOp::BrCond;
                q.imm = target.0 as i64;
            }
            ref op => {
                let i = IntInsn::from_op(op).ok_or(())?;
                q = QuietSlot {
                    op: QuietOp::Int(i.op),
                    d: i.d,
                    pf: i.pf,
                    a: i.a,
                    b: i.b,
                    imm: i.imm,
                    ..q
                };
            }
        }
        Ok(Some(q))
    }

    /// The integer instruction of an [`QuietOp::Int`] slot.
    #[inline(always)]
    pub fn int(&self, op: IntOp) -> IntInsn {
        IntInsn {
            op,
            d: self.d,
            pf: self.pf,
            a: self.a,
            b: self.b,
            imm: self.imm,
        }
    }
}

/// The most bundles one [`QuietBlock`] covers.
pub const QUIET_BLOCK_CAP: u64 = 32;

/// A **quiet block**: the straight-line run of quiet bundles entered at
/// `entry`. A bundle is quiet when every slot is a nop, `alloc`,
/// single-cycle integer instruction, `br` or `br.cond`. The block ends
/// with the first bundle that holds a `br`/`br.cond` slot (included),
/// before the first bundle that is not quiet or not mapped, or after
/// [`QUIET_BLOCK_CAP`] bundles, whichever comes first; so only its last
/// bundle can branch. Its effectful slots lie in slot order in the
/// store's op arena ([`CodeStore::block_ops`]); nops and `alloc`s are
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietBlock {
    /// Address of the entry bundle.
    pub entry: Addr,
    /// Number of bundles, 1 to [`QUIET_BLOCK_CAP`].
    pub bundles: u64,
    /// First arena index of the block's ops.
    ops_start: u32,
    /// First arena index of the last bundle's ops.
    last_ops: u32,
    /// One past the block's last arena index.
    ops_end: u32,
}

impl QuietBlock {
    /// Address of the block's last bundle.
    #[inline]
    pub fn last(&self) -> Addr {
        self.entry.offset_bundles(self.bundles as i64 - 1)
    }
}

/// One predecoded bundle: three decoded slots plus bundle-level
/// metadata the fast path would otherwise re-derive per step.
#[derive(Debug, Clone, Copy)]
pub struct DecodedBundle {
    /// The three decoded slots.
    pub slots: [DecodedSlot; 3],
    /// Bit `s` set when slot `s` holds a conditional branch
    /// (`br.cond`); drives the predicated-off fall-through recording
    /// without rescanning the bundle.
    pub cond_branch_mask: u8,
    /// Bit `s` set when slot `s` is a no-op ([`FLAG_NOP`] hoisted to
    /// bundle level): lets the fast path retire padding slots without
    /// even copying them out of the arena.
    pub nop_mask: u8,
    /// Store generation at which this entry was (re)decoded.
    pub generation: u64,
}

impl DecodedBundle {
    fn decode(bundle: &Bundle, generation: u64) -> DecodedBundle {
        let slots = [
            DecodedSlot::decode(bundle.slots[0]),
            DecodedSlot::decode(bundle.slots[1]),
            DecodedSlot::decode(bundle.slots[2]),
        ];
        let mut cond_branch_mask = 0u8;
        let mut nop_mask = 0u8;
        for (s, insn) in bundle.slots.iter().enumerate() {
            if matches!(insn.op, Op::BrCond { .. }) {
                cond_branch_mask |= 1 << s;
            }
            if slots[s].flags & FLAG_NOP != 0 {
                nop_mask |= 1 << s;
            }
        }
        DecodedBundle {
            slots,
            cond_branch_mask,
            nop_mask,
            generation,
        }
    }
}

/// Location of a decoded bundle inside the store: segment plus index.
/// Resolved once per executed bundle, then used for direct indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeLoc {
    /// True when the bundle lives in the trace-pool segment.
    pub pool: bool,
    /// Index within the segment.
    pub index: u32,
}

/// `CodeStore` block-index value of a bundle whose quiet block has not
/// been built since the last generation bump.
const UNBUILT: u32 = 0;
/// `CodeStore` block-index value of a bundle that is not quiet, so no
/// block is entered there.
const NO_BLOCK: u32 = u32::MAX;

/// A dense arena of predecoded bundles mirroring the static program
/// image and the trace pool, plus the quiet blocks built over them. See
/// the module docs for the coherence protocol. The default store is
/// empty (no code, generation 0).
#[derive(Debug, Default)]
pub struct CodeStore {
    code_base: u64,
    static_bundles: Vec<DecodedBundle>,
    pool: Vec<DecodedBundle>,
    generation: u64,
    /// Per static bundle: the quiet block entered there, as an index
    /// into `blocks` plus one, or [`UNBUILT`] / [`NO_BLOCK`].
    static_blocks: Vec<u32>,
    /// The same for the trace-pool bundles.
    pool_blocks: Vec<u32>,
    /// Headers of the blocks built since the last generation bump.
    blocks: Vec<QuietBlock>,
    /// The op arena the block headers index.
    block_ops: Vec<QuietSlot>,
}

impl CodeStore {
    /// Predecodes every bundle of `program` (generation 0, empty pool).
    pub fn new(program: &Program) -> CodeStore {
        let static_bundles: Vec<DecodedBundle> = program
            .bundles()
            .iter()
            .map(|b| DecodedBundle::decode(b, 0))
            .collect();
        CodeStore {
            code_base: program.code_base(),
            static_blocks: vec![UNBUILT; static_bundles.len()],
            static_bundles,
            ..CodeStore::default()
        }
    }

    /// Re-targets the store at a fresh `program`, reusing the static
    /// arena's allocation and emptying the trace pool. A reset counts
    /// as a mutation: the generation keeps increasing rather than
    /// restarting at 0, so decoded entries cached for the previous
    /// program can never be mistaken for entries of the new one — the
    /// same tag discipline that keeps live patching coherent keeps
    /// machine reuse coherent.
    pub fn reset(&mut self, program: &Program) {
        self.bump_generation();
        let generation = self.generation;
        self.code_base = program.code_base();
        self.static_bundles.clear();
        self.static_bundles
            .extend(program.bundles().iter().map(|b| DecodedBundle::decode(b, generation)));
        self.static_blocks.resize(self.static_bundles.len(), UNBUILT);
        self.pool.clear();
        self.pool_blocks.clear();
    }

    /// Current store generation; bumped by every mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Starts a new generation: bumps the tag and drops every built
    /// quiet block, since a block may cover the bundle being changed.
    fn bump_generation(&mut self) {
        self.generation += 1;
        self.static_blocks.fill(UNBUILT);
        self.pool_blocks.fill(UNBUILT);
        self.blocks.clear();
        self.block_ops.clear();
    }

    /// Resolves a code address to a store location, mirroring
    /// [`Machine::bundle_at`](crate::Machine::bundle_at) exactly:
    /// addresses resolve to their containing bundle; unmapped addresses
    /// return `None`.
    #[inline]
    pub fn locate(&self, addr: Addr) -> Option<CodeLoc> {
        let a = addr.bundle_align().0;
        if a >= TRACE_POOL_BASE {
            let idx = ((a - TRACE_POOL_BASE) / Addr::BUNDLE_BYTES) as usize;
            (idx < self.pool.len()).then_some(CodeLoc {
                pool: true,
                index: idx as u32,
            })
        } else {
            if a < self.code_base {
                return None;
            }
            let idx = ((a - self.code_base) / Addr::BUNDLE_BYTES) as usize;
            (idx < self.static_bundles.len()).then_some(CodeLoc {
                pool: false,
                index: idx as u32,
            })
        }
    }

    /// The decoded bundle at `loc`.
    #[inline]
    pub fn decoded(&self, loc: CodeLoc) -> &DecodedBundle {
        if loc.pool {
            &self.pool[loc.index as usize]
        } else {
            &self.static_bundles[loc.index as usize]
        }
    }

    /// The decoded slot `slot` of the bundle at `loc`, by value.
    #[inline]
    pub fn slot(&self, loc: CodeLoc, slot: u8) -> DecodedSlot {
        self.decoded(loc).slots[slot as usize]
    }

    /// The quiet block entered at the bundle containing `addr`, built
    /// on first use; `None` when that bundle is unmapped or not quiet.
    #[inline]
    pub fn quiet_block(&mut self, addr: Addr) -> Option<QuietBlock> {
        let loc = self.locate(addr)?;
        let id = if loc.pool {
            self.pool_blocks[loc.index as usize]
        } else {
            self.static_blocks[loc.index as usize]
        };
        match id {
            NO_BLOCK => None,
            UNBUILT => self.build_block(addr.bundle_align(), loc),
            id => Some(self.blocks[id as usize - 1]),
        }
    }

    /// Builds and indexes the quiet block entered at `loc` (whose
    /// address is `entry`), or marks `loc` as entering none.
    #[inline(never)]
    fn build_block(&mut self, entry: Addr, loc: CodeLoc) -> Option<QuietBlock> {
        let segment = if loc.pool {
            &self.pool
        } else {
            &self.static_bundles
        };
        let ops_start = self.block_ops.len() as u32;
        let mut last_ops = ops_start;
        let mut bundles = 0;
        'bundles: for db in segment[loc.index as usize..]
            .iter()
            .take(QUIET_BLOCK_CAP as usize)
        {
            let mut slots = [None; 3];
            for (s, ds) in db.slots.iter().enumerate() {
                match QuietSlot::of(&ds.insn, s as u8) {
                    Ok(q) => slots[s] = q,
                    Err(()) => break 'bundles,
                }
            }
            last_ops = self.block_ops.len() as u32;
            self.block_ops.extend(slots.iter().flatten());
            bundles += 1;
            if slots
                .iter()
                .flatten()
                .any(|q| !matches!(q.op, QuietOp::Int(_)))
            {
                break;
            }
        }
        let (block, id) = if bundles == 0 {
            (None, NO_BLOCK)
        } else {
            let b = QuietBlock {
                entry,
                bundles,
                ops_start,
                last_ops,
                ops_end: self.block_ops.len() as u32,
            };
            self.blocks.push(b);
            (Some(b), self.blocks.len() as u32)
        };
        if loc.pool {
            self.pool_blocks[loc.index as usize] = id;
        } else {
            self.static_blocks[loc.index as usize] = id;
        }
        block
    }

    /// The effectful slots of `block`, in execution order.
    #[inline]
    pub fn block_ops(&self, block: &QuietBlock) -> &[QuietSlot] {
        &self.block_ops[block.ops_start as usize..block.ops_end as usize]
    }

    /// The effectful slots of `block`'s last bundle, the only one that
    /// can hold a branch.
    #[inline]
    pub fn last_bundle_ops(&self, block: &QuietBlock) -> &[QuietSlot] {
        &self.block_ops[block.last_ops as usize..block.ops_end as usize]
    }

    /// Predecodes and appends freshly installed trace-pool bundles.
    pub fn install_pool(&mut self, bundles: &[Bundle]) {
        self.bump_generation();
        let generation = self.generation;
        self.pool
            .extend(bundles.iter().map(|b| DecodedBundle::decode(b, generation)));
        self.pool_blocks.resize(self.pool.len(), UNBUILT);
    }

    /// Re-decodes the entry at `addr` after a patch replaced its
    /// bundle, tagging it with a fresh generation. Returns `false`
    /// (and changes nothing) when `addr` does not map to an entry —
    /// the caller's address check failed first in that case.
    pub fn replace(&mut self, addr: Addr, bundle: &Bundle) -> bool {
        let Some(loc) = self.locate(addr) else {
            return false;
        };
        self.bump_generation();
        let decoded = DecodedBundle::decode(bundle, self.generation);
        if loc.pool {
            self.pool[loc.index as usize] = decoded;
        } else {
            self.static_bundles[loc.index as usize] = decoded;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{AccessSize, Fr, Gr, Pr, SlotKind, CODE_BASE};

    fn prog(bundles: Vec<Bundle>) -> Program {
        Program::new(CODE_BASE, bundles)
    }

    fn nop_bundle() -> Bundle {
        Bundle::pack(&[Insn::nop(SlotKind::M)]).unwrap()
    }

    #[test]
    fn decode_extracts_read_sets_and_flags() {
        let ld = Insn::new(Op::Ld {
            d: Gr(20),
            base: Gr(14),
            post_inc: 8,
            size: AccessSize::U8,
            spec: false,
        });
        let st = Insn::new(Op::St {
            s: Gr(20),
            base: Gr(15),
            post_inc: 0,
            size: AccessSize::U8,
        });
        let fma = Insn::new(Op::Fma {
            d: Fr(9),
            a: Fr(8),
            b: Fr(7),
            c: Fr(9),
        });
        let b = Bundle::pack(&[ld, st, fma]).unwrap();
        let d = DecodedBundle::decode(&b, 3);
        assert_eq!(d.slots[0].gr_reads, [14, 0]);
        assert_eq!(d.slots[1].gr_reads, [20, 15]);
        assert_eq!(d.slots[2].fr_reads, [8, 7, 9]);
        assert_eq!(d.slots[0].flags & FLAG_NOP, 0);
        assert_ne!(d.slots[2].flags & FLAG_FR_READS, 0);
        assert_eq!(d.cond_branch_mask, 0);
        assert_eq!(d.generation, 3);
    }

    #[test]
    fn int_insn_resolves_every_single_cycle_op_to_one_shape() {
        let r = Gr;
        let add = Op::Add {
            d: r(3),
            a: r(4),
            b: r(5),
        };
        let i = IntInsn::from_op(&add).unwrap();
        assert_eq!((i.op, i.d, i.a, i.b, i.imm), (IntOp::Add, 3, 4, 5, 0));
        let i = IntInsn::from_op(&Op::Mov { d: r(3), s: r(7) }).unwrap();
        assert_eq!(
            (i.op, i.d, i.a, i.b, i.imm),
            (IntOp::Add, 3, 7, 0, 0),
            "mov = adds d = 0, s"
        );
        let i = IntInsn::from_op(&Op::MovL { d: r(3), imm: -9 }).unwrap();
        assert_eq!(
            (i.op, i.a, i.b, i.imm),
            (IntOp::Add, 0, 0, -9),
            "movl = adds d = imm, r0"
        );
        let cmpi = Op::CmpI {
            op: CmpOp::Ltu,
            pt: Pr(6),
            pf: Pr(7),
            a: r(8),
            imm: 40,
        };
        let i = IntInsn::from_op(&cmpi).unwrap();
        assert_eq!(
            (i.op, i.d, i.pf, i.a, i.b, i.imm),
            (IntOp::Cmp(CmpOp::Ltu), 6, 7, 8, 0, 40)
        );
        let shladd = Op::Shladd {
            d: r(1),
            a: r(2),
            count: 3,
            b: r(4),
        };
        assert_eq!(IntInsn::from_op(&shladd).unwrap().op, IntOp::Shladd(3));
        for op in [Op::Alloc, Op::Halt, Op::BrRet, Op::Nop(SlotKind::I)] {
            assert_eq!(IntInsn::from_op(&op), None, "{op:?}");
        }
    }

    fn at(index: u64) -> Addr {
        Addr(CODE_BASE + index * Addr::BUNDLE_BYTES)
    }

    fn load_bundle() -> Bundle {
        let ld = Insn::new(Op::Ld {
            d: Gr(20),
            base: Gr(14),
            post_inc: 0,
            size: AccessSize::U8,
            spec: false,
        });
        Bundle::pack(&[ld]).unwrap()
    }

    fn br_bundle() -> Bundle {
        Bundle::branch_only(Insn::new(Op::Br { target: at(0) }))
    }

    #[test]
    fn quiet_block_keeps_effectful_slots_in_slot_order() {
        let target = at(5);
        let branchy = Bundle {
            template: isa::Template::Mib,
            slots: [
                Insn::new(Op::Alloc),
                Insn::new(Op::AddI {
                    d: Gr(9),
                    a: Gr(9),
                    imm: -1,
                }),
                Insn::predicated(Pr(1), Op::BrCond { target }),
            ],
        };
        let mut store = CodeStore::new(&prog(vec![nop_bundle(), branchy, nop_bundle()]));
        let block = store.quiet_block(at(0)).expect("quiet entry");
        assert_eq!(
            (block.entry, block.bundles, block.last()),
            (at(0), 2, at(1))
        );
        let ops = store.block_ops(&block);
        assert_eq!(ops.len(), 2, "nops and alloc are dropped");
        assert_eq!((ops[0].slot, ops[0].qp), (1, 0));
        assert_eq!(ops[0].op, QuietOp::Int(IntOp::Add));
        assert_eq!(ops[0].int(IntOp::Add).imm, -1);
        assert_eq!((ops[1].slot, ops[1].qp), (2, 1));
        assert_eq!(ops[1].op, QuietOp::BrCond);
        assert_eq!(ops[1].imm as u64, target.0);
        assert_eq!(
            store.last_bundle_ops(&block),
            ops,
            "the last bundle holds both"
        );
        let from_mid = store.quiet_block(Addr(CODE_BASE + 17)).unwrap();
        assert_eq!(
            (from_mid.entry, from_mid.bundles),
            (at(1), 1),
            "mid-bundle address"
        );
        assert_eq!(
            store.quiet_block(at(0)),
            Some(block),
            "built once, then looked up"
        );

        for loud in [
            Insn::new(Op::Halt),
            Insn::new(Op::BrRet),
            Insn::new(Op::Lfetch {
                base: Gr(4),
                post_inc: 0,
            }),
        ] {
            let b = Bundle::pack(&[loud]).unwrap();
            let mut store = CodeStore::new(&prog(vec![b]));
            assert_eq!(store.quiet_block(at(0)), None, "{loud:?}");
        }
        assert_eq!(store.quiet_block(at(3)), None, "unmapped");
    }

    #[test]
    fn blocks_end_at_the_cap_a_loud_bundle_or_the_segment_end() {
        let mut bundles = vec![nop_bundle(); 40];
        bundles.push(load_bundle());
        bundles.push(nop_bundle());
        let mut store = CodeStore::new(&prog(bundles));
        assert_eq!(store.quiet_block(at(0)).unwrap().bundles, QUIET_BLOCK_CAP);
        assert_eq!(
            store.quiet_block(at(20)).unwrap().bundles,
            20,
            "ends before the load"
        );
        assert_eq!(store.quiet_block(at(40)), None);
        assert_eq!(
            store.quiet_block(at(41)).unwrap().bundles,
            1,
            "ends at the segment end"
        );
    }

    #[test]
    fn replace_ends_an_earlier_block_before_a_loud_bundle() {
        let mut bundles = vec![nop_bundle(); 5];
        bundles.push(br_bundle());
        let mut store = CodeStore::new(&prog(bundles));
        assert_eq!(store.quiet_block(at(0)).unwrap().bundles, 6);
        assert!(store.replace(at(3), &load_bundle()));
        assert_eq!(store.quiet_block(at(0)).unwrap().bundles, 3);
        assert_eq!(store.quiet_block(at(3)), None);
        assert_eq!(store.quiet_block(at(4)).unwrap().bundles, 2);
        // Replacing it back with a quiet bundle joins the run again.
        assert!(store.replace(at(3), &nop_bundle()));
        assert_eq!(store.quiet_block(at(0)).unwrap().bundles, 6);
    }

    #[test]
    fn install_pool_and_reset_drop_built_blocks() {
        let mut store = CodeStore::new(&prog(vec![nop_bundle(), br_bundle()]));
        let block = store.quiet_block(at(0)).unwrap();
        assert_eq!(store.quiet_block(at(1)).unwrap().bundles, 1);
        assert_eq!((store.blocks.len(), store.block_ops.len()), (2, 2));

        store.install_pool(&[nop_bundle(), br_bundle()]);
        assert!(store.blocks.is_empty() && store.block_ops.is_empty());
        assert!(store.static_blocks.iter().all(|&id| id == UNBUILT));
        assert_eq!(store.quiet_block(at(0)), Some(block), "rebuilt alike");
        let pool = store.quiet_block(Addr(TRACE_POOL_BASE)).unwrap();
        assert_eq!((pool.entry.0, pool.bundles), (TRACE_POOL_BASE, 2));

        let halt = Bundle::branch_only(Insn::new(Op::Halt));
        store.reset(&prog(vec![halt, nop_bundle(), nop_bundle()]));
        assert!(store.blocks.is_empty() && store.block_ops.is_empty());
        assert_eq!(store.quiet_block(at(0)), None, "the new program's bundle");
        assert_eq!(store.quiet_block(at(1)).unwrap().bundles, 2);
        assert_eq!(
            store.quiet_block(Addr(TRACE_POOL_BASE)),
            None,
            "pool emptied"
        );
    }

    #[test]
    fn nops_and_cond_branches_are_flagged() {
        let br = Insn::predicated(
            Pr(1),
            Op::BrCond {
                target: Addr(CODE_BASE),
            },
        );
        let b = Bundle::pack(&[br]).unwrap();
        let d = DecodedBundle::decode(&b, 0);
        let br_slot = b.slots.iter().position(|i| i.op.is_branch()).unwrap();
        assert_eq!(d.cond_branch_mask, 1 << br_slot);
        for (s, slot) in d.slots.iter().enumerate() {
            if s != br_slot {
                assert_ne!(slot.flags & FLAG_NOP, 0);
            }
        }
    }

    #[test]
    fn locate_mirrors_bundle_addressing() {
        let store = CodeStore::new(&prog(vec![nop_bundle(), nop_bundle()]));
        assert_eq!(
            store.locate(Addr(CODE_BASE)),
            Some(CodeLoc {
                pool: false,
                index: 0
            })
        );
        // Mid-bundle addresses resolve to the containing bundle.
        assert_eq!(
            store.locate(Addr(CODE_BASE + 17)),
            Some(CodeLoc {
                pool: false,
                index: 1
            })
        );
        assert_eq!(store.locate(Addr(CODE_BASE + 32)), None);
        assert_eq!(store.locate(Addr(CODE_BASE - 16)), None);
        assert_eq!(store.locate(Addr(TRACE_POOL_BASE)), None, "empty pool");
    }

    #[test]
    fn mutations_bump_and_tag_generations() {
        let mut store = CodeStore::new(&prog(vec![nop_bundle()]));
        assert_eq!(store.generation(), 0);

        store.install_pool(&[nop_bundle(), nop_bundle()]);
        assert_eq!(store.generation(), 1);
        let loc = store.locate(Addr(TRACE_POOL_BASE + 16)).unwrap();
        assert!(loc.pool);
        assert_eq!(store.decoded(loc).generation, 1);

        let halt = Bundle::branch_only(Insn::new(Op::Halt));
        assert!(store.replace(Addr(CODE_BASE), &halt));
        assert_eq!(store.generation(), 2);
        let loc = store.locate(Addr(CODE_BASE)).unwrap();
        assert_eq!(store.decoded(loc).generation, 2);
        assert!(matches!(store.slot(loc, 2).insn.op, Op::Halt));

        assert!(!store.replace(Addr(CODE_BASE + 0x1000), &halt));
        assert_eq!(store.generation(), 2, "failed replace must not bump");
    }

    #[test]
    fn reset_retargets_and_keeps_generation_monotone() {
        let mut store = CodeStore::new(&prog(vec![nop_bundle()]));
        store.install_pool(&[nop_bundle()]);
        let before = store.generation();

        let halt = Bundle::branch_only(Insn::new(Op::Halt));
        store.reset(&prog(vec![halt, nop_bundle(), nop_bundle()]));
        assert!(
            store.generation() > before,
            "reset is a mutation: stale decoded entries must never share a tag with fresh ones"
        );
        assert_eq!(store.locate(Addr(TRACE_POOL_BASE)), None, "pool emptied");
        let loc = store.locate(Addr(CODE_BASE)).unwrap();
        assert_eq!(store.decoded(loc).generation, store.generation());
        assert!(matches!(store.slot(loc, 2).insn.op, Op::Halt));
        assert!(store.locate(Addr(CODE_BASE + 32)).is_some(), "new program fully decoded");
    }
}
