//! Sampled cycle-exactness of the fast tier's quiet blocks.
//!
//! While no scoreboard read can stall, the fast tier executes code made
//! of *quiet* bundles (nops, single-cycle integer ops, compares, `br`,
//! `br.cond`) one straight-line block at a time from a compact
//! predecoded form, with fetch and pairing timing settled once per
//! block, instead of slot by slot. The golden-cycle tests pin
//! end-of-run counters of unsampled runs; this harness pins everything
//! that happens *during* a run:
//!
//! - runs are chopped into many `Machine::run` calls with cycle limits
//!   that land at arbitrary points, and a small sample buffer makes the
//!   sampler stop the run often;
//! - every stop is logged (reason, cycle, retired count, `ip`) together
//!   with every drained [`Sample`](sim::Sample) in full: index, pc,
//!   cycles, retired, dcache misses, BTB snapshot and DEAR;
//! - at halt, every PMU counter, every cache and TLB statistic and the
//!   architectural registers are logged.
//!
//! The fast and reference tiers must produce identical logs, both on
//! suite workloads at a tiny scale and on hand-built programs that
//! steer quiet blocks into each of their edge cases.

use isa::CODE_BASE;
use isa::{AccessSize, Addr, Bundle, CmpOp, Fr, Gr, Insn, Op, Pr, Program, SlotKind, Template};
use sim::code::{CodeStore, QUIET_BLOCK_CAP};
use sim::{ExecPath, Machine, MachineConfig, SamplingConfig, StopReason, DATA_BASE};

/// Suite workloads checked at [`TINY_SCALE`]: applu's nop-filler loops
/// are almost all quiet, mcf and art are miss-bound (the watermark
/// keeps the run out most of the time), gzip and swim sit in between.
const SUITE: [&str; 5] = ["applu", "mcf", "art", "gzip", "swim"];
const TINY_SCALE: f64 = 0.02;

/// A sampler that fires every few hundred cycles and fills its buffer
/// after a handful of samples, so sample points and overflow stops land
/// inside quiet runs many times per workload.
fn sampling(seed: u64) -> SamplingConfig {
    SamplingConfig {
        interval_cycles: 397,
        buffer_capacity: 5,
        per_sample_cost: 7,
        jitter: 0.3,
        seed,
    }
}

/// Runs `m` to halt in chunks of pseudo-random cycle budgets (1 to
/// about 2,000 cycles, a fixed sequence), logging every stop with the
/// samples drained at it, then the full final state. Every third
/// overflow stop is resumed without draining, so the next run starts
/// with a full buffer and must stop again after one bundle.
fn observe(mut m: Machine) -> Vec<String> {
    let mut log = Vec::new();
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut overflows = 0u64;
    loop {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let budget = 1 + (lcg >> 33) % 2_000;
        let stop = m.run(m.cycles() + budget);
        log.push(format!(
            "stop {stop:?} cycle={} retired={} ip={}",
            m.cycles(),
            m.retired(),
            m.ip()
        ));
        if stop == StopReason::SampleBufferOverflow {
            overflows += 1;
            if overflows.is_multiple_of(3) {
                continue;
            }
        }
        for s in m.drain_samples() {
            log.push(format!("sample {s:?}"));
        }
        match stop {
            StopReason::CycleLimit | StopReason::SampleBufferOverflow => {}
            StopReason::Halted => break,
            StopReason::Faulted(f) => panic!("unexpected fault: {f}"),
        }
    }
    log.push(format!("counters {:?}", m.pmu().counters));
    log.push(format!(
        "caches {:?} lfetch {:?} tlb {:?}",
        m.caches().cache_stats(),
        m.caches().lfetch_stats(),
        m.tlb().stats()
    ));
    let gr: Vec<i64> = (0..128).map(|r| m.gr(Gr(r))).collect();
    let pr: Vec<bool> = (0..64).map(|p| m.pr(Pr(p))).collect();
    let fr: Vec<u64> = (0..128).map(|f| m.fr(Fr(f)).to_bits()).collect();
    log.push(format!("gr {gr:?}"));
    log.push(format!("pr {pr:?}"));
    log.push(format!("fr {fr:?}"));
    log
}

/// Asserts two logs are identical, naming the first differing line.
fn assert_same_log(what: &str, fast: &[String], reference: &[String]) {
    for (i, (f, r)) in fast.iter().zip(reference).enumerate() {
        assert_eq!(f, r, "{what}: fast and reference diverge at log line {i}");
    }
    assert_eq!(
        fast.len(),
        reference.len(),
        "{what}: fast and reference logs differ in length"
    );
}

fn samples_in(log: &[String]) -> usize {
    log.iter().filter(|l| l.starts_with("sample ")).count()
}

#[test]
fn suite_sample_streams_agree_across_cycle_exact_tiers() {
    let opts = compiler::CompileOptions::default();
    for (i, name) in SUITE.iter().enumerate() {
        let w = workloads::by_name(name, TINY_SCALE).expect("suite workload");
        let bin = compiler::compile(&w.kernel, &opts).expect("suite workload compiles");
        let log = |path| {
            let config = MachineConfig {
                exec_path: path,
                sampling: Some(sampling(i as u64 + 1)),
                ..MachineConfig::default()
            };
            observe(w.prepare(&bin, config))
        };
        let fast = log(ExecPath::Fast);
        let reference = log(ExecPath::Reference);
        assert!(
            samples_in(&fast) >= 20,
            "{name}: too few samples ({}) to exercise mid-run sampling",
            samples_in(&fast)
        );
        assert_same_log(name, &fast, &reference);
    }
}

// ---- hand-built edge-case program ---------------------------------

fn at(index: u64) -> Addr {
    Addr(CODE_BASE + index * Addr::BUNDLE_BYTES)
}

fn i(op: Op) -> Insn {
    Insn::new(op)
}

fn p(qp: u8, op: Op) -> Insn {
    Insn::predicated(Pr(qp), op)
}

fn bundle(template: Template, slots: [Insn; 3]) -> Bundle {
    Bundle { template, slots }
}

fn nop_m() -> Insn {
    Insn::nop(SlotKind::M)
}

fn nop_i() -> Insn {
    Insn::nop(SlotKind::I)
}

fn movl(d: u8, imm: i64) -> Bundle {
    Bundle::pack(&[i(Op::MovL { d: Gr(d), imm })]).expect("movl packs")
}

fn addi(d: u8, a: u8, imm: i64) -> Insn {
    i(Op::AddI {
        d: Gr(d),
        a: Gr(a),
        imm,
    })
}

fn cmpi(op: CmpOp, pt: u8, pf: u8, a: u8, imm: i64) -> Insn {
    i(Op::CmpI {
        op,
        pt: Pr(pt),
        pf: Pr(pf),
        a: Gr(a),
        imm,
    })
}

const OUTER: i64 = 300;
const INNER: i64 = 9;

/// An outer loop of `OUTER` iterations around a quiet inner loop, laid
/// out bundle by bundle (indices are the `at` offsets):
///
/// - 3–4: two loads; r19 strides a line per iteration (mostly misses,
///   result unread until the end), r20 strides 8 bytes and feeds the
///   inner loop. Both push the scoreboard watermark past the clock, so
///   the inner loop starts on the generic path and enters the quiet
///   run mid-loop once the clock passes the watermark.
/// - 5–7: the inner loop; its back edge is a `br.cond` taken in slot 1
///   of an `MBB` bundle, and its exit a `br` to the fall-through bundle.
/// - 8–11: a `BBB` bundle whose slot-0 `br.cond` is taken on even
///   iterations, its slot-1 `br.cond` on half of the odd ones, and its
///   slot-2 `br` on the others.
/// - 12: a predicated-off `br.cond` in slot 0 whose predicate slot 1
///   then sets (the fall-through must not be recorded), and a
///   predicated-off `br.cond` in slot 2 that stays off (it must be).
/// - 13–15: loop control; the outer back edge is a `br.cond` on the
///   predicate a compare in slot 1 of the same bundle just wrote.
///
/// The `mov`, `and`, `shladd`, `xor`, `sub`, `or` and `alloc` slots
/// spread over the loop run every quiet op kind.
fn edge_program() -> Program {
    let gr = Gr;
    let bundles = vec![
        /* 0 */ movl(10, DATA_BASE as i64),
        /* 1 */ movl(13, DATA_BASE as i64 + 8 * OUTER + 64),
        /* 2 */ movl(9, OUTER),
        // outer:
        /* 3 */
        bundle(
            Template::Mmi,
            [
                i(Op::Ld {
                    d: gr(19),
                    base: gr(13),
                    post_inc: 64,
                    size: AccessSize::U8,
                    spec: false,
                }),
                i(Op::Ld {
                    d: gr(20),
                    base: gr(10),
                    post_inc: 8,
                    size: AccessSize::U8,
                    spec: false,
                }),
                addi(8, 0, INNER),
            ],
        ),
        /* 4 */
        bundle(
            Template::Mii,
            [
                nop_m(),
                i(Op::Mov {
                    d: gr(24),
                    s: gr(9),
                }),
                i(Op::And {
                    d: gr(28),
                    a: gr(9),
                    b: gr(29),
                }),
            ],
        ),
        // inner:
        /* 5 */
        bundle(
            Template::Mii,
            [
                nop_m(),
                i(Op::Add {
                    d: gr(23),
                    a: gr(23),
                    b: gr(20),
                }),
                addi(8, 8, -1),
            ],
        ),
        /* 6 */
        bundle(
            Template::Mii,
            [
                nop_m(),
                cmpi(CmpOp::Gt, 1, 2, 8, 0),
                i(Op::Shladd {
                    d: gr(26),
                    a: gr(8),
                    count: 2,
                    b: gr(26),
                }),
            ],
        ),
        /* 7 */
        bundle(
            Template::Mbb,
            [
                i(Op::Alloc),
                p(1, Op::BrCond { target: at(5) }),
                i(Op::Br { target: at(8) }),
            ],
        ),
        /* 8 */
        bundle(
            Template::Mii,
            [
                nop_m(),
                cmpi(CmpOp::Eq, 3, 4, 28, 0),
                i(Op::And {
                    d: gr(30),
                    a: gr(9),
                    b: gr(31),
                }),
            ],
        ),
        /* 9 */
        bundle(
            Template::Mii,
            [
                nop_m(),
                cmpi(CmpOp::Ne, 6, 7, 30, 0),
                i(Op::Xor {
                    d: gr(27),
                    a: gr(27),
                    b: gr(9),
                }),
            ],
        ),
        /* 10 */
        bundle(
            Template::Bbb,
            [
                p(3, Op::BrCond { target: at(12) }),
                p(6, Op::BrCond { target: at(11) }),
                i(Op::Br { target: at(12) }),
            ],
        ),
        /* 11 */
        bundle(Template::Mii, [nop_m(), addi(11, 11, 1), nop_i()]),
        /* 12 */
        bundle(
            Template::Bbb,
            [
                p(5, Op::BrCond { target: at(3) }),
                cmpi(CmpOp::Eq, 5, 0, 0, 0),
                p(12, Op::BrCond { target: at(3) }),
            ],
        ),
        /* 13 */
        bundle(
            Template::Mii,
            [
                nop_m(),
                cmpi(CmpOp::Ne, 5, 0, 0, 0),
                i(Op::Sub {
                    d: gr(25),
                    a: gr(25),
                    b: gr(23),
                }),
            ],
        ),
        /* 14 */
        bundle(
            Template::Mii,
            [
                nop_m(),
                addi(9, 9, -1),
                i(Op::Or {
                    d: gr(21),
                    a: gr(21),
                    b: gr(19),
                }),
            ],
        ),
        /* 15 */
        bundle(
            Template::Mib,
            [
                nop_m(),
                cmpi(CmpOp::Gt, 1, 2, 9, 0),
                p(1, Op::BrCond { target: at(3) }),
            ],
        ),
        /* 16 */ Bundle::branch_only(i(Op::Halt)),
    ];
    Program::new(CODE_BASE, bundles)
}

fn edge_machine(path: ExecPath, sampling_on: bool) -> Machine {
    let config = MachineConfig {
        exec_path: path,
        sampling: sampling_on.then(|| sampling(42)),
        ..MachineConfig::default()
    };
    let mut m = Machine::new(edge_program(), config);
    m.mem_mut()
        .alloc(8 * OUTER as u64 + 64 * (OUTER as u64 + 2), 64);
    m.set_gr(Gr(29), 1);
    m.set_gr(Gr(31), 2);
    m
}

#[test]
fn edge_program_exercises_every_quiet_run_edge() {
    // Sanity-check the program itself before trusting the comparison:
    // it halts, the loops ran, and each branch edge was both taken and
    // not taken (r11 counts slot-1 takes of bundle 10).
    let mut m = edge_machine(ExecPath::Reference, false);
    assert_eq!(m.run(u64::MAX), StopReason::Halted);
    assert_eq!(m.gr(Gr(9)), 0);
    assert_eq!(m.gr(Gr(8)), 0);
    let slot1_takes = m.gr(Gr(11));
    assert!(
        slot1_takes > 0 && slot1_takes < OUTER / 2,
        "slot-1 take count {slot1_takes}"
    );
    assert!(m.pmu().counters.stall_mem > 0, "the loads must stall");
    // Every bundle-12 visit records exactly one not-taken outcome (the
    // slot-2 branch); the slot-0 branch's predicate is set by slot 1.
    let expected_branches = OUTER * INNER // inner back edges and exits
        + OUTER // bundle 10
        + OUTER // bundle 12, slot 2 only
        + OUTER; // outer back edge (the last one not taken)
    assert_eq!(m.pmu().counters.branches, expected_branches as u64);
}

#[test]
fn edge_program_agrees_across_cycle_exact_tiers() {
    for sampling_on in [false, true] {
        let fast = observe(edge_machine(ExecPath::Fast, sampling_on));
        let reference = observe(edge_machine(ExecPath::Reference, sampling_on));
        if sampling_on {
            assert!(
                samples_in(&fast) >= 50,
                "too few samples: {}",
                samples_in(&fast)
            );
        }
        assert_same_log(
            &format!("edge program (sampling {sampling_on})"),
            &fast,
            &reference,
        );
    }
}

// ---- hand-built block-edge program --------------------------------

const LONG_TRIPS: i64 = 300;
const LONG_BODY: u64 = 40;
const CONFLICT_TRIPS: i64 = 120;
const CONFLICT_LINES: u64 = 5;
const MID_TRIPS: i64 = 500;

/// Bundles between two code lines 4 KiB apart: they fall in one L1I set
/// (64 sets of 64-byte lines).
const SET_STRIDE: u64 = 4096 / Addr::BUNDLE_BYTES;

fn quiet(a: Insn, b: Insn) -> Bundle {
    bundle(Template::Mii, [nop_m(), a, b])
}

fn quiet_branch(a: Insn, br: Insn) -> Bundle {
    bundle(Template::Mib, [nop_m(), a, br])
}

fn add(d: u8, a: u8, b: u8) -> Insn {
    i(Op::Add {
        d: Gr(d),
        a: Gr(a),
        b: Gr(b),
    })
}

/// `(qp) br.cond` to the bundle at `index`.
fn br_cond_to(qp: u8, index: u64) -> Insn {
    p(qp, Op::BrCond { target: at(index) })
}

/// `br` to the bundle at `index`.
fn br_to(index: u64) -> Insn {
    i(Op::Br { target: at(index) })
}

/// Three loops, one per block edge, laid out bundle by bundle:
///
/// - 1–42, *longer than the block cap*: a straight line of
///   `LONG_BODY` quiet bundles and two of loop control, so a block
///   entered at the head ends at the cap and the next one starts
///   there.
/// - from the next 4 KiB boundary on, *conflicting lines*:
///   `CONFLICT_LINES` one-bundle steps 4 KiB apart, chained by `br`,
///   share one 4-way L1I set, so every fetch misses and every block
///   entry falls back to the generic step. Unexecuted gaps are `halt`
///   bundles.
/// - the last loop, *a branch into the middle of a straight-line
///   run*: on odd iterations a `br.cond` skips two bundles of the run
///   and enters it in the middle.
///
/// Returns the program and the bundle indices of the long loop's head,
/// the first conflicting line, the last loop's head and its mid-run
/// entry.
fn block_edge_program() -> (Program, [u64; 4]) {
    let mut b = vec![movl(9, LONG_TRIPS)];
    // The long straight line.
    let long_head = b.len() as u64;
    for k in 0..LONG_BODY {
        let second = if k % 2 == 0 {
            add(12, 12, 11)
        } else {
            i(Op::Xor {
                d: Gr(15),
                a: Gr(15),
                b: Gr(12),
            })
        };
        b.push(quiet(addi(11, 11, 1), second));
    }
    b.push(quiet(addi(9, 9, -1), nop_i()));
    b.push(quiet_branch(
        cmpi(CmpOp::Gt, 1, 2, 9, 0),
        br_cond_to(1, long_head),
    ));
    // The conflicting lines, from the next 4 KiB boundary on.
    b.push(movl(9, CONFLICT_TRIPS));
    let conflict_head = (b.len() as u64).div_ceil(SET_STRIDE) * SET_STRIDE;
    b.push(Bundle::branch_only(br_to(conflict_head)));
    for k in 0..CONFLICT_LINES {
        let line = conflict_head + k * SET_STRIDE;
        b.resize(line as usize, Bundle::branch_only(i(Op::Halt)));
        if k + 1 < CONFLICT_LINES {
            let next = line + SET_STRIDE;
            b.push(quiet_branch(addi(13, 13, 1), br_to(next)));
        } else {
            b.push(quiet(addi(9, 9, -1), addi(13, 13, 7)));
            b.push(quiet_branch(
                cmpi(CmpOp::Gt, 1, 2, 9, 0),
                br_cond_to(1, conflict_head),
            ));
        }
    }
    // The run entered in the middle.
    b.push(movl(9, MID_TRIPS));
    let mid_head = b.len() as u64;
    let mid_entry = mid_head + 5;
    b.push(quiet(
        addi(14, 14, 1),
        i(Op::And {
            d: Gr(16),
            a: Gr(9),
            b: Gr(29),
        }),
    ));
    b.push(quiet(cmpi(CmpOp::Ne, 3, 4, 16, 0), nop_i()));
    b.push(quiet_branch(nop_i(), br_cond_to(3, mid_entry)));
    b.push(quiet(addi(17, 17, 1), nop_i()));
    b.push(quiet(addi(17, 17, 2), nop_i()));
    b.push(quiet(addi(18, 18, 1), addi(9, 9, -1)));
    b.push(quiet(add(19, 19, 18), nop_i()));
    b.push(quiet_branch(
        cmpi(CmpOp::Gt, 1, 2, 9, 0),
        br_cond_to(1, mid_head),
    ));
    b.push(Bundle::branch_only(i(Op::Halt)));
    (
        Program::new(CODE_BASE, b),
        [long_head, conflict_head, mid_head, mid_entry],
    )
}

fn block_edge_machine(path: ExecPath, sampling_on: bool) -> Machine {
    let config = MachineConfig {
        exec_path: path,
        sampling: sampling_on.then(|| sampling(43)),
        ..MachineConfig::default()
    };
    let mut m = Machine::new(block_edge_program().0, config);
    m.set_gr(Gr(29), 1);
    m
}

#[test]
fn block_edge_program_reaches_every_block_edge() {
    let (program, [long_head, conflict_head, mid_head, mid_entry]) = block_edge_program();
    let mut store = CodeStore::new(&program);
    let long = store.quiet_block(at(long_head)).unwrap();
    assert_eq!(
        long.bundles, QUIET_BLOCK_CAP,
        "the straight line outgrows the cap"
    );
    let rest = store.quiet_block(long.last().offset_bundles(1)).unwrap();
    assert_eq!(rest.bundles, LONG_BODY + 2 - QUIET_BLOCK_CAP);
    for k in 0..CONFLICT_LINES {
        let line = at(conflict_head + k * SET_STRIDE);
        assert_eq!(line.0 % 4096, 0, "conflicting lines are 4 KiB apart");
        assert!(store.quiet_block(line).is_some());
    }
    let whole = store.quiet_block(at(mid_head + 3)).unwrap();
    let tail = store.quiet_block(at(mid_entry)).unwrap();
    assert_eq!((whole.bundles, tail.bundles), (5, 3));
    assert_eq!(whole.last(), tail.last(), "both end at the back edge");

    let mut m = block_edge_machine(ExecPath::Reference, false);
    assert_eq!(m.run(u64::MAX), StopReason::Halted);
    assert_eq!(m.gr(Gr(11)), LONG_TRIPS * LONG_BODY as i64);
    assert_eq!(
        m.gr(Gr(13)),
        CONFLICT_TRIPS * (CONFLICT_LINES as i64 - 1 + 7)
    );
    assert_eq!(
        m.gr(Gr(17)),
        3 * MID_TRIPS / 2,
        "the skipped bundles ran every other trip"
    );
    assert_eq!(m.gr(Gr(18)), MID_TRIPS);
    // Five lines thrash one 4-way set: every step of the conflict loop
    // misses L1I.
    let (_, l1i_misses) = m.caches().cache_stats()[1];
    assert!(
        l1i_misses >= CONFLICT_TRIPS as u64 * CONFLICT_LINES,
        "L1I misses {l1i_misses}"
    );
}

#[test]
fn block_edge_program_agrees_across_cycle_exact_tiers() {
    for sampling_on in [false, true] {
        let fast = observe(block_edge_machine(ExecPath::Fast, sampling_on));
        let reference = observe(block_edge_machine(ExecPath::Reference, sampling_on));
        if sampling_on {
            assert!(
                samples_in(&fast) >= 30,
                "too few samples: {}",
                samples_in(&fast)
            );
        }
        assert_same_log(
            &format!("block-edge program (sampling {sampling_on})"),
            &fast,
            &reference,
        );
    }
}

#[test]
fn uninterrupted_fast_run_matches_chunked_reference_run() {
    // One `run(u64::MAX)` on the fast tier lets quiet blocks run back to
    // back for as long as they like; the chunked reference run stops
    // everywhere. The end states must still agree.
    type Build = fn(ExecPath, bool) -> Machine;
    let programs: [(&str, Build); 2] = [
        ("edge program", edge_machine),
        ("block-edge program", block_edge_machine),
    ];
    for (what, build) in programs {
        let mut fast = build(ExecPath::Fast, false);
        assert_eq!(fast.run(u64::MAX), StopReason::Halted);
        let fast_final = {
            let mut log = observe(fast);
            log.retain(|l| !l.starts_with("stop "));
            log
        };
        let mut reference = observe(build(ExecPath::Reference, false));
        reference.retain(|l| !l.starts_with("stop "));
        assert_same_log(&format!("uninterrupted {what}"), &fast_final, &reference);
    }
}
