//! The pluggable execution-tier dispatch behind [`Machine::run`].
//!
//! [`Machine::run`](crate::Machine::run) used to hold two hand-copied
//! run loops (sampled and unsampled, once per execution path); the
//! loop now lives once in `Machine::drive`, generic over an
//! [`ExecTier`], and each tier contributes only its *step*: how one
//! bundle (or, for the threaded tier, one compiled region) executes.
//! The stop protocol — fault, cycle cap, sample-buffer overflow — is
//! shared, so a new tier cannot get it subtly wrong.
//!
//! Tier contract:
//!
//! | tier                  | step                              | timing |
//! |-----------------------|-----------------------------------|--------|
//! | [`Reference`]         | `Machine::step_bundle`            | cycle-exact |
//! | [`Fast`]              | `Machine::quiet_run`, then `Machine::step_bundle_fast` | cycle-exact (bit-identical to Reference) |
//! | [`Threaded`]          | `Machine::jit_step`               | architectural state only |
//!
//! `SAMPLING` is a compile-time split: the unsampled instantiation of
//! each step carries no sample checks at all. The reference step
//! ignores it (its shared retire path already no-ops when sampling is
//! off), which keeps the reference implementation maximally plain.

use crate::machine::Machine;

/// One execution tier: a strategy for advancing the machine by one
/// step under the shared stop protocol of `Machine::drive`.
///
/// A step must (a) make forward progress or set `fault`/`halted`, and
/// (b) leave the machine resumable: `ip`, registers and counters
/// consistent, so the next step (on any tier) continues correctly.
/// `cycle_limit` is advisory for single-bundle tiers (the drive loop
/// checks it between steps) but binding for multi-bundle steps, which
/// must return soon after `cycle` reaches it — immediately after that
/// bundle for a cycle-exact tier, whose stops must land on the same
/// bundle as the reference tier's.
pub(crate) trait ExecTier {
    /// Advances the machine by one step.
    fn step<const SAMPLING: bool>(m: &mut Machine, cycle_limit: u64);
}

/// The straight-line reference implementation (cycle-exact).
pub(crate) struct Reference;

impl ExecTier for Reference {
    fn step<const SAMPLING: bool>(m: &mut Machine, _cycle_limit: u64) {
        m.step_bundle();
    }
}

/// The predecoded fast implementation (cycle-exact, bit-identical to
/// [`Reference`]). While the scoreboard is quiet (`cycle >= quiet_at`)
/// a step is a quiet run over consecutive quiet bundles, which returns
/// after any bundle that reaches `cycle_limit` or takes a sample; the
/// first non-quiet bundle it meets is stepped generically.
pub(crate) struct Fast;

impl ExecTier for Fast {
    fn step<const SAMPLING: bool>(m: &mut Machine, cycle_limit: u64) {
        if m.cycle >= m.quiet_at && m.quiet_run::<SAMPLING>(cycle_limit) {
            return;
        }
        m.step_bundle_fast::<SAMPLING>();
    }
}

/// The threaded-code compile tier (architectural state exact, timing
/// unmodeled); see [`crate::jit`].
pub(crate) struct Threaded;

impl ExecTier for Threaded {
    fn step<const SAMPLING: bool>(m: &mut Machine, cycle_limit: u64) {
        m.jit_step::<SAMPLING>(cycle_limit);
    }
}
