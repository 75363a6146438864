//! The optimizer's typed event log: every decision a report shows, one
//! [`Event`] per decision, stamped with the machine cycle at which it
//! took effect. The report counters, the `skips` list and the
//! `event_log` section are all derived from it.

use isa::{Addr, Pc};
use obs::Json;

use crate::patch::PatchedTrace;
use crate::prefetch::InsertionStats;
use crate::reject::Rejection;

/// One selected trace as the deploy pass saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRow {
    /// Trace start address.
    pub start: Addr,
    /// Whether the trace is a loop (only loops are optimized).
    pub is_loop: bool,
    /// Bundles in the trace.
    pub bundles: usize,
    /// Delinquent loads mapped into the trace.
    pub loads: usize,
    /// Streams the deploy pass published for it (zero unless patched).
    pub inserted: InsertionStats,
}

/// One optimizer decision.
#[derive(Debug, Clone)]
pub enum Event {
    /// An optimized trace was published; its streams are `patch.stats`.
    Deploy {
        /// Cycle after the publication was charged.
        at_cycles: u64,
        /// The installed patch.
        patch: PatchedTrace,
    },
    /// A recording copy of a trace was installed for its hottest
    /// unanalyzable load (§6 future work).
    Instrument {
        /// Cycle after the publication was charged.
        at_cycles: u64,
        /// Recording buffer base address.
        buffer: u64,
        /// Prefetch distance (iterations) a promotion will use.
        dist_iters: u64,
        /// The installed instrumentation patch.
        patch: PatchedTrace,
    },
    /// A discovered stride became a prefetch stream; its streams are
    /// `patch.stats`.
    Promote {
        /// Cycle after the publication was charged.
        at_cycles: u64,
        /// The dominant stride in bytes.
        stride: i64,
        /// The installed patch.
        patch: PatchedTrace,
    },
    /// A phase's patches were taken out because its CPI regressed.
    Unpatch {
        /// Cycle after the unpatch was charged.
        at_cycles: u64,
        /// Live patches of the phase.
        patches: usize,
        /// Of those, the ones whose original head was restored.
        restored: usize,
        /// Phase CPI before patching.
        cpi_before: f64,
        /// Phase CPI in the regressed window.
        cpi_now: f64,
    },
    /// The deploy pass processed a stable phase.
    Analyzed {
        /// Cycle at which the deploy pass started.
        at_cycles: u64,
        /// True when the phase was seen for the first time.
        new_phase: bool,
        /// One row per selected trace, in selection order.
        traces: Vec<TraceRow>,
    },
    /// A delinquent load of a loop trace was not prefetched (§4.3).
    Rejected {
        /// Cycle at which the deploy pass that recorded it started.
        at_cycles: u64,
        /// The load.
        pc: Pc,
        /// Why.
        reason: Rejection,
    },
}

impl Event {
    /// The report's `event_log` entry for a patch action (`"kind"`,
    /// `at_cycles`, then the action's fields); `None` for analysis rows
    /// and rejections.
    pub fn log_entry(&self) -> Option<Json> {
        let entry = |kind: &str, at: u64| Json::object().with("kind", kind).with("at_cycles", at);
        Some(match self {
            Event::Deploy { at_cycles, patch } => {
                entry("deploy", *at_cycles).with("streams", patch.stats).with("patch", patch)
            }
            Event::Instrument { at_cycles, buffer, dist_iters, patch } => {
                entry("instrument", *at_cycles)
                    .with("buffer", *buffer)
                    .with("dist_iters", *dist_iters)
                    .with("patch", patch)
            }
            Event::Promote { at_cycles, stride, patch } => {
                entry("promote", *at_cycles).with("stride", *stride).with("patch", patch)
            }
            Event::Unpatch { at_cycles, patches, cpi_before, cpi_now, .. } => {
                entry("unpatch", *at_cycles)
                    .with("patches", *patches as u64)
                    .with("cpi_before", *cpi_before)
                    .with("cpi_now", *cpi_now)
            }
            Event::Analyzed { .. } | Event::Rejected { .. } => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{Bundle, Insn, Op};

    fn patch() -> PatchedTrace {
        PatchedTrace {
            pool_addr: Addr(0x8000_0000),
            body_addr: Addr(0x8000_0020),
            original_head: Addr(0x0040_0030),
            saved: Bundle::branch_only(Insn::new(Op::Br { target: Addr(0x0040_0040) })),
            len: 7,
            stats: InsertionStats { direct: 2, indirect: 0, pointer: 1, jump: 0 },
            code_generation: 3,
        }
    }

    /// The exact bytes the `event_log` section has always carried:
    /// kind, then `at_cycles`, then the kind's fields.
    #[test]
    fn log_entries_keep_the_report_format() {
        let patch_json = r#"{"pool_addr":2147483648,"original_head":4194352,"len":7,"stats":{"direct":2,"indirect":0,"pointer":1,"jump":0,"total":3}}"#;
        let cases = [
            (
                Event::Deploy { at_cycles: 1200, patch: patch() },
                format!(
                    r#"{{"kind":"deploy","at_cycles":1200,"streams":{{"direct":2,"indirect":0,"pointer":1,"jump":0,"total":3}},"patch":{patch_json}}}"#
                ),
            ),
            (
                Event::Instrument { at_cycles: 5, buffer: 0x1004_0100, dist_iters: 16, patch: patch() },
                format!(
                    r#"{{"kind":"instrument","at_cycles":5,"buffer":268697856,"dist_iters":16,"patch":{patch_json}}}"#
                ),
            ),
            (
                Event::Promote { at_cycles: 9, stride: -24, patch: patch() },
                format!(r#"{{"kind":"promote","at_cycles":9,"stride":-24,"patch":{patch_json}}}"#),
            ),
            (
                Event::Unpatch {
                    at_cycles: 77,
                    patches: 2,
                    restored: 2,
                    cpi_before: 1.5,
                    cpi_now: 2.25,
                },
                r#"{"kind":"unpatch","at_cycles":77,"patches":2,"cpi_before":1.5,"cpi_now":2.25}"#
                    .to_string(),
            ),
        ];
        for (event, want) in cases {
            assert_eq!(event.log_entry().expect("action event").to_string(), want);
        }
    }
}
