//! The repository benchmark: four workloads over the two products —
//! corpus analysis (`analyze-cold`, `analyze-incr`) and daemon serving
//! (`serve-rtt`, `serve-stream`) — driven through their public APIs.
//! See `NOTES.md` beside this crate for the workloads, metrics and the
//! traced run.

pub mod analysis;
pub mod metrics;
pub mod serving;
pub mod spans;
pub mod stats;

/// Whether round `k` (an analysis pass or a traffic tile) of a traced run
/// is traced: rounds alternate in pairs, so traced and untraced rounds
/// interleave through the run and see the same machine conditions.
pub fn traced_round(trace: bool, k: usize) -> bool {
    trace && k % 4 >= 2
}
