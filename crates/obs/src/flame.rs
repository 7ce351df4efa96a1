//! Collapsed-stack flamegraph export.
//!
//! Emits the `stack;frames;joined weight` format consumed by
//! `flamegraph.pl`, inferno, and speedscope. Frames are span names (the
//! track-name group is the base frame), weights are **self** logical
//! ticks — inclusive minus children — so the flamegraph's widths add up
//! exactly to each group's total and agree with the critical-path
//! report, which walks the same aggregated tree.

use crate::critical::{try_span_groups, PathNode};
use crate::trace::TraceModel;

fn walk(prefix: &str, node: &PathNode, out: &mut Vec<String>) {
    let stack = format!("{prefix};{}", node.name);
    if node.self_ticks > 0 {
        out.push(format!("{stack} {}", node.self_ticks));
    }
    for child in &node.children {
        walk(&stack, child, out);
    }
}

/// Render the whole model as collapsed stacks, one line per stack with
/// nonzero self weight, sorted lexicographically. Deterministic: the
/// aggregated tree is name-sorted at every level and the final listing
/// is re-sorted.
///
/// # Errors
/// When span durations sum past `u64::MAX` (see
/// [`try_span_groups`]).
pub fn collapsed(model: &TraceModel) -> Result<String, String> {
    let mut lines = Vec::new();
    for group in try_span_groups(model)? {
        for child in &group.root.children {
            walk(&group.track, child, &mut lines);
        }
    }
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceModel;
    use spice_telemetry::Telemetry;

    #[test]
    fn stacks_weigh_self_ticks() {
        let t = Telemetry::enabled();
        let track = t.track("real", 0);
        {
            let _run = track.span_at("run", 0);
            {
                let _eq = track.span_at("equilibrate", 0);
                track.tick(10);
            }
            track.tick(25);
        }
        let out = collapsed(&TraceModel::from_snapshot(&t.snapshot())).unwrap();
        assert_eq!(out, "real;run 15\nreal;run;equilibrate 10\n");
    }

    #[test]
    fn weights_sum_to_group_totals() {
        let t = Telemetry::enabled();
        for key in 0..3 {
            let track = t.track("real", key);
            let _run = track.span_at("run", 0);
            {
                let _a = track.span_at("a", 0);
                track.tick(4);
            }
            {
                let _b = track.span_at("b", 4);
                track.tick(11);
            }
            track.tick(12);
        }
        let model = TraceModel::from_snapshot(&t.snapshot());
        let total: u64 = collapsed(&model)
            .unwrap()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 36, "3 tracks x 12 inclusive ticks");
    }

    #[test]
    fn empty_model_renders_empty() {
        assert_eq!(collapsed(&TraceModel::default()).unwrap(), "");
    }

    #[test]
    fn output_is_deterministic() {
        let t = Telemetry::enabled();
        t.track("z", 0).span_at("s", 0);
        t.track("a", 0).span_at("s", 0);
        let model = TraceModel::from_snapshot(&t.snapshot());
        assert_eq!(collapsed(&model), collapsed(&model));
    }
}
