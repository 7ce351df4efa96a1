//! Critical-path extraction over aggregated span trees.
//!
//! Answers the budgeting question behind ROADMAP item 4: *which stage
//! dominates a campaign's logical wall time?* Tracks with the same name
//! (all realizations, all grid jobs) are folded into one aggregated tree
//! per track-name group; the critical path then descends from the group
//! root through the heaviest child at every level, attributing inclusive
//! ticks, self ticks (inclusive minus children), and the share of the
//! group total to each step — so "equilibrate vs realization vs
//! grid.attempt vs checkpoint.write" becomes one ranked listing.

use crate::trace::{TraceModel, TraceTrack};
use spice_telemetry::EventKind;
use std::collections::BTreeMap;

/// One aggregated span-tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct PathNode {
    /// Span name.
    pub name: String,
    /// Number of closed span instances folded in.
    pub count: u64,
    /// Inclusive logical ticks across all instances.
    pub total_ticks: u64,
    /// Exclusive ticks: `total_ticks` minus the children's totals.
    pub self_ticks: u64,
    /// Child nodes, name-sorted.
    pub children: Vec<PathNode>,
}

/// The aggregated tree of one track-name group.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackGroup {
    /// Track name shared by the folded tracks.
    pub track: String,
    /// Number of `(track, key)` streams folded in.
    pub n_tracks: u64,
    /// Virtual root; its children are the group's top-level spans and
    /// its `total_ticks` is their sum.
    pub root: PathNode,
}

/// One step of a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// Span name at this depth.
    pub name: String,
    /// Instances folded into this node.
    pub count: u64,
    /// Inclusive ticks.
    pub total_ticks: u64,
    /// Exclusive ticks.
    pub self_ticks: u64,
    /// Share of the group root total, in [0, 1].
    pub share: f64,
}

#[derive(Default)]
struct Builder {
    count: u64,
    ticks: u64,
    children: BTreeMap<String, Builder>,
}

impl Builder {
    fn into_node(self, name: String) -> PathNode {
        let children: Vec<PathNode> = self
            .children
            .into_iter()
            .map(|(child_name, b)| b.into_node(child_name))
            .collect();
        // Children that together outweigh u64::MAX outweigh their parent
        // too, so saturating here leaves the parent no self time.
        let child_ticks = children
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.total_ticks));
        PathNode {
            name,
            count: self.count,
            total_ticks: self.ticks,
            // A child clamped by the monotone track clock can report a
            // tick or two more than its parent span; saturate to zero
            // rather than wrap.
            self_ticks: self.ticks.saturating_sub(child_ticks),
            children,
        }
    }
}

/// Fold one track's Enter/Exit stream into `root`. Mirrors the
/// exporter's summary-tree fold: unmatched exits are dropped, unclosed
/// spans close at the track's final clock. A span whose durations sum
/// past `u64::MAX` is an error naming the track and the span.
fn fold_track(track: &TraceTrack, root: &mut Builder) -> Result<(), String> {
    let final_clock = track.events.last().map_or(0, |e| e.logical);
    let mut stack: Vec<(&str, u64)> = Vec::new();
    let close = |root: &mut Builder, stack: &[(&str, u64)], at: u64| {
        let mut node = &mut *root;
        for (name, _) in stack {
            node = node.children.entry((*name).to_string()).or_default();
        }
        node.count += 1;
        let (name, entered) = stack.last().copied().unwrap_or(("", 0));
        node.ticks = node
            .ticks
            .checked_add(at.saturating_sub(entered))
            .ok_or_else(|| {
                format!(
                    "track {:?}: span {name:?} durations sum past u64::MAX",
                    track.track
                )
            })?;
        Ok::<(), String>(())
    };
    for e in &track.events {
        match e.kind {
            EventKind::Enter => stack.push((&e.name, e.logical)),
            EventKind::Exit => {
                if !stack.is_empty() {
                    close(root, &stack, e.logical)?;
                    stack.pop();
                }
            }
            EventKind::Instant => {}
        }
    }
    while !stack.is_empty() {
        close(root, &stack, final_clock)?;
        stack.pop();
    }
    Ok(())
}

/// Aggregate every track in the model into per-track-name groups, in
/// track-name order. Groups with no spans (instant-only tracks) are
/// omitted.
///
/// # Errors
/// When a span's durations, or a group's top-level spans together, sum
/// past `u64::MAX` (only a hostile or corrupt trace gets there: the
/// logical clock is a u64).
pub fn try_span_groups(model: &TraceModel) -> Result<Vec<TrackGroup>, String> {
    let mut by_name: BTreeMap<&str, (u64, Builder)> = BTreeMap::new();
    for track in &model.tracks {
        let (n, builder) = by_name.entry(&track.track).or_default();
        *n += 1;
        fold_track(track, builder)?;
    }
    by_name
        .into_iter()
        .filter(|(_, (_, b))| !b.children.is_empty())
        .map(|(name, (n_tracks, b))| {
            let mut root = b.into_node(String::new());
            root.total_ticks = root
                .children
                .iter()
                .try_fold(0u64, |acc, c| acc.checked_add(c.total_ticks))
                .ok_or_else(|| format!("track {name:?}: span durations sum past u64::MAX"))?;
            root.self_ticks = 0;
            Ok(TrackGroup {
                track: name.to_string(),
                n_tracks,
                root,
            })
        })
        .collect()
}

/// [`try_span_groups`] on a trace known to fit, such as one this process
/// recorded.
///
/// # Panics
/// When span durations sum past `u64::MAX`; read untrusted traces with
/// [`try_span_groups`].
pub fn span_groups(model: &TraceModel) -> Vec<TrackGroup> {
    try_span_groups(model).expect("span durations of a recorded trace fit in u64")
}

/// The heaviest root-to-leaf chain of a group: descend through the
/// child with the largest inclusive ticks (ties broken by name order,
/// which `children` already encodes). The root itself is not a step.
pub fn critical_path(group: &TrackGroup) -> Vec<CriticalStep> {
    let denom = group.root.total_ticks.max(1) as f64;
    let mut steps = Vec::new();
    let mut node = &group.root;
    while let Some(heaviest) = node.children.iter().max_by(|a, b| {
        a.total_ticks
            .cmp(&b.total_ticks)
            .then_with(|| b.name.cmp(&a.name)) // prefer earlier name on ties
    }) {
        steps.push(CriticalStep {
            name: heaviest.name.clone(),
            count: heaviest.count,
            total_ticks: heaviest.total_ticks,
            self_ticks: heaviest.self_ticks,
            share: heaviest.total_ticks as f64 / denom,
        });
        node = heaviest;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceModel;
    use spice_telemetry::Telemetry;

    fn demo_model() -> TraceModel {
        let t = Telemetry::enabled();
        // Two realizations on the same track name: run{equilibrate,pull}.
        for key in 0..2 {
            let track = t.track("real", key);
            let _run = track.span_at("run", 0);
            {
                let _eq = track.span_at("equilibrate", 0);
                track.tick(10);
            }
            {
                let _pull = track.span_at("pull", 10);
                track.tick(40);
            }
            track.tick(42);
        }
        // A second group with a different shape.
        let g = t.track("grid", 0);
        {
            let _c = g.span_at("campaign", 0);
            {
                let _a = g.span_at("attempt", 0);
                g.tick(7);
            }
            g.tick(8);
        }
        TraceModel::from_snapshot(&t.snapshot())
    }

    #[test]
    fn groups_fold_same_named_tracks() {
        let groups = span_groups(&demo_model());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].track, "grid");
        assert_eq!(groups[1].track, "real");
        assert_eq!(groups[1].n_tracks, 2);
        let run = &groups[1].root.children[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.count, 2);
        assert_eq!(run.total_ticks, 84, "42 ticks x 2 realizations");
        // self = 84 - (equilibrate 20 + pull 60)
        assert_eq!(run.self_ticks, 4);
        assert_eq!(run.children.len(), 2);
    }

    #[test]
    fn critical_path_descends_heaviest_child() {
        let groups = span_groups(&demo_model());
        let real = groups.iter().find(|g| g.track == "real").unwrap();
        let path = critical_path(real);
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["run", "pull"], "pull (60) beats equilibrate (20)");
        assert!((path[0].share - 1.0).abs() < 1e-12);
        assert!((path[1].share - 60.0 / 84.0).abs() < 1e-12);
    }

    #[test]
    fn instant_only_tracks_form_no_group() {
        let t = Telemetry::enabled();
        t.track("msgs", 0).instant("ping", Vec::new());
        let groups = span_groups(&TraceModel::from_snapshot(&t.snapshot()));
        assert!(groups.is_empty());
    }

    #[test]
    fn empty_model_yields_no_paths() {
        let groups = span_groups(&TraceModel::default());
        assert!(groups.is_empty());
    }
}
