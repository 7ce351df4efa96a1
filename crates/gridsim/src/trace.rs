//! Campaign execution traces: a text Gantt chart of job placement over
//! time — the at-a-glance view of how the federation carried the batch
//! phase (what the paper's coordinators reconstructed from queue logs by
//! hand) — plus failure timelines of resilient executions.

use crate::campaign::CampaignResult;
use crate::federation::Federation;
use crate::resilience::ResilientResult;
use spice_telemetry::Telemetry;

/// Render a per-site text Gantt chart of the campaign, `width` columns
/// wide. Each row is a site; each column a time slice; the glyph encodes
/// how many jobs were running in that slice (`.` idle, `1`–`9`, `#` ≥10).
pub fn gantt(result: &CampaignResult, federation: &Federation, width: usize) -> String {
    assert!(width >= 10, "gantt needs at least 10 columns");
    let span = result.makespan_hours.max(1e-9);
    let dt = span / width as f64;
    let name_w = federation
        .sites
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    out.push_str(&format!(
        "{:>name_w$} |{}| 0 → {:.1} h ({:.1} h/col)\n",
        "site",
        "-".repeat(width),
        span,
        dt,
    ));
    for site in &federation.sites {
        let mut row = String::with_capacity(width);
        for c in 0..width {
            let t = (c as f64 + 0.5) * dt;
            let running = result
                .records
                .iter()
                .filter(|r| r.site == site.id && r.started <= t && t < r.finished)
                .count();
            row.push(match running {
                0 => '.',
                1..=9 => char::from_digit(running as u32, 10).expect("1..=9"),
                _ => '#',
            });
        }
        out.push_str(&format!("{:>name_w$} |{row}|\n", site.name));
    }
    out
}

/// One-line-per-failure timeline of a resilient execution, ordered by
/// event time — the incident log the SC05 coordinators kept by hand.
///
/// An enabled `t` also receives the timeline, so a single JSONL export
/// captures the whole incident log even for a result that was produced
/// untraced (or deserialized). Each failure becomes a `grid.failure`
/// instant on the `("grid.failure_log", 0)` track — deliberately distinct
/// from the engine's live `("grid.job", id)` tracks so replaying a
/// listing never duplicates a traced run's events.
pub fn failure_listing(result: &ResilientResult, federation: &Federation, t: &Telemetry) -> String {
    if t.is_enabled() {
        let track = t.track("grid.failure_log", 0);
        for f in &result.failures {
            track.instant_at(
                "grid.failure",
                crate::resilience::sim_ticks(f.time),
                vec![
                    ("job", f.job.to_string()),
                    ("attempt", f.attempt.to_string()),
                    // spice-lint: allow(P002) report path: one pass over a finished result, not the DES hot loop
                    ("site", federation.site(f.site).name.clone()),
                    ("kind", f.kind.label().to_string()),
                    ("lost_cpu_hours", format!("{:.3}", f.lost_cpu_hours)),
                    ("saved_hours", format!("{:.3}", f.saved_hours)),
                ],
            );
        }
        for id in &result.abandoned {
            track.instant("grid.abandoned", vec![("job", id.to_string())]);
        }
    }
    let mut out =
        String::from("  time   job  att  site          kind          lost-cpu-h  saved-h\n");
    for f in &result.failures {
        let kind = f.kind.label();
        out.push_str(&format!(
            "  {:>6.1} {:>4}  {:>3}  {:<12}  {:<12}  {:>9.1}  {:>7.2}\n",
            f.time,
            f.job,
            f.attempt,
            federation.site(f.site).name,
            kind,
            f.lost_cpu_hours,
            f.saved_hours,
        ));
    }
    if !result.abandoned.is_empty() {
        out.push_str(&format!(
            "  abandoned after retry exhaustion: {:?}\n",
            result.abandoned
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::resilience::{run_resilient, ResiliencePolicy};

    #[test]
    fn gantt_renders_all_sites_and_width() {
        let c = Campaign::paper_batch_phase(4);
        let r = c.run();
        let g = gantt(&r, &c.federation, 60);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 1 + c.federation.sites.len());
        for site in &c.federation.sites {
            assert!(g.contains(&site.name), "missing {}", site.name);
        }
        // Every site row has exactly `width` glyphs between the bars.
        for line in &lines[1..] {
            let row = line.split('|').nth(1).expect("bar-delimited row");
            assert_eq!(row.chars().count(), 60);
        }
        // Work actually shows up.
        assert!(g.chars().any(|ch| ch.is_ascii_digit() && ch != '0'));
    }

    #[test]
    fn gantt_occupancy_matches_records() {
        let c = Campaign::paper_batch_phase(6);
        let r = c.run();
        let g = gantt(&r, &c.federation, 40);
        // The busiest glyph must not exceed the per-site max concurrency
        // implied by capacity (site 0: 384 procs / 128 = ≤3 concurrent).
        let ncsa_row = g
            .lines()
            .find(|l| l.contains("NCSA"))
            .expect("NCSA row")
            .to_string();
        for ch in ncsa_row.chars().filter(|c| c.is_ascii_digit()) {
            assert!(
                ch.to_digit(10).unwrap() <= 3,
                "NCSA over-concurrency: {ncsa_row}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn tiny_width_rejected() {
        let c = Campaign::paper_batch_phase(1);
        let r = c.run();
        gantt(&r, &c.federation, 3);
    }

    #[test]
    fn failure_listing_covers_every_failure() {
        let c = Campaign::sc05_outage_phase(5);
        let r = run_resilient(
            &c,
            &ResiliencePolicy::checkpoint_failover(),
            &Telemetry::disabled(),
        );
        let listing = failure_listing(&r, &c.federation, &Telemetry::disabled());
        let body_lines = listing
            .lines()
            .filter(|l| !l.starts_with("  time") && !l.contains("abandoned"))
            .count();
        assert_eq!(body_lines, r.failures.len());
        assert!(!r.failures.is_empty(), "sc05 scenario must log failures");
        // Kind labels render.
        assert!(
            listing.contains("launch-fail")
                || listing.contains("node-crash")
                || listing.contains("outage-kill")
        );
        // Times are sorted (engine logs in event order).
        let times: Vec<f64> = r.failures.iter().map(|f| f.time).collect();
        assert!(times.windows(2).all(|w| w[1] >= w[0] - 1e-9));
    }

    #[test]
    fn failure_listing_reports_abandonment() {
        let r = ResilientResult {
            result: CampaignResult {
                records: Vec::new(),
                makespan_hours: 0.0,
                cpu_hours: 0.0,
                jobs_per_site: Vec::new(),
            },
            failures: Vec::new(),
            abandoned: vec![3, 7],
            goodput_cpu_hours: 0.0,
            badput_cpu_hours: 0.0,
            total_retries: 2,
        };
        let f = Federation::paper_us_uk();
        let listing = failure_listing(&r, &f, &Telemetry::disabled());
        assert!(listing.contains("abandoned"));
        assert!(listing.contains('3') && listing.contains('7'));
    }
}
