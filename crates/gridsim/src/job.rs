//! Jobs: the unit of work the grid schedules.
//!
//! The paper's production jobs are MD simulations needing 128 or 256
//! processors for hours to days; the interactive jobs additionally need
//! network QoS to the visualization host.

use serde::{Deserialize, Serialize};

/// Job identifier.
pub type JobId = u32;

/// A batch job demand.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Job {
    /// Identifier, unique within a campaign.
    pub id: JobId,
    /// Human-readable tag (e.g. "smd-k100-v12.5-r03").
    pub name: String,
    /// Processors required.
    pub procs: u32,
    /// Wall-clock hours on a reference-speed site.
    pub wall_hours: f64,
    /// Earliest start (hours from campaign begin).
    pub release_hours: f64,
    /// Steering-coupled: the master process must hold a live connection
    /// to an external visualization/steering host for the whole run, so
    /// the job is subject to the hidden-IP/gateway connectivity model
    /// (§V-C-1) and to gateway connection drops.
    pub coupled: bool,
}

impl Job {
    /// Construct a (batch, uncoupled) job.
    ///
    /// # Panics
    /// Panics on zero processors or non-positive duration.
    pub fn new(id: JobId, name: impl Into<String>, procs: u32, wall_hours: f64) -> Job {
        assert!(procs > 0, "job needs at least one processor");
        assert!(wall_hours > 0.0, "job duration must be positive");
        Job {
            id,
            name: name.into(),
            procs,
            wall_hours,
            release_hours: 0.0,
            coupled: false,
        }
    }

    /// Mark the job steering-coupled (builder style).
    pub fn steering_coupled(mut self) -> Job {
        self.coupled = true;
        self
    }

    /// CPU-hours consumed on a reference-speed site.
    pub fn cpu_hours(&self) -> f64 {
        self.procs as f64 * self.wall_hours
    }
}

/// Execution record of a completed job. `site`/`started`/`finished`
/// describe the *successful* attempt; `attempts` and `lost_cpu_hours`
/// summarize the failed attempts that preceded it (both trivial — 1 and
/// 0.0 — when the campaign runs without a failure model).
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct JobRecord {
    /// Which job.
    pub job: JobId,
    /// Site it ran on.
    pub site: crate::resource::SiteId,
    /// Submission time (h).
    pub submitted: f64,
    /// Start time (h).
    pub started: f64,
    /// Finish time (h).
    pub finished: f64,
    /// Processors used.
    pub procs: u32,
    /// Total execution attempts (1 = succeeded first try).
    pub attempts: u32,
    /// Reference-normalized CPU-hours burned by failed attempts and lost
    /// (uncheckpointed) segments before the successful run.
    pub lost_cpu_hours: f64,
}

impl JobRecord {
    /// Record of a clean first-attempt execution.
    pub fn clean(
        job: JobId,
        site: crate::resource::SiteId,
        submitted: f64,
        started: f64,
        finished: f64,
        procs: u32,
    ) -> JobRecord {
        JobRecord {
            job,
            site,
            submitted,
            started,
            finished,
            procs,
            attempts: 1,
            lost_cpu_hours: 0.0,
        }
    }

    /// Queue wait (h): first submission to the successful start, so for a
    /// retried job this includes backoff delays and failed attempts.
    pub fn wait(&self) -> f64 {
        self.started - self.submitted
    }

    /// Execution time (h) of the successful attempt.
    pub fn runtime(&self) -> f64 {
        self.finished - self.started
    }

    /// CPU-hours consumed by the successful attempt.
    pub fn cpu_hours(&self) -> f64 {
        self.runtime() * self.procs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_hours_product() {
        let j = Job::new(1, "sim", 128, 24.0);
        assert_eq!(j.cpu_hours(), 3072.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        Job::new(1, "bad", 0, 1.0);
    }

    #[test]
    fn record_accounting() {
        let r = JobRecord::clean(1, 0, 0.0, 2.0, 14.0, 128);
        assert_eq!(r.wait(), 2.0);
        assert_eq!(r.runtime(), 12.0);
        assert_eq!(r.cpu_hours(), 1536.0);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.lost_cpu_hours, 0.0);
    }

    #[test]
    fn coupled_builder() {
        let j = Job::new(1, "imd", 256, 2.0);
        assert!(!j.coupled);
        assert!(j.steering_coupled().coupled);
    }
}
