//! Advance reservations and the human-in-the-loop booking model.
//!
//! §V-C-3: "with advanced reservations made by hand, schedulers did not
//! work always and required last minute corrections and tweaking. The
//! current mode of operation is cumbersome, highly prone to error (one of
//! the authors had to exchange about a dozen emails correcting three
//! distinct errors introduced by two different administrators for one
//! reservation request)". TeraGrid's later web interface "removes the
//! need for human intervention at one more level" — modeled as fewer
//! error-prone hand-offs.

use serde::{Deserialize, Serialize};
use spice_stats::rng::seed_stream;

/// Outcome of one reservation-booking workflow.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct BookingOutcome {
    /// Emails exchanged end-to-end.
    pub emails: u32,
    /// Distinct errors introduced by administrators.
    pub errors: u32,
    /// Extra calendar delay caused by corrections (hours).
    pub delay_hours: f64,
    /// Whether the reservation was eventually confirmed correctly.
    pub confirmed: bool,
}

/// The manual booking process: every hand-off between humans can inject
/// an error; each error costs a correction round of emails and delay.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct ManualBookingModel {
    /// Administrators in the loop (paper anecdote: 2).
    pub n_admins: u32,
    /// Probability each admin introduces at least one error.
    pub p_error: f64,
    /// Probability an introduced error needs a second correction round.
    pub p_recheck: f64,
    /// Emails for a clean request/confirm exchange.
    pub base_emails: u32,
    /// Emails per correction round.
    pub emails_per_round: u32,
    /// Calendar delay per correction round (hours).
    pub delay_per_round: f64,
    /// Probability the whole booking collapses and must be abandoned.
    pub p_abandon: f64,
}

impl ManualBookingModel {
    /// Calibrated to the paper's anecdote: two admins, about a dozen
    /// emails, three distinct errors for one request.
    pub fn paper_manual() -> Self {
        ManualBookingModel {
            n_admins: 2,
            p_error: 0.75,
            p_recheck: 0.5,
            base_emails: 3,
            emails_per_round: 3,
            delay_per_round: 12.0,
            p_abandon: 0.05,
        }
    }

    /// TeraGrid's web interface (§V-C-5): one human level removed —
    /// errors only from the remaining manual step.
    pub fn web_interface() -> Self {
        ManualBookingModel {
            n_admins: 1,
            p_error: 0.25,
            p_recheck: 0.3,
            base_emails: 1,
            emails_per_round: 2,
            delay_per_round: 4.0,
            p_abandon: 0.01,
        }
    }

    /// Simulate one booking, deterministic under `seed`.
    pub fn simulate(&self, seed: u64) -> BookingOutcome {
        let u = |i: u64| (seed_stream(seed, i) >> 11) as f64 / (1u64 << 53) as f64;
        let mut errors = 0u32;
        let mut rounds = 0u32;
        let mut ctr = 0u64;
        for _admin in 0..self.n_admins {
            if u(ctr) < self.p_error {
                errors += 1;
                rounds += 1;
                ctr += 1;
                // Error may need repeated correction rounds (geometric).
                while u(ctr) < self.p_recheck {
                    rounds += 1;
                    ctr += 1;
                    if rounds > 20 {
                        break;
                    }
                }
                // A re-check can surface a *new* distinct error.
                if u(ctr) < self.p_error * 0.5 {
                    errors += 1;
                }
            }
            ctr += 1;
        }
        let confirmed = u(ctr + 1000) >= self.p_abandon;
        BookingOutcome {
            emails: self.base_emails + rounds * self.emails_per_round,
            errors,
            delay_hours: rounds as f64 * self.delay_per_round,
            confirmed,
        }
    }

    /// Monte-Carlo means over `n` bookings: `(emails, errors, delay_h,
    /// success_rate)`.
    pub fn expected(&self, n: usize, seed: u64) -> (f64, f64, f64, f64) {
        let mut emails = 0.0;
        let mut errors = 0.0;
        let mut delay = 0.0;
        let mut ok = 0.0;
        for i in 0..n {
            let o = self.simulate(seed_stream(seed, i as u64));
            emails += o.emails as f64;
            errors += o.errors as f64;
            delay += o.delay_hours;
            ok += if o.confirmed { 1.0 } else { 0.0 };
        }
        let nf = n as f64;
        (emails / nf, errors / nf, delay / nf, ok / nf)
    }
}

/// §V-C-6's interoperability-decay claim: a co-allocation spanning `n`
/// independently-run grids succeeds only if every per-grid booking
/// succeeds, so success decays exponentially with grid count.
pub fn co_allocation_success_probability(p_single: f64, n_grids: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p_single), "probability out of range");
    p_single.powi(n_grids as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_booking_matches_paper_anecdote_scale() {
        let m = ManualBookingModel::paper_manual();
        let (emails, errors, delay, success) = m.expected(20_000, 7);
        // "about a dozen emails" for the bad case; mean somewhat lower.
        assert!(
            emails > 5.0 && emails < 15.0,
            "mean emails {emails} out of anecdote range"
        );
        assert!(errors > 0.8 && errors < 3.5, "mean errors {errors}");
        assert!(delay > 6.0, "corrections must cost calendar time: {delay}");
        assert!(success > 0.9);
    }

    #[test]
    fn web_interface_strictly_better() {
        let manual = ManualBookingModel::paper_manual().expected(20_000, 3);
        let web = ManualBookingModel::web_interface().expected(20_000, 3);
        assert!(web.0 < manual.0, "emails {} vs {}", web.0, manual.0);
        assert!(web.1 < manual.1, "errors {} vs {}", web.1, manual.1);
        assert!(web.2 < manual.2, "delay {} vs {}", web.2, manual.2);
        assert!(web.3 > manual.3, "success {} vs {}", web.3, manual.3);
    }

    #[test]
    fn booking_deterministic_under_seed() {
        let m = ManualBookingModel::paper_manual();
        assert_eq!(m.simulate(5), m.simulate(5));
        assert_ne!(m.simulate(5), m.simulate(6));
    }

    #[test]
    fn co_allocation_decays_exponentially() {
        let p1 = co_allocation_success_probability(0.8, 1);
        let p2 = co_allocation_success_probability(0.8, 2);
        let p4 = co_allocation_success_probability(0.8, 4);
        assert!((p1 - 0.8).abs() < 1e-12);
        assert!((p2 - 0.64).abs() < 1e-12);
        assert!((p4 - 0.4096).abs() < 1e-12);
        // Strictly decreasing in grid count.
        assert!(p1 > p2 && p2 > p4);
    }

    #[test]
    fn zero_grids_always_succeed() {
        assert_eq!(co_allocation_success_probability(0.5, 0), 1.0);
    }
}
