//! Error analysis for SMD-JE PMFs — the machinery behind §IV and Fig. 4.
//!
//! Two error channels compete (the paper's central methodological point):
//!
//! * **statistical** (σ_stat) — finite-sample scatter of the exponential
//!   average; *decreases* with more samples, so at fixed compute budget it
//!   *decreases* with pulling velocity (faster pulls → more samples per
//!   CPU-hour). Fairly comparing velocities therefore requires the
//!   cost normalization of §IV-C.
//! * **systematic** (σ_sys) — dissipation bias of the finite-N JE
//!   estimator; *grows* with pulling velocity, and with too-soft or
//!   too-stiff springs. `spice-core`'s pipeline measures it as the RMS
//!   gap to the TI reference on the centre-of-mass axis.

pub mod statistical;
