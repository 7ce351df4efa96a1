//! # spice-stats
//!
//! Statistical foundations for the SPICE reproduction.
//!
//! Every quantitative claim in the paper rests on estimating means,
//! fluctuations and their uncertainties from finite, correlated samples:
//! the Jarzynski free-energy estimator, the statistical-vs-systematic error
//! trade-off of Fig. 4, and the discrete-event grid model's stochastic
//! service and network processes.
//!
//! This crate provides:
//!
//! * [`descriptive`] — streaming (Welford) and batch moments, quantiles.
//! * [`histogram`] — fixed-width binned accumulation over a range.
//! * [`autocorr`] — integrated autocorrelation time and effective sample
//!   size for correlated MD time series.
//! * [`logsumexp`] — numerically stable `log Σ exp` / `log ⟨exp⟩`
//!   primitives used by the exponential (Jarzynski) average.
//! * [`series`] — binning a scattered x/y series onto a uniform grid.
//! * [`rng`] — deterministic seeding helpers (SplitMix64 stream derivation)
//!   so every experiment is reproducible from a single master seed.
//!
//! All routines are `f64`, allocation-conscious, and deterministic given a
//! seed, per the HPC guide's reproducibility idioms.

#![warn(missing_docs)]

pub mod autocorr;
pub mod descriptive;
pub mod histogram;
pub mod logsumexp;
pub mod rng;
pub mod series;

pub use autocorr::{effective_sample_size, integrated_autocorr_time};
pub use descriptive::{mean, quantile, std_dev, variance, RunningStats};
pub use histogram::Histogram;
pub use logsumexp::{log_mean_exp, log_sum_exp};
pub use rng::{seed_stream, SeedSequence};
pub use series::BinnedSeries;
