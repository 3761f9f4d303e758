//! # contention-stats
//!
//! The statistical toolkit the paper's evaluation relies on:
//!
//! * [`summary`] — medians, quartiles, means, standard deviations.
//! * [`outliers`] — the paper's rule (§III-A, footnote 4): with
//!   `Δ = Q3 − Q1`, discard points farther than `1.5Δ` from the *median*.
//! * [`ci`] — 95 % confidence intervals for the median (distribution-free
//!   order-statistic method, plus a bootstrap cross-check), as drawn on every
//!   figure.
//! * [`regression`] — ordinary least squares with a two-sided t-test on the
//!   slope (Figure 14's "p-value less than 0.001").
//! * [`special`] — ln Γ, the regularized incomplete beta function, and the
//!   Student-t CDF backing the p-values.
//! * [`histogram`] — a fixed-footprint log-bucketed latency histogram
//!   ([`histogram::LatencyHistogram`]) for streaming percentile queries
//!   over millions of samples (exact mean/max, nearest-rank percentiles).
//! * [`stream`] — the order-independent streaming collector
//!   ([`stream::StreamingSample`]) that feeds the pipeline above from the
//!   sweep engine's fold seam without retaining full per-trial records.

#![forbid(unsafe_code)]

pub mod ci;
pub mod histogram;
pub mod outliers;
pub mod regression;
pub mod special;
pub mod stream;
pub mod summary;

pub use ci::{bootstrap_median_ci, median_ci95};
pub use histogram::LatencyHistogram;
pub use outliers::filter_outliers;
pub use regression::{linear_fit, LinearFit};
pub use stream::StreamingSample;
pub use summary::Summary;
