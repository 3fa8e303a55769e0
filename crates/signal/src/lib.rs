//! Signal processing for primary-tenant utilization histories.
//!
//! The paper identifies trends in tenant utilization "using signal
//! processing. Specifically, we use the Fast Fourier Transform (FFT) on the
//! data from each primary tenant individually" (§3.2), then groups tenants
//! into *periodic*, *constant*, and *unpredictable* patterns and clusters
//! the frequency profiles within each pattern with K-Means (§4.1).
//!
//! This crate implements that pipeline from scratch:
//!
//! * [`complex`] — a minimal complex-number type;
//! * [`fft`] — an iterative radix-2 Cooley–Tukey FFT (and inverse) on
//!   one planned, split-complex kernel;
//! * [`spectrum`] — power spectra, periodicity strength, spectral flatness;
//! * [`classify`](mod@classify) — the three-way utilization-pattern classifier;
//! * [`features`] — fixed-length feature vectors extracted from traces;
//! * [`kmeans`](mod@kmeans) — K-Means with k-means++ seeding.

pub mod classify;
pub mod complex;
pub mod features;
pub mod fft;
pub mod kmeans;
pub mod spectrum;

pub use classify::{
    classify, classify_with, classify_with_features, ClassifierConfig, UtilizationPattern,
};
pub use complex::Complex;
pub use kmeans::{kmeans, KMeansResult};
pub use spectrum::SpectrumScratch;
