//! Streaming statistics used by workloads, detectors, and experiment reports.
//!
//! * [`Histogram`] — dense integer-bucket histogram (the NiP distribution of
//!   the paper's Fig. 1 is exactly such a histogram).
//! * [`Categorical`] — a weighted categorical distribution supporting
//!   deterministic sampling (used for NiP choices, country targeting, …).
//! * [`Summary`] — a running count/min/max/mean/variance accumulator (used
//!   e.g. for the ~5.3 h fingerprint rotation statistic of §IV-A).
//! * [`TimeSeries`] — fixed-width time-bucketed counters (SMS per day,
//!   requests per hour, …).

mod categorical;
mod histogram;
mod summary;
mod timeseries;

pub use categorical::{Categorical, CategoricalError};
pub use histogram::Histogram;
pub use summary::Summary;
pub use timeseries::TimeSeries;
