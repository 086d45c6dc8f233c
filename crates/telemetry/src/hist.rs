//! Bounded-memory, mergeable log-linear latency histograms.
//!
//! The workspace's one latency type. HDR-style layout: every power-of-two
//! range ("octave") of nanoseconds is split into [`SUB_BUCKETS`] equal-width
//! linear sub-buckets, so bucket width never exceeds `value / SUB_BUCKETS`
//! and a quantile reported at the bucket midpoint is within
//! [`RELATIVE_ERROR`] (= 1/64 ≈ 1.6%) of the exact nearest-rank sample.
//! Memory is a fixed [`BUCKET_COUNT`]-slot table (~15 KiB of `u64`s) no
//! matter how many samples are recorded — unlike the retained-sample
//! `Summary` the stage profiler used before, which grew without bound in a
//! long-running server.
//!
//! Three faces of the same layout:
//!
//! - [`Hist`] — plain dense counts, for single-writer contexts (the stage
//!   profiler behind its mutex). `Clone`, cheap to merge.
//! - [`AtomicHist`] — lock-free recording for the serve hot path: one
//!   relaxed fetch-add per sample, plus bounded per-octave *exemplar* slots
//!   pairing a bucket with the trace id of a request that landed in it.
//! - [`HistSnapshot`] — the compact serde form (sparse `(index, count)`
//!   pairs); merging is exact bucket-wise addition, so a merged snapshot is
//!   indistinguishable from one that recorded the union of the samples.
//!
//! Nothing here reads a clock: callers supply durations, so the type is
//! safe to embed in deterministic simulation crates.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// log2 of the number of linear sub-buckets per power-of-two octave.
pub const SUB_BUCKET_BITS: u32 = 5;
/// Linear sub-buckets per octave (32).
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Total bucket table size covering the full `u64` nanosecond range.
pub const BUCKET_COUNT: usize = SUB_BUCKETS * (64 - SUB_BUCKET_BITS as usize + 1);
/// Guaranteed bound on `|reported − exact| / exact` for quantile queries:
/// bucket width is at most `value / 32` and values are reported at the
/// bucket midpoint, so the error is at most half a width — 1/64.
pub const RELATIVE_ERROR: f64 = 1.0 / 64.0;

/// Maps a nanosecond value to its bucket index.
///
/// Values below [`SUB_BUCKETS`] get width-1 buckets (exact); above that,
/// octave `e` (top bit position) is split into 32 sub-buckets of width
/// `2^(e-5)`.
#[inline]
pub fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS as u64 {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros();
    let shift = exp - SUB_BUCKET_BITS;
    // (nanos >> shift) is in [32, 64); group g = exp - SUB_BUCKET_BITS
    // starts at index 32 * g.
    ((shift as usize) << SUB_BUCKET_BITS) + (nanos >> shift) as usize
}

/// Inclusive lower edge of bucket `index`.
#[inline]
pub fn bucket_low(index: usize) -> u64 {
    let group = index >> SUB_BUCKET_BITS;
    if group == 0 {
        return index as u64;
    }
    let sub = (index & (SUB_BUCKETS - 1)) as u64;
    (SUB_BUCKETS as u64 + sub) << (group - 1)
}

/// Exclusive upper edge of bucket `index` (saturating at `u64::MAX`).
#[inline]
pub fn bucket_high(index: usize) -> u64 {
    let group = index >> SUB_BUCKET_BITS;
    let width = if group == 0 { 1 } else { 1u64 << (group - 1) };
    bucket_low(index).saturating_add(width)
}

/// Midpoint representative of bucket `index` — what quantile queries report.
#[inline]
pub fn bucket_mid(index: usize) -> u64 {
    let group = index >> SUB_BUCKET_BITS;
    let half = if group == 0 {
        0
    } else {
        1u64 << (group - 1) >> 1
    };
    bucket_low(index) + half
}

/// A plain (non-atomic) log-linear histogram for single-writer contexts.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKET_COUNT]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish()
    }
}

impl Hist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Hist {
            counts: Box::new([0; BUCKET_COUNT]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one nanosecond sample.
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        self.max = self.max.max(nanos);
    }

    /// Records one duration sample (saturating at `u64::MAX` nanoseconds).
    pub fn record_duration(&mut self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total of all recorded nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, exact (not bucketed).
    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// Nearest-rank quantile in nanoseconds, reported at the bucket
    /// midpoint — within [`RELATIVE_ERROR`] of the exact sample. `q` is in
    /// `[0, 1]`; returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_dense(&*self.counts, self.count, self.max, q)
    }

    /// Folds `other` in bucket-wise; exact (the result is as if `self` had
    /// recorded every sample of both).
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The compact, mergeable serde form.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            sub_bucket_bits: SUB_BUCKET_BITS,
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
            count: self.count,
            sum: self.sum,
            max: self.max,
        }
    }
}

/// Nearest-rank walk over a dense bucket table.
fn quantile_dense(counts: &[u64], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = nearest_rank(count, q);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // The top bucket's midpoint can overshoot the true maximum;
            // clamp so quantiles never exceed the (exact) max.
            return bucket_mid(i).min(max);
        }
    }
    max
}

/// 1-based nearest rank for quantile `q` of `count` samples.
fn nearest_rank(count: u64, q: f64) -> u64 {
    let q = q.clamp(0.0, 1.0);
    ((q * count as f64).ceil() as u64).clamp(1, count)
}

/// Compact serde form of a histogram: sparse `(bucket index, count)` pairs.
///
/// Merging two snapshots is exact bucket-wise addition — the merged
/// snapshot equals one built by recording the union of the samples, so
/// fleet-wide p99 from per-shard snapshots carries no averaging error
/// (only the layout's own ≤ [`RELATIVE_ERROR`] bucket error).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Layout version: log2 sub-buckets per octave ([`SUB_BUCKET_BITS`]).
    pub sub_bucket_bits: u32,
    /// Sparse non-zero buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds recorded.
    pub sum: u64,
    /// Largest recorded sample, exact.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::empty()
    }
}

impl HistSnapshot {
    /// An empty snapshot in the current layout.
    pub fn empty() -> Self {
        HistSnapshot {
            sub_bucket_bits: SUB_BUCKET_BITS,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank quantile in nanoseconds (bucket midpoint, clamped to
    /// the exact max); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count, q);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_mid(i as usize).min(self.max);
            }
        }
        self.max
    }

    /// Quantile in microseconds, the stage-snapshot unit.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) as f64 * 1e-3
    }

    /// Quantile in seconds, the exposition unit.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        self.quantile(q) as f64 * 1e-9
    }

    /// Exact bucket-wise merge. Snapshots from a different layout version
    /// (`sub_bucket_bits` mismatch) cannot be combined bucket-wise and are
    /// folded into count/sum/max only — counts stay truthful, quantiles
    /// reflect `self`'s buckets.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if self.sub_bucket_bits == other.sub_bucket_bits {
            let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
            let (mut a, mut b) = (
                self.buckets.iter().peekable(),
                other.buckets.iter().peekable(),
            );
            loop {
                match (a.peek(), b.peek()) {
                    (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                        if ia == ib {
                            merged.push((ia, ca + cb));
                            a.next();
                            b.next();
                        } else if ia < ib {
                            merged.push((ia, ca));
                            a.next();
                        } else {
                            merged.push((ib, cb));
                            b.next();
                        }
                    }
                    (Some(&&e), None) => {
                        merged.push(e);
                        a.next();
                    }
                    (None, Some(&&e)) => {
                        merged.push(e);
                        b.next();
                    }
                    (None, None) => break,
                }
            }
            self.buckets = merged;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Number of exemplar slots on an [`AtomicHist`] — one per latency decade
/// band, coarse on purpose: exemplars are navigation aids, not samples.
const EXEMPLAR_SLOTS: usize = 8;

/// One exemplar: a trace id pinned to the latency bucket its request
/// landed in, linking a histogram bucket on `/metrics` to a retrievable
/// trace in `/debug/traces`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exemplar {
    /// The observed latency, nanoseconds.
    pub nanos: u64,
    /// The decision trace id (`fg_core::hash::trace_id` domain, never 0).
    pub trace_id: u64,
}

/// Lock-free log-linear histogram for concurrent writers (the serve worker
/// loop): recording is one relaxed `fetch_add` per sample plus three for
/// the aggregates. Exemplars take a short mutex, but only interesting
/// requests (slow / non-allow / 5xx) offer one.
pub struct AtomicHist {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    exemplars: Mutex<[Option<Exemplar>; EXEMPLAR_SLOTS]>,
}

impl Default for AtomicHist {
    fn default() -> Self {
        AtomicHist::new()
    }
}

impl std::fmt::Debug for AtomicHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHist")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl AtomicHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        AtomicHist {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplars: Mutex::new([None; EXEMPLAR_SLOTS]),
        }
    }

    /// Records one nanosecond sample. Lock-free.
    pub fn record(&self, nanos: u64) {
        self.counts[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records one duration sample.
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records a sample *and* offers its trace id as an exemplar for the
    /// latency band it fell in. Each of the eight decade bands keeps the
    /// latest exemplar, so `/metrics` always links somewhere recent.
    ///
    /// Returns the trace id the offer displaced from its band — 0 when the
    /// band was empty or `trace_id` is 0 — so a caller that keeps cited
    /// traces retrievable ([`crate::Tracer::cite`]) can release it.
    pub fn record_with_exemplar(&self, nanos: u64, trace_id: u64) -> u64 {
        self.record(nanos);
        if trace_id == 0 {
            return 0;
        }
        let slot = exemplar_slot(nanos);
        self.exemplars
            .lock()
            .ok()
            .and_then(|mut slots| slots[slot].replace(Exemplar { nanos, trace_id }))
            .map_or(0, |displaced| displaced.trace_id)
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time compact form plus the current exemplar set (ascending
    /// by latency).
    pub fn snapshot(&self) -> (HistSnapshot, Vec<Exemplar>) {
        let snap = HistSnapshot {
            sub_bucket_bits: SUB_BUCKET_BITS,
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then_some((i as u32, c))
                })
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        };
        let mut exemplars: Vec<Exemplar> = self
            .exemplars
            .lock()
            .map(|slots| slots.iter().flatten().copied().collect())
            .unwrap_or_default();
        exemplars.sort_by_key(|e| e.nanos);
        (snap, exemplars)
    }
}

/// Coarse exemplar banding: one slot per ~decade above 100 µs, so slow
/// requests never evict each other's exemplars with fast ones.
fn exemplar_slot(nanos: u64) -> usize {
    // Bands: <100µs, <1ms, <10ms, <100ms, <1s, <10s, <100s, rest.
    let mut bound = 100_000u64;
    for slot in 0..EXEMPLAR_SLOTS - 1 {
        if nanos < bound {
            return slot;
        }
        bound = bound.saturating_mul(10);
    }
    EXEMPLAR_SLOTS - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact nearest-rank quantile over raw samples, the oracle the
    /// histogram is measured against.
    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        assert!(!sorted.is_empty());
        let rank = nearest_rank(sorted.len() as u64, q) as usize;
        sorted[rank - 1]
    }

    #[test]
    fn bucket_index_edges_are_consistent() {
        for i in 0..BUCKET_COUNT {
            let lo = bucket_low(i);
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            let hi = bucket_high(i);
            if hi > lo && hi < u64::MAX {
                assert_eq!(bucket_index(hi - 1), i, "last value of bucket {i}");
                assert_eq!(bucket_index(hi), i + 1, "first value past bucket {i}");
            }
            let mid = bucket_mid(i);
            assert!(
                lo <= mid && mid < hi.max(lo + 1),
                "midpoint inside bucket {i}"
            );
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_nanos(), 37);
    }

    #[test]
    fn quantiles_clamp_to_exact_max() {
        let mut h = Hist::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(0.5), 1_000_003);
        assert_eq!(h.quantile(1.0), 1_000_003);
    }

    #[test]
    fn snapshot_round_trips_and_merges_like_dense() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut union = Hist::new();
        for v in [3u64, 99, 1_000, 123_456, 88] {
            a.record(v);
            union.record(v);
        }
        for v in [7u64, 99, 5_000_000, 2] {
            b.record(v);
            union.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
        let json = serde_json::to_string(&merged).unwrap();
        let back: HistSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn atomic_hist_matches_plain_hist() {
        let atomic = AtomicHist::new();
        let mut plain = Hist::new();
        for v in [0u64, 17, 300, 40_000, 7_777_777] {
            atomic.record(v);
            plain.record(v);
        }
        let (snap, exemplars) = atomic.snapshot();
        assert_eq!(snap, plain.snapshot());
        assert!(exemplars.is_empty(), "no exemplars were offered");
    }

    #[test]
    fn exemplars_band_by_latency_and_keep_latest() {
        let h = AtomicHist::new();
        assert_eq!(h.record_with_exemplar(50_000, 0xA), 0); // <100µs band
        assert_eq!(h.record_with_exemplar(60_000, 0xB), 0xA); // same band: evicts 0xA
        assert_eq!(h.record_with_exemplar(20_000_000, 0xC), 0); // 10–100ms band
        assert_eq!(h.record_with_exemplar(3_000, 0), 0); // id 0 = no trace: ignored
        let (snap, exemplars) = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(
            exemplars,
            vec![
                Exemplar {
                    nanos: 60_000,
                    trace_id: 0xB
                },
                Exemplar {
                    nanos: 20_000_000,
                    trace_id: 0xC
                },
            ]
        );
    }

    proptest! {
        /// Every reported quantile is within the documented relative error
        /// of the exact nearest-rank sample.
        #[test]
        fn quantiles_stay_within_documented_relative_error(
            samples in proptest::collection::vec(0u64..10_000_000_000, 1..400),
            qs in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            let mut h = Hist::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in qs {
                let exact = exact_nearest_rank(&sorted, q);
                let reported = h.quantile(q);
                let bound = (exact as f64 * RELATIVE_ERROR).max(0.5);
                let err = (reported as f64 - exact as f64).abs();
                prop_assert!(
                    err <= bound,
                    "q={q}: reported {reported} vs exact {exact} (err {err} > bound {bound})"
                );
            }
        }

        /// merge(a, b) is indistinguishable from recording the union.
        #[test]
        fn merge_equals_recording_the_union(
            xs in proptest::collection::vec(0u64..10_000_000_000, 0..200),
            ys in proptest::collection::vec(0u64..10_000_000_000, 0..200),
        ) {
            let mut a = Hist::new();
            let mut b = Hist::new();
            let mut union = Hist::new();
            for &x in &xs {
                a.record(x);
                union.record(x);
            }
            for &y in &ys {
                b.record(y);
                union.record(y);
            }
            a.merge(&b);
            prop_assert_eq!(a.snapshot(), union.snapshot());
            let mut sa = Hist::new();
            for &x in &xs { sa.record(x); }
            let mut snap = sa.snapshot();
            snap.merge(&b.snapshot());
            prop_assert_eq!(snap, union.snapshot());
        }
    }
}
