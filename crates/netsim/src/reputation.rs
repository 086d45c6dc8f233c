//! Defender-side IP reputation ledger.
//!
//! The classic mitigation loop in §IV-A — "we introduced blocking measures
//! based on fingerprinting patterns … attackers rotated" — applies equally to
//! IP addresses. [`ReputationLedger`] accumulates per-IP abuse evidence with
//! exponential time decay, supports /24 subnet aggregation (to catch proxy
//! pools concentrated in a block), and answers block decisions. Its
//! fundamental limitation against residential pools — each exit is used a
//! handful of times, then churned — is precisely what the experiments show.

use crate::ip::IpAddress;
use fg_core::hash::FxHashMap;
use fg_core::shard::ShardedStore;
use fg_core::time::{SimDuration, SimTime};

/// Per-address abuse evidence with exponential decay.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Evidence {
    score: f64,
    updated: SimTime,
}

/// One hash partition of the ledger: a flat evidence map. Per-IP shards key
/// by address; subnet shards key by the /24 network address, so a whole /24
/// lives in one shard and its aggregate stays exact.
type EvidenceShard = FxHashMap<IpAddress, Evidence>;

/// Accumulates abuse reports per IP, decays them over time, and decides
/// blocks at address and /24 granularity.
///
/// Internally hash-partitioned into shards (1 by default, bit-identical to
/// flat maps): per-IP evidence by address, /24 aggregates by subnet key —
/// separate partitions so subnet sums never straddle shards.
///
/// Scores below the *purge floor* (the largest floor ever passed to
/// [`ReputationLedger::purge_below`]) read as exactly zero, and reports
/// compound from that floored prior. This quantization is what makes purging
/// lossless: an entry whose decayed score fell under the floor behaves
/// identically to an absent entry — same score, same block decisions, same
/// compounding on the next report — so dropping it from the map cannot treat
/// a returning IP more generously *or* more harshly than one never purged.
///
/// # Example
///
/// ```
/// use fg_netsim::{ReputationLedger, ip::IpAddress};
/// use fg_core::time::{SimDuration, SimTime};
///
/// let mut ledger = ReputationLedger::new(SimDuration::from_hours(12), 3.0, 10.0);
/// let ip = IpAddress::from_octets(10, 0, 0, 1);
/// ledger.report(ip, 2.0, SimTime::ZERO);
/// assert!(!ledger.is_blocked(ip, SimTime::ZERO));
/// ledger.report(ip, 2.0, SimTime::from_mins(5));
/// assert!(ledger.is_blocked(ip, SimTime::from_mins(5)));
/// ```
#[derive(Clone, Debug)]
pub struct ReputationLedger {
    // Fx-hashed: consulted once per request on the detection path.
    evidence: ShardedStore<IpAddress, EvidenceShard>,
    // Exact per-/24 aggregates: exponential decay is linear, so maintaining
    // the sum with the same decay-then-add update yields exactly
    // Σ decayed(individual) at O(1) per query instead of a full scan.
    subnet_evidence: ShardedStore<IpAddress, EvidenceShard>,
    half_life: SimDuration,
    ip_threshold: f64,
    subnet_threshold: f64,
    // Largest floor ever purged at; per-IP scores under it read as zero.
    score_floor: f64,
}

impl ReputationLedger {
    /// Creates a single-shard ledger.
    ///
    /// * `half_life` — evidence halves every such interval.
    /// * `ip_threshold` — decayed score at which a single IP is blocked.
    /// * `subnet_threshold` — decayed aggregate score at which a whole /24
    ///   is blocked.
    ///
    /// # Panics
    ///
    /// Panics if `half_life` is not positive or thresholds are not positive.
    pub fn new(half_life: SimDuration, ip_threshold: f64, subnet_threshold: f64) -> Self {
        Self::with_shards(half_life, ip_threshold, subnet_threshold, 1)
    }

    /// Creates a ledger hash-partitioned into `shards` partitions (rounded
    /// up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ReputationLedger::new`].
    pub fn with_shards(
        half_life: SimDuration,
        ip_threshold: f64,
        subnet_threshold: f64,
        shards: usize,
    ) -> Self {
        assert!(half_life.as_millis() > 0, "half life must be positive");
        assert!(
            ip_threshold > 0.0 && subnet_threshold > 0.0,
            "thresholds must be positive"
        );
        ReputationLedger {
            evidence: ShardedStore::new(shards, |_| EvidenceShard::default()),
            subnet_evidence: ShardedStore::new(shards, |_| EvidenceShard::default()),
            half_life,
            ip_threshold,
            subnet_threshold,
            score_floor: 0.0,
        }
    }

    fn decayed(&self, e: Evidence, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(e.updated).as_millis() as f64;
        let half_life = self.half_life.as_millis() as f64;
        e.score * 0.5_f64.powf(elapsed / half_life)
    }

    /// Per-IP scores are quantized at the purge floor so purged and
    /// merely-sub-floor entries are indistinguishable.
    fn quantize(&self, score: f64) -> f64 {
        if score < self.score_floor {
            0.0
        } else {
            score
        }
    }

    /// Records `weight` units of abuse evidence against `ip` at `now`.
    ///
    /// Evidence never moves backwards in time: a report older than the
    /// entry's last update adds its weight decayed by the lag — what it
    /// would have contributed had it arrived in order — instead of
    /// rewinding the entry and decaying its whole score over a gap that
    /// never happened.
    pub fn report(&mut self, ip: IpAddress, weight: f64, now: SimTime) {
        let half_life = self.half_life.as_millis() as f64;
        let floor = self.score_floor;
        // The decay factor from `from` to `to`; 1 when `to` is not later.
        let decay = |from: SimTime, to: SimTime| {
            0.5_f64.powf(to.saturating_since(from).as_millis() as f64 / half_life)
        };
        let bump = |map: &mut EvidenceShard, key: IpAddress, quantize: bool| {
            let entry = map.entry(key).or_insert(Evidence {
                score: 0.0,
                updated: now,
            });
            let mut prior = entry.score * decay(entry.updated, now);
            // Compound from the floored prior so a sub-floor residual
            // contributes exactly what a purged (absent) entry would: zero.
            if quantize && prior < floor {
                prior = 0.0;
            }
            entry.score = prior + weight.max(0.0) * decay(now, entry.updated);
            entry.updated = entry.updated.max(now);
        };
        bump(self.evidence.shard_mut(&ip), ip, true);
        let subnet = ip.subnet24();
        bump(self.subnet_evidence.shard_mut(&subnet), subnet, false);
    }

    /// The decayed abuse score of `ip` at `now` (zero below the purge
    /// floor).
    pub fn score(&self, ip: IpAddress, now: SimTime) -> f64 {
        let raw = self
            .evidence
            .shard(&ip)
            .get(&ip)
            .map_or(0.0, |&e| self.decayed(e, now));
        self.quantize(raw)
    }

    /// The decayed aggregate score of the /24 containing `ip` at `now`.
    /// Subnet aggregates stay exact — the purge floor applies per IP only.
    pub fn subnet_score(&self, ip: IpAddress, now: SimTime) -> f64 {
        let subnet = ip.subnet24();
        self.subnet_evidence
            .shard(&subnet)
            .get(&subnet)
            .map_or(0.0, |&e| self.decayed(e, now))
    }

    /// `true` if `ip` is individually over threshold at `now`.
    pub fn is_blocked(&self, ip: IpAddress, now: SimTime) -> bool {
        self.score(ip, now) >= self.ip_threshold
    }

    /// `true` if `ip`'s whole /24 is over the aggregate threshold at `now`.
    pub fn is_subnet_blocked(&self, ip: IpAddress, now: SimTime) -> bool {
        self.subnet_score(ip, now) >= self.subnet_threshold
    }

    /// `true` if either the address or its /24 is blocked.
    pub fn is_denied(&self, ip: IpAddress, now: SimTime) -> bool {
        self.is_blocked(ip, now) || self.is_subnet_blocked(ip, now)
    }

    /// Number of addresses carrying any evidence, summed over shards.
    pub fn tracked(&self) -> usize {
        self.evidence.fold(0, |acc, s| acc + s.len())
    }

    /// Number of shards (1 unless built via
    /// [`ReputationLedger::with_shards`]).
    pub fn shard_count(&self) -> usize {
        self.evidence.shard_count()
    }

    /// Removes per-IP entries whose decayed score at `now` fell below
    /// `floor` (subnet aggregates are kept — they remain exact), striping
    /// the scan shard by shard. Returns how many were purged.
    ///
    /// Raises the ledger's purge floor to `floor`: from here on, per-IP
    /// scores under the floor read as zero and reports compound from zero,
    /// which is exactly the state a purged entry leaves behind — so purging
    /// never changes any score, block decision, or future compounding
    /// relative to a ledger that kept every entry (see the eviction
    /// losslessness proptest below).
    pub fn purge_below(&mut self, floor: f64, now: SimTime) -> usize {
        self.score_floor = self.score_floor.max(floor);
        let half_life = self.half_life.as_millis() as f64;
        let mut purged = 0;
        // fg-analyze: allow(shard-discipline): full-sweep maintenance — decay-and-purge walks every shard
        for shard in self.evidence.shards_mut() {
            let before = shard.len();
            shard.retain(|_, e| {
                let elapsed = now.saturating_since(e.updated).as_millis() as f64;
                e.score * 0.5_f64.powf(elapsed / half_life) >= floor
            });
            purged += before - shard.len();
        }
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ledger() -> ReputationLedger {
        ReputationLedger::new(SimDuration::from_hours(12), 3.0, 10.0)
    }

    #[test]
    fn evidence_accumulates_to_block() {
        let mut l = ledger();
        let ip = IpAddress::from_octets(10, 1, 1, 1);
        l.report(ip, 1.0, SimTime::ZERO);
        l.report(ip, 1.0, SimTime::from_mins(1));
        assert!(!l.is_blocked(ip, SimTime::from_mins(1)));
        l.report(ip, 1.5, SimTime::from_mins(2));
        assert!(l.is_blocked(ip, SimTime::from_mins(2)));
    }

    #[test]
    fn evidence_decays_with_half_life() {
        let mut l = ledger();
        let ip = IpAddress::from_octets(10, 1, 1, 2);
        l.report(ip, 4.0, SimTime::ZERO);
        assert!(l.is_blocked(ip, SimTime::ZERO));
        let after_one_half_life = SimTime::ZERO + SimDuration::from_hours(12);
        assert!((l.score(ip, after_one_half_life) - 2.0).abs() < 1e-9);
        assert!(!l.is_blocked(ip, after_one_half_life));
    }

    #[test]
    fn subnet_aggregation_catches_spread_abuse() {
        let mut l = ledger();
        // 11 different exits in one /24, each individually under threshold.
        for host in 1..=11u8 {
            let ip = IpAddress::from_octets(10, 2, 3, host);
            l.report(ip, 1.0, SimTime::ZERO);
            assert!(!l.is_blocked(ip, SimTime::ZERO));
        }
        let probe = IpAddress::from_octets(10, 2, 3, 200);
        assert!(l.is_subnet_blocked(probe, SimTime::ZERO));
        assert!(l.is_denied(probe, SimTime::ZERO));
        // A different /24 is unaffected.
        assert!(!l.is_subnet_blocked(IpAddress::from_octets(10, 2, 4, 1), SimTime::ZERO));
    }

    #[test]
    fn backdated_report_keeps_the_reputation_it_finds() {
        let mut l = ledger();
        let ip = IpAddress::from_octets(10, 7, 7, 7);
        let day30 = SimTime::from_days(30);
        l.report(ip, 20.0, day30);
        l.report(ip, 0.0, SimTime::ZERO);
        assert_eq!(l.score(ip, day30), 20.0);
        assert!(l.is_blocked(ip, day30));
        assert!(l.is_subnet_blocked(ip, day30));

        // A backdated weight counts decayed by its lag, as in order.
        let late = IpAddress::from_octets(10, 7, 8, 1);
        l.report(late, 4.0, SimTime::from_hours(12));
        l.report(late, 4.0, SimTime::ZERO);
        assert!((l.score(late, SimTime::from_hours(12)) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn negative_weights_ignored() {
        let mut l = ledger();
        let ip = IpAddress::from_octets(10, 9, 9, 9);
        l.report(ip, -5.0, SimTime::ZERO);
        assert_eq!(l.score(ip, SimTime::ZERO), 0.0);
    }

    #[test]
    fn purge_removes_stale_entries() {
        let mut l = ledger();
        let a = IpAddress::from_octets(10, 0, 0, 1);
        let b = IpAddress::from_octets(10, 0, 0, 2);
        l.report(a, 0.1, SimTime::ZERO);
        l.report(b, 8.0, SimTime::ZERO);
        let purged = l.purge_below(0.5, SimTime::ZERO + SimDuration::from_hours(24));
        assert_eq!(purged, 1);
        assert_eq!(l.tracked(), 1);
        assert!(l.score(b, SimTime::from_hours(24)) > 0.5);
    }

    #[test]
    fn report_compounds_decay_correctly() {
        // Report 4 at t0; at one half-life report 4 more: score should be 6,
        // not 8 (the first report must decay before compounding).
        let mut l = ledger();
        let ip = IpAddress::from_octets(10, 5, 5, 5);
        l.report(ip, 4.0, SimTime::ZERO);
        let t1 = SimTime::ZERO + SimDuration::from_hours(12);
        l.report(ip, 4.0, t1);
        assert!((l.score(ip, t1) - 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "half life")]
    fn zero_half_life_rejected() {
        ReputationLedger::new(SimDuration::ZERO, 1.0, 1.0);
    }

    #[test]
    fn sharded_ledger_matches_single_shard() {
        let mut sharded = ReputationLedger::with_shards(SimDuration::from_hours(12), 3.0, 10.0, 4);
        let mut flat = ledger();
        assert_eq!(sharded.shard_count(), 4);
        for step in 0..200u64 {
            let now = SimTime::from_mins(step * 7);
            let ip =
                IpAddress::from_octets(10, (step % 3) as u8, (step % 5) as u8, (step % 23) as u8);
            sharded.report(ip, 0.8, now);
            flat.report(ip, 0.8, now);
            assert_eq!(
                sharded.score(ip, now).to_bits(),
                flat.score(ip, now).to_bits()
            );
            assert_eq!(
                sharded.subnet_score(ip, now).to_bits(),
                flat.subnet_score(ip, now).to_bits()
            );
            assert_eq!(sharded.is_denied(ip, now), flat.is_denied(ip, now));
        }
        assert_eq!(sharded.tracked(), flat.tracked());
    }

    #[test]
    fn purged_ip_is_not_treated_more_generously_than_a_kept_one() {
        // The PR-2 eviction-losslessness property, extended to reputation:
        // an IP whose stale entry was purged must score exactly like an IP
        // whose entry was kept, once both report again. The purge floor
        // guarantees this by flooring sub-floor residuals to zero on both
        // paths.
        let mut purged = ledger();
        let mut kept = ledger();
        // Prime the floor on `kept` without dropping anything: an empty
        // ledger has nothing to purge, but the floor still latches.
        kept.purge_below(0.5, SimTime::ZERO);
        let ip = IpAddress::from_octets(10, 7, 7, 7);
        purged.report(ip, 2.0, SimTime::ZERO);
        kept.report(ip, 2.0, SimTime::ZERO);
        // Two half-lives later the residual (0.5) sits exactly at the
        // floor; three later (0.25) it is below.
        let stale = SimTime::ZERO + SimDuration::from_hours(36);
        assert_eq!(purged.purge_below(0.5, stale), 1);
        assert_eq!(purged.tracked(), 0);
        assert_eq!(kept.tracked(), 1);
        // Both read zero now…
        assert_eq!(
            purged.score(ip, stale).to_bits(),
            kept.score(ip, stale).to_bits()
        );
        // …and both compound the next report from zero, not from the
        // residual the purge threw away.
        let back = stale + SimDuration::from_hours(1);
        purged.report(ip, 1.0, back);
        kept.report(ip, 1.0, back);
        assert_eq!(
            purged.score(ip, back).to_bits(),
            kept.score(ip, back).to_bits()
        );
        assert_eq!(purged.is_denied(ip, back), kept.is_denied(ip, back));
    }

    proptest! {
        /// Purging never changes any observable score or block decision, no
        /// matter where purge ticks land in the report stream or how many
        /// shards the ledger has — the reputation-store analogue of the
        /// limiter's eviction-losslessness property.
        #[test]
        fn prop_purge_preserves_outcomes(
            shards in 1usize..9,
            ops in proptest::collection::vec(
                (0u8..8, 0u8..4, 0.0f64..3.0, 0u64..3_000, any::<bool>()),
                1..150,
            ),
        ) {
            const FLOOR: f64 = 0.5;
            let half_life = SimDuration::from_hours(12);
            let mut purging = ReputationLedger::with_shards(half_life, 3.0, 10.0, shards);
            let mut reference = ReputationLedger::new(half_life, 3.0, 10.0);
            // Latch the same floor on both while empty (nothing is dropped):
            // the property under test is that *purging entries* changes
            // nothing, given the same configured floor.
            purging.purge_below(FLOOR, SimTime::ZERO);
            reference.purge_below(FLOOR, SimTime::ZERO);
            let mut now = SimTime::ZERO;
            for (host, subnet, weight, dt, purge) in ops {
                now += SimDuration::from_mins(dt as i64);
                if purge {
                    purging.purge_below(FLOOR, now);
                }
                let ip = IpAddress::from_octets(10, 0, subnet, host);
                purging.report(ip, weight, now);
                reference.report(ip, weight, now);
                prop_assert_eq!(
                    purging.score(ip, now).to_bits(),
                    reference.score(ip, now).to_bits()
                );
                prop_assert_eq!(
                    purging.subnet_score(ip, now).to_bits(),
                    reference.subnet_score(ip, now).to_bits()
                );
                prop_assert_eq!(purging.is_denied(ip, now), reference.is_denied(ip, now));
            }
            prop_assert!(purging.tracked() <= reference.tracked());
        }
    }
}
