//! The SMS sending façade with full accounting.

use crate::message::{SmsKind, SmsMessage};
use crate::operators::OperatorNetwork;
use crate::rates::RateTable;
use fg_core::ids::CountryCode;
use fg_core::money::Money;
use fg_core::stats::TimeSeries;
use fg_core::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Outcome of one send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendReceipt {
    /// Whether the message was handed to the carrier.
    pub delivered: bool,
    /// Whether the contracted quota blocked this send.
    pub quota_exceeded: bool,
}

/// The application's SMS gateway.
///
/// Tracks exactly the quantities the paper's case studies report:
///
/// * per-country sent counts over time (Table I surges),
/// * per-kind counts (the §IV-C "~25 % increase in sent boarding passes"),
/// * owner spend, and attacker revenue through fraudulent carriers (§V
///   economics),
/// * contracted quota state — when pumpers exhaust it, *legitimate* sends
///   fail, the collateral damage §II-B warns about.
///
/// # Example
///
/// ```
/// use fg_smsgw::{Gateway, SmsKind, SmsMessage};
/// use fg_core::ids::{CountryCode, PhoneNumber};
/// use fg_core::time::SimTime;
///
/// let mut gw = Gateway::default_network();
/// let uz = PhoneNumber::new(CountryCode::new("UZ"), 99_111_2233);
/// gw.send(SmsMessage::new(uz, SmsKind::Otp), SimTime::ZERO);
/// assert_eq!(gw.sent_to(CountryCode::new("UZ")), 1);
/// assert!(gw.attacker_revenue().is_positive(), "UZ terminates fraudulently");
/// ```
#[derive(Clone, Debug)]
pub struct Gateway {
    rates: RateTable,
    network: OperatorNetwork,
    per_country: HashMap<CountryCode, TimeSeries>,
    per_kind: HashMap<&'static str, TimeSeries>,
    owner_cost: Money,
    attacker_revenue: Money,
    quota_per_window: Option<u64>,
    quota_window: SimDuration,
    quota_used: u64,
    quota_window_start: SimTime,
    rejected_quota: u64,
    sent_total: u64,
    metrics: Option<GatewayMetrics>,
}

/// Pre-registered telemetry handles so per-send updates stay lock-free.
#[derive(Clone, Debug)]
struct GatewayMetrics {
    telemetry: std::sync::Arc<fg_telemetry::Telemetry>,
    rejected_quota: fg_telemetry::Counter,
    owner_cost: fg_telemetry::Gauge,
    attacker_revenue: fg_telemetry::Gauge,
    /// Lazily registered per-country counters, cached so only the first
    /// send to a country touches the registry mutex.
    per_country: HashMap<CountryCode, fg_telemetry::Counter>,
}

impl Gateway {
    /// Creates a gateway over explicit rates and operator network.
    pub fn new(rates: RateTable, network: OperatorNetwork) -> Self {
        Gateway {
            rates,
            network,
            per_country: HashMap::new(),
            per_kind: HashMap::new(),
            owner_cost: Money::ZERO,
            attacker_revenue: Money::ZERO,
            quota_per_window: None,
            quota_window: SimDuration::from_days(1),
            quota_used: 0,
            quota_window_start: SimTime::ZERO,
            rejected_quota: 0,
            sent_total: 0,
            metrics: None,
        }
    }

    /// Attaches a telemetry hub; sends then maintain
    /// `fg_sms_sent_total{country=...}` counters and owner-cost /
    /// attacker-revenue gauges.
    pub fn attach_telemetry(&mut self, telemetry: std::sync::Arc<fg_telemetry::Telemetry>) {
        let registry = telemetry.metrics();
        for (name, help) in [
            ("fg_sms_sent_total", "Delivered SMS by destination country"),
            (
                "fg_sms_rejected_quota_total",
                "SMS rejected by the gateway's quota guard",
            ),
            (
                "fg_sms_owner_cost_units",
                "Cumulative SMS termination cost billed to the app owner",
            ),
            (
                "fg_sms_attacker_revenue_units",
                "Cumulative revenue-share accrued to colluding operators",
            ),
        ] {
            registry.set_help(name, help);
        }
        self.metrics = Some(GatewayMetrics {
            rejected_quota: registry.counter("fg_sms_rejected_quota_total"),
            owner_cost: registry.gauge("fg_sms_owner_cost_units"),
            attacker_revenue: registry.gauge("fg_sms_attacker_revenue_units"),
            per_country: HashMap::new(),
            telemetry,
        });
    }

    /// The default world: [`RateTable::default_world`] routed over
    /// [`OperatorNetwork::default_fraud_world`].
    pub fn default_network() -> Self {
        Gateway::new(
            RateTable::default_world(),
            OperatorNetwork::default_fraud_world(),
        )
    }

    /// Sets a contracted quota: at most `limit` messages per `window`.
    pub fn set_quota(&mut self, limit: u64, window: SimDuration) {
        assert!(window.as_millis() > 0, "quota window must be positive");
        self.quota_per_window = Some(limit);
        self.quota_window = window;
    }

    /// Mutable access to the operator network (for §V carrier mitigations).
    pub fn network_mut(&mut self) -> &mut OperatorNetwork {
        &mut self.network
    }

    /// The rate table in force.
    pub fn rates(&self) -> &RateTable {
        &self.rates
    }

    /// Sends one message at `now`, settling all the money flows.
    pub fn send(&mut self, msg: SmsMessage, now: SimTime) -> SendReceipt {
        // Roll the quota window forward.
        if let Some(limit) = self.quota_per_window {
            while now >= self.quota_window_start + self.quota_window {
                self.quota_window_start += self.quota_window;
                self.quota_used = 0;
            }
            if self.quota_used >= limit {
                self.rejected_quota += 1;
                if let Some(m) = &self.metrics {
                    m.rejected_quota.inc();
                }
                return SendReceipt {
                    delivered: false,
                    quota_exceeded: true,
                };
            }
            self.quota_used += 1;
        }

        let country = msg.to().country();
        let price = self.rates.price(country).unwrap_or(Money::ZERO);
        self.owner_cost += price;
        let (_termination, attacker) = self.network.settle(country, price);
        self.attacker_revenue += attacker;

        self.per_country
            .entry(country)
            .or_insert_with(|| TimeSeries::new(SimTime::ZERO, SimDuration::from_days(1)))
            .record(now, 1);
        self.per_kind
            .entry(msg.kind().label())
            .or_insert_with(|| TimeSeries::new(SimTime::ZERO, SimDuration::from_days(1)))
            .record(now, 1);
        self.sent_total += 1;

        if let Some(m) = &mut self.metrics {
            m.per_country
                .entry(country)
                .or_insert_with(|| {
                    m.telemetry
                        .metrics()
                        .counter_with("fg_sms_sent_total", &[("country", country.as_str())])
                })
                .inc();
            m.owner_cost.set(self.owner_cost.as_f64());
            m.attacker_revenue.set(self.attacker_revenue.as_f64());
        }

        SendReceipt {
            delivered: true,
            quota_exceeded: false,
        }
    }

    /// Total messages delivered.
    pub fn sent_total(&self) -> u64 {
        self.sent_total
    }

    /// Messages delivered to `country` across all time.
    pub fn sent_to(&self, country: CountryCode) -> u64 {
        self.per_country.get(&country).map_or(0, TimeSeries::total)
    }

    /// Messages delivered to `country` in `[from, to)`.
    pub fn sent_to_between(&self, country: CountryCode, from: SimTime, to: SimTime) -> u64 {
        self.per_country
            .get(&country)
            .map_or(0, |ts| ts.total_between(from, to))
    }

    /// Messages of `kind` delivered in `[from, to)`.
    pub fn sent_kind_between(&self, kind: SmsKind, from: SimTime, to: SimTime) -> u64 {
        self.per_kind
            .get(kind.label())
            .map_or(0, |ts| ts.total_between(from, to))
    }

    /// Per-country surge percentage between a baseline and an observation
    /// window — the Table I metric. Countries with zero baseline are skipped
    /// (no defined percentage). Sorted descending by surge.
    pub fn surge_table(
        &self,
        baseline: (SimTime, SimTime),
        window: (SimTime, SimTime),
    ) -> Vec<(CountryCode, f64)> {
        let mut rows: Vec<(CountryCode, f64)> = self
            .per_country
            .iter()
            .filter_map(|(c, ts)| ts.surge_pct(baseline, window).map(|s| (*c, s)))
            .collect();
        rows.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("surges are finite")
                .then(a.0.cmp(&b.0))
        });
        rows
    }

    /// Number of countries that received at least one message in `[from, to)`
    /// — the §IV-C "42 different countries" statistic.
    pub fn countries_reached_between(&self, from: SimTime, to: SimTime) -> usize {
        self.per_country
            .values()
            .filter(|ts| ts.total_between(from, to) > 0)
            .count()
    }

    /// What the application owner has paid so far.
    pub fn owner_cost(&self) -> Money {
        self.owner_cost
    }

    /// What fraudulent carriers have kicked back to the attacker so far.
    pub fn attacker_revenue(&self) -> Money {
        self.attacker_revenue
    }

    /// Sends rejected by the quota so far.
    pub fn rejected_by_quota(&self) -> u64 {
        self.rejected_quota
    }
}

impl Default for Gateway {
    fn default() -> Self {
        Gateway::default_network()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::ids::PhoneNumber;

    fn number(code: &str, n: u64) -> PhoneNumber {
        PhoneNumber::new(CountryCode::new(code), n)
    }

    #[test]
    fn accounting_accumulates() {
        let mut gw = Gateway::default_network();
        for i in 0..10 {
            gw.send(
                SmsMessage::new(number("GB", i), SmsKind::Otp),
                SimTime::ZERO,
            );
        }
        assert_eq!(gw.sent_total(), 10);
        assert_eq!(gw.sent_to(CountryCode::new("GB")), 10);
        assert_eq!(gw.owner_cost(), Money::from_cents(40)); // 10 × 4¢
        assert_eq!(gw.attacker_revenue(), Money::ZERO, "GB is legit");
    }

    #[test]
    fn fraudulent_destination_pays_the_attacker() {
        let mut gw = Gateway::default_network();
        gw.send(
            SmsMessage::new(number("UZ", 1), SmsKind::Otp),
            SimTime::ZERO,
        );
        // 28¢ × 70% termination × 60% kickback = 11.76¢
        assert_eq!(gw.attacker_revenue(), Money::from_micros(117_600));
        assert!(gw.attacker_revenue() < gw.owner_cost());
    }

    #[test]
    fn telemetry_tracks_countries_and_money_flows() {
        let telemetry = fg_telemetry::Telemetry::shared();
        let mut gw = Gateway::default_network();
        gw.attach_telemetry(telemetry.clone());
        gw.set_quota(3, SimDuration::from_days(1));
        for i in 0..3 {
            gw.send(
                SmsMessage::new(number("UZ", i), SmsKind::Otp),
                SimTime::ZERO,
            );
        }
        gw.send(
            SmsMessage::new(number("GB", 9), SmsKind::Otp),
            SimTime::ZERO,
        );

        let snap = telemetry.snapshot().metrics;
        assert_eq!(
            snap.counter_value("fg_sms_sent_total", &[("country", "UZ")]),
            Some(3)
        );
        // The fourth send tripped the quota before reaching GB.
        assert_eq!(
            snap.counter_value("fg_sms_sent_total", &[("country", "GB")]),
            None
        );
        assert_eq!(
            snap.counter_value("fg_sms_rejected_quota_total", &[]),
            Some(1)
        );
        assert!(
            (snap.gauge_value("fg_sms_owner_cost_units", &[]).unwrap() - gw.owner_cost().as_f64())
                .abs()
                < 1e-12
        );
        assert!(
            (snap
                .gauge_value("fg_sms_attacker_revenue_units", &[])
                .unwrap()
                - gw.attacker_revenue().as_f64())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn quota_blocks_after_limit_and_rolls_over() {
        let mut gw = Gateway::default_network();
        gw.set_quota(3, SimDuration::from_days(1));
        for i in 0..5 {
            let r = gw.send(
                SmsMessage::new(number("FR", i), SmsKind::Otp),
                SimTime::from_hours(i),
            );
            assert_eq!(r.delivered, i < 3, "send {i}");
        }
        assert_eq!(gw.rejected_by_quota(), 2);
        // Next day the window resets.
        let r = gw.send(
            SmsMessage::new(number("FR", 9), SmsKind::Otp),
            SimTime::from_hours(25),
        );
        assert!(r.delivered);
        assert!(!r.quota_exceeded);
    }

    #[test]
    fn quota_rollover_skips_idle_windows() {
        let mut gw = Gateway::default_network();
        gw.set_quota(1, SimDuration::from_days(1));
        gw.send(
            SmsMessage::new(number("DE", 1), SmsKind::Otp),
            SimTime::ZERO,
        );
        // Five days idle; the window must have rolled, not require five sends.
        let r = gw.send(
            SmsMessage::new(number("DE", 2), SmsKind::Otp),
            SimTime::from_days(5),
        );
        assert!(r.delivered);
    }

    #[test]
    fn surge_table_ranks_attacked_countries_first() {
        let mut gw = Gateway::default_network();
        // Baseline week: 10 SMS each to UZ and GB.
        for d in 0..5 {
            for i in 0..2 {
                gw.send(
                    SmsMessage::new(number("UZ", i), SmsKind::Otp),
                    SimTime::from_days(d),
                );
                gw.send(
                    SmsMessage::new(number("GB", i), SmsKind::Otp),
                    SimTime::from_days(d),
                );
            }
        }
        // Attack week: 500 to UZ, 12 to GB.
        for i in 0..500u64 {
            gw.send(
                SmsMessage::new(number("UZ", i), SmsKind::Otp),
                SimTime::from_days(7),
            );
        }
        for i in 0..12u64 {
            gw.send(
                SmsMessage::new(number("GB", i), SmsKind::Otp),
                SimTime::from_days(7),
            );
        }
        let table = gw.surge_table(
            (SimTime::ZERO, SimTime::from_weeks(1)),
            (SimTime::from_weeks(1), SimTime::from_weeks(2)),
        );
        assert_eq!(table[0].0, CountryCode::new("UZ"));
        assert!((table[0].1 - 4900.0).abs() < 1.0, "UZ surge {}", table[0].1);
        assert_eq!(table[1].0, CountryCode::new("GB"));
        assert!((table[1].1 - 20.0).abs() < 1.0, "GB surge {}", table[1].1);
    }

    #[test]
    fn countries_reached_counts_distinct() {
        let mut gw = Gateway::default_network();
        for code in ["UZ", "IR", "KG", "JO"] {
            gw.send(
                SmsMessage::new(number(code, 5), SmsKind::Otp),
                SimTime::from_days(8),
            );
        }
        assert_eq!(
            gw.countries_reached_between(SimTime::from_weeks(1), SimTime::from_weeks(2)),
            4
        );
        assert_eq!(
            gw.countries_reached_between(SimTime::ZERO, SimTime::from_weeks(1)),
            0
        );
    }

    #[test]
    fn per_kind_accounting() {
        let mut gw = Gateway::default_network();
        let bp = SmsKind::BoardingPass(fg_core::ids::BookingRef::from_index(0));
        gw.send(SmsMessage::new(number("TH", 1), bp), SimTime::ZERO);
        gw.send(
            SmsMessage::new(number("TH", 1), SmsKind::Otp),
            SimTime::ZERO,
        );
        assert_eq!(
            gw.sent_kind_between(bp, SimTime::ZERO, SimTime::from_days(1)),
            1
        );
        assert_eq!(
            gw.sent_kind_between(SmsKind::Otp, SimTime::ZERO, SimTime::from_days(1)),
            1
        );
    }

    #[test]
    fn deregistering_carrier_stops_revenue_mid_run() {
        let mut gw = Gateway::default_network();
        gw.send(
            SmsMessage::new(number("UZ", 1), SmsKind::Otp),
            SimTime::ZERO,
        );
        let before = gw.attacker_revenue();
        gw.network_mut()
            .deregister_fraudulent(CountryCode::new("UZ"));
        gw.send(
            SmsMessage::new(number("UZ", 1), SmsKind::Otp),
            SimTime::ZERO,
        );
        assert_eq!(gw.attacker_revenue(), before);
    }
}
