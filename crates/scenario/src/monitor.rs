//! Passive measurement agents.

use fg_behavior::api::{Agent, App};
use fg_core::ids::FlightId;
use fg_core::time::{SimDuration, SimTime};
use fg_inventory::flight::Availability;
use rand::rngs::StdRng;

/// Samples one flight's seat ledger on a fixed cadence — the measurement
/// behind "held seats over time" curves and the DoI harm metric (mean hold
/// ratio).
///
/// # Example
///
/// ```no_run
/// use fg_scenario::monitor::HoldMonitor;
/// use fg_scenario::engine::share;
/// use fg_core::ids::FlightId;
/// use fg_core::time::{SimDuration, SimTime};
///
/// let (handle, agent) = share(HoldMonitor::new(
///     FlightId(1),
///     SimDuration::from_hours(1),
///     SimTime::from_weeks(3),
/// ));
/// // sim.add_agent(agent, SimTime::ZERO); … after run:
/// // handle.borrow().mean_hold_ratio()
/// # let _ = (handle, agent);
/// ```
#[derive(Debug)]
pub struct HoldMonitor {
    flight: FlightId,
    interval: SimDuration,
    end: SimTime,
    samples: Vec<(SimTime, Availability)>,
    label: String,
}

impl HoldMonitor {
    /// Creates a monitor sampling `flight` every `interval` until `end`.
    pub fn new(flight: FlightId, interval: SimDuration, end: SimTime) -> Self {
        HoldMonitor {
            flight,
            interval,
            end,
            samples: Vec::new(),
            label: "hold-monitor".to_owned(),
        }
    }

    /// Mean fraction of capacity locked in holds across all samples.
    pub fn mean_hold_ratio(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|(_, a)| a.hold_ratio())
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Mean hold ratio within a window `[from, to)`.
    pub fn mean_hold_ratio_between(&self, from: SimTime, to: SimTime) -> f64 {
        let window: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, a)| a.hold_ratio())
            .collect();
        if window.is_empty() {
            0.0
        } else {
            window.iter().sum::<f64>() / window.len() as f64
        }
    }
}

impl Agent for HoldMonitor {
    fn wake(&mut self, app: &mut dyn App, now: SimTime, _rng: &mut StdRng) -> Option<SimTime> {
        if now > self.end {
            return None;
        }
        if let Some(a) = app.availability(self.flight) {
            self.samples.push((now, a));
        }
        Some(now + self.interval)
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_over_synthetic_samples() {
        let mut m = HoldMonitor::new(
            FlightId(1),
            SimDuration::from_hours(1),
            SimTime::from_days(1),
        );
        m.samples = vec![
            (
                SimTime::from_hours(1),
                Availability {
                    available: 50,
                    held: 50,
                    sold: 0,
                },
            ),
            (
                SimTime::from_hours(2),
                Availability {
                    available: 100,
                    held: 0,
                    sold: 0,
                },
            ),
        ];
        assert!((m.mean_hold_ratio() - 0.25).abs() < 1e-12);
        assert!(
            (m.mean_hold_ratio_between(SimTime::from_hours(2), SimTime::from_hours(3)) - 0.0).abs()
                < 1e-12
        );
        assert_eq!(m.samples.len(), 2);
    }

    #[test]
    fn empty_monitor_is_zero() {
        let m = HoldMonitor::new(
            FlightId(1),
            SimDuration::from_hours(1),
            SimTime::from_days(1),
        );
        assert_eq!(m.mean_hold_ratio(), 0.0);
    }
}
