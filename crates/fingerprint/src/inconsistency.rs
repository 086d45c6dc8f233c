//! fp-inconsistent-style integrity checks.
//!
//! When a bot rotates attributes independently (rather than sampling whole
//! consistent device profiles), the resulting tuple contains contradictions a
//! genuine browser cannot produce. This module codifies the checks referenced
//! in the paper's §III-B (ref \[51\]): platform/OS mismatch, touch support on
//! the wrong device class, implausible rendering hashes, instrumentation
//! artifacts, and impossible hardware values.

use crate::attributes::{BrowserFamily, Fingerprint, OsFamily};
use crate::population::{plausible_canvas, webgl_class};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One detected contradiction inside a fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Inconsistency {
    /// `navigator.webdriver` is set — a direct instrumentation artifact.
    WebdriverFlag,
    /// The UA announces a headless browser.
    HeadlessUserAgent,
    /// `navigator.platform` contradicts the OS implied by the UA.
    PlatformOsMismatch,
    /// Touch support reported on a desktop OS, or missing on mobile.
    TouchMismatch,
    /// Canvas hash is not plausible for this (browser, OS) pair.
    ImplausibleCanvas,
    /// WebGL hash is not plausible for this OS.
    ImplausibleWebgl,
    /// `hardwareConcurrency` of zero — genuine browsers report ≥ 1.
    ZeroConcurrency,
    /// Landscape phone screen or portrait desktop screen.
    ScreenOrientationMismatch,
    /// Safari reported on a non-Apple OS.
    SafariOffApple,
    /// Plugins reported on a mobile browser (mobile browsers expose none).
    MobilePlugins,
}

impl fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Inconsistency::WebdriverFlag => "navigator.webdriver is true",
            Inconsistency::HeadlessUserAgent => "user agent announces a headless browser",
            Inconsistency::PlatformOsMismatch => "navigator.platform contradicts the OS",
            Inconsistency::TouchMismatch => "touch support contradicts the device class",
            Inconsistency::ImplausibleCanvas => "canvas hash implausible for browser/OS",
            Inconsistency::ImplausibleWebgl => "webgl hash implausible for OS",
            Inconsistency::ZeroConcurrency => "hardwareConcurrency is zero",
            Inconsistency::ScreenOrientationMismatch => "screen orientation contradicts device",
            Inconsistency::SafariOffApple => "Safari reported on a non-Apple OS",
            Inconsistency::MobilePlugins => "plugins reported on a mobile browser",
        };
        f.write_str(s)
    }
}

/// The result of running every consistency check against one fingerprint.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsistencyReport {
    findings: Vec<Inconsistency>,
}

impl ConsistencyReport {
    /// `true` if no check fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// A suspicion score in `0.0..=1.0`: 0 for clean, saturating with the
    /// number of findings. Hard artifacts (webdriver / headless UA) alone
    /// push the score to 1.0.
    pub fn suspicion(&self) -> f64 {
        if self.findings.iter().any(|f| {
            matches!(
                f,
                Inconsistency::WebdriverFlag | Inconsistency::HeadlessUserAgent
            )
        }) {
            return 1.0;
        }
        (self.findings.len() as f64 * 0.34).min(1.0)
    }
}

/// Runs every consistency check against `fp`.
///
/// # Example
///
/// ```
/// use fg_fingerprint::population::PopulationModel;
/// use fg_fingerprint::inconsistency::consistency_report;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut fp = PopulationModel::default_web().sample_human(&mut rng);
/// fp.webdriver = true;
/// let report = consistency_report(&fp);
/// assert!(!report.is_clean());
/// assert_eq!(report.suspicion(), 1.0);
/// ```
pub fn consistency_report(fp: &Fingerprint) -> ConsistencyReport {
    let mut findings = Vec::new();

    if fp.webdriver {
        findings.push(Inconsistency::WebdriverFlag);
    }
    if fp.browser == BrowserFamily::HeadlessChrome {
        findings.push(Inconsistency::HeadlessUserAgent);
    }
    if fp.platform != fp.os.platform_string() {
        findings.push(Inconsistency::PlatformOsMismatch);
    }
    if fp.touch_support != fp.os.is_mobile() {
        findings.push(Inconsistency::TouchMismatch);
    }
    if fp.browser != BrowserFamily::HeadlessChrome
        && !plausible_canvas(fp.browser, fp.os, fp.canvas_hash)
    {
        findings.push(Inconsistency::ImplausibleCanvas);
    }
    if !(0..8).any(|v| webgl_class(fp.os, v) == fp.webgl_hash) {
        findings.push(Inconsistency::ImplausibleWebgl);
    }
    if fp.hardware_concurrency == 0 {
        findings.push(Inconsistency::ZeroConcurrency);
    }
    if fp.os.is_mobile() != fp.screen.is_portrait() {
        findings.push(Inconsistency::ScreenOrientationMismatch);
    }
    if fp.browser == BrowserFamily::Safari && !matches!(fp.os, OsFamily::MacOs | OsFamily::Ios) {
        findings.push(Inconsistency::SafariOffApple);
    }
    if fp.os.is_mobile() && fp.plugin_count > 0 {
        findings.push(Inconsistency::MobilePlugins);
    }

    ConsistencyReport { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn human() -> Fingerprint {
        PopulationModel::default_web().sample_human(&mut StdRng::seed_from_u64(10))
    }

    #[test]
    fn clean_human_has_zero_suspicion() {
        let r = consistency_report(&human());
        assert!(r.is_clean());
        assert_eq!(r.suspicion(), 0.0);
    }

    #[test]
    fn each_check_fires_on_its_trigger() {
        let mut fp = human();
        fp.webdriver = true;
        assert!(consistency_report(&fp)
            .findings
            .contains(&Inconsistency::WebdriverFlag));

        let mut fp = human();
        fp.platform = "Atari".into();
        assert!(consistency_report(&fp)
            .findings
            .contains(&Inconsistency::PlatformOsMismatch));

        let mut fp = human();
        fp.touch_support = !fp.touch_support;
        assert!(consistency_report(&fp)
            .findings
            .contains(&Inconsistency::TouchMismatch));

        let mut fp = human();
        fp.canvas_hash = 12345;
        assert!(consistency_report(&fp)
            .findings
            .contains(&Inconsistency::ImplausibleCanvas));

        let mut fp = human();
        fp.webgl_hash = 999;
        assert!(consistency_report(&fp)
            .findings
            .contains(&Inconsistency::ImplausibleWebgl));

        let mut fp = human();
        fp.hardware_concurrency = 0;
        assert!(consistency_report(&fp)
            .findings
            .contains(&Inconsistency::ZeroConcurrency));
    }

    #[test]
    fn headless_ua_is_hard_artifact() {
        let mut fp = human();
        fp.browser = BrowserFamily::HeadlessChrome;
        let r = consistency_report(&fp);
        assert!(r.findings.contains(&Inconsistency::HeadlessUserAgent));
        assert_eq!(r.suspicion(), 1.0);
    }

    #[test]
    fn safari_on_windows_flagged() {
        let mut fp = human();
        fp.browser = BrowserFamily::Safari;
        fp.os = OsFamily::Windows;
        fp.platform = OsFamily::Windows.platform_string().into();
        let r = consistency_report(&fp);
        assert!(r.findings.contains(&Inconsistency::SafariOffApple));
    }

    #[test]
    fn suspicion_saturates_at_one() {
        let mut fp = human();
        fp.platform = "x".into();
        fp.touch_support = !fp.touch_support;
        fp.canvas_hash = 1;
        fp.webgl_hash = 1;
        fp.hardware_concurrency = 0;
        let r = consistency_report(&fp);
        assert!(r.findings.len() >= 4);
        assert_eq!(r.suspicion(), 1.0);
    }

    #[test]
    fn soft_findings_scale_suspicion() {
        let mut fp = human();
        fp.hardware_concurrency = 0;
        let r = consistency_report(&fp);
        assert_eq!(r.findings.len(), 1);
        assert!(r.suspicion() > 0.3 && r.suspicion() < 0.4);
    }
}
