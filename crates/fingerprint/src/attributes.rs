//! The fingerprint attribute tuple.
//!
//! The attribute set mirrors what real anti-bot vendors collect (§III-B of
//! the paper): navigator properties, screen geometry, rendering hashes, and
//! instrumentation artifacts. Hashes are modelled as opaque `u64` classes —
//! detection operates on equality/population frequency, never on real pixel
//! bytes, so this loses nothing relevant.

use fg_core::rng::splitmix64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Browser product family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BrowserFamily {
    Chrome,
    Firefox,
    Safari,
    Edge,
    SamsungInternet,
    /// An instrumentation framework that did not bother to disguise itself
    /// (HeadlessChrome UA string, PhantomJS, …).
    HeadlessChrome,
}

impl BrowserFamily {
    /// All families, for iteration in samplers and entropy calculations.
    pub const ALL: [BrowserFamily; 6] = [
        BrowserFamily::Chrome,
        BrowserFamily::Firefox,
        BrowserFamily::Safari,
        BrowserFamily::Edge,
        BrowserFamily::SamsungInternet,
        BrowserFamily::HeadlessChrome,
    ];
}

impl fmt::Display for BrowserFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BrowserFamily::Chrome => "Chrome",
            BrowserFamily::Firefox => "Firefox",
            BrowserFamily::Safari => "Safari",
            BrowserFamily::Edge => "Edge",
            BrowserFamily::SamsungInternet => "SamsungInternet",
            BrowserFamily::HeadlessChrome => "HeadlessChrome",
        };
        f.write_str(s)
    }
}

/// Operating system family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum OsFamily {
    Windows,
    MacOs,
    Linux,
    Android,
    Ios,
}

impl OsFamily {
    /// All families, for iteration.
    pub const ALL: [OsFamily; 5] = [
        OsFamily::Windows,
        OsFamily::MacOs,
        OsFamily::Linux,
        OsFamily::Android,
        OsFamily::Ios,
    ];

    /// `true` for phone/tablet operating systems.
    pub const fn is_mobile(self) -> bool {
        matches!(self, OsFamily::Android | OsFamily::Ios)
    }

    /// The `navigator.platform` string a genuine browser reports on this OS.
    pub const fn platform_string(self) -> &'static str {
        match self {
            OsFamily::Windows => "Win32",
            OsFamily::MacOs => "MacIntel",
            OsFamily::Linux => "Linux x86_64",
            OsFamily::Android => "Linux armv8l",
            OsFamily::Ios => "iPhone",
        }
    }
}

impl fmt::Display for OsFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OsFamily::Windows => "Windows",
            OsFamily::MacOs => "macOS",
            OsFamily::Linux => "Linux",
            OsFamily::Android => "Android",
            OsFamily::Ios => "iOS",
        };
        f.write_str(s)
    }
}

/// Screen geometry in CSS pixels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ScreenResolution {
    /// Width in CSS pixels.
    pub width: u32,
    /// Height in CSS pixels.
    pub height: u32,
}

impl ScreenResolution {
    /// Creates a resolution.
    pub const fn new(width: u32, height: u32) -> Self {
        ScreenResolution { width, height }
    }

    /// `true` for portrait-oriented screens (height > width), the norm on
    /// phones and an inconsistency signal on desktop OSes.
    pub const fn is_portrait(self) -> bool {
        self.height > self.width
    }
}

impl fmt::Display for ScreenResolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// A full client fingerprint as collected by the defence's JavaScript probe.
///
/// Equality of two `Fingerprint` values means "indistinguishable to the
/// defender". [`Fingerprint::identity_hash`] condenses the tuple into the
/// 64-bit identity key used by block-lists.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Browser product family.
    pub browser: BrowserFamily,
    /// Browser major version.
    pub browser_version: u16,
    /// Operating system family.
    pub os: OsFamily,
    /// `navigator.platform` as reported by the client (spoofable!).
    pub platform: String,
    /// Screen geometry.
    pub screen: ScreenResolution,
    /// Primary language tag, e.g. `en-US`.
    pub language: String,
    /// IANA-style timezone offset in minutes east of UTC.
    pub timezone_offset_min: i16,
    /// `navigator.hardwareConcurrency`.
    pub hardware_concurrency: u8,
    /// `navigator.deviceMemory` in GiB.
    pub device_memory_gb: u8,
    /// Canvas rendering hash class.
    pub canvas_hash: u64,
    /// WebGL renderer hash class.
    pub webgl_hash: u64,
    /// AudioContext hash class.
    pub audio_hash: u64,
    /// Number of plugins exposed by `navigator.plugins`.
    pub plugin_count: u8,
    /// Whether touch events are supported.
    pub touch_support: bool,
    /// Whether `navigator.webdriver` is `true` (instrumentation artifact).
    pub webdriver: bool,
    /// Screen color depth in bits.
    pub color_depth: u8,
}

impl Fingerprint {
    /// A 64-bit identity key over the identity-relevant attributes.
    ///
    /// Two clients with the same identity hash are the same "identity" from
    /// the defender's perspective; rotating any identity-relevant attribute
    /// changes the hash.
    pub fn identity_hash(&self) -> u64 {
        let mut h = splitmix64(self.browser as u64 ^ (u64::from(self.browser_version) << 8));
        h = splitmix64(h ^ self.os as u64);
        for &b in self.platform.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ (u64::from(self.screen.width) << 32 | u64::from(self.screen.height)));
        for &b in self.language.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ (self.timezone_offset_min as u64));
        h = splitmix64(h ^ u64::from(self.hardware_concurrency));
        h = splitmix64(h ^ u64::from(self.device_memory_gb));
        h = splitmix64(h ^ self.canvas_hash);
        h = splitmix64(h ^ self.webgl_hash);
        h = splitmix64(h ^ self.audio_hash);
        h = splitmix64(h ^ u64::from(self.plugin_count));
        h = splitmix64(h ^ (u64::from(self.touch_support) << 1 | u64::from(self.webdriver)));
        splitmix64(h ^ u64::from(self.color_depth))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} on {} ({}, {}, tz{:+})",
            self.browser,
            self.browser_version,
            self.os,
            self.screen,
            self.language,
            self.timezone_offset_min
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            browser: BrowserFamily::Chrome,
            browser_version: 120,
            os: OsFamily::Windows,
            platform: "Win32".into(),
            screen: ScreenResolution::new(1920, 1080),
            language: "en-US".into(),
            timezone_offset_min: -300,
            hardware_concurrency: 8,
            device_memory_gb: 16,
            canvas_hash: 0xAB,
            webgl_hash: 0xCD,
            audio_hash: 0xEF,
            plugin_count: 3,
            touch_support: false,
            webdriver: false,
            color_depth: 24,
        }
    }

    #[test]
    fn identity_hash_stable_and_sensitive() {
        let fp = sample();
        assert_eq!(fp.identity_hash(), sample().identity_hash());
        for mutate in [
            |f: &mut Fingerprint| f.browser_version += 1,
            |f: &mut Fingerprint| f.screen = ScreenResolution::new(1366, 768),
            |f: &mut Fingerprint| f.canvas_hash ^= 1,
            |f: &mut Fingerprint| f.language = "fr-FR".into(),
            |f: &mut Fingerprint| f.timezone_offset_min = 60,
            |f: &mut Fingerprint| f.webdriver = true,
        ] {
            let mut m = sample();
            mutate(&mut m);
            assert_ne!(m.identity_hash(), fp.identity_hash());
        }
    }

    #[test]
    fn mobile_detection() {
        assert!(OsFamily::Android.is_mobile());
        assert!(OsFamily::Ios.is_mobile());
        assert!(!OsFamily::Windows.is_mobile());
    }

    #[test]
    fn platform_strings_distinct_per_os() {
        let mut seen: Vec<&str> = OsFamily::ALL.iter().map(|o| o.platform_string()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), OsFamily::ALL.len());
    }

    #[test]
    fn portrait_detection() {
        assert!(ScreenResolution::new(390, 844).is_portrait());
        assert!(!ScreenResolution::new(1920, 1080).is_portrait());
    }

    #[test]
    fn display_is_informative() {
        let s = sample().to_string();
        assert!(s.contains("Chrome 120"));
        assert!(s.contains("1920x1080"));
    }
}
