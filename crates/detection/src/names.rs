//! Passenger-name abuse heuristics — the §IV-B detectors.
//!
//! The case studies show four distinct name-level signatures:
//!
//! 1. **Gibberish names** — "entirely random entries (e.g., Name: affjgdui,
//!    Surname: ddfjrei)" → [`gibberish_score`].
//! 2. **Repeated names across bookings** → [`RepetitionTracker`].
//! 3. **Fixed name + systematically rotating birthdate** (Airline B,
//!    automated) → [`BirthdateRotationDetector`].
//! 4. **A fixed set of names permuted across bookings, with occasional
//!    misspellings** (Airline C, manual) → [`PermutationSetDetector`] and
//!    [`misspelling_clusters`].
//!
//! [`NameAbuseAnalyzer`] runs all of them over a booking stream and issues a
//! combined report distinguishing automated from manual abuse.

use fg_core::hash::{FxHashMap, FxHashSet};
use fg_inventory::passenger::Passenger;
use serde::{Deserialize, Serialize};

/// Common English/name letter bigrams used by the gibberish detector.
const COMMON_BIGRAMS: &[&str] = &[
    "th", "he", "in", "er", "an", "re", "nd", "at", "on", "nt", "ha", "es", "st", "en", "ed", "to",
    "it", "ou", "ea", "hi", "is", "or", "ti", "as", "te", "et", "ng", "of", "al", "de", "se", "le",
    "sa", "si", "ar", "ve", "ra", "ld", "ur", "li", "ri", "io", "ne", "ma", "el", "la", "ta", "ro",
    "ia", "ic", "ll", "na", "be", "ch", "am", "ca", "om", "ab", "da", "no", "ni", "us", "os", "ir",
    "ol", "ad", "lo", "do", "mi", "co", "me", "ac", "em", "um", "jo", "oh", "ja", "ju", "so", "su",
    "mo", "wi", "wa", "sh", "ke", "ko", "ki", "pa", "pe", "po", "ba", "bo", "bi", "du", "di", "ga",
    "go", "gi", "fa", "fe", "fr", "ge", "gr", "tr", "br", "ck", "ce", "ci", "ss", "tt", "nn", "mm",
    "ee", "oo", "ff", "ey", "ay", "oy", "ye", "ya", "yo", "va", "vi", "vo", "za", "ze", "zi", "ex",
    "ax", "ui", "ua", "ue", "af", "ev", "iv", "ov", "av", "ph", "gh", "wh", "qu", "ly", "ry", "ny",
    "my", "ty", "sy", "by", "dy", "we", "ei", "pr", "sc", "hm", "id", "dt", "mp", "ps", "ow", "ls",
    "sk", "nm", "rs", "ns", "hn", "aj", "fi", "ub", "oi", "uk", "yu", "iy",
];

/// `COMMON_BIGRAMS` as a 26×26 adjacency bitmask: bit `j` of `BIGRAM_BITS[i]`
/// is set when the bigram (letter `i`, letter `j`) is common. Built at
/// compile time so the per-bigram test is one shift-and-mask instead of a
/// linear scan over 170 strings.
const BIGRAM_BITS: [u32; 26] = {
    let mut bits = [0u32; 26];
    let mut k = 0;
    while k < COMMON_BIGRAMS.len() {
        let bg = COMMON_BIGRAMS[k].as_bytes();
        bits[(bg[0] - b'a') as usize] |= 1 << (bg[1] - b'a');
        k += 1;
    }
    bits
};

fn is_vowel(c: u8) -> bool {
    matches!(c, b'a' | b'e' | b'i' | b'o' | b'u' | b'y')
}

/// Scores how gibberish-like a single name is, in `0.0..=1.0`.
///
/// Combines three signals: the fraction of letter bigrams absent from a
/// common-bigram table, the longest consonant run, and deviation of the vowel
/// ratio from natural-language norms. Keyboard-mash strings score high;
/// real names across languages score low.
///
/// # Example
///
/// ```
/// use fg_detection::names::gibberish_score;
///
/// assert!(gibberish_score("ddfjrei") > 0.5);
/// assert!(gibberish_score("Martinez") < 0.5);
/// ```
pub fn gibberish_score(name: &str) -> f64 {
    // One allocation-free pass over the bytes. Multi-byte UTF-8 sequences
    // contain no ASCII-alphabetic bytes, so byte filtering matches the
    // char-level definition exactly.
    let mut len = 0usize;
    let mut vowels = 0usize;
    let mut rare = 0usize;
    let mut total = 0usize;
    let mut prev: Option<u8> = None;
    let mut run = 0usize;
    let mut max_run = 0usize;
    for &b in name.as_bytes() {
        if !b.is_ascii_alphabetic() {
            continue;
        }
        let c = b | 0x20; // ASCII lowercase
        len += 1;

        // Rare-bigram count via the compile-time adjacency mask.
        if let Some(p) = prev {
            total += 1;
            if BIGRAM_BITS[(p - b'a') as usize] >> (c - b'a') & 1 == 0 {
                rare += 1;
            }
        }
        prev = Some(c);

        // Longest consonant run. 'h' is neutral: it rides inside common
        // digraphs (ch/sh/th/schm-) without making a name unpronounceable.
        if is_vowel(c) {
            vowels += 1;
            run = 0;
        } else if c != b'h' {
            run += 1;
            max_run = max_run.max(run);
        }
    }
    if len < 4 {
        return 0.3; // too short to judge
    }

    let rare_frac = rare as f64 / total as f64;
    let run_penalty = ((max_run as f64 - 2.0) / 3.0).clamp(0.0, 1.0);
    let vowel_penalty = ((vowels as f64 / len as f64 - 0.4).abs() / 0.4).clamp(0.0, 1.0);

    (0.45 * rare_frac + 0.35 * run_penalty + 0.2 * vowel_penalty).clamp(0.0, 1.0)
}

/// Levenshtein edit distance between two strings.
///
/// # Example
///
/// ```
/// use fg_detection::names::levenshtein;
///
/// assert_eq!(levenshtein("SMITH", "SMYTH"), 1);
/// assert_eq!(levenshtein("", "ABC"), 3);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        return levenshtein_units(a.as_bytes(), b.as_bytes());
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_units(&a, &b)
}

/// Single-row DP over comparable units (bytes for ASCII, chars otherwise),
/// after trimming the common prefix and suffix. Distances stay small for
/// name-length inputs, so the row lives in a stack buffer.
fn levenshtein_units<'s, T: PartialEq + Copy>(mut a: &'s [T], mut b: &'s [T]) -> usize {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    a = &a[prefix..];
    b = &b[prefix..];
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    a = &a[..a.len() - suffix];
    b = &b[..b.len() - suffix];
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // The distance is symmetric; keep the DP row on the shorter side.
    if b.len() > a.len() {
        std::mem::swap(&mut a, &mut b);
    }

    const STACK_ROW: usize = 48;
    let mut stack = [0u32; STACK_ROW];
    let mut heap;
    let row: &mut [u32] = if b.len() < STACK_ROW {
        &mut stack[..=b.len()]
    } else {
        heap = vec![0u32; b.len() + 1];
        &mut heap
    };
    for (j, cell) in row.iter_mut().enumerate() {
        *cell = j as u32;
    }
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let above = row[j + 1];
            let cost = u32::from(ca != cb);
            row[j + 1] = (above + 1).min(row[j] + 1).min(diag + cost);
            diag = above;
        }
    }
    row[b.len()] as usize
}

/// Groups `names` into clusters of strings within `max_dist` edits of the
/// cluster's first member (greedy single-link). Returns only clusters with at
/// least two *distinct* spellings — the manual-misspelling signature.
pub fn misspelling_clusters(names: &[&str], max_dist: usize) -> Vec<Vec<String>> {
    // Hash-dedupe preserving first-appearance order (the old linear scan
    // made dedup itself quadratic on repetition-heavy booking streams).
    let mut seen: FxHashSet<&str> =
        FxHashSet::with_capacity_and_hasher(names.len(), Default::default());
    let mut distinct: Vec<&str> = Vec::new();
    for &n in names {
        if seen.insert(n) {
            distinct.push(n);
        }
    }
    // Length pruning: edit distance is at least the length difference, so
    // most pairs skip the DP entirely.
    let lens: Vec<usize> = distinct.iter().map(|s| s.chars().count()).collect();
    let mut assigned = vec![false; distinct.len()];
    let mut clusters = Vec::new();
    for i in 0..distinct.len() {
        if assigned[i] {
            continue;
        }
        let mut cluster = vec![distinct[i].to_owned()];
        assigned[i] = true;
        for j in (i + 1)..distinct.len() {
            if !assigned[j]
                && lens[i].abs_diff(lens[j]) <= max_dist
                && levenshtein(distinct[i], distinct[j]) <= max_dist
            {
                cluster.push(distinct[j].to_owned());
                assigned[j] = true;
            }
        }
        if cluster.len() >= 2 {
            clusters.push(cluster);
        }
    }
    clusters
}

/// Tracks how often each `"FIRST SURNAME"` key recurs across bookings.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RepetitionTracker {
    counts: FxHashMap<String, u32>,
}

impl RepetitionTracker {
    /// Records every passenger of one booking.
    pub fn record(&mut self, passengers: &[Passenger]) {
        for p in passengers {
            *self.counts.entry(p.name_key()).or_insert(0) += 1;
        }
    }

    /// The highest repetition count of any key (0 when empty).
    pub fn max_repetition(&self) -> u32 {
        self.counts.values().copied().max().unwrap_or(0)
    }
}

/// Detects the Airline B signature: a fixed name with many distinct
/// birthdates across bookings.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BirthdateRotationDetector {
    birthdates: FxHashMap<String, FxHashSet<String>>,
}

impl BirthdateRotationDetector {
    /// Records every passenger of one booking.
    pub fn record(&mut self, passengers: &[Passenger]) {
        for p in passengers {
            if let Some(d) = p.birthdate {
                self.birthdates
                    .entry(p.name_key())
                    .or_default()
                    .insert(d.to_string());
            }
        }
    }

    /// Keys whose distinct-birthdate count reaches `threshold`, sorted.
    /// A human has one birthdate; 3+ across bookings is automation.
    pub fn rotating_keys(&self, threshold: usize) -> Vec<String> {
        let mut keys: Vec<String> = self
            .birthdates
            .iter()
            .filter(|(_, set)| set.len() >= threshold)
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// Detects the Airline C signature: the same *set* of passenger names
/// appearing across bookings in different orders.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PermutationSetDetector {
    // signature (sorted names joined) -> (bookings seen, distinct orderings)
    signatures: FxHashMap<String, (u32, FxHashSet<String>)>,
}

impl PermutationSetDetector {
    /// Records one booking's passenger list.
    pub fn record(&mut self, passengers: &[Passenger]) {
        if passengers.len() < 2 {
            return; // a singleton set cannot witness permutation
        }
        let ordered: Vec<String> = passengers.iter().map(Passenger::name_key).collect();
        let mut sorted = ordered.clone();
        sorted.sort_unstable();
        let signature = sorted.join("|");
        let order = ordered.join("|");
        let entry = self
            .signatures
            .entry(signature)
            .or_insert((0, FxHashSet::default()));
        entry.0 += 1;
        entry.1.insert(order);
    }

    /// Signatures seen in at least `min_bookings` bookings with at least
    /// `min_orders` distinct orderings — i.e. the same people shuffled
    /// around. Sorted for determinism.
    pub fn permuted_sets(&self, min_bookings: u32, min_orders: usize) -> Vec<String> {
        let mut sigs: Vec<String> = self
            .signatures
            .iter()
            .filter(|(_, (count, orders))| *count >= min_bookings && orders.len() >= min_orders)
            .map(|(s, _)| s.clone())
            .collect();
        sigs.sort_unstable();
        sigs
    }
}

/// A combined report over a booking stream.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NameAbuseReport {
    /// Fraction of passengers whose name scored gibberish (> 0.5).
    pub gibberish_fraction: f64,
    /// The most-repeated name key's count.
    pub max_repetition: u32,
    /// Name keys with rotating birthdates (automation signature).
    pub rotating_birthdate_keys: Vec<String>,
    /// Permuted fixed name-sets (manual signature).
    pub permuted_sets: Vec<String>,
    /// Misspelling clusters among surnames (manual signature).
    pub misspelling_cluster_count: usize,
}

impl NameAbuseReport {
    /// `true` when the stream bears the automated-abuse signature
    /// (gibberish flood or rotated birthdates).
    pub fn automated_suspected(&self) -> bool {
        self.gibberish_fraction > 0.5 || !self.rotating_birthdate_keys.is_empty()
    }

    /// `true` when the stream bears the manual-abuse signature (fixed
    /// name-set permutations, corroborated by misspellings or heavy
    /// repetition).
    pub fn manual_suspected(&self) -> bool {
        !self.permuted_sets.is_empty()
            && (self.misspelling_cluster_count > 0 || self.max_repetition >= 3)
    }
}

/// Runs every name heuristic over a stream of bookings.
#[derive(Clone, Debug, Default)]
pub struct NameAbuseAnalyzer {
    repetition: RepetitionTracker,
    birthdates: BirthdateRotationDetector,
    permutations: PermutationSetDetector,
    surnames: Vec<String>,
    passengers_seen: u64,
    gibberish_hits: u64,
}

impl NameAbuseAnalyzer {
    /// Creates an empty analyzer.
    pub fn new() -> Self {
        NameAbuseAnalyzer::default()
    }

    /// Feeds one booking's passenger list.
    pub fn record(&mut self, passengers: &[Passenger]) {
        self.repetition.record(passengers);
        self.birthdates.record(passengers);
        self.permutations.record(passengers);
        for p in passengers {
            self.passengers_seen += 1;
            let score = gibberish_score(&p.first_name).max(gibberish_score(&p.surname));
            if score > 0.5 {
                self.gibberish_hits += 1;
            }
            self.surnames.push(p.surname.clone());
        }
    }

    /// Produces the combined report.
    pub fn report(&self) -> NameAbuseReport {
        let surname_refs: Vec<&str> = self.surnames.iter().map(String::as_str).collect();
        NameAbuseReport {
            gibberish_fraction: if self.passengers_seen == 0 {
                0.0
            } else {
                self.gibberish_hits as f64 / self.passengers_seen as f64
            },
            max_repetition: self.repetition.max_repetition(),
            // Threshold 7: a genuine traveller has one birthdate; random
            // full-name collisions across a large population rarely reach
            // seven distinct dates, while the Airline B bot rotates dozens.
            rotating_birthdate_keys: self.birthdates.rotating_keys(7),
            permuted_sets: self.permutations.permuted_sets(3, 2),
            // Distance 2 catches adjacent-letter swaps (SMITH → SMIHT),
            // the dominant manual-typo class.
            misspelling_cluster_count: misspelling_clusters(&surname_refs, 2).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_inventory::passenger::Date;

    #[test]
    fn gibberish_separates_random_from_real() {
        for fake in ["affjgdui", "ddfjrei", "xkcdqwrt", "zzgrxk"] {
            assert!(
                gibberish_score(fake) > 0.5,
                "{fake}: {}",
                gibberish_score(fake)
            );
        }
        for real in [
            "Elisabeth",
            "Martinez",
            "Chen",
            "Kowalski",
            "Thompson",
            "Garcia",
            "Johnson",
            "Dubois",
        ] {
            assert!(
                gibberish_score(real) < 0.5,
                "{real}: {}",
                gibberish_score(real)
            );
        }
    }

    #[test]
    fn gibberish_short_names_neutral() {
        assert!((gibberish_score("LI") - 0.3).abs() < 1e-12);
        assert!((gibberish_score("") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("SMITH", "SMIHT"), 2);
    }

    #[test]
    fn misspelling_clusters_group_near_duplicates() {
        let names = ["GARCIA", "GARCIA", "GARCLA", "SMITH", "JONES"];
        let clusters = misspelling_clusters(&names, 1);
        assert_eq!(clusters.len(), 1);
        assert!(clusters[0].contains(&"GARCIA".to_owned()));
        assert!(clusters[0].contains(&"GARCLA".to_owned()));
    }

    #[test]
    fn repetition_tracker_counts() {
        let mut t = RepetitionTracker::default();
        for _ in 0..5 {
            t.record(&[Passenger::simple("John", "Doe")]);
        }
        t.record(&[Passenger::simple("Jane", "Roe")]);
        assert_eq!(t.max_repetition(), 5);
    }

    #[test]
    fn birthdate_rotation_flags_airline_b_pattern() {
        let mut d = BirthdateRotationDetector::default();
        // Same lead passenger, rotating birthdate — the Airline B automation.
        for day in 1..=6u8 {
            d.record(&[Passenger::full(
                "LEAD",
                "PAX",
                Date::new(1990, 1, day).unwrap(),
                "x@y.z",
            )]);
        }
        // A normal traveller books twice with one birthdate.
        for _ in 0..2 {
            d.record(&[Passenger::full(
                "NORMAL",
                "USER",
                Date::new(1985, 5, 5).unwrap(),
                "a@b.c",
            )]);
        }
        assert_eq!(d.rotating_keys(3), vec!["LEAD PAX".to_owned()]);
        assert_eq!(d.rotating_keys(6), vec!["LEAD PAX".to_owned()]);
        assert!(d.rotating_keys(7).is_empty());
    }

    #[test]
    fn permutation_detector_flags_airline_c_pattern() {
        let mut det = PermutationSetDetector::default();
        let a = Passenger::simple("ANNA", "ONE");
        let b = Passenger::simple("BEN", "TWO");
        let c = Passenger::simple("CARA", "THREE");
        det.record(&[a.clone(), b.clone(), c.clone()]);
        det.record(&[c.clone(), a.clone(), b.clone()]);
        det.record(&[b.clone(), c.clone(), a.clone()]);
        let sets = det.permuted_sets(3, 2);
        assert_eq!(sets.len(), 1);
        assert!(sets[0].contains("ANNA ONE"));
        // A family booking the same trip twice in the same order is NOT
        // flagged (one ordering only).
        let mut family = PermutationSetDetector::default();
        for _ in 0..3 {
            family.record(&[a.clone(), b.clone()]);
        }
        assert!(family.permuted_sets(3, 2).is_empty());
    }

    #[test]
    fn analyzer_distinguishes_automated_and_manual() {
        // Automated stream: rotating birthdates.
        let mut auto = NameAbuseAnalyzer::new();
        for day in 1..=9u8 {
            auto.record(&[Passenger::full(
                "FIXED",
                "NAME",
                Date::new(1991, 3, day).unwrap(),
                "f@n.io",
            )]);
        }
        let r = auto.report();
        assert!(r.automated_suspected(), "{r:?}");
        assert!(!r.manual_suspected(), "{r:?}");

        // Manual stream: permuted fixed set with a misspelling.
        let mut manual = NameAbuseAnalyzer::new();
        let p1 = Passenger::simple("MARC", "DUPONT");
        let p2 = Passenger::simple("LISE", "MARTIN");
        let p3 = Passenger::simple("JEAN", "BERNARD");
        manual.record(&[p1.clone(), p2.clone(), p3.clone()]);
        manual.record(&[p3.clone(), p1.clone(), p2.clone()]);
        manual.record(&[p2.clone(), p3.clone(), p1.clone()]);
        // Typo variant of DUPONT in a further booking.
        manual.record(&[
            Passenger::simple("MARC", "DUPONT"),
            Passenger::simple("MARC", "DUPONR"),
        ]);
        let r = manual.report();
        assert!(r.manual_suspected(), "{r:?}");
        assert!(!r.automated_suspected(), "{r:?}");

        // Legit stream: diverse names, single bookings.
        let mut legit = NameAbuseAnalyzer::new();
        legit.record(&[Passenger::simple("ALICE", "MARTIN")]);
        legit.record(&[
            Passenger::simple("BRUNO", "ROSSI"),
            Passenger::simple("CARLA", "ROSSI"),
        ]);
        legit.record(&[Passenger::simple("DAVID", "CHEN")]);
        let r = legit.report();
        assert!(!r.automated_suspected(), "{r:?}");
        assert!(!r.manual_suspected(), "{r:?}");
    }

    #[test]
    fn analyzer_flags_gibberish_flood() {
        let mut a = NameAbuseAnalyzer::new();
        a.record(&[Passenger::simple("affjgdui", "ddfjrei")]);
        a.record(&[Passenger::simple("qwkjxzp", "vbnmtrw")]);
        let r = a.report();
        assert!(r.gibberish_fraction > 0.5);
        assert!(r.automated_suspected());
    }

    #[test]
    fn empty_analyzer_report_is_quiet() {
        let r = NameAbuseAnalyzer::new().report();
        assert_eq!(r.gibberish_fraction, 0.0);
        assert!(!r.automated_suspected());
        assert!(!r.manual_suspected());
    }
}
