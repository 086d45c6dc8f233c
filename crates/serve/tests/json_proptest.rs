//! Differential property tests for the wire JSON codec: the direct path
//! (`serde_json::{from_str, to_string}`, which read and write through the
//! derive with no `Value` tree) must agree with the tree path
//! (`from_value` of a parsed `Value`, `to_string` of `to_value`).
//!
//! For every wire type (`WireRequest`, `OutcomeReport`, `GateDecision`,
//! `ServeConfig`) the inputs start from valid encodings and are mutated:
//! duplicate keys, unknown keys with nested values, `\u`-escaped keys,
//! whitespace between every token, numbers at the `i64`/`u64` edges or
//! written as `1.0`, `1e2` or `-0`, `null` or missing members, the object
//! form of unit variants, trailing bytes, truncations and byte swaps. Both
//! paths must accept the same inputs and decode equal values; the wording
//! of their errors may differ.

use fg_mitigation::policy::Decision;
use fg_netsim::ip::IpAddress;
use fg_scenario::app::GateDecision;
use fg_scenario::workload::{generate, WireRequest, WorkloadConfig};
use fg_serve::{OutcomeReport, ServeConfig};
use fg_telemetry::SignalScore;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt::Debug;
use std::sync::OnceLock;

/// Strings that exercise the escaper and the escape decoder.
const AWKWARD: [&str; 6] = [
    "",
    "plain",
    "quote \" and back\\slash",
    "tab\tnew\nline\r\u{1}\u{1f}",
    "héllo ✓ 😀",
    "score-challenge:triggered",
];

/// Number tokens spliced over valid ones: the integer edges, integers
/// written as floats, and malformed numbers.
const NUMBERS: [&str; 22] = [
    "0",
    "-0",
    "1",
    "-1",
    "255",
    "256",
    "65536",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "1.0",
    "1e2",
    "1E+2",
    "-0.0",
    "0.5",
    "1e400",
    "01",
    "1.",
    "-",
];

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below_u128(items.len() as u128) as usize]
}

fn chance(rng: &mut TestRng, one_in: u128) -> bool {
    rng.below_u128(one_in) == 0
}

fn requests() -> &'static [WireRequest] {
    static REQUESTS: OnceLock<Vec<WireRequest>> = OnceLock::new();
    REQUESTS.get_or_init(|| {
        generate(&WorkloadConfig {
            seed: 9,
            horizon_hours: 2,
            arrivals_per_day: 300.0,
            seat_spinner: true,
            sms_pumper: true,
        })
        .requests
    })
}

fn wire_request(rng: &mut TestRng) -> WireRequest {
    let mut req = pick(rng, requests()).clone();
    if chance(rng, 3) {
        req.now_ms = *pick(rng, &[0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX]);
    }
    if chance(rng, 3) {
        req.fingerprint.platform = (*pick(rng, &AWKWARD)).to_owned();
        req.fingerprint.timezone_offset_min = *pick(rng, &[i16::MIN, -1, 0, i16::MAX]);
    }
    req
}

fn outcome_report(rng: &mut TestRng) -> OutcomeReport {
    let any_clock = rng.next_u64();
    OutcomeReport {
        ip: IpAddress(rng.next_u64() as u32),
        score: *pick(rng, &[0.0, 0.25, 1.0, 1e-300, 0.1 + 0.2]),
        now_ms: *pick(rng, &[0, 1_000, u64::MAX, any_clock]),
    }
}

fn gate_decision(rng: &mut TestRng) -> GateDecision {
    let decisions = [
        Decision::Allow,
        Decision::Challenge,
        Decision::RateLimited,
        Decision::TierDenied,
        Decision::Honeypot,
        Decision::Block,
    ];
    GateDecision {
        trace_id: rng.next_u64(),
        decision: *pick(rng, &decisions),
        reasons: (0..rng.below_u128(3))
            .map(|_| (*pick(rng, &AWKWARD)).to_owned())
            .collect(),
        score: rng.unit_f64(),
        signals: (0..rng.below_u128(3))
            .map(|_| SignalScore {
                signal: (*pick(rng, &AWKWARD)).to_owned(),
                weight: *pick(rng, &[0.0, 0.16, 1.0, 3.0, -2.5e-8]),
            })
            .collect(),
    }
}

fn serve_config(rng: &mut TestRng) -> ServeConfig {
    let mut config = ServeConfig::recommended();
    config.listen = (*pick(rng, &AWKWARD)).to_owned();
    config.seed = rng.next_u64();
    if chance(rng, 2) {
        config.policy.booking_sms_limit = None;
    }
    config
}

/// A JSON token of a (possibly already mutated) text, as a byte span.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Token {
    Punct(u8),
    Str,
    Scalar,
}

/// Splits `text` into tokens; tolerant of invalid text.
fn tokens(text: &str) -> Vec<(usize, usize, Token)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'{' | b'}' | b'[' | b']' | b',' | b':' => {
                out.push((i, i + 1, Token::Punct(bytes[i])));
                i += 1;
                continue;
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
                out.push((start, i, Token::Str));
            }
            _ => {
                while i < bytes.len() && !b" \t\n\r{}[],:\"".contains(&bytes[i]) {
                    i += 1;
                }
                out.push((start, i, Token::Scalar));
            }
        }
    }
    out
}

/// The index one past the last token of the value starting at token `at`.
fn value_end(toks: &[(usize, usize, Token)], at: usize) -> usize {
    let mut depth = 0usize;
    for (i, &(_, _, tok)) in toks.iter().enumerate().skip(at) {
        match tok {
            Token::Punct(b'{' | b'[') => depth += 1,
            Token::Punct(b'}' | b']') => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth == 0 {
            return i + 1;
        }
    }
    toks.len()
}

/// Indices of the string tokens that are object keys with a value token.
fn keys(toks: &[(usize, usize, Token)]) -> Vec<usize> {
    (0..toks.len().saturating_sub(2))
        .filter(|&i| toks[i].2 == Token::Str && toks[i + 1].2 == Token::Punct(b':'))
        .collect()
}

/// Whitespace, drawn from all four JSON whitespace bytes.
fn whitespace(rng: &mut TestRng) -> String {
    (0..rng.below_u128(3))
        .map(|_| *pick(rng, &[' ', '\t', '\n', '\r']))
        .collect()
}

/// Applies one random mutation to `text`.
fn mutate(text: &str, rng: &mut TestRng) -> String {
    let toks = tokens(text);
    let keys = keys(&toks);
    let span = |i: usize| &text[toks[i].0..toks[i].1];
    match rng.below_u128(11) {
        // Whitespace between every token.
        0 => {
            let mut out = whitespace(rng);
            for &(start, end, _) in &toks {
                out.push_str(&text[start..end]);
                out.push_str(&whitespace(rng));
            }
            out
        }
        // A duplicate of a member, before or after the original, with a
        // value of another member (the first occurrence wins).
        1 if !keys.is_empty() => {
            let k = *pick(rng, &keys);
            let donor = *pick(rng, &keys);
            let value = &text[toks[donor + 2].0..toks[value_end(&toks, donor + 2) - 1].1];
            let member = format!("{}:{value}", span(k));
            if chance(rng, 2) {
                format!("{}{member},{}", &text[..toks[k].0], &text[toks[k].0..])
            } else {
                let end = toks[value_end(&toks, k + 2) - 1].1;
                format!("{},{member}{}", &text[..end], &text[end..])
            }
        }
        // An unknown key with a nested value.
        2 if !keys.is_empty() => {
            let k = *pick(rng, &keys);
            let junk = *pick(
                rng,
                &[
                    "{\"a\":[1,{\"b\":null}],\"c\":\"x\"}",
                    "[[[[]]],{}]",
                    "\"\\u00e9\\n\"",
                    "-1.5e-7",
                    "{\"now_ms\":\"not a number\"}",
                ],
            );
            format!(
                "{}\"zz_unknown\":{junk},{}",
                &text[..toks[k].0],
                &text[toks[k].0..]
            )
        }
        // A key written with a `\u` escape.
        3 if !keys.is_empty() => {
            let (start, end, _) = toks[*pick(rng, &keys)];
            let key = &text[start + 1..end - 1];
            match key
                .char_indices()
                .nth(rng.below_u128(key.len().max(1) as u128) as usize)
            {
                Some((at, c)) if c.is_ascii() => format!(
                    "{}\\u{:04x}{}",
                    &text[..start + 1 + at],
                    c as u32,
                    &text[start + 1 + at + 1..]
                ),
                _ => text.to_owned(),
            }
        }
        // A number replaced by an edge or malformed token.
        4 => {
            let numbers: Vec<usize> = (0..toks.len())
                .filter(|&i| toks[i].2 == Token::Scalar && span(i) != "true" && span(i) != "false")
                .collect();
            if numbers.is_empty() {
                return text.to_owned();
            }
            let (start, end, _) = toks[*pick(rng, &numbers)];
            format!("{}{}{}", &text[..start], pick(rng, &NUMBERS), &text[end..])
        }
        // A member's value replaced by `null`, or the member removed.
        5 if !keys.is_empty() => {
            let k = *pick(rng, &keys);
            let end = value_end(&toks, k + 2);
            if chance(rng, 2) {
                format!("{}null{}", &text[..toks[k + 2].0], &text[toks[end - 1].1..])
            } else if toks.get(end).map(|t| t.2) == Some(Token::Punct(b',')) {
                format!("{}{}", &text[..toks[k].0], &text[toks[end].1..])
            } else if k > 0 && toks[k - 1].2 == Token::Punct(b',') {
                format!("{}{}", &text[..toks[k - 1].0], &text[toks[end - 1].1..])
            } else {
                format!("{}{}", &text[..toks[k].0], &text[toks[end - 1].1..])
            }
        }
        // A string value wrapped into the object form of a unit variant.
        6 => {
            let values: Vec<usize> = (0..toks.len())
                .filter(|&i| toks[i].2 == Token::Str && !keys.contains(&i))
                .collect();
            if values.is_empty() {
                return text.to_owned();
            }
            let (start, end, _) = toks[*pick(rng, &values)];
            let inner = *pick(rng, &["1", "null", "[{}]", "1,\"x\":2", ""]);
            format!(
                "{}{{{}:{inner}}}{}",
                &text[..start],
                &text[start..end],
                &text[end..]
            )
        }
        // Trailing bytes.
        7 => format!(
            "{text}{}",
            pick(rng, &[" ", "\n\t", " x", "}", "0", "{}", "\u{0}"])
        ),
        // A truncation.
        8 => {
            let mut cut = rng.below_u128(text.len() as u128 + 1) as usize;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_owned()
        }
        // One ASCII byte replaced by a structural or odd byte.
        9 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.below_u128(bytes.len().max(1) as u128) as usize;
            if bytes.get(at).is_some_and(u8::is_ascii) {
                bytes[at] = *pick(rng, b"{}[],:\"\\ 0-.en");
            }
            String::from_utf8(bytes).unwrap_or_else(|_| text.to_owned())
        }
        // A nested wrapper around the whole text.
        _ => format!("[{text}]"),
    }
}

/// Both decoding paths accept or refuse `text` together, and decode
/// values that are equal and re-encode to the same bytes.
fn paths_agree<T>(text: &str) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let direct = serde_json::from_str::<T>(text);
    let tree = serde_json::from_str::<Value>(text).and_then(serde_json::from_value::<T>);
    match (direct, tree) {
        (Ok(direct), Ok(tree)) => {
            prop_assert_eq!(&direct, &tree);
            prop_assert_eq!(
                serde_json::to_string(&direct).unwrap(),
                serde_json::to_string(&tree).unwrap()
            );
        }
        (Err(_), Err(_)) => {}
        (direct, tree) => {
            return Err(TestCaseError::fail(format!(
                "paths disagree on {text:?}: direct {direct:?}, tree {tree:?}"
            )))
        }
    }
    Ok(())
}

/// The direct writer's bytes equal the tree's, the encoding reads back
/// to the value on both paths, and every mutation of it is decoded alike.
fn check<T>(value: &T, rng: &mut TestRng) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let text = serde_json::to_string(value).unwrap();
    let via_tree = serde_json::to_string(&serde_json::to_value(value).unwrap()).unwrap();
    prop_assert_eq!(&text, &via_tree);
    prop_assert_eq!(&serde_json::from_str::<T>(&text).unwrap(), value);
    paths_agree::<T>(&text)?;
    let mut mutated = text;
    for _ in 0..4 {
        mutated = mutate(&mutated, rng);
        paths_agree::<T>(&mutated)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn wire_requests_decode_alike_on_both_paths(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        check(&wire_request(rng), rng)?;
    }

    #[test]
    fn outcome_reports_decode_alike_on_both_paths(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        check(&outcome_report(rng), rng)?;
    }

    #[test]
    fn gate_decisions_decode_alike_on_both_paths(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        check(&gate_decision(rng), rng)?;
    }

    #[test]
    fn serve_configs_decode_alike_on_both_paths(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        check(&serve_config(rng), rng)?;
    }
}

/// The cases the mutations aim at, pinned: each is decoded alike on both
/// paths, and these are the outcomes the tree path has always given.
#[test]
fn pinned_edge_cases_keep_their_outcomes() {
    let report = |fields: &str| format!("{{{fields}}}");
    let accepted = [
        report("\"ip\":1,\"score\":0.5,\"now_ms\":2,\"ip\":\"dup\""),
        report("\"i\\u0070\":1,\"score\":0.5,\"now_ms\":2"),
        report(" \"ip\" : 1 ,\t\"score\"\n:\r0.5 , \"now_ms\":2 , \"x\":{\"y\":[[]]} "),
        report("\"ip\":1,\"score\":1,\"now_ms\":-0"),
        report("\"ip\":1,\"score\":1e2,\"now_ms\":18446744073709551615"),
    ];
    for text in &accepted {
        paths_agree::<OutcomeReport>(text).unwrap();
        assert!(
            serde_json::from_str::<OutcomeReport>(text).is_ok(),
            "{text}"
        );
    }
    let refused = [
        report("\"ip\":1,\"score\":0.5"),
        report("\"ip\":1,\"score\":0.5,\"now_ms\":1.0"),
        report("\"ip\":1,\"score\":0.5,\"now_ms\":1e2"),
        report("\"ip\":1,\"score\":0.5,\"now_ms\":18446744073709551616"),
        report("\"ip\":1,\"score\":0.5,\"now_ms\":-1"),
        report("\"ip\":1,\"score\":0.5,\"now_ms\":2,\"x\":[1,]"),
        format!("{} x", report("\"ip\":1,\"score\":0.5,\"now_ms\":2")),
    ];
    for text in &refused {
        paths_agree::<OutcomeReport>(text).unwrap();
        assert!(
            serde_json::from_str::<OutcomeReport>(text).is_err(),
            "{text}"
        );
    }
    let decision = |d: &str| {
        format!("{{\"trace_id\":1,\"decision\":{d},\"reasons\":[],\"score\":0.0,\"signals\":[]}}")
    };
    for (d, ok) in [
        ("\"Allow\"", true),
        ("{\"Allow\":1}", true),
        ("{\"Block\":[null]}", true),
        ("{\"Allow\":1,\"Block\":1}", false),
        ("{}", false),
        ("\"allow\"", false),
    ] {
        let text = decision(d);
        paths_agree::<GateDecision>(&text).unwrap();
        assert_eq!(
            serde_json::from_str::<GateDecision>(&text).is_ok(),
            ok,
            "{text}"
        );
    }
    let mut request = serde_json::to_value(&requests()[0]).unwrap();
    if let Value::Object(fields) = &mut request {
        fields.retain(|(k, _)| k != "booking");
    }
    let missing = serde_json::to_string(&request).unwrap();
    paths_agree::<WireRequest>(&missing).unwrap();
    assert!(
        serde_json::from_str::<WireRequest>(&missing).is_err(),
        "an absent Option is an error"
    );
}
