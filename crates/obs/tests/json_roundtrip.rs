//! `sift_obs::json`: a seeded round trip over random values (strings
//! of quotes, backslashes, control characters and non-ASCII, `u64::MAX`,
//! fixed-decimal rates, nested empty containers), the parser's edges,
//! and the tracked files' one-time re-layout. `sift-obs` is
//! dependency-free, so the SplitMix64 is in-file, as in
//! `hist_properties.rs`.

use sift_obs::json::{self, Json};

struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Characters a writer gets wrong first.
const TRICKY: &str = "\"\\/\n\t\0\x1f\x7fé\u{1F600}";

fn string(rng: &mut SplitMix64) -> String {
    let tricky: Vec<char> = TRICKY.chars().collect();
    (0..rng.below(8))
        .map(|_| match rng.below(3) {
            0 => tricky[rng.below(tricky.len() as u64) as usize],
            1 => char::from(b'a' + rng.below(26) as u8),
            _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{FFFD}'),
        })
        .collect()
}

fn value(rng: &mut SplitMix64, depth: usize) -> Json {
    match rng.below(if depth >= 4 { 5 } else { 8 }) {
        0 => Json::Null,
        1 => Json::from(rng.below(2) == 1),
        2 => Json::from([u64::MAX, rng.below(u64::MAX)][rng.below(2) as usize]),
        3 => Json::fixed(rng.below(1 << 40) as f64 / 1e6 - 5e5, rng.below(8) as usize),
        4 => Json::from(string(rng)),
        5 => Json::Arr((0..rng.below(4)).map(|_| value(rng, depth + 1)).collect()),
        6 => Json::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), value(rng, depth + 1)))
                .collect(),
        ),
        _ => Json::Arr(vec![Json::Obj(vec![]), Json::Arr(vec![Json::Arr(vec![])])]),
    }
}

#[test]
fn write_then_parse_is_the_identity() {
    let mut rng = SplitMix64(25);
    for case in 0..2_000 {
        let v = value(&mut rng, 0);
        let text = json::write(&v);
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(parsed, v, "case {case}:\n{text}");
        assert_eq!(json::write(&parsed), text, "case {case}: bytes moved");
    }
}

#[test]
fn numbers_keep_their_text_and_escapes_decode() {
    for n in [0, 9_007_199_254_740_993, u64::MAX] {
        assert_eq!(json::parse(&n.to_string()).unwrap().as_u64(), Some(n));
    }
    assert_eq!(Json::fixed(0.35, 4), Json::Num("0.3500".into()));
    assert_eq!(Json::fixed(f64::NAN, 4), Json::Null);
    assert_eq!(json::parse("1.50e+3"), Ok(Json::Num("1.50e+3".into())));
    assert_eq!(json::parse("-0").unwrap().as_u64(), None);
    // `\u` escapes are UTF-16: a surrogate pair joins, a lone one is U+FFFD.
    let u = |hex: &str| format!("\\u{hex}");
    let text = format!(r#""{}{} {}x \/""#, u("d83d"), u("de00"), u("d83d"));
    assert_eq!(json::parse(&text), Ok(Json::from("\u{1F600} \u{FFFD}x /")));
}

/// The two tracked verdict files were re-laid out once, onto the one
/// rule: the parent's layouts — `BENCH_adversary.json`'s comma on a
/// line of its own, `BENCH_conformance.json`'s blank line in an empty
/// `violations` array — parse to the same value as the new rendering.
#[test]
fn the_parents_layouts_say_the_same_thing() {
    let adversary_before = r#"{
  "cells": [
    {"strength": "late", "substrate": "regular", "agree_rate": 0.3500}
  ]
  ,
  "lattice_digest": "0x1e9879224b49e644"
}
"#;
    let conformance_before = r#"{
  "suite": "soak",
  "violations": [

  ]
}
"#;
    // Each new rendering differs from the parent's by exactly one edit.
    let check = |before: &str, from: &str, to: &str| {
        let after = before.replace(from, to);
        let value = json::parse(before).unwrap();
        assert_eq!(json::parse(&after), Ok(value.clone()));
        assert_eq!(json::write(&value), after);
    };
    check(adversary_before, "  ]\n  ,\n", "  ],\n");
    check(conformance_before, "[\n\n  ]", "[]");
}
