//! Randomized property tests on the core data structures, driven by the
//! in-repo deterministic PRNG (`extractocol_ir::rng`) so the suite runs
//! with no network access (no external `proptest` dependency):
//!
//! * the regex-lite engine agrees with a reference backtracking matcher
//!   on the signature dialect;
//! * signature normalization is idempotent and meaning-preserving
//!   (concrete strings drawn from a signature always match its regex);
//! * the structural signature matcher (the only engine that decides
//!   matches) agrees with the compiled regex on random signatures;
//! * JSON parse∘serialize is a fixpoint;
//! * arbitrary input never panics the parsers.
//!
//! Every case is deterministic in its iteration index, so a failure
//! reports a reproducible seed.

use extractocol_core::siglang::{SigPat, TypeHint};
use extractocol_http::regexlite::{escape_literal, DEFAULT_MATCH_BUDGET};
use extractocol_http::{JsonValue, Regex, XmlElement};
use extractocol_ir::rng::Rng;

// ---------------------------------------------------------------------------
// A tiny reference backtracking matcher for the same dialect.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Rx {
    Lit(char),
    Any,
    Digit,
    Star(Box<Rx>),
    Plus(Box<Rx>),
    Opt(Box<Rx>),
    Seq(Vec<Rx>),
    Alt(Box<Rx>, Box<Rx>),
}

impl Rx {
    fn to_pattern(&self) -> String {
        match self {
            Rx::Lit(c) => escape_literal(&c.to_string()),
            Rx::Any => ".".into(),
            Rx::Digit => "[0-9]".into(),
            Rx::Star(r) => format!("({})*", r.to_pattern()),
            Rx::Plus(r) => format!("({})+", r.to_pattern()),
            Rx::Opt(r) => format!("({})?", r.to_pattern()),
            Rx::Seq(items) => items.iter().map(Rx::to_pattern).collect(),
            Rx::Alt(a, b) => format!("({}|{})", a.to_pattern(), b.to_pattern()),
        }
    }

    /// Reference matcher: returns all suffix positions reachable after
    /// matching a prefix of `s[i..]`.
    fn match_at(&self, s: &[char], i: usize, out: &mut Vec<usize>) {
        match self {
            Rx::Lit(c) => {
                if s.get(i) == Some(c) {
                    out.push(i + 1);
                }
            }
            Rx::Any => {
                if i < s.len() {
                    out.push(i + 1);
                }
            }
            Rx::Digit => {
                if s.get(i).map(|c| c.is_ascii_digit()).unwrap_or(false) {
                    out.push(i + 1);
                }
            }
            Rx::Star(r) => {
                let mut frontier = vec![i];
                let mut seen = vec![i];
                out.push(i);
                while let Some(p) = frontier.pop() {
                    let mut next = Vec::new();
                    r.match_at(s, p, &mut next);
                    for n in next {
                        if !seen.contains(&n) {
                            seen.push(n);
                            out.push(n);
                            frontier.push(n);
                        }
                    }
                }
            }
            Rx::Plus(r) => {
                let mut first = Vec::new();
                r.match_at(s, i, &mut first);
                for f in first {
                    Rx::Star(r.clone()).match_at(s, f, out);
                }
            }
            Rx::Opt(r) => {
                out.push(i);
                r.match_at(s, i, out);
            }
            Rx::Seq(items) => {
                let mut positions = vec![i];
                for item in items {
                    let mut next = Vec::new();
                    for &p in &positions {
                        item.match_at(s, p, &mut next);
                    }
                    next.sort_unstable();
                    next.dedup();
                    positions = next;
                    if positions.is_empty() {
                        return;
                    }
                }
                out.extend(positions);
            }
            Rx::Alt(a, b) => {
                a.match_at(s, i, out);
                b.match_at(s, i, out);
            }
        }
    }

    fn is_match(&self, text: &str) -> bool {
        let chars: Vec<char> = text.chars().collect();
        let mut out = Vec::new();
        self.match_at(&chars, 0, &mut out);
        out.contains(&chars.len())
    }
}

// ---------------------------------------------------------------------------
// Generators (recursive, depth-bounded, deterministic in the Rng state).
// ---------------------------------------------------------------------------

const RX_LEAVES: [char; 9] = ['a', 'b', 'c', 'd', 'e', '0', '1', '2', '3'];

fn gen_rx(rng: &mut Rng, depth: usize) -> Rx {
    if depth == 0 || rng.chance(2, 5) {
        return match rng.below(4) {
            0 | 1 => Rx::Lit(*rng.pick(&RX_LEAVES)),
            2 => Rx::Any,
            _ => Rx::Digit,
        };
    }
    match rng.below(5) {
        0 => Rx::Star(Box::new(gen_rx(rng, depth - 1))),
        1 => Rx::Plus(Box::new(gen_rx(rng, depth - 1))),
        2 => Rx::Opt(Box::new(gen_rx(rng, depth - 1))),
        3 => {
            let n = 1 + rng.below(3);
            Rx::Seq((0..n).map(|_| gen_rx(rng, depth - 1)).collect())
        }
        _ => Rx::Alt(Box::new(gen_rx(rng, depth - 1)), Box::new(gen_rx(rng, depth - 1))),
    }
}

fn gen_text(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    rng.ascii_string(&RX_LEAVES, len)
}

const JSON_STR_ALPHABET: [char; 16] =
    ['a', 'z', 'A', 'Z', '0', '9', ' ', '_', '.', '/', ':', '?', '&', '=', '-', 'q'];

fn gen_json(rng: &mut Rng, depth: usize) -> JsonValue {
    if depth == 0 || rng.chance(1, 2) {
        return match rng.below(4) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.chance(1, 2)),
            2 => JsonValue::Number(rng.range(-1000, 1000) as f64),
            _ => {
                let len = rng.below(13);
                JsonValue::String(rng.ascii_string(&JSON_STR_ALPHABET, len))
            }
        };
    }
    if rng.chance(1, 2) {
        let n = rng.below(4);
        JsonValue::Array((0..n).map(|_| gen_json(rng, depth - 1)).collect())
    } else {
        let n = rng.below(4);
        let mut obj = JsonValue::object();
        for _ in 0..n {
            let klen = 1 + rng.below(8);
            let key = rng.ascii_string(&['a', 'b', 'c', 'k', 'm', 'n', 's', 't', 'x', '_'], klen);
            obj.insert(&key, gen_json(rng, depth - 1));
        }
        obj
    }
}

const SIG_ALPHABET: [char; 14] =
    ['a', 'b', 'h', 'p', 's', 't', '0', '9', '/', '.', '?', '&', '=', '-'];

fn gen_sig(rng: &mut Rng, depth: usize) -> SigPat {
    if depth == 0 || rng.chance(2, 5) {
        return match rng.below(4) {
            0 => {
                let len = rng.below(11);
                SigPat::Const(rng.ascii_string(&SIG_ALPHABET, len))
            }
            1 => SigPat::Unknown(TypeHint::Str),
            2 => SigPat::Unknown(TypeHint::Num),
            _ => SigPat::Unknown(TypeHint::Bool),
        };
    }
    match rng.below(3) {
        0 => {
            let n = 1 + rng.below(3);
            SigPat::Concat((0..n).map(|_| gen_sig(rng, depth - 1)).collect())
        }
        1 => {
            let n = 1 + rng.below(2);
            SigPat::Or((0..n).map(|_| gen_sig(rng, depth - 1)).collect())
        }
        _ => SigPat::Rep(Box::new(gen_sig(rng, depth - 1))),
    }
}

/// Draws one concrete string covered by a signature (deterministic in the
/// seed).
fn sample_from(sig: &SigPat, seed: u32) -> String {
    match sig {
        SigPat::Const(s) => s.clone(),
        SigPat::Unknown(TypeHint::Num) => format!("{}", seed % 1000),
        SigPat::Unknown(TypeHint::Bool) => {
            if seed.is_multiple_of(2) { "true" } else { "false" }.to_string()
        }
        SigPat::Unknown(TypeHint::Str) => {
            ["", "x", "token-9f", "user input"][(seed as usize) % 4].to_string()
        }
        SigPat::Concat(items) => items
            .iter()
            .enumerate()
            .map(|(i, p)| sample_from(p, seed.wrapping_add(i as u32)))
            .collect(),
        SigPat::Or(items) => {
            let pick = (seed as usize) % items.len();
            sample_from(&items[pick], seed / 2)
        }
        SigPat::Rep(inner) => {
            let n = (seed % 3) as usize;
            (0..n).map(|i| sample_from(inner, seed.wrapping_add(i as u32))).collect()
        }
        SigPat::Json(_) | SigPat::Xml(_) => String::new(),
    }
}

/// Arbitrary (printable-ish) fuzz input for the parsers.
fn gen_fuzz_input(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| {
            // Mostly printable ASCII with occasional structural characters
            // and non-ASCII to poke the parsers' edge cases.
            match rng.below(10) {
                0 => *rng.pick(&['{', '}', '[', ']', '(', ')', '"', '\\', '|', '*', '<', '>']),
                1 => *rng.pick(&['\n', '\t', 'é', '✓', '\u{7f}']),
                _ => (0x20 + rng.below(0x5f) as u8) as char,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

#[test]
fn regexlite_agrees_with_reference() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0xA11CE ^ case);
        let rx = gen_rx(&mut rng, 3);
        let text = gen_text(&mut rng, 8);
        let pattern = rx.to_pattern();
        let compiled = Regex::new(&pattern).expect("generated pattern compiles");
        assert_eq!(
            compiled.is_match(&text),
            rx.is_match(&text),
            "case {case}: pattern {pattern} on {text:?}"
        );
    }
}

#[test]
fn json_parse_serialize_fixpoint() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0xB0B ^ (case << 1));
        let v = gen_json(&mut rng, 3);
        let once = v.to_json();
        let reparsed = JsonValue::parse(&once).expect("serialized JSON parses");
        assert_eq!(reparsed.to_json(), once, "case {case}");
        assert_eq!(reparsed, v, "case {case}");
    }
}

#[test]
fn signature_normalization_is_idempotent() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0x0005_161D ^ case);
        let sig = gen_sig(&mut rng, 3);
        let once = sig.clone().normalize();
        let twice = once.clone().normalize();
        assert_eq!(once, twice, "case {case}: {}", sig.display());
    }
}

#[test]
fn strings_drawn_from_a_signature_match_its_regex() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0xD4A3 ^ case);
        let sig = gen_sig(&mut rng, 3);
        let seed = rng.next_u32() % 1000;
        let sample = sample_from(&sig, seed);
        let regex = Regex::new(&sig.to_regex()).expect("signature regex compiles");
        assert!(
            regex.is_match(&sample),
            "case {case}: signature {} regex {} sample {:?}",
            sig.display(),
            sig.to_regex(),
            sample
        );
    }
}

/// The offline engine cross-check: serving, the dynamic trace metrics and
/// the body check all decide matches with `SigPat::matches_budgeted` alone,
/// so it must agree with `to_regex` + regexlite on random signatures —
/// against strings drawn from the signature, those strings with one char
/// added or dropped, random strings, and edge strings.
#[test]
fn structural_matcher_agrees_with_compiled_regex() {
    let mut checked = 0usize;
    for case in 0..2048u64 {
        let mut rng = Rng::new(0x5EC0_57A7 ^ case);
        let sig = gen_sig(&mut rng, 3);
        let regex = Regex::new(&sig.to_regex()).expect("signature regex compiles");
        let mut inputs: Vec<String> = vec![String::new(), "true".into(), "123".into()];
        for _ in 0..4 {
            let sample = sample_from(&sig, rng.next_u32() % 1000);
            let mut added = sample.clone();
            let at = rng.below(added.len() + 1);
            added.insert(at, *rng.pick(&SIG_ALPHABET));
            inputs.push(added);
            if !sample.is_empty() {
                let mut dropped = sample.clone();
                dropped.remove(rng.below(dropped.len()));
                inputs.push(dropped);
            }
            inputs.push(sample);
        }
        for _ in 0..4 {
            let len = rng.below(13);
            inputs.push(rng.ascii_string(&SIG_ALPHABET, len));
        }
        for input in &inputs {
            let structural = sig.matches_budgeted(input, DEFAULT_MATCH_BUDGET);
            let compiled = regex.is_match_budgeted(input, DEFAULT_MATCH_BUDGET);
            if let (Ok(a), Ok(b)) = (structural, compiled) {
                assert_eq!(
                    a,
                    b,
                    "case {case}: signature {} regex {} input {input:?}",
                    sig.display(),
                    sig.to_regex()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 2048 * 10, "only {checked} pairs reached a verdict on both engines");
}

/// Robustness: arbitrary input never panics the parsers — they return a
/// value or a structured error.
#[test]
fn parsers_never_panic() {
    for case in 0..512u64 {
        let mut rng = Rng::new(0xF422 ^ case);
        let input = gen_fuzz_input(&mut rng, 200);
        let _ = extractocol_ir::parser::parse_apk(&input);
        let _ = JsonValue::parse(&input);
        let _ = XmlElement::parse(&input);
        let _ = Regex::new(&input);
    }
}

/// Compiling any signature drawn from the signature generator always
/// yields a valid regex (signature → regex is total).
#[test]
fn signature_regexes_always_compile() {
    for case in 0..512u64 {
        let mut rng = Rng::new(0xC0DE ^ case);
        let sig = gen_sig(&mut rng, 3);
        assert!(Regex::new(&sig.to_regex()).is_ok(), "case {case}: {}", sig.to_regex());
    }
}
