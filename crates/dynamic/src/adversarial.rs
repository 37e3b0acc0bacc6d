//! Seeded adversarial traffic generator (ROADMAP item 3).
//!
//! Real Android traffic is messy and hostile: malformed lines, nesting
//! bombs, homoglyph lookalikes, regex-exhaustion probes. This module
//! generates exactly that, deterministically: every [`AttackCase`] carries
//! its attack class and the derived PRNG seed that produced it, so any
//! failing case reproduces from two numbers.
//!
//! The contract the rest of the system must uphold against this traffic
//! (and the property suite in `tests/adversarial.rs` enforces):
//!
//! * **total parsing** — every line yields a request or a structured
//!   [`TraceParseError`](crate::trace::TraceParseError), never a panic;
//! * **bounded work** — regex and body matching run under step budgets,
//!   so a probe can exhaust its budget but not the CPU;
//! * **deterministic verdicts** — the same line gets the same verdict on
//!   every run, at any `--jobs` level, under both the trie-pruned and
//!   brute-force classify paths.

use extractocol_http::Request;
use extractocol_ir::rng::{Rng, SplitMix64};

use crate::trace::{parse_request_line, request_line, TraceParseError};

/// The attack taxonomy. Each variant is one generation strategy and one
/// labelled counter family in the serving metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackClass {
    /// Broken framing: bad methods, missing fields, bogus MIME tags,
    /// overflowing binary lengths, trailing fields, embedded NULs.
    MalformedWire,
    /// Deeply nested JSON/XML bodies straddling the parser depth limit.
    DeepBody,
    /// Very large bodies: wide arrays, long strings, huge forms.
    GiantBody,
    /// %-escape tricks and Unicode homoglyph lookalikes in the URI.
    UriMutation,
    /// Query strings shaped to blow the structural/regex match budget.
    RegexExhaustion,
    /// Legitimate lines cut off at an arbitrary byte.
    Truncated,
    /// Oversized field sets: thousands of query pairs or form keys.
    OversizedHeaders,
}

impl AttackClass {
    /// Every class, in the fixed generation (and metrics) order.
    pub const ALL: [AttackClass; 7] = [
        AttackClass::MalformedWire,
        AttackClass::DeepBody,
        AttackClass::GiantBody,
        AttackClass::UriMutation,
        AttackClass::RegexExhaustion,
        AttackClass::Truncated,
        AttackClass::OversizedHeaders,
    ];

    /// Stable snake_case name, used as the metrics label value.
    pub fn name(self) -> &'static str {
        match self {
            AttackClass::MalformedWire => "malformed_wire",
            AttackClass::DeepBody => "deep_body",
            AttackClass::GiantBody => "giant_body",
            AttackClass::UriMutation => "uri_mutation",
            AttackClass::RegexExhaustion => "regex_exhaustion",
            AttackClass::Truncated => "truncated",
            AttackClass::OversizedHeaders => "oversized_headers",
        }
    }
}

/// One generated attack input: a single wire-format line plus the
/// provenance needed to regenerate it.
#[derive(Clone, Debug)]
pub struct AttackCase {
    pub class: AttackClass,
    /// The per-case PRNG seed (derived from the suite seed); `Rng::new`
    /// on this value replays exactly this case's randomness.
    pub seed: u64,
    /// Index within the generated suite.
    pub id: usize,
    /// The attack payload: one `METHOD\tURI[\tMIME\tBODY]` line,
    /// possibly deliberately malformed.
    pub line: String,
}

impl AttackCase {
    /// Runs the case through the total wire-format parser. `Ok(None)`
    /// means the line degenerated into a blank/comment (possible after
    /// truncation) — not an error, just no request to classify.
    pub fn parse(&self) -> Result<Option<Request>, TraceParseError> {
        parse_request_line(&self.line)
    }
}

/// Suite shape: one suite seed fans out into `per_class` cases for each
/// of the seven classes via one SplitMix64 stream, drawn class by class.
/// Any case is reproducible in isolation from its own `seed`. Suites of
/// different sizes share only the first class's cases: growing
/// `per_class` shifts the seeds of every later class.
#[derive(Clone, Copy, Debug)]
pub struct AdversarialConfig {
    pub seed: u64,
    pub per_class: usize,
}

impl Default for AdversarialConfig {
    fn default() -> AdversarialConfig {
        AdversarialConfig { seed: 0xE57A_AC70, per_class: 16 }
    }
}

/// Latin → confusable-Cyrillic lookalikes (the classic IDN homoglyph
/// set). Swapping one in changes the bytes but not what a human sees.
const HOMOGLYPHS: [(char, char); 8] = [
    ('a', 'а'),
    ('c', 'с'),
    ('e', 'е'),
    ('i', 'і'),
    ('o', 'о'),
    ('p', 'р'),
    ('x', 'х'),
    ('y', 'у'),
];

/// Fallback base traffic when the caller has no corpus requests handy.
fn stock_lines() -> Vec<String> {
    vec![
        "GET\thttp://api.example.com/v1/items?id=1".to_string(),
        "POST\thttp://api.example.com/v1/login\tapplication/x-www-form-urlencoded\tuser=bob&passwd=hunter2".to_string(),
        "POST\thttp://api.example.com/v1/sync\tapplication/json\t{\"id\":\"42\",\"state\":\"idle\"}".to_string(),
    ]
}

/// Generates the full suite: `per_class` cases for each attack class,
/// mutating `base` requests where the class calls for realistic carrier
/// traffic (so trie-surviving prefixes stress the real match path).
/// Fully deterministic in `(config, base)`.
pub fn generate_attacks(config: &AdversarialConfig, base: &[Request]) -> Vec<AttackCase> {
    let base_lines: Vec<String> =
        if base.is_empty() { stock_lines() } else { base.iter().map(request_line).collect() };
    let mut seeder = SplitMix64::new(config.seed);
    let mut out = Vec::with_capacity(AttackClass::ALL.len() * config.per_class);
    for class in AttackClass::ALL {
        for _ in 0..config.per_class {
            let seed = seeder.next_u64();
            let line = attack_line(class, seed, &base_lines);
            out.push(AttackCase { class, seed, id: out.len(), line });
        }
    }
    out
}

/// The one line a class's generator draws from a per-case seed.
fn attack_line(class: AttackClass, seed: u64, base: &[String]) -> String {
    let mut rng = Rng::new(seed);
    let rng = &mut rng;
    match class {
        AttackClass::MalformedWire => malformed_wire(rng, base),
        AttackClass::DeepBody => deep_body(rng, base),
        AttackClass::GiantBody => giant_body(rng, base),
        AttackClass::UriMutation => uri_mutation(rng, base),
        AttackClass::RegexExhaustion => regex_exhaustion(rng, base),
        AttackClass::Truncated => truncated(rng, base),
        AttackClass::OversizedHeaders => oversized_headers(rng, base),
    }
}

/// The URI (second) field of a base line, or the whole line if the
/// framing is already odd.
fn base_uri(rng: &mut Rng, base: &[String]) -> String {
    let line = rng.pick(base);
    line.split('\t').nth(1).unwrap_or(line).to_string()
}

/// The URI up to (not including) its query string.
fn base_prefix(rng: &mut Rng, base: &[String]) -> String {
    let uri = base_uri(rng, base);
    match uri.find('?') {
        Some(i) => uri[..i].to_string(),
        None => uri,
    }
}

fn malformed_wire(rng: &mut Rng, base: &[String]) -> String {
    let line = rng.pick(base).clone();
    let uri = base_uri(rng, base);
    match rng.below(8) {
        // Unknown method token (random letters, or a lowercase slip).
        0 => {
            let len = 4 + rng.below(4);
            let m = rng.ascii_string(&['F', 'E', 'T', 'C', 'H', 'g', 'e', 't'], len);
            format!("{m}\t{uri}")
        }
        // Method with no URI at all, or with an empty URI field.
        1 => {
            if rng.chance(1, 2) {
                "GET".to_string()
            } else {
                "GET\t".to_string()
            }
        }
        // NUL bytes embedded in the URI.
        2 => {
            let mut u = uri;
            let at = rng.below(u.len().max(1));
            let mut safe = at.min(u.len());
            while !u.is_char_boundary(safe) {
                safe -= 1;
            }
            u.insert(safe, '\0');
            format!("GET\t{u}")
        }
        // MIME tag with the body field missing.
        3 => format!("POST\t{uri}\tapplication/json"),
        // MIME tag nobody registered.
        4 => {
            let len = 6 + rng.below(10);
            let m = rng.ascii_string(&['a', 'b', 'c', '/', '-'], len);
            format!("POST\t{uri}\t{m}\tpayload")
        }
        // Binary length field: u64 overflow, negative, or absurd.
        5 => {
            let len = match rng.below(3) {
                0 => format!("{}9", u64::MAX),
                1 => "-5".to_string(),
                _ => format!("{}", 1u64 << 40),
            };
            format!("POST\t{uri}\tapplication/octet-stream\t{len}")
        }
        // Trailing fields after a complete body.
        6 => format!("{line}\ttext/plain\textra\tfields"),
        // Broken escape sequences inside the body field.
        _ => format!("POST\t{uri}\ttext/plain\tbad\\qescape\\"),
    }
}

fn deep_body(rng: &mut Rng, base: &[String]) -> String {
    let uri = base_prefix(rng, base);
    // Straddle the parser depth limit (128): under it the body parses
    // and classifies, over it the parser must give a structured error.
    let depth = 64 + rng.below(192);
    if rng.chance(1, 2) {
        let body = match rng.below(3) {
            0 => format!("{}1{}", "[".repeat(depth), "]".repeat(depth)),
            1 => format!("{}{{}}{}", "{\"k\":".repeat(depth), "}".repeat(depth)),
            _ => format!("{}[0]{}", "[{\"a\":".repeat(depth), "}]".repeat(depth)),
        };
        format!("POST\t{uri}\tapplication/json\t{body}")
    } else {
        let body = format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth));
        format!("POST\t{uri}\tapplication/xml\t{body}")
    }
}

fn giant_body(rng: &mut Rng, base: &[String]) -> String {
    let uri = base_prefix(rng, base);
    match rng.below(3) {
        // A wide (but shallow) array: tens of thousands of nodes.
        0 => {
            let n = 10_000 + rng.below(40_000);
            let mut body = String::with_capacity(n * 2 + 2);
            body.push('[');
            for i in 0..n {
                if i > 0 {
                    body.push(',');
                }
                body.push('0');
            }
            body.push(']');
            format!("POST\t{uri}\tapplication/json\t{body}")
        }
        // One very long string value.
        1 => {
            let n = 100_000 + rng.below(400_000);
            let body = format!("{{\"blob\":\"{}\"}}", "A".repeat(n));
            format!("POST\t{uri}\tapplication/json\t{body}")
        }
        // A giant free-text body.
        _ => {
            let n = 100_000 + rng.below(400_000);
            format!("POST\t{uri}\ttext/plain\t{}", "z".repeat(n))
        }
    }
}

fn uri_mutation(rng: &mut Rng, base: &[String]) -> String {
    let mut uri = base_uri(rng, base);
    for _ in 0..1 + rng.below(6) {
        let chars: Vec<char> = uri.chars().collect();
        if chars.is_empty() {
            break;
        }
        let at = rng.below(chars.len());
        match rng.below(4) {
            // Percent-encode one character (possibly one that did not
            // need it — %2F in a path changes matching, not validity).
            0 => {
                let mut out: String = chars[..at].iter().collect();
                let mut buf = [0u8; 4];
                for b in chars[at].encode_utf8(&mut buf).bytes() {
                    out.push_str(&format!("%{b:02X}"));
                }
                out.extend(&chars[at + 1..]);
                uri = out;
            }
            // Inject a malformed %-escape.
            1 => {
                let mut out: String = chars[..at].iter().collect();
                const BAD_ESCAPES: [&str; 4] = ["%ZZ", "%", "%0", "%%20"];
                out.push_str(rng.pick::<&str>(&BAD_ESCAPES));
                out.extend(&chars[at..]);
                uri = out;
            }
            // Swap in a Cyrillic homoglyph for a Latin letter.
            2 => {
                let mut out = chars.clone();
                for probe in 0..out.len() {
                    let i = (at + probe) % out.len();
                    if let Some((_, glyph)) = HOMOGLYPHS.iter().find(|(l, _)| *l == out[i]) {
                        out[i] = *glyph;
                        break;
                    }
                }
                uri = out.into_iter().collect();
            }
            // Flip ASCII case (hosts are case-insensitive, paths not).
            _ => {
                let mut out = chars.clone();
                out[at] = if out[at].is_ascii_lowercase() {
                    out[at].to_ascii_uppercase()
                } else {
                    out[at].to_ascii_lowercase()
                };
                uri = out.into_iter().collect();
            }
        }
    }
    format!("GET\t{uri}")
}

fn regex_exhaustion(rng: &mut Rng, base: &[String]) -> String {
    // Keep the legit literal prefix so the probe survives trie pruning
    // and actually reaches the structural matcher.
    let prefix = base_prefix(rng, base);
    let query = match rng.below(3) {
        // Many repeated pairs: feeds Rep-loop end-position fan-out.
        0 => {
            let n = 2_000 + rng.below(10_000);
            let mut q = String::new();
            for i in 0..n {
                q.push_str(&format!("q={}&", i % 10));
            }
            q
        }
        // Same key, growing values: ambiguous Rep iteration boundaries.
        1 => {
            let n = 400 + rng.below(1_200);
            let mut q = String::new();
            for i in 0..n {
                q.push_str(&format!("c={}&", "7".repeat(1 + i % 40)));
            }
            q
        }
        // One enormous digit run against `[0-9]+`-shaped segments.
        _ => format!("id={}&x=1", "9".repeat(20_000 + rng.below(60_000))),
    };
    format!("GET\t{prefix}?{query}")
}

fn truncated(rng: &mut Rng, base: &[String]) -> String {
    let line = rng.pick(base).clone();
    if line.is_empty() {
        return line;
    }
    let mut cut = rng.below(line.len());
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    line[..cut].to_string()
}

fn oversized_headers(rng: &mut Rng, base: &[String]) -> String {
    let uri = base_prefix(rng, base);
    let n = 500 + rng.below(4_000);
    if rng.chance(1, 2) {
        // Thousands of query pairs.
        let mut q = String::new();
        for i in 0..n {
            if i > 0 {
                q.push('&');
            }
            q.push_str(&format!("h{i}=v{i}"));
        }
        format!("GET\t{uri}?{q}")
    } else {
        // A form body with thousands of distinct keys.
        let mut body = String::new();
        for i in 0..n {
            if i > 0 {
                body.push('&');
            }
            body.push_str(&format!("f{i}=x"));
        }
        format!("POST\t{uri}\tapplication/x-www-form-urlencoded\t{body}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_tagged() {
        let cfg = AdversarialConfig { seed: 7, per_class: 4 };
        let a = generate_attacks(&cfg, &[]);
        let b = generate_attacks(&cfg, &[]);
        assert_eq!(a.len(), AttackClass::ALL.len() * 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.line, y.line);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.class, y.class);
        }
        // Different seeds diverge.
        let c = generate_attacks(&AdversarialConfig { seed: 8, per_class: 4 }, &[]);
        assert!(a.iter().zip(&c).any(|(x, y)| x.line != y.line));
    }

    #[test]
    fn every_case_parses_or_errors_without_panic() {
        let cfg = AdversarialConfig { seed: 99, per_class: 8 };
        for case in generate_attacks(&cfg, &[]) {
            // Totality: Ok or structured error; the call itself must not
            // panic for any class.
            let _ = case.parse();
        }
    }

    #[test]
    fn suite_prefix_is_stable_across_sizes() {
        // The seed stream is drawn class by class, so growing per_class
        // keeps the first class's cases as a shared prefix and shifts
        // every later class's seeds.
        let small = generate_attacks(&AdversarialConfig { seed: 5, per_class: 2 }, &[]);
        let large = generate_attacks(&AdversarialConfig { seed: 5, per_class: 5 }, &[]);
        let first = AttackClass::ALL[0];
        let shared = small.iter().take_while(|c| c.class == first).count();
        assert_eq!(shared, 2);
        for (s, l) in small.iter().zip(&large).take(shared) {
            assert_eq!((s.class, s.seed, &s.line), (l.class, l.seed, &l.line));
        }
        assert_ne!(small[shared].seed, large[5].seed, "later classes draw shifted seeds");
        // Every case regenerates from its own seed alone.
        let base = stock_lines();
        for case in small.iter().chain(&large) {
            assert_eq!(attack_line(case.class, case.seed, &base), case.line, "case {}", case.id);
        }
    }
}
