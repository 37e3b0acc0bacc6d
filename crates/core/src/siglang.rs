//! The intermediate signature language (paper Fig. 4).
//!
//! ```text
//! sig_pat    ::= term | concat(term, term) | rep{term} | term ∨ term
//! term       ::= constant | struct_str | unknown
//! struct_str ::= json(obj) | xml(obj)
//! ```
//!
//! Signatures are built by the flow-sensitive interpreter in
//! [`crate::sigbuild`] and finally compiled to regular expressions:
//! "The regex format of a variable object is derived from its type (e.g.,
//! `[0-9]+` for integer variables and `.*` for string variables).
//! Repetitions (`rep`) and disjunctions (`∨`) are respectively converted
//! into the Kleene star and `|`" (§3.2). JSON/XML signatures stay trees
//! ("whose leaves are string literals or numbers") and can additionally be
//! rendered as JSON-Schema or DTD (§1).

use extractocol_http::regexlite::{escape_literal, BudgetExceeded};
use extractocol_http::{JsonValue, XmlElement, XmlNode};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Type-derived wildcard hints for `unknown` terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TypeHint {
    /// Numeric unknown → `[0-9]+`.
    Num,
    /// Boolean unknown → `(true|false)`.
    Bool,
    /// String/any unknown → `.*`.
    Str,
}

/// A string signature pattern.
///
/// Derives a total order so `Or` disjunctions can be kept canonical
/// (sorted, deduplicated) — semantically equal signatures then render
/// byte-identical regexes regardless of the order confluence arms were
/// merged in.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SigPat {
    /// A string literal known exactly.
    Const(String),
    /// An unknown part with a type-derived wildcard.
    Unknown(TypeHint),
    /// Concatenation of parts.
    Concat(Vec<SigPat>),
    /// A part that may repeat zero or more times (loop-variant content).
    Rep(Box<SigPat>),
    /// Disjunction of alternatives (control-flow confluence).
    Or(Vec<SigPat>),
    /// A structured JSON body embedded in a string position.
    Json(JsonSig),
    /// A structured XML body embedded in a string position.
    Xml(Box<XmlSig>),
}

impl SigPat {
    /// The empty constant.
    pub fn empty() -> SigPat {
        SigPat::Const(String::new())
    }

    /// A constant from a string slice.
    pub fn lit(s: &str) -> SigPat {
        SigPat::Const(s.to_string())
    }

    /// An unknown string part.
    pub fn any_str() -> SigPat {
        SigPat::Unknown(TypeHint::Str)
    }

    /// Concatenates two patterns and normalizes.
    pub fn concat(self, other: SigPat) -> SigPat {
        SigPat::Concat(vec![self, other]).normalize()
    }

    /// Merges with another pattern under disjunction and normalizes.
    pub fn or(self, other: SigPat) -> SigPat {
        SigPat::Or(vec![self, other]).normalize()
    }

    /// Structural normalization: flattens nested concats/ors, merges
    /// adjacent constants, drops empty constants inside concats, and
    /// canonicalizes disjunctions (arms sorted and deduplicated, so `a ∨ a`
    /// collapses and every merge order of the same arm set renders the same
    /// regex). Idempotent (property-tested).
    pub fn normalize(self) -> SigPat {
        match self {
            SigPat::Concat(items) => {
                let mut flat: Vec<SigPat> = Vec::new();
                for it in items {
                    match it.normalize() {
                        SigPat::Concat(sub) => flat.extend(sub),
                        SigPat::Const(s) if s.is_empty() => {}
                        other => flat.push(other),
                    }
                }
                // merge adjacent constants
                let mut merged: Vec<SigPat> = Vec::new();
                for it in flat {
                    match (merged.last_mut(), it) {
                        (Some(SigPat::Const(a)), SigPat::Const(b)) => a.push_str(&b),
                        (_, it) => merged.push(it),
                    }
                }
                match merged.len() {
                    0 => SigPat::empty(),
                    1 => merged.pop().unwrap(),
                    _ => SigPat::Concat(merged),
                }
            }
            SigPat::Or(items) => {
                let mut flat: Vec<SigPat> = Vec::new();
                for it in items {
                    match it.normalize() {
                        SigPat::Or(sub) => flat.extend(sub),
                        other => flat.push(other),
                    }
                }
                // Canonical form: stable (sorted) arm order + dedup. Arm
                // order never carries meaning for a disjunction, and a
                // canonical order makes normalization confluent — merging
                // `a ∨ b` and `b ∨ a` yields one representation.
                flat.sort();
                flat.dedup();
                match flat.len() {
                    0 => SigPat::empty(),
                    1 => flat.pop().unwrap(),
                    _ => SigPat::Or(flat),
                }
            }
            SigPat::Rep(inner) => SigPat::Rep(Box::new(inner.normalize())),
            other => other,
        }
    }

    /// The *mandatory* literal prefix of this pattern: the longest run of
    /// constant bytes every matching string must start with. Matching is
    /// whole-string anchored, so a leading `Const` run is a hard
    /// requirement — the serving index keys its byte-trie on this.
    ///
    /// Extraction stops at the first `Or`, `Rep`, `Unknown`, `Json`, or
    /// `Xml` part (any of them can begin the string with arbitrary bytes —
    /// `Rep` matches zero iterations, `Or` arms diverge), **and** at the
    /// first `%` byte inside a constant: `%`-escaped bytes are kept out of
    /// the trie so percent-encoding-normalizing front ends can never be
    /// pruned against raw signature bytes. Stopping early is always sound —
    /// it only weakens pruning, never drops a match.
    ///
    /// A signature that starts with a variable part (e.g. a dynamically
    /// derived host, `(.*)/path`) yields the empty prefix and lands in the
    /// index's root fallback bucket rather than being dropped.
    pub fn literal_prefix(&self) -> String {
        fn walk(p: &SigPat, out: &mut String) -> bool {
            match p {
                SigPat::Const(s) => match s.find('%') {
                    Some(i) => {
                        out.push_str(&s[..i]);
                        false
                    }
                    None => {
                        out.push_str(s);
                        true
                    }
                },
                SigPat::Concat(items) => items.iter().all(|it| walk(it, out)),
                SigPat::Or(_)
                | SigPat::Rep(_)
                | SigPat::Unknown(_)
                | SigPat::Json(_)
                | SigPat::Xml(_) => false,
            }
        }
        let mut out = String::new();
        walk(&self.clone().normalize(), &mut out);
        out
    }

    /// Top-level disjunction arms (after normalization): the distinct
    /// message patterns a signature covers. Table 1 counts these.
    pub fn disjuncts(&self) -> Vec<SigPat> {
        match self.clone().normalize() {
            SigPat::Or(items) => items,
            other => vec![other],
        }
    }

    /// Detects the loop-variant part between the signature of a value
    /// before a loop iteration and after it: if `after` extends `before`
    /// (structural prefix), the delta becomes `before · rep{delta}`
    /// (§3.2: "identifies the loop variant part of string objects and …
    /// marks the part can be repeated").
    pub fn widen_loop(before: &SigPat, after: &SigPat) -> SigPat {
        let b = before.clone().normalize();
        match SigPat::loop_delta(before, after) {
            Some(delta) if delta.is_epsilon() => b,
            Some(delta) => SigPat::Concat(vec![b, SigPat::Rep(Box::new(delta))]).normalize(),
            // No structural prefix: fall back to disjunction, which stays
            // sound.
            None => b.or(after.clone().normalize()),
        }
    }

    /// The per-iteration suffix of a loop accumulator: when `after` is
    /// `before` followed by extra parts, returns that delta (the empty
    /// pattern when they are equal). `None` means `after` does not
    /// structurally extend `before` — not an accumulator shape.
    pub fn loop_delta(before: &SigPat, after: &SigPat) -> Option<SigPat> {
        let b = before.clone().normalize();
        let a = after.clone().normalize();
        if a == b {
            return Some(SigPat::Const(String::new()));
        }
        let bv = match &b {
            SigPat::Concat(v) => v.clone(),
            other => vec![other.clone()],
        };
        let av = match &a {
            SigPat::Concat(v) => v.clone(),
            other => vec![other.clone()],
        };
        let delta = strip_prefix_parts(&bv, &av)?;
        Some(SigPat::Concat(delta).normalize())
    }

    /// True for the empty pattern (matches only the empty string).
    pub fn is_epsilon(&self) -> bool {
        match self {
            SigPat::Const(s) => s.is_empty(),
            SigPat::Concat(v) => v.iter().all(SigPat::is_epsilon),
            _ => false,
        }
    }

    /// All constant keywords (string literals) appearing in the signature —
    /// the Fig. 7 metric for request bodies/query strings counts keys in
    /// key-value pairs; here we expose every literal and let callers parse
    /// keys out.
    pub fn constants(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_constants(&mut out);
        out
    }

    fn collect_constants<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            SigPat::Const(s) => {
                if !s.is_empty() {
                    out.push(s);
                }
            }
            SigPat::Concat(v) | SigPat::Or(v) => {
                for p in v {
                    p.collect_constants(out);
                }
            }
            SigPat::Rep(p) => p.collect_constants(out),
            SigPat::Json(j) => j.collect_constants(out),
            SigPat::Xml(x) => x.collect_constants(out),
            SigPat::Unknown(_) => {}
        }
    }

    /// Compiles to the regex dialect of `extractocol-http::regexlite`.
    pub fn to_regex(&self) -> String {
        match self {
            SigPat::Const(s) => escape_literal(s),
            SigPat::Unknown(TypeHint::Num) => "[0-9]+".to_string(),
            SigPat::Unknown(TypeHint::Bool) => "(true|false)".to_string(),
            SigPat::Unknown(TypeHint::Str) => ".*".to_string(),
            SigPat::Concat(items) => items.iter().map(SigPat::to_regex).collect(),
            SigPat::Rep(inner) => format!("({})*", inner.to_regex()),
            SigPat::Or(items) => {
                let arms: Vec<String> = items.iter().map(SigPat::to_regex).collect();
                format!("({})", arms.join("|"))
            }
            SigPat::Json(j) => j.to_regex(),
            // XmlSig::to_regex has a top-level `|`; parenthesize so the
            // alternation cannot swallow neighbouring concat parts or a
            // surrounding `*`.
            SigPat::Xml(x) => format!("({})", x.to_regex()),
        }
    }

    /// A human-readable rendering close to the paper's notation, e.g.
    /// `(http://host/)(.*)(&sort=)(.*)`.
    pub fn display(&self) -> String {
        match self {
            SigPat::Const(s) => format!("({s})"),
            SigPat::Unknown(TypeHint::Num) => "([0-9]+)".to_string(),
            SigPat::Unknown(TypeHint::Bool) => "(true|false)".to_string(),
            SigPat::Unknown(TypeHint::Str) => "(.*)".to_string(),
            SigPat::Concat(items) => items.iter().map(SigPat::display).collect(),
            SigPat::Rep(inner) => format!("rep{{{}}}", inner.display()),
            SigPat::Or(items) => {
                let arms: Vec<String> = items.iter().map(SigPat::display).collect();
                arms.join(" | ")
            }
            SigPat::Json(j) => j.display(),
            SigPat::Xml(x) => format!("xml({})", x.to_regex()),
        }
    }

    /// Structural whole-string matching evaluated directly on the signature
    /// tree — fully independent of [`SigPat::to_regex`] and the regexlite
    /// engine, embedded JSON/XML leaves included, so the conformance oracle
    /// can cross-check the regex compiler instead of trusting it to test
    /// itself. This is the only engine that decides whether traffic
    /// matches a signature.
    pub fn matches(&self, s: &str) -> bool {
        self.matches_budgeted(s, usize::MAX).expect("unbounded budget cannot be exceeded")
    }

    /// Budgeted structural matching. `Err(BudgetExceeded)` is distinct from
    /// a non-match: running out of steps is never reported as "no match".
    pub fn matches_budgeted(&self, s: &str, budget: usize) -> Result<bool, BudgetExceeded> {
        let mut steps = 0usize;
        let starts: BTreeSet<usize> = std::iter::once(0).collect();
        let ends = self.ends_from(s, &starts, &mut steps, budget)?;
        Ok(ends.contains(&s.len()))
    }

    /// The set of byte positions reachable after matching `self` starting
    /// from any position in `starts`. Positions are always char boundaries.
    fn ends_from(
        &self,
        s: &str,
        starts: &BTreeSet<usize>,
        steps: &mut usize,
        budget: usize,
    ) -> Result<BTreeSet<usize>, BudgetExceeded> {
        *steps = steps.saturating_add(starts.len().max(1));
        if *steps > budget {
            return Err(BudgetExceeded { budget });
        }
        let mut out = BTreeSet::new();
        match self {
            SigPat::Const(c) => {
                for &p in starts {
                    if s[p..].starts_with(c.as_str()) {
                        out.insert(p + c.len());
                    }
                }
            }
            SigPat::Unknown(TypeHint::Str) => {
                // `.*`: from the earliest start, every boundary at or after
                // some start is reachable; starts are sorted, so everything
                // at or after the minimum qualifies.
                if let Some(&lo) = starts.iter().next() {
                    for q in lo..=s.len() {
                        if s.is_char_boundary(q) {
                            out.insert(q);
                        }
                    }
                    *steps = steps.saturating_add(s.len() - lo + 1);
                }
            }
            SigPat::Unknown(TypeHint::Num) => {
                // `[0-9]+`: at least one digit.
                let bytes = s.as_bytes();
                for &p in starts {
                    let mut q = p;
                    while q < s.len() && bytes[q].is_ascii_digit() {
                        q += 1;
                        out.insert(q);
                    }
                }
            }
            SigPat::Unknown(TypeHint::Bool) => {
                for &p in starts {
                    for lit in ["true", "false"] {
                        if s[p..].starts_with(lit) {
                            out.insert(p + lit.len());
                        }
                    }
                }
            }
            SigPat::Concat(items) => {
                let mut cur = starts.clone();
                for it in items {
                    cur = it.ends_from(s, &cur, steps, budget)?;
                    if cur.is_empty() {
                        break;
                    }
                }
                return Ok(cur);
            }
            SigPat::Or(arms) => {
                for a in arms {
                    out.extend(a.ends_from(s, starts, steps, budget)?);
                }
            }
            SigPat::Rep(inner) => {
                // Zero or more repetitions: the transitive closure of the
                // inner pattern's end positions. Terminates because every
                // round only adds new (strictly bounded) positions.
                let mut all = starts.clone();
                let mut frontier = starts.clone();
                while !frontier.is_empty() {
                    let next = inner.ends_from(s, &frontier, steps, budget)?;
                    frontier = next.difference(&all).copied().collect();
                    all.extend(frontier.iter().copied());
                }
                return Ok(all);
            }
            SigPat::Json(_) | SigPat::Xml(_) => {
                // An embedded JSON/XML document: any slice that parses and
                // satisfies the tree signature. Each parse attempt is
                // charged its slice length, so the quadratic slice scan
                // over a long tail exhausts the budget instead of burning
                // unbounded parse work.
                for &p in starts {
                    for q in (p + 1)..=s.len() {
                        if !s.is_char_boundary(q) {
                            continue;
                        }
                        *steps = steps.saturating_add(q - p);
                        if *steps > budget {
                            return Err(BudgetExceeded { budget });
                        }
                        let hit = match self {
                            SigPat::Json(j) => match JsonValue::parse(&s[p..q]) {
                                Ok(v) => j.matches_counted(&v, steps, budget)?,
                                Err(_) => false,
                            },
                            SigPat::Xml(x) => match XmlElement::parse(&s[p..q]) {
                                Ok(e) => x.matches_counted(&e, steps, budget)?,
                                Err(_) => false,
                            },
                            _ => unreachable!("only embedded-tree patterns reach this arm"),
                        };
                        if hit {
                            out.insert(q);
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Display for SigPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display())
    }
}

/// Removes `prefix` from the front of `full`, returning the remainder —
/// element-wise, with string-prefix splitting when normalization merged a
/// loop's delta into the trailing constant (`"base?"` vs `"base?id=0&"`).
fn strip_prefix_parts(prefix: &[SigPat], full: &[SigPat]) -> Option<Vec<SigPat>> {
    let mut rest = full.to_vec();
    for (i, p) in prefix.iter().enumerate() {
        let head = rest.first().cloned()?;
        if head == *p {
            rest.remove(0);
            continue;
        }
        match (p, &head) {
            (SigPat::Const(pb), SigPat::Const(fa)) if fa.starts_with(pb.as_str()) => {
                // Split the constant: the remainder starts the delta — but
                // only valid when this is the last prefix element.
                if i + 1 != prefix.len() {
                    return None;
                }
                rest[0] = SigPat::Const(fa[pb.len()..].to_string());
                if matches!(&rest[0], SigPat::Const(s) if s.is_empty()) {
                    rest.remove(0);
                }
                return Some(rest);
            }
            _ => return None,
        }
    }
    Some(rest)
}

// ---------------------------------------------------------------------------
// JSON tree signatures
// ---------------------------------------------------------------------------

/// A JSON signature tree: "For JSON and XML objects, Extractocol maintains
/// a tree data structure" (§3.2). Built from `put` operations (requests)
/// or `get` operations (responses — the keys the app actually reads).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum JsonSig {
    /// An object with known keys. Keys absent from the map are
    /// unconstrained (responses routinely carry more keys than an app
    /// reads, §5.1 "some apps do not inspect all keywords").
    Object(BTreeMap<String, JsonSig>),
    /// An array whose elements match the given signature.
    Array(Box<JsonSig>),
    /// A leaf whose string form matches the pattern.
    Value(Box<SigPat>),
    /// Completely unconstrained.
    Unknown,
}

impl JsonSig {
    /// An empty object signature.
    pub fn object() -> JsonSig {
        JsonSig::Object(BTreeMap::new())
    }

    /// Inserts a key (builder style), merging on collision.
    pub fn put(&mut self, key: &str, v: JsonSig) {
        if let JsonSig::Unknown = self {
            *self = JsonSig::object();
        }
        if let JsonSig::Object(m) = self {
            match m.remove(key) {
                Some(old) => {
                    m.insert(key.to_string(), JsonSig::merge(old, v));
                }
                None => {
                    m.insert(key.to_string(), v);
                }
            }
        }
    }

    /// Navigates/creates the child under `key`, for response-reader
    /// refinement.
    pub fn child_mut(&mut self, key: &str) -> &mut JsonSig {
        if !matches!(self, JsonSig::Object(_)) {
            *self = JsonSig::object();
        }
        match self {
            JsonSig::Object(m) => m.entry(key.to_string()).or_insert(JsonSig::Unknown),
            _ => unreachable!(),
        }
    }

    /// Coerces this node to an array and returns the element signature.
    pub fn element_mut(&mut self) -> &mut JsonSig {
        if !matches!(self, JsonSig::Array(_)) {
            *self = JsonSig::Array(Box::new(JsonSig::Unknown));
        }
        match self {
            JsonSig::Array(e) => e,
            _ => unreachable!(),
        }
    }

    /// Merges two signatures (union of constraints at matching positions).
    pub fn merge(a: JsonSig, b: JsonSig) -> JsonSig {
        match (a, b) {
            (JsonSig::Unknown, x) | (x, JsonSig::Unknown) => x,
            (JsonSig::Object(mut ma), JsonSig::Object(mb)) => {
                for (k, v) in mb {
                    match ma.remove(&k) {
                        Some(old) => {
                            ma.insert(k, JsonSig::merge(old, v));
                        }
                        None => {
                            ma.insert(k, v);
                        }
                    }
                }
                JsonSig::Object(ma)
            }
            (JsonSig::Array(ea), JsonSig::Array(eb)) => {
                JsonSig::Array(Box::new(JsonSig::merge(*ea, *eb)))
            }
            (JsonSig::Value(pa), JsonSig::Value(pb)) => {
                if pa == pb {
                    JsonSig::Value(pa)
                } else {
                    JsonSig::Value(Box::new(pa.or(*pb)))
                }
            }
            // Mixed shapes: give up the structure, keep validity.
            (_, _) => JsonSig::Unknown,
        }
    }

    /// Structural match against a concrete JSON value. Extra keys in the
    /// value are allowed; missing constrained keys are not.
    pub fn matches(&self, v: &JsonValue) -> bool {
        self.matches_budgeted(v, usize::MAX).expect("unbounded budget cannot be exceeded")
    }

    /// Budgeted structural match. Every signature/value node visited costs
    /// one step and each leaf pattern runs [`SigPat::matches_budgeted`]
    /// under a fresh budget of its own, so a giant or deeply nested body
    /// cannot burn unbounded work.
    /// `Err(BudgetExceeded)` is distinct from `Ok(false)`, mirroring
    /// [`SigPat::matches_budgeted`].
    pub fn matches_budgeted(&self, v: &JsonValue, budget: usize) -> Result<bool, BudgetExceeded> {
        let mut steps = 0usize;
        self.matches_counted(v, &mut steps, budget)
    }

    fn matches_counted(
        &self,
        v: &JsonValue,
        steps: &mut usize,
        budget: usize,
    ) -> Result<bool, BudgetExceeded> {
        *steps = steps.saturating_add(1);
        if *steps > budget {
            return Err(BudgetExceeded { budget });
        }
        Ok(match (self, v) {
            (JsonSig::Unknown, _) => true,
            (JsonSig::Object(m), JsonValue::Object(vm)) => {
                for (k, s) in m {
                    let hit = match vm.get(k) {
                        Some(vv) => s.matches_counted(vv, steps, budget)?,
                        None => false,
                    };
                    if !hit {
                        return Ok(false);
                    }
                }
                true
            }
            (JsonSig::Array(e), JsonValue::Array(va)) => {
                for vv in va {
                    if !e.matches_counted(vv, steps, budget)? {
                        return Ok(false);
                    }
                }
                true
            }
            // A JSON body whose top level is an array of one station etc.
            (JsonSig::Object(_), JsonValue::Array(va)) => {
                // Tolerate the common wrap-in-array idiom: match any element.
                for vv in va {
                    if self.matches_counted(vv, steps, budget)? {
                        return Ok(true);
                    }
                }
                false
            }
            (JsonSig::Value(p), JsonValue::String(s)) => p.matches_budgeted(s, budget)?,
            (JsonSig::Value(p), other) => p.matches_budgeted(&other.to_json(), budget)?,
            _ => false,
        })
    }

    /// All constant keys in the tree, recursively (Fig. 7 metric for
    /// JSON bodies).
    pub fn keys(&self) -> Vec<&str> {
        let mut out = Vec::new();
        fn walk<'a>(s: &'a JsonSig, out: &mut Vec<&'a str>) {
            match s {
                JsonSig::Object(m) => {
                    for (k, v) in m {
                        out.push(k.as_str());
                        walk(v, out);
                    }
                }
                JsonSig::Array(e) => walk(e, out),
                _ => {}
            }
        }
        walk(self, &mut out);
        out
    }

    fn collect_constants<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            JsonSig::Object(m) => {
                for (k, v) in m {
                    out.push(k.as_str());
                    v.collect_constants(out);
                }
            }
            JsonSig::Array(e) => e.collect_constants(out),
            JsonSig::Value(p) => p.collect_constants(out),
            JsonSig::Unknown => {}
        }
    }

    /// Regex over the serialized JSON (used when a JSON body is embedded in
    /// a string signature). Key order matches our serializer (sorted).
    pub fn to_regex(&self) -> String {
        match self {
            JsonSig::Unknown => ".*".to_string(),
            JsonSig::Value(p) => p.to_regex(),
            JsonSig::Array(e) => format!("\\[({},?)*\\]", e.to_regex()),
            JsonSig::Object(m) => {
                let mut parts = vec!["\\{.*".to_string()];
                for (k, v) in m {
                    parts.push(format!("\"{}\":.*{}.*", escape_literal(k), inner_regex(v)));
                }
                parts.push("\\}".to_string());
                parts.join("")
            }
        }
    }

    /// Paper-style display: `{ "key": <sig>, … }`.
    pub fn display(&self) -> String {
        match self {
            JsonSig::Unknown => "*".to_string(),
            JsonSig::Value(p) => p.display(),
            JsonSig::Array(e) => format!("[{}]", e.display()),
            JsonSig::Object(m) => {
                let fields: Vec<String> =
                    m.iter().map(|(k, v)| format!("\"{}\": {}", k, v.display())).collect();
                format!("{{ {} }}", fields.join(", "))
            }
        }
    }

    /// JSON-Schema rendering (paper §1: "JSON schema for JSON bodies").
    pub fn to_json_schema(&self) -> JsonValue {
        match self {
            JsonSig::Unknown => {
                let mut o = JsonValue::object();
                o.insert("type", JsonValue::str("any"));
                o
            }
            JsonSig::Value(p) => {
                let mut o = JsonValue::object();
                o.insert("type", JsonValue::str("string"));
                o.insert("pattern", JsonValue::str(&p.to_regex()));
                o
            }
            JsonSig::Array(e) => {
                let mut o = JsonValue::object();
                o.insert("type", JsonValue::str("array"));
                o.insert("items", e.to_json_schema());
                o
            }
            JsonSig::Object(m) => {
                let mut props = JsonValue::object();
                let mut required = Vec::new();
                for (k, v) in m {
                    props.insert(k, v.to_json_schema());
                    required.push(JsonValue::str(k));
                }
                let mut o = JsonValue::object();
                o.insert("type", JsonValue::str("object"));
                o.insert("properties", props);
                o.insert("required", JsonValue::Array(required));
                o
            }
        }
    }
}

fn inner_regex(v: &JsonSig) -> String {
    match v {
        JsonSig::Value(p) => p.to_regex(),
        other => other.to_regex(),
    }
}

// ---------------------------------------------------------------------------
// XML tree signatures
// ---------------------------------------------------------------------------

/// An XML signature tree: tag name, constrained attributes, child element
/// signatures, optional text pattern.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct XmlSig {
    pub name: String,
    pub attrs: Vec<(String, SigPat)>,
    pub children: Vec<XmlSig>,
    pub text: Option<SigPat>,
}

impl XmlSig {
    /// A tag with no constraints.
    pub fn tag(name: &str) -> XmlSig {
        XmlSig { name: name.to_string(), attrs: Vec::new(), children: Vec::new(), text: None }
    }

    /// Adds a child (builder style).
    pub fn child(mut self, c: XmlSig) -> XmlSig {
        self.children.push(c);
        self
    }

    /// Constrains an attribute (builder style).
    pub fn attr(mut self, k: &str, v: SigPat) -> XmlSig {
        self.attrs.push((k.to_string(), v));
        self
    }

    /// Finds or creates the child tag, for response-reader refinement.
    pub fn child_mut(&mut self, name: &str) -> &mut XmlSig {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            &mut self.children[i]
        } else {
            self.children.push(XmlSig::tag(name));
            self.children.last_mut().unwrap()
        }
    }

    /// Structural match against a concrete element: tag equal (an empty
    /// signature name is a wildcard — response readers that jump straight
    /// to `getElementsByTagName` never learn the document root's tag),
    /// every constrained attribute present and matching, every child
    /// signature matched by some descendant element, text pattern (if
    /// any) matching.
    pub fn matches(&self, e: &XmlElement) -> bool {
        self.matches_budgeted(e, usize::MAX).expect("unbounded budget cannot be exceeded")
    }

    /// Budgeted structural match: element visits cost one step each and
    /// each attribute/text pattern runs [`SigPat::matches_budgeted`] under a
    /// fresh budget of its own, so a giant or deeply nested document cannot
    /// burn unbounded work.
    /// `Err(BudgetExceeded)` is distinct from `Ok(false)`.
    pub fn matches_budgeted(&self, e: &XmlElement, budget: usize) -> Result<bool, BudgetExceeded> {
        let mut steps = 0usize;
        self.matches_counted(e, &mut steps, budget)
    }

    fn matches_counted(
        &self,
        e: &XmlElement,
        steps: &mut usize,
        budget: usize,
    ) -> Result<bool, BudgetExceeded> {
        *steps = steps.saturating_add(1);
        if *steps > budget {
            return Err(BudgetExceeded { budget });
        }
        if !self.name.is_empty() && e.name != self.name {
            return Ok(false);
        }
        for (k, p) in &self.attrs {
            let Some(v) = e.attr_value(k) else { return Ok(false) };
            if !p.matches_budgeted(v, budget)? {
                return Ok(false);
            }
        }
        for cs in &self.children {
            fn any_descendant(
                e: &XmlElement,
                cs: &XmlSig,
                steps: &mut usize,
                budget: usize,
            ) -> Result<bool, BudgetExceeded> {
                for n in &e.children {
                    if let XmlNode::Element(ce) = n {
                        *steps = steps.saturating_add(1);
                        if *steps > budget {
                            return Err(BudgetExceeded { budget });
                        }
                        if cs.matches_counted(ce, steps, budget)?
                            || any_descendant(ce, cs, steps, budget)?
                        {
                            return Ok(true);
                        }
                    }
                }
                Ok(false)
            }
            if !any_descendant(e, cs, steps, budget)? {
                return Ok(false);
            }
        }
        if let Some(tp) = &self.text {
            if !tp.matches_budgeted(&e.text_content(), budget)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Tag/attribute names, recursively (Fig. 7 metric for XML bodies).
    pub fn keywords(&self) -> Vec<&str> {
        let mut out = vec![self.name.as_str()];
        for (k, _) in &self.attrs {
            out.push(k.as_str());
        }
        for c in &self.children {
            out.extend(c.keywords());
        }
        out
    }

    fn collect_constants<'a>(&'a self, out: &mut Vec<&'a str>) {
        out.push(self.name.as_str());
        for (k, p) in &self.attrs {
            out.push(k.as_str());
            p.collect_constants(out);
        }
        if let Some(t) = &self.text {
            t.collect_constants(out);
        }
        for c in &self.children {
            c.collect_constants(out);
        }
    }

    /// Loose regex over serialized XML.
    pub fn to_regex(&self) -> String {
        let name = escape_literal(&self.name);
        format!("<{name}.*</{name}>|<{name}[^>]*/>")
    }

    /// DTD rendering (paper §1: "Document Type Definition (DTD) for XML").
    pub fn to_dtd(&self) -> String {
        let mut out = String::new();
        self.dtd_into(&mut out);
        out
    }

    fn dtd_into(&self, out: &mut String) {
        let content = if self.children.is_empty() {
            "(#PCDATA)".to_string()
        } else {
            let names: Vec<&str> = self.children.iter().map(|c| c.name.as_str()).collect();
            format!("({})", names.join(", "))
        };
        out.push_str(&format!("<!ELEMENT {} {}>\n", self.name, content));
        for (k, _) in &self.attrs {
            out.push_str(&format!("<!ATTLIST {} {} CDATA #REQUIRED>\n", self.name, k));
        }
        for c in &self.children {
            c.dtd_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_http::Regex;

    #[test]
    fn normalization_flattens_and_merges() {
        let p = SigPat::Concat(vec![
            SigPat::lit("http://"),
            SigPat::Concat(vec![SigPat::lit("host"), SigPat::lit("/api")]),
            SigPat::empty(),
            SigPat::any_str(),
        ])
        .normalize();
        assert_eq!(p, SigPat::Concat(vec![SigPat::lit("http://host/api"), SigPat::any_str()]));
        // idempotent
        assert_eq!(p.clone().normalize(), p);
    }

    #[test]
    fn or_dedups_and_counts_disjuncts() {
        let p = SigPat::Or(vec![
            SigPat::lit("a"),
            SigPat::Or(vec![SigPat::lit("b"), SigPat::lit("a")]),
        ])
        .normalize();
        assert_eq!(p.disjuncts().len(), 2);
        let single = SigPat::lit("only");
        assert_eq!(single.disjuncts().len(), 1);
    }

    #[test]
    fn regex_compilation_matches_paper_forms() {
        let sig = SigPat::Concat(vec![
            SigPat::lit("http://www.reddit.com/search/.json?q="),
            SigPat::any_str(),
            SigPat::lit("&sort="),
            SigPat::any_str(),
        ]);
        let re = Regex::new(&sig.to_regex()).unwrap();
        assert!(re.is_match("http://www.reddit.com/search/.json?q=cats&sort=top"));
        assert!(!re.is_match("http://www.reddit.com/r/all"));

        let num = SigPat::Concat(vec![
            SigPat::lit("https://h/talks/"),
            SigPat::Unknown(TypeHint::Num),
            SigPat::lit("/ad.json"),
        ]);
        let re = Regex::new(&num.to_regex()).unwrap();
        assert!(re.is_match("https://h/talks/2406/ad.json"));
        assert!(!re.is_match("https://h/talks/late/ad.json"));
    }

    #[test]
    fn widen_loop_introduces_rep() {
        // before: "base?", after: "base?" + "count=" + .* + "&"
        let before = SigPat::lit("base?");
        let after = SigPat::Concat(vec![
            SigPat::lit("base?"),
            SigPat::lit("count="),
            SigPat::any_str(),
            SigPat::lit("&"),
        ]);
        let w = SigPat::widen_loop(&before, &after);
        let re = Regex::new(&w.to_regex()).unwrap();
        assert!(re.is_match("base?"));
        assert!(re.is_match("base?count=1&"));
        assert!(re.is_match("base?count=1&count=2&"));
        assert!(!re.is_match("base?count=1"));
        // unchanged signature stays put
        assert_eq!(SigPat::widen_loop(&before, &before), before);
    }

    #[test]
    fn json_sig_builds_merges_and_matches() {
        let mut sig = JsonSig::object();
        sig.put("relay", JsonSig::Value(Box::new(SigPat::any_str())));
        sig.put("listeners", JsonSig::Value(Box::new(SigPat::any_str())));
        let v =
            JsonValue::parse(r#"{"relay":"http://cdn/x","listeners":"13586","extra":"ignored"}"#)
                .unwrap();
        assert!(sig.matches(&v));
        let missing = JsonValue::parse(r#"{"listeners":"1"}"#).unwrap();
        assert!(!sig.matches(&missing));
        // wrapped-in-array tolerance (radio reddit status.json shape)
        let arr = JsonValue::parse(r#"[{"relay":"r","listeners":"2"}]"#).unwrap();
        assert!(sig.matches(&arr));
        // keys metric
        let mut keys = sig.keys();
        keys.sort();
        assert_eq!(keys, vec!["listeners", "relay"]);
    }

    #[test]
    fn json_sig_merge_unions_keys() {
        let mut a = JsonSig::object();
        a.put("x", JsonSig::Value(Box::new(SigPat::lit("1"))));
        let mut b = JsonSig::object();
        b.put("y", JsonSig::Unknown);
        let m = JsonSig::merge(a, b);
        let mut keys = m.keys();
        keys.sort();
        assert_eq!(keys, vec!["x", "y"]);
    }

    #[test]
    fn json_schema_rendering() {
        let mut sig = JsonSig::object();
        sig.put("id", JsonSig::Value(Box::new(SigPat::Unknown(TypeHint::Num))));
        let schema = sig.to_json_schema();
        assert_eq!(schema.get("type").unwrap().as_str(), Some("object"));
        let props = schema.get("properties").unwrap();
        assert!(props.get("id").is_some());
    }

    #[test]
    fn xml_sig_matches_and_dtd() {
        let sig = XmlSig::tag("vast")
            .attr("version", SigPat::any_str())
            .child(XmlSig::tag("Ad").child(XmlSig::tag("MediaFile")));
        let e = XmlElement::parse(
            "<vast version=\"2.0\"><Ad id=\"1\"><MediaFile>url</MediaFile></Ad></vast>",
        )
        .unwrap();
        assert!(sig.matches(&e));
        let wrong = XmlElement::parse("<vast version=\"2.0\"><NoAd/></vast>").unwrap();
        assert!(!sig.matches(&wrong));
        let dtd = sig.to_dtd();
        assert!(dtd.contains("<!ELEMENT vast (Ad)>"));
        assert!(dtd.contains("<!ATTLIST vast version CDATA #REQUIRED>"));
        assert_eq!(sig.keywords(), vec!["vast", "version", "Ad", "MediaFile"]);
    }

    #[test]
    fn literal_prefix_stops_at_variable_parts() {
        // Plain constant head: the whole leading run is the prefix.
        let sig = SigPat::Concat(vec![
            SigPat::lit("https://h/talks/"),
            SigPat::Unknown(TypeHint::Num),
            SigPat::lit("/ad.json"),
        ]);
        assert_eq!(sig.literal_prefix(), "https://h/talks/");

        // Normalization merges adjacent constants before extraction.
        let merged = SigPat::Concat(vec![SigPat::lit("http://"), SigPat::lit("host/api?q=")]);
        assert_eq!(merged.literal_prefix(), "http://host/api?q=");

        // Or: arms diverge, so extraction stops at the disjunction even
        // when every arm shares a head byte.
        let or = SigPat::Concat(vec![
            SigPat::lit("http://h/"),
            SigPat::Or(vec![SigPat::lit("cats"), SigPat::lit("dogs")]).normalize(),
        ]);
        assert_eq!(or.literal_prefix(), "http://h/");
        // A top-level Or has no mandatory head at all.
        let top = SigPat::Or(vec![SigPat::lit("http://a"), SigPat::lit("http://b")]).normalize();
        assert_eq!(top.literal_prefix(), "");

        // Rep matches zero iterations: nothing after it is mandatory.
        let rep = SigPat::Concat(vec![
            SigPat::lit("base?"),
            SigPat::Rep(Box::new(SigPat::lit("id=1&"))),
            SigPat::lit("end"),
        ]);
        assert_eq!(rep.literal_prefix(), "base?");
    }

    #[test]
    fn literal_prefix_stops_at_percent_escapes() {
        let sig = SigPat::Concat(vec![
            SigPat::lit("https://h/search?q=a%20b&page="),
            SigPat::Unknown(TypeHint::Num),
        ]);
        // Everything before the first `%` byte, nothing after.
        assert_eq!(sig.literal_prefix(), "https://h/search?q=a");
        // A constant *starting* with an escape contributes nothing.
        assert_eq!(SigPat::lit("%7Bx%7D").literal_prefix(), "");
    }

    #[test]
    fn literal_prefix_of_variable_host_is_empty() {
        // Dynamically derived URI: `(.*)` — the Tables 3–4 `GET (.*)` rows.
        assert_eq!(SigPat::any_str().literal_prefix(), "");
        // Variable host with a constant path: still no mandatory head,
        // so the serving index must file it under the root fallback
        // bucket, not drop it.
        let sig = SigPat::Concat(vec![SigPat::any_str(), SigPat::lit("/status.json")]);
        assert_eq!(sig.literal_prefix(), "");
        // Structured heads are variable too.
        let mut o = JsonSig::object();
        o.put("k", JsonSig::Unknown);
        assert_eq!(SigPat::Json(o).literal_prefix(), "");
    }

    #[test]
    fn constants_extraction() {
        let sig =
            SigPat::Concat(vec![SigPat::lit("user="), SigPat::any_str(), SigPat::lit("&passwd=")]);
        assert_eq!(sig.constants(), vec!["user=", "&passwd="]);
    }

    #[test]
    fn or_is_canonical_across_merge_orders() {
        // a ∨ (b ∨ c) and (c ∨ a) ∨ b must normalize to the same tree and
        // hence render byte-identical regexes (confluence-order invariance).
        let a = || SigPat::lit("alpha");
        let b = || SigPat::lit("beta");
        let c = || SigPat::Concat(vec![SigPat::lit("q="), SigPat::any_str()]);
        let left = a().or(b().or(c()));
        let right = c().or(a()).or(b());
        assert_eq!(left, right);
        assert_eq!(left.to_regex(), right.to_regex());
        // duplicates collapse
        let dup = a().or(b()).or(a()).or(b());
        assert_eq!(dup.disjuncts().len(), 2);
        assert_eq!(dup, a().or(b()));
    }

    #[test]
    fn rep_precedence_compiles_and_matches() {
        // rep{} of a multi-part inner pattern must bind the whole inner
        // pattern under `*`, not just its last atom.
        let rep = SigPat::Concat(vec![
            SigPat::lit("base?"),
            SigPat::Rep(Box::new(SigPat::Concat(vec![
                SigPat::lit("id="),
                SigPat::Unknown(TypeHint::Num),
                SigPat::lit("&"),
            ]))),
            SigPat::lit("end"),
        ]);
        let re = Regex::new(&rep.to_regex()).unwrap();
        assert!(re.is_match("base?end"));
        assert!(re.is_match("base?id=1&end"));
        assert!(re.is_match("base?id=1&id=22&end"));
        assert!(!re.is_match("base?id=&end"));
        // the star must not leak onto the neighbouring literal
        assert!(!re.is_match("base?id=1&endend"));
    }

    #[test]
    fn or_precedence_in_concat_compiles_and_matches() {
        // An Or embedded in a Concat must be parenthesized — otherwise
        // `a(x|y)b` would degrade into `ax|yb`.
        let sig = SigPat::Concat(vec![
            SigPat::lit("pre/"),
            SigPat::Or(vec![SigPat::lit("cats"), SigPat::lit("dogs")]).normalize(),
            SigPat::lit("/post"),
        ]);
        let re = Regex::new(&sig.to_regex()).unwrap();
        assert!(re.is_match("pre/cats/post"));
        assert!(re.is_match("pre/dogs/post"));
        assert!(!re.is_match("pre/cats"));
        assert!(!re.is_match("dogs/post"));
    }

    #[test]
    fn xml_in_concat_and_rep_is_parenthesized() {
        // XmlSig::to_regex has a top-level `|` (open/self-closing forms);
        // embedding it in a Concat or under Rep must not let that
        // alternation swallow the neighbouring parts.
        let x = XmlSig::tag("item");
        let sig = SigPat::Concat(vec![
            SigPat::lit("payload="),
            SigPat::Xml(Box::new(x.clone())),
            SigPat::lit(";done"),
        ]);
        let re = Regex::new(&sig.to_regex()).unwrap();
        assert!(re.is_match("payload=<item>v</item>;done"));
        assert!(re.is_match("payload=<item/>;done"));
        // without the parens this would match: `payload=<item.*</item>`
        // alone (alternation absorbing the prefix/suffix).
        assert!(!re.is_match("payload=<item>v</item>"));
        assert!(!re.is_match("<item/>;done"));

        let rep =
            SigPat::Concat(vec![SigPat::Rep(Box::new(SigPat::Xml(Box::new(x)))), SigPat::lit("!")]);
        let re = Regex::new(&rep.to_regex()).unwrap();
        assert!(re.is_match("!"));
        assert!(re.is_match("<item/><item>a</item>!"));
        assert!(!re.is_match("<item/>"));
    }

    #[test]
    fn structural_matches_basics() {
        let sig = SigPat::Concat(vec![
            SigPat::lit("http://h/talks/"),
            SigPat::Unknown(TypeHint::Num),
            SigPat::lit("/ad.json?b="),
            SigPat::Unknown(TypeHint::Bool),
        ]);
        assert!(sig.matches("http://h/talks/2406/ad.json?b=true"));
        assert!(sig.matches("http://h/talks/7/ad.json?b=false"));
        assert!(!sig.matches("http://h/talks//ad.json?b=true"));
        assert!(!sig.matches("http://h/talks/x/ad.json?b=true"));
        assert!(!sig.matches("http://h/talks/2406/ad.json?b=maybe"));

        let rep = SigPat::Concat(vec![
            SigPat::lit("base?"),
            SigPat::Rep(Box::new(SigPat::Concat(vec![
                SigPat::lit("c="),
                SigPat::Unknown(TypeHint::Num),
                SigPat::lit("&"),
            ]))),
        ]);
        assert!(rep.matches("base?"));
        assert!(rep.matches("base?c=1&c=2&c=33&"));
        assert!(!rep.matches("base?c=1"));

        let json = SigPat::Concat(vec![SigPat::lit("data="), {
            let mut o = JsonSig::object();
            o.put("id", JsonSig::Value(Box::new(SigPat::Unknown(TypeHint::Num))));
            SigPat::Json(o)
        }]);
        assert!(json.matches(r#"data={"id":"42"}"#));
        assert!(!json.matches(r#"data={"other":"42"}"#));
        assert!(!json.matches("data=notjson"));
    }

    #[test]
    fn structural_match_agrees_with_compiled_regex() {
        // Differential check on paper-shaped signatures: the structural
        // matcher and the regexlite compilation must agree verdict-for-
        // verdict, so the conformance oracle can use both engines.
        let sigs = vec![
            SigPat::Concat(vec![
                SigPat::lit("http://www.reddit.com/search/.json?q="),
                SigPat::any_str(),
                SigPat::lit("&sort="),
                SigPat::any_str(),
            ]),
            SigPat::Concat(vec![
                SigPat::lit("https://h/talks/"),
                SigPat::Unknown(TypeHint::Num),
                SigPat::lit("/ad.json"),
            ]),
            SigPat::Or(vec![
                SigPat::lit("GET /a"),
                SigPat::Concat(vec![SigPat::lit("GET /b/"), SigPat::Unknown(TypeHint::Num)]),
            ])
            .normalize(),
            SigPat::Concat(vec![
                SigPat::lit("base?"),
                SigPat::Rep(Box::new(SigPat::Concat(vec![
                    SigPat::lit("count="),
                    SigPat::any_str(),
                    SigPat::lit("&"),
                ]))),
            ]),
        ];
        let inputs = [
            "http://www.reddit.com/search/.json?q=cats&sort=top",
            "http://www.reddit.com/r/all",
            "https://h/talks/2406/ad.json",
            "https://h/talks/late/ad.json",
            "GET /a",
            "GET /b/77",
            "GET /b/x",
            "base?",
            "base?count=1&",
            "base?count=1&count=2&",
            "base?count=1",
            "",
        ];
        for sig in &sigs {
            let re = Regex::new(&sig.to_regex()).unwrap();
            for input in inputs {
                assert_eq!(
                    sig.matches(input),
                    re.is_match(input),
                    "engines disagree on sig {:?} input {:?}",
                    sig.display(),
                    input
                );
            }
        }
    }

    #[test]
    fn structural_match_budget_is_distinct_from_no_match() {
        let sig = SigPat::Concat(vec![
            SigPat::Rep(Box::new(SigPat::Or(vec![
                SigPat::Unknown(TypeHint::Num),
                SigPat::Concat(vec![SigPat::lit("q="), SigPat::any_str(), SigPat::lit("&")]),
            ]))),
            SigPat::lit("tail"),
        ]);
        let body = "q=cats&q=0&".repeat(200);
        assert_eq!(sig.matches_budgeted(&body, 10), Err(BudgetExceeded { budget: 10 }));
        assert_eq!(sig.matches_budgeted(&body, usize::MAX), Ok(false));
        let ok = format!("{body}tail");
        assert_eq!(sig.matches_budgeted(&ok, usize::MAX), Ok(true));
    }

    #[test]
    fn embedded_json_parse_attempts_are_charged_by_length() {
        use extractocol_http::regexlite::DEFAULT_MATCH_BUDGET;
        let mut body = JsonSig::object();
        body.put("k", JsonSig::Value(Box::new(SigPat::any_str())));
        let sig = SigPat::Concat(vec![SigPat::lit("http://h/a?q="), SigPat::Json(body)]);
        // An unterminated document with a 64 KiB tail: every end position
        // is a parse attempt, so the scan must run out of budget rather
        // than parse quadratically many bytes and answer `Ok(false)`.
        let hostile = format!("http://h/a?q={{\"k\":\"{}", "x".repeat(64 << 10));
        assert_eq!(
            sig.matches_budgeted(&hostile, DEFAULT_MATCH_BUDGET),
            Err(BudgetExceeded { budget: DEFAULT_MATCH_BUDGET })
        );
        let short = r#"http://h/a?q={"k":"v"}"#;
        assert_eq!(sig.matches_budgeted(short, DEFAULT_MATCH_BUDGET), Ok(true));
        assert_eq!(
            sig.matches_budgeted(r#"http://h/a?q={"j":"v"}"#, DEFAULT_MATCH_BUDGET),
            Ok(false)
        );
    }
}
