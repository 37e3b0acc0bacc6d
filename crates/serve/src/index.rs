//! The compiled signature index: an immutable, deterministic structure
//! that answers "which reconstructed transaction does this request belong
//! to?" in far less work than a linear scan over every signature.
//!
//! # Layout
//!
//! Compilation flattens an [`AnalysisReport`] corpus into one global
//! signature table (`Vec<CompiledSig>`, id = position) and a **byte-trie**
//! over each URI signature's *mandatory literal prefix*
//! ([`SigPat::literal_prefix`]): host plus leading path segments, stopping
//! at the first variable part and at `%`-escaped bytes. Every signature
//! lives in exactly one trie bucket — the node its prefix spells out;
//! signatures with no literal prefix (variable hosts, top-level
//! disjunctions, dynamically derived `GET (.*)` URIs) land in the **root
//! fallback bucket** and are candidates for every request.
//!
//! # Candidate pruning
//!
//! Classification walks the trie along the request URI's bytes, unioning
//! the buckets it passes. Anchored matching makes this sound: a signature
//! can only match a URI that starts with its literal prefix, and every
//! such prefix node lies on the walked path — so the candidate set is a
//! superset of all possibly-matching signatures. Only the survivors reach
//! the structural matcher ([`SigPat::matches_budgeted`]) and, for requests
//! carrying a body against a body-constrained signature, the budgeted
//! body check ([`request_body_matches_budgeted`]), which runs the same
//! structural matcher on form keys and JSON/XML leaves. No regex is
//! compiled or run on the serving path.
//!
//! # Determinism
//!
//! * Signature ids are assigned in input order (report order, then
//!   transaction order within a report); compiling the same reports in
//!   the same order yields a byte-identical index.
//! * Candidates are evaluated in ascending id order and the first full
//!   match wins, which is exactly the brute-force linear-scan rule —
//!   [`SignatureIndex::classify`] and [`SignatureIndex::classify_brute`]
//!   agree on every input (property-tested corpus-wide).
//! * Running out of match budget counts as a non-match for that candidate
//!   (recorded in [`Probe::budget_exhausted`]) under *both* strategies, so
//!   pruning can never flip a verdict.

use extractocol_core::conformance::request_body_matches_budgeted;
use extractocol_core::report::AnalysisReport;
use extractocol_core::sigbuild::BodySig;
use extractocol_core::siglang::SigPat;
use extractocol_http::regexlite::DEFAULT_MATCH_BUDGET;
use extractocol_http::{HttpMethod, Request};

/// One signature compiled into the index, with full provenance.
#[derive(Clone, Debug)]
pub struct CompiledSig {
    /// App the signature was extracted from.
    pub app: String,
    /// `TxnReport::id` within that app's report.
    pub txn_id: usize,
    /// Demarcation-point class of the transaction.
    pub dp_class: String,
    /// Request method the signature constrains.
    pub method: HttpMethod,
    /// The URI signature (normalized).
    pub uri: SigPat,
    /// Request-body signature, enforced when the classified request
    /// carries a body.
    pub body: Option<BodySig>,
    /// The trie key: the URI's mandatory literal prefix.
    pub prefix: String,
}

/// One trie node: sorted byte-labelled edges plus the bucket of signatures
/// whose literal prefix ends exactly here. Crate-visible so the archive
/// codec ([`crate::archive`]) can flatten and rebuild the layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct TrieNode {
    /// Sorted by byte label; resolved with binary search.
    pub(crate) children: Vec<(u8, u32)>,
    /// Signature ids whose prefix spells the path to this node.
    pub(crate) bucket: Vec<u32>,
}

/// Classification outcome. `Match` carries the winning signature id —
/// resolve provenance through [`SignatureIndex::sig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The lowest-id signature that fully matched.
    Match(u32),
    /// No compiled signature matched — a deterministic verdict, not an
    /// error (raw-socket ad/analytics traffic is statically invisible by
    /// design).
    Unmatched,
}

/// Per-request work counters (the pruning-effectiveness telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Probe {
    /// Candidate-set size after trie pruning (before the method filter).
    pub candidates: usize,
    /// Structural-matcher invocations actually performed.
    pub structural_evals: usize,
    /// Candidates whose match ran out of step budget (counted as
    /// non-matches).
    pub budget_exhausted: usize,
}

/// The immutable signature index. Cheap to share across worker threads
/// (`&SignatureIndex` is `Sync`); all classification is read-only.
#[derive(Clone, Debug)]
pub struct SignatureIndex {
    pub(crate) sigs: Vec<CompiledSig>,
    pub(crate) nodes: Vec<TrieNode>,
}

impl SignatureIndex {
    /// Compiles a report corpus. Ids are assigned in input order; the
    /// result is byte-identical for identical input order.
    pub fn compile(reports: &[AnalysisReport]) -> SignatureIndex {
        let mut index = SignatureIndex { sigs: Vec::new(), nodes: vec![TrieNode::default()] };
        for report in reports {
            for txn in &report.transactions {
                let uri = txn.uri.clone().normalize();
                let prefix = uri.literal_prefix();
                let id = index.sigs.len() as u32;
                index.sigs.push(CompiledSig {
                    app: report.app.clone(),
                    txn_id: txn.id,
                    dp_class: txn.dp_class.clone(),
                    method: txn.method,
                    uri,
                    body: txn.request_body.clone(),
                    prefix: prefix.clone(),
                });
                let mut node = 0usize;
                for &b in prefix.as_bytes() {
                    node = match index.nodes[node].children.binary_search_by_key(&b, |e| e.0) {
                        Ok(i) => index.nodes[node].children[i].1 as usize,
                        Err(i) => {
                            let next = index.nodes.len();
                            index.nodes.push(TrieNode::default());
                            index.nodes[node].children.insert(i, (b, next as u32));
                            next
                        }
                    };
                }
                index.nodes[node].bucket.push(id);
            }
        }
        index
    }

    /// Number of compiled signatures.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// True when no signature was compiled.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The compiled signature behind a [`Verdict::Match`] id.
    pub fn sig(&self, id: u32) -> &CompiledSig {
        &self.sigs[id as usize]
    }

    /// All compiled signatures, in id order.
    pub fn sigs(&self) -> &[CompiledSig] {
        &self.sigs
    }

    /// Trie node count (root included) — index-size telemetry.
    pub fn trie_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The pruned candidate set for a URI: every signature whose literal
    /// prefix is a prefix of `uri`, in ascending id order.
    pub fn candidates(&self, uri: &str) -> Vec<u32> {
        let mut out: Vec<u32> = self.nodes[0].bucket.clone();
        let mut node = 0usize;
        for &b in uri.as_bytes() {
            match self.nodes[node].children.binary_search_by_key(&b, |e| e.0) {
                Ok(i) => {
                    node = self.nodes[node].children[i].1 as usize;
                    out.extend_from_slice(&self.nodes[node].bucket);
                }
                Err(_) => break,
            }
        }
        // Buckets are visited shallow-to-deep; ids interleave across
        // depths, and the first-match rule needs ascending order.
        out.sort_unstable();
        out
    }

    /// Classifies one request through the trie-pruned path: first full
    /// match in ascending id order, or `Unmatched`.
    pub fn classify(&self, req: &Request) -> (Verdict, Probe) {
        let cands = self.candidates(&req.uri.raw);
        let mut probe = Probe { candidates: cands.len(), ..Probe::default() };
        for id in cands {
            if self.eval_candidate(id, req, &mut probe) {
                return (Verdict::Match(id), probe);
            }
        }
        (Verdict::Unmatched, probe)
    }

    /// The reference strategy: linear scan over *all* compiled signatures,
    /// same per-candidate check, same first-match rule. `classify` must
    /// agree with this on every input — the differential property test
    /// holds the two together.
    pub fn classify_brute(&self, req: &Request) -> (Verdict, Probe) {
        let mut probe = Probe { candidates: self.sigs.len(), ..Probe::default() };
        for id in 0..self.sigs.len() as u32 {
            if self.eval_candidate(id, req, &mut probe) {
                return (Verdict::Match(id), probe);
            }
        }
        (Verdict::Unmatched, probe)
    }

    /// Full per-candidate check: method, structural URI match, and — when
    /// both sides have one — the request-body tree signature.
    fn eval_candidate(&self, id: u32, req: &Request, probe: &mut Probe) -> bool {
        let sig = &self.sigs[id as usize];
        if sig.method != req.method {
            return false;
        }
        probe.structural_evals += 1;
        match sig.uri.matches_budgeted(&req.uri.raw, DEFAULT_MATCH_BUDGET) {
            Ok(true) => {}
            Ok(false) => return false,
            Err(_) => {
                probe.budget_exhausted += 1;
                return false;
            }
        }
        if let Some(body_sig) = &sig.body {
            if !req.body.is_empty() {
                match request_body_matches_budgeted(body_sig, &req.body, DEFAULT_MATCH_BUDGET) {
                    Ok(true) => {}
                    Ok(false) => return false,
                    Err(_) => {
                        probe.budget_exhausted += 1;
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_core::metrics::Metrics;
    use extractocol_core::pairing::Pairing;
    use extractocol_core::report::{Stats, TxnReport};
    use extractocol_core::siglang::{JsonSig, TypeHint};
    use extractocol_http::Body;

    fn txn(id: usize, method: HttpMethod, uri: SigPat) -> TxnReport {
        TxnReport {
            id,
            dp_class: "org.apache.http.client.HttpClient".into(),
            root: "t.C.go".into(),
            method,
            uri_regex: uri.to_regex(),
            uri,
            headers: Vec::new(),
            header_sigs: Vec::new(),
            request_body: None,
            response: None,
            pairing: Pairing::Unique,
            origins: Vec::new(),
            consumptions: Vec::new(),
        }
    }

    fn report(app: &str, txns: Vec<TxnReport>) -> AnalysisReport {
        AnalysisReport {
            app: app.into(),
            transactions: txns,
            dependencies: Vec::new(),
            stats: Stats::default(),
            metrics: Metrics::default(),
        }
    }

    fn demo_index() -> SignatureIndex {
        let a = report(
            "alpha",
            vec![
                txn(
                    0,
                    HttpMethod::Get,
                    SigPat::Concat(vec![
                        SigPat::lit("http://a.example/talks/"),
                        SigPat::Unknown(TypeHint::Num),
                        SigPat::lit("/ad.json"),
                    ]),
                ),
                txn(
                    1,
                    HttpMethod::Get,
                    SigPat::Concat(vec![
                        SigPat::lit("http://a.example/search?q="),
                        SigPat::any_str(),
                    ]),
                ),
            ],
        );
        let b = report(
            "beta",
            vec![
                // Variable host: must live in the root fallback bucket.
                txn(
                    0,
                    HttpMethod::Get,
                    SigPat::Concat(vec![SigPat::any_str(), SigPat::lit("/status.json")]),
                ),
                txn(1, HttpMethod::Post, SigPat::lit("http://b.example/api/login")),
            ],
        );
        SignatureIndex::compile(&[a, b])
    }

    #[test]
    fn compile_assigns_ids_in_input_order() {
        let idx = demo_index();
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.sig(0).app, "alpha");
        assert_eq!(idx.sig(0).txn_id, 0);
        assert_eq!(idx.sig(2).app, "beta");
        assert_eq!(idx.sig(2).prefix, "", "variable host has no literal prefix");
        assert_eq!(idx.sig(3).prefix, "http://b.example/api/login");
        assert!(idx.trie_nodes() > 1);
    }

    #[test]
    fn variable_host_signatures_classify_via_root_bucket() {
        let idx = demo_index();
        // No literal prefix in common with any trie path.
        let req = Request::get("https://cdn.elsewhere.net/status.json");
        let (verdict, probe) = idx.classify(&req);
        assert_eq!(verdict, Verdict::Match(2));
        // Only the root bucket survives pruning for this host.
        assert_eq!(probe.candidates, 1);
    }

    #[test]
    fn pruning_shrinks_candidates_without_changing_verdicts() {
        let idx = demo_index();
        let reqs = [
            Request::get("http://a.example/talks/2406/ad.json"),
            Request::get("http://a.example/search?q=cats"),
            Request::get("http://a.example/search"), // shares the prefix path, matches nothing
            Request::get("http://unrelated.example/x"),
            Request::post("http://b.example/api/login", Body::Empty),
        ];
        for req in &reqs {
            let (fast, probe) = idx.classify(req);
            let (brute, brute_probe) = idx.classify_brute(req);
            assert_eq!(fast, brute, "verdicts diverge on {}", req.uri.raw);
            assert!(probe.candidates <= brute_probe.candidates);
            assert!(probe.structural_evals <= brute_probe.structural_evals);
        }
        // The pruned path never touches the b.example signature for an
        // a.example request: root bucket (1) + the matching branch.
        let (_, probe) = idx.classify(&Request::get("http://a.example/talks/1/ad.json"));
        assert_eq!(probe.candidates, 2);
    }

    #[test]
    fn first_match_rule_is_lowest_id() {
        // Two signatures matching the same request: the earlier compiled
        // one wins, under both strategies.
        let r = report(
            "dup",
            vec![
                txn(
                    0,
                    HttpMethod::Get,
                    SigPat::Concat(vec![SigPat::lit("http://h/"), SigPat::any_str()]),
                ),
                txn(1, HttpMethod::Get, SigPat::lit("http://h/exact")),
            ],
        );
        let idx = SignatureIndex::compile(&[r]);
        let req = Request::get("http://h/exact");
        assert_eq!(idx.classify(&req).0, Verdict::Match(0));
        assert_eq!(idx.classify_brute(&req).0, Verdict::Match(0));
    }

    #[test]
    fn body_constrained_signature_rejects_wrong_bodies() {
        let mut t = txn(0, HttpMethod::Post, SigPat::lit("http://h/api"));
        let mut j = JsonSig::object();
        j.put("id", JsonSig::Value(Box::new(SigPat::Unknown(TypeHint::Num))));
        t.request_body = Some(BodySig::Json(j));
        let idx = SignatureIndex::compile(&[report("bodied", vec![t])]);

        let ok = Request::post(
            "http://h/api",
            Body::Json(extractocol_http::JsonValue::parse(r#"{"id":"42"}"#).unwrap()),
        );
        assert_eq!(idx.classify(&ok).0, Verdict::Match(0));
        let wrong = Request::post(
            "http://h/api",
            Body::Json(extractocol_http::JsonValue::parse(r#"{"other":true}"#).unwrap()),
        );
        assert_eq!(idx.classify(&wrong).0, Verdict::Unmatched);
        // A bodyless request against a body-constrained signature still
        // matches on the URI (the signature describes what the app sends
        // when it sends one).
        let empty = Request::post("http://h/api", Body::Empty);
        assert_eq!(idx.classify(&empty).0, Verdict::Match(0));
        // Brute force agrees on all three.
        for req in [&ok, &wrong, &empty] {
            assert_eq!(idx.classify(req).0, idx.classify_brute(req).0);
        }
    }

    #[test]
    fn method_mismatch_never_reaches_the_matcher() {
        let idx = demo_index();
        let req = Request::post("http://a.example/search?q=cats", Body::Empty);
        let (verdict, probe) = idx.classify(&req);
        assert_eq!(verdict, Verdict::Unmatched);
        // Candidates include the GET signatures (pruning is URI-only) but
        // none are structurally evaluated except same-method ones.
        assert_eq!(probe.structural_evals, 0);
    }

    #[test]
    fn empty_index_classifies_deterministically() {
        let idx = SignatureIndex::compile(&[]);
        assert!(idx.is_empty());
        let (v, p) = idx.classify(&Request::get("http://h/x"));
        assert_eq!(v, Verdict::Unmatched);
        assert_eq!(p, Probe::default());
    }
}
