//! URIs as protocol analysis sees them: the exact wire string, plus the
//! query string's key/value pairs on demand.
//!
//! An HTTP transaction in the paper "consists of URI, request data (header,
//! mime-type and body), request method, and response data" (§2); URI and
//! query-string signatures are first-class outputs. Signatures are matched
//! against the URI string as it appeared on the wire, so that string is all
//! a [`Uri`] stores.

use std::fmt;

/// An absolute or origin-form URI, kept as its wire string.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Uri {
    /// The exact byte string as it appeared on the wire — signatures are
    /// matched against this, so trailing separators and empty pairs are
    /// preserved rather than normalized away.
    pub raw: String,
}

impl Uri {
    /// Wraps a URI string. Accepts absolute (`https://host/path?q`) and
    /// origin-form (`/path?q`) references alike; nothing is normalized.
    pub fn parse(s: &str) -> Uri {
        Uri { raw: s.to_string() }
    }

    /// The query parameters in order of appearance: everything after the
    /// first `?` that follows the authority (an absolute URI's authority
    /// runs to the first `/` after `://`). Pairs split on `&` and `=`
    /// without percent-decoding (traces carry encoded bytes, and
    /// signatures are built over encoded bytes too).
    pub fn query(&self) -> Vec<(String, String)> {
        let path_query = match self.raw.find("://") {
            // An empty scheme leaves an origin-form reference.
            Some(0) => &self.raw[3..],
            Some(i) => {
                let rest = &self.raw[i + 3..];
                &rest[rest.find('/').unwrap_or(0)..]
            }
            None => &self.raw,
        };
        path_query.split_once('?').map_or_else(Vec::new, |(_, q)| parse_query(q))
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

/// Parses `a=1&b=2` into ordered pairs. A bare key becomes `(key, "")`.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    if q.is_empty() {
        return Vec::new();
    }
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.find('=') {
            Some(i) => (kv[..i].to_string(), kv[i + 1..].to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Serializes ordered pairs back into `a=1&b=2` form.
pub fn format_query(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| if v.is_empty() { k.clone() } else { format!("{k}={v}") })
        .collect::<Vec<_>>()
        .join("&")
}

/// Minimal percent-encoding of a query component (what
/// `java.net.URLEncoder.encode` does to the characters our corpus uses).
///
/// Space encodes as `%20`, not the legacy `+`: the trace parser and the
/// structural matcher treat `+` as a literal byte, so a `+`-encoded
/// signature would not match `%20` traffic for the same URI (and vice
/// versa). Emitting `%20` on both the signature-build and interpreter
/// sides keeps the encode → parse → classify round trip verdict-stable.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'*' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(u: &str) -> Vec<(String, String)> {
        Uri::parse(u).query()
    }

    fn owned(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        kv.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn query_of_absolute_uri() {
        assert_eq!(
            pairs("https://www.reddit.com/api/login?user=bob&passwd=x&api_type=json"),
            owned(&[("user", "bob"), ("passwd", "x"), ("api_type", "json")])
        );
        assert!(pairs("http://host.com").is_empty());
        assert!(pairs("/flight/start").is_empty());
    }

    #[test]
    fn query_starts_at_the_first_question_mark_after_the_authority() {
        // No path: the authority ends at the `?`.
        assert_eq!(pairs("http://h?x=1"), owned(&[("x", "1")]));
        // A `/` after the `?` ends the authority there, so the `?` is
        // inside it and the path has no query.
        assert!(pairs("http://h?x/y").is_empty());
        // Origin form: the query starts at the first `?`.
        assert_eq!(pairs("/a?k=v"), owned(&[("k", "v")]));
        // A query value may itself hold `?` and `/`.
        assert_eq!(pairs("https://h/a?next=/b?c"), owned(&[("next", "/b?c")]));
    }

    #[test]
    fn round_trips() {
        for s in [
            "https://app-api.ted.com/v1/speakers.json?limit=2000&api-key=k",
            "http://www.radioreddit.com/api/hiphop/status.json",
            "/k/authajax?action=registerandroid&uuid=1",
            "https://host:8443/a/b?x=1",
        ] {
            assert_eq!(Uri::parse(s).raw, s);
            assert_eq!(Uri::parse(s).to_string(), s);
        }
    }

    #[test]
    fn bare_query_keys() {
        let q = parse_query("a&b=2");
        assert_eq!(q, vec![("a".into(), "".into()), ("b".into(), "2".into())]);
        assert_eq!(format_query(&q), "a&b=2");
    }

    #[test]
    fn url_encoding() {
        assert_eq!(url_encode("a b&c=d"), "a%20b%26c%3Dd");
        assert_eq!(url_encode("safe-chars_0.9*"), "safe-chars_0.9*");
    }

    #[test]
    fn url_encoding_space_is_percent20_not_plus() {
        // Regression: `+` used to be emitted for space, but the matcher
        // treats `+` as a literal byte — `+` vs `%20` traffic for the
        // same URI would classify differently. The encoder must never
        // emit `+` for a space, and a literal `+` in the input must be
        // escaped (so decode is unambiguous).
        assert_eq!(url_encode("new york"), "new%20york");
        assert!(!url_encode("a b").contains('+'));
        assert_eq!(url_encode("1+1"), "1%2B1");
        // Parse keeps the encoded bytes verbatim (no percent-decoding).
        assert_eq!(pairs("http://h/search?q=new%20york"), owned(&[("q", "new%20york")]));
    }
}
