//! Per-app mock-server specifications.
//!
//! The paper captures ground-truth traffic by running apps against their
//! real servers through a decrypting proxy (§5.1). Our substitution: every
//! corpus app ships a [`ServerSpec`] — route patterns with canned
//! responses — and the dynamic harness interprets the app's IR against it,
//! producing the traces used for signature validation and the
//! keyword/byte-level metrics (Tables 1–2, Figs. 6–8).

use extractocol_http::regexlite::Regex;
use extractocol_http::{Body, HttpMethod, JsonValue, Request, Response, XmlElement};

/// One servable route.
#[derive(Clone, Debug)]
pub struct Route {
    pub method: HttpMethod,
    /// Anchored regex over the full request URI.
    pub pattern: String,
    /// Response status.
    pub status: u16,
    /// Response body.
    pub body: Body,
    /// Require a header to match (name, value regex) — Kayak's
    /// User-Agent-based access control (§5.3). Mismatch → 403.
    pub require_header: Option<(String, String)>,
}

impl Route {
    /// A 200 route with a body.
    pub fn ok(method: HttpMethod, pattern: &str, body: Body) -> Route {
        Route { method, pattern: pattern.to_string(), status: 200, body, require_header: None }
    }

    /// A 200 route with an empty body (fire-and-forget endpoints).
    pub fn empty(method: HttpMethod, pattern: &str) -> Route {
        Route::ok(method, pattern, Body::Empty)
    }

    /// JSON route from a parsed template.
    pub fn json(method: HttpMethod, pattern: &str, json: &str) -> Route {
        Route::ok(method, pattern, Body::Json(JsonValue::parse(json).expect("route JSON template")))
    }

    /// XML route from a template.
    pub fn xml(method: HttpMethod, pattern: &str, xml: &str) -> Route {
        Route::ok(method, pattern, Body::Xml(XmlElement::parse(xml).expect("route XML template")))
    }

    /// Adds a header requirement (builder style).
    pub fn with_required_header(mut self, name: &str, value_pattern: &str) -> Route {
        self.require_header = Some((name.to_string(), value_pattern.to_string()));
        self
    }
}

/// The app's server: an ordered route table (first match wins).
#[derive(Clone, Debug, Default)]
pub struct ServerSpec {
    pub routes: Vec<Route>,
}

impl ServerSpec {
    /// An empty spec.
    pub fn new() -> ServerSpec {
        ServerSpec::default()
    }

    /// Adds a route (builder style).
    pub fn route(mut self, r: Route) -> ServerSpec {
        self.routes.push(r);
        self
    }

    /// Serves a request: first matching route wins; no match → 404.
    pub fn serve(&self, req: &Request) -> Response {
        let uri = &req.uri.raw;
        for r in &self.routes {
            if r.method != req.method {
                continue;
            }
            let Ok(re) = Regex::new(&r.pattern) else { continue };
            if !re.is_match(uri) {
                continue;
            }
            if let Some((name, vp)) = &r.require_header {
                let ok = req
                    .headers
                    .get(name)
                    .and_then(|v| Regex::new(vp).ok().map(|re| re.is_match(v)))
                    .unwrap_or(false);
                if !ok {
                    return Response {
                        status: 403,
                        headers: Default::default(),
                        body: Body::Empty,
                    };
                }
            }
            return Response {
                status: r.status,
                headers: Default::default(),
                body: r.body.clone(),
            };
        }
        Response::not_found()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_http::regexlite::escape_literal;

    #[test]
    fn serves_matching_route() {
        let spec = ServerSpec::new()
            .route(Route::json(
                HttpMethod::Get,
                &format!("{}.*", escape_literal("http://api.x.com/items")),
                r#"{"items":[{"id":1}]}"#,
            ))
            .route(Route::empty(HttpMethod::Post, ".*"));
        let ok = spec.serve(&Request::get("http://api.x.com/items?page=2"));
        assert_eq!(ok.status, 200);
        assert!(matches!(ok.body, Body::Json(_)));
        let nf = spec.serve(&Request::get("http://api.x.com/other"));
        assert_eq!(nf.status, 404);
        let post = spec.serve(&Request::post("http://anything", Body::Empty));
        assert_eq!(post.status, 200);
    }

    #[test]
    fn header_gating_enforces_user_agent() {
        let spec = ServerSpec::new().route(
            Route::json(HttpMethod::Get, ".*", r#"{"ok":true}"#)
                .with_required_header("User-Agent", "kayakandroidphone/.*"),
        );
        let mut req = Request::get("https://www.kayak.com/k/authajax");
        assert_eq!(spec.serve(&req).status, 403, "missing UA");
        req.headers.add("User-Agent", "kayakandroidphone/8.1");
        assert_eq!(spec.serve(&req).status, 200);
        let mut bad = Request::get("https://www.kayak.com/k/authajax");
        bad.headers.add("User-Agent", "Mozilla/5.0");
        assert_eq!(spec.serve(&bad).status, 403);
    }
}
