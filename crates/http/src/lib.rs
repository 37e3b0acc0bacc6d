//! # extractocol-http
//!
//! The HTTP-layer data model shared by the static analysis
//! (`extractocol-core`) and the dynamic evaluation harness
//! (`extractocol-dynamic`):
//!
//! * [`uri`] — URIs as their wire strings, with query-string pairs on demand;
//! * [`message`] — HTTP requests, responses, and reconstructed
//!   transactions (request/response pairs, paper §3.3);
//! * [`json`] — a self-contained JSON value model with parser and
//!   serializer (response bodies and request bodies are predominantly JSON,
//!   paper Table 1);
//! * [`xml`] — a small XML element tree with parser and serializer;
//! * [`regexlite`] — a Thompson-NFA regular-expression engine covering
//!   exactly the signature subset Extractocol emits: literals, `.`,
//!   character classes, `*` `+` `?`, groups, and alternation.
//!
//! Everything here is implemented from scratch: the paper's semantic models
//! reach *inside* these representations (e.g. a JSON tree signature mirrors
//! the JSON value tree), so owning the implementation is part of the
//! substrate work rather than a dependency to import.

pub mod json;
pub mod message;
pub mod regexlite;
pub mod uri;
pub mod xml;

pub use json::{JsonLimits, JsonValue};
pub use message::{Body, Headers, HttpMethod, Request, Response, Transaction};
pub use regexlite::Regex;
pub use uri::Uri;
pub use xml::{XmlElement, XmlLimits, XmlNode};
