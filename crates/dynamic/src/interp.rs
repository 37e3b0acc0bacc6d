//! A concrete interpreter for the corpus IR.
//!
//! Executes methods with real values against the app's [`ServerSpec`],
//! recording every network interaction. This is the stand-in for running
//! the real app on a device behind a decrypting proxy (§5.1): the traces
//! it produces are the ground truth signatures are validated against.
//!
//! The interpreter implements concrete semantics for exactly the API
//! surface the semantic model covers (plus the deliberately-unmodeled
//! `com.adlib.Tracker`, whose traffic static analysis misses). App-level
//! methods are interpreted from their IR.

use extractocol_corpus::ServerSpec;
use extractocol_http::uri::url_encode;
use extractocol_http::{
    Body, Headers, HttpMethod, JsonValue, Request, Transaction, Uri, XmlElement, XmlNode,
};
use extractocol_ir::{
    Apk, Call, CallKind, Cond, CondOp, Const, Expr, IdentityKind, Local, MethodId, Place,
    ProgramIndex, Stmt, Value,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Interpreter errors (budget exhaustion, malformed programs).
#[derive(Debug, Clone, PartialEq)]
pub struct RtError(pub String);

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.0)
    }
}

impl std::error::Error for RtError {}

type RtResult<T> = Result<T, RtError>;

/// A runtime value.
#[derive(Clone, Debug)]
pub enum RtValue {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
    Object(Rc<RefCell<RtObject>>),
}

impl RtValue {
    fn obj(class: &str, native: Native) -> RtValue {
        RtValue::Object(Rc::new(RefCell::new(RtObject {
            class: class.to_string(),
            fields: HashMap::new(),
            native,
        })))
    }

    /// Stringification matching Java's implicit conversions.
    fn to_str_lossy(&self) -> String {
        match self {
            RtValue::Null => "null".to_string(),
            RtValue::Int(i) => i.to_string(),
            RtValue::Float(f) => f.to_string(),
            RtValue::Bool(b) => b.to_string(),
            RtValue::Str(s) => s.clone(),
            RtValue::Object(o) => match &o.borrow().native {
                Native::StringBuilder(s) => s.clone(),
                Native::Json(j) => j.to_json(),
                Native::Xml(x) => x.to_xml(),
                Native::Stream(s) => s.clone(),
                _ => format!("<{}>", o.borrow().class),
            },
        }
    }

    fn as_int(&self) -> i64 {
        match self {
            RtValue::Int(i) => *i,
            RtValue::Bool(b) => i64::from(*b),
            RtValue::Float(f) => *f as i64,
            RtValue::Str(s) => s.parse().unwrap_or(0),
            _ => 0,
        }
    }
}

/// A heap object: class, fields, and an optional native payload for
/// platform types.
#[derive(Debug)]
pub struct RtObject {
    pub class: String,
    pub fields: HashMap<String, RtValue>,
    pub native: Native,
}

/// Native payloads of platform/library objects.
#[derive(Debug, Clone)]
pub enum Native {
    None,
    StringBuilder(String),
    List(Vec<RtValue>),
    Map(Vec<(String, RtValue)>),
    Json(JsonValue),
    /// A request under construction.
    Request(RequestBuild),
    /// A received response with its body rendered to text.
    Response {
        status: u16,
        body_text: String,
        body: Body,
    },
    /// An input stream / entity wrapping body text.
    Stream(String),
    Xml(XmlElement),
    NodeList(Vec<XmlElement>),
    Element(XmlElement),
    /// A DB cursor positioned on requested column values.
    Cursor(Vec<String>),
    Pair(String, String),
}

/// A request being assembled by HTTP-library calls.
#[derive(Debug, Clone, Default)]
pub struct RequestBuild {
    pub method: Option<HttpMethod>,
    pub url: String,
    pub headers: Vec<(String, String)>,
    pub body: Option<Body>,
}

/// The interpreter: owns mutable app/world state across trigger
/// invocations (heap singletons, statics, SQLite tables, prefs) and the
/// captured trace.
pub struct Interpreter<'a> {
    apk: &'a Apk,
    prog: ProgramIndex<'a>,
    server: &'a ServerSpec,
    /// Captured network interactions, in order.
    pub trace: Vec<Transaction>,
    statics: HashMap<String, RtValue>,
    /// Per-class singleton instances: triggers on the same class share
    /// state (the login-then-vote pattern).
    singletons: HashMap<String, RtValue>,
    /// SQLite stand-in: table → column → last value.
    db: HashMap<String, HashMap<String, String>>,
    prefs: HashMap<String, String>,
    steps: usize,
}

const STEP_BUDGET: usize = 2_000_000;

impl<'a> Interpreter<'a> {
    /// Creates an interpreter for one app against its server.
    pub fn new(apk: &'a Apk, server: &'a ServerSpec) -> Interpreter<'a> {
        Interpreter {
            apk,
            prog: ProgramIndex::new(apk),
            server,
            trace: Vec::new(),
            statics: HashMap::new(),
            singletons: HashMap::new(),
            db: HashMap::new(),
            prefs: HashMap::new(),
            steps: 0,
        }
    }

    /// Invokes `class.method` on the class's singleton instance with the
    /// given arguments (how fuzzers fire triggers).
    pub fn invoke(&mut self, class: &str, method: &str, args: Vec<RtValue>) -> RtResult<RtValue> {
        let mid = self
            .prog
            .resolve_method(class, method, args.len())
            .ok_or_else(|| RtError(format!("no method {class}.{method}/{}", args.len())))?;
        let this = self.singleton(class);
        self.call(mid, this, args)
    }

    fn singleton(&mut self, class: &str) -> RtValue {
        if let Some(v) = self.singletons.get(class) {
            return v.clone();
        }
        let v = RtValue::obj(class, Native::None);
        self.singletons.insert(class.to_string(), v.clone());
        v
    }

    fn tick(&mut self) -> RtResult<()> {
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            Err(RtError("step budget exhausted".into()))
        } else {
            Ok(())
        }
    }

    /// Calls a concrete method.
    fn call(&mut self, mid: MethodId, this: RtValue, args: Vec<RtValue>) -> RtResult<RtValue> {
        let method = self.prog.method(mid);
        if !method.has_body {
            return Ok(RtValue::Null);
        }
        let mut env: HashMap<Local, RtValue> = HashMap::new();
        let body = &method.body;
        let mut pc = 0usize;
        while pc < body.len() {
            self.tick()?;
            match &body[pc] {
                Stmt::Identity { local, kind } => {
                    let v = match kind {
                        IdentityKind::This => this.clone(),
                        IdentityKind::Param(i) => {
                            args.get(*i as usize).cloned().unwrap_or(RtValue::Null)
                        }
                        IdentityKind::CaughtException => RtValue::Null,
                    };
                    env.insert(*local, v);
                    pc += 1;
                }
                Stmt::Assign { place, expr } => {
                    let v = self.eval_expr(mid, expr, &mut env)?;
                    self.write_place(place, v, &mut env)?;
                    pc += 1;
                }
                Stmt::Invoke(call) => {
                    self.eval_call(mid, call, &mut env)?;
                    pc += 1;
                }
                Stmt::If { cond, target } => {
                    if self.eval_cond(cond, &env) {
                        pc = *target;
                    } else {
                        pc += 1;
                    }
                }
                Stmt::Goto { target } => pc = *target,
                Stmt::Switch { scrutinee, arms, default } => {
                    let v = self.eval_value(scrutinee, &env).as_int();
                    pc = arms.iter().find(|(k, _)| *k == v).map(|(_, t)| *t).unwrap_or(*default);
                }
                Stmt::Return(v) => {
                    return Ok(v
                        .as_ref()
                        .map(|v| self.eval_value(v, &env))
                        .unwrap_or(RtValue::Null));
                }
                Stmt::Throw(_) => return Ok(RtValue::Null),
                Stmt::Nop => pc += 1,
            }
        }
        Ok(RtValue::Null)
    }

    fn eval_cond(&self, cond: &Cond, env: &HashMap<Local, RtValue>) -> bool {
        let l = self.eval_value(&cond.lhs, env);
        let r = self.eval_value(&cond.rhs, env);
        // Null comparisons are reference tests; everything else numeric.
        match cond.op {
            CondOp::Eq => match (&l, &r) {
                (RtValue::Null, RtValue::Null) => true,
                (RtValue::Null, _) | (_, RtValue::Null) => false,
                _ => l.as_int() == r.as_int(),
            },
            CondOp::Ne => match (&l, &r) {
                (RtValue::Null, RtValue::Null) => false,
                (RtValue::Null, _) | (_, RtValue::Null) => true,
                _ => l.as_int() != r.as_int(),
            },
            CondOp::Lt => l.as_int() < r.as_int(),
            CondOp::Le => l.as_int() <= r.as_int(),
            CondOp::Gt => l.as_int() > r.as_int(),
            CondOp::Ge => l.as_int() >= r.as_int(),
        }
    }

    fn eval_value(&self, v: &Value, env: &HashMap<Local, RtValue>) -> RtValue {
        match v {
            Value::Local(l) => env.get(l).cloned().unwrap_or(RtValue::Null),
            Value::Const(c) => match c {
                Const::Str(s) => RtValue::Str(s.clone()),
                Const::Int(i) => RtValue::Int(*i),
                Const::Float(f) => RtValue::Float(*f),
                Const::Bool(b) => RtValue::Bool(*b),
                Const::Null => RtValue::Null,
                Const::Class(c) => RtValue::Str(c.clone()),
            },
            Value::Resource(k) => {
                RtValue::Str(self.apk.resources.string(k).unwrap_or_default().to_string())
            }
        }
    }

    fn write_place(
        &mut self,
        place: &Place,
        v: RtValue,
        env: &mut HashMap<Local, RtValue>,
    ) -> RtResult<()> {
        match place {
            Place::Local(l) => {
                env.insert(*l, v);
            }
            Place::InstanceField { base, field } => {
                let b = env.get(base).cloned().unwrap_or(RtValue::Null);
                if let RtValue::Object(o) = b {
                    o.borrow_mut().fields.insert(field.name.clone(), v);
                }
            }
            Place::StaticField(field) => {
                self.statics.insert(format!("{}#{}", field.class, field.name), v);
            }
            Place::ArrayElem { base, .. } => {
                let b = env.get(base).cloned().unwrap_or(RtValue::Null);
                if let RtValue::Object(o) = b {
                    if let Native::List(items) = &mut o.borrow_mut().native {
                        items.push(v);
                    }
                }
            }
        }
        Ok(())
    }

    fn eval_expr(
        &mut self,
        mid: MethodId,
        expr: &Expr,
        env: &mut HashMap<Local, RtValue>,
    ) -> RtResult<RtValue> {
        Ok(match expr {
            Expr::Use(v) => self.eval_value(v, env),
            Expr::Load(place) => match place {
                Place::Local(l) => env.get(l).cloned().unwrap_or(RtValue::Null),
                Place::InstanceField { base, field } => {
                    let b = env.get(base).cloned().unwrap_or(RtValue::Null);
                    match b {
                        RtValue::Object(o) => {
                            o.borrow().fields.get(&field.name).cloned().unwrap_or(RtValue::Null)
                        }
                        _ => RtValue::Null,
                    }
                }
                Place::StaticField(field) => self
                    .statics
                    .get(&format!("{}#{}", field.class, field.name))
                    .cloned()
                    .unwrap_or(RtValue::Null),
                Place::ArrayElem { base, index } => {
                    let b = env.get(base).cloned().unwrap_or(RtValue::Null);
                    let i = self.eval_value(index, env).as_int() as usize;
                    match b {
                        RtValue::Object(o) => match &o.borrow().native {
                            Native::List(items) => items.get(i).cloned().unwrap_or(RtValue::Null),
                            _ => RtValue::Null,
                        },
                        _ => RtValue::Null,
                    }
                }
            },
            Expr::Un(op, v) => {
                let x = self.eval_value(v, env);
                match op {
                    extractocol_ir::UnOp::Neg => RtValue::Int(-x.as_int()),
                    extractocol_ir::UnOp::Not => RtValue::Int(!x.as_int()),
                    extractocol_ir::UnOp::Len => match x {
                        RtValue::Object(o) => match &o.borrow().native {
                            Native::List(items) => RtValue::Int(items.len() as i64),
                            _ => RtValue::Int(0),
                        },
                        RtValue::Str(s) => RtValue::Int(s.len() as i64),
                        _ => RtValue::Int(0),
                    },
                }
            }
            Expr::Bin(op, a, b) => {
                let x = self.eval_value(a, env).as_int();
                let y = self.eval_value(b, env).as_int();
                use extractocol_ir::BinOp::*;
                RtValue::Int(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => {
                        if y == 0 {
                            0
                        } else {
                            x / y
                        }
                    }
                    Rem => {
                        if y == 0 {
                            0
                        } else {
                            x % y
                        }
                    }
                    And => x & y,
                    Or => x | y,
                    Xor => x ^ y,
                    Shl => x << (y & 63),
                    Shr => x >> (y & 63),
                    Cmp => (x - y).signum(),
                })
            }
            Expr::New(class) => self.new_object(class),
            Expr::NewArray(_, _) => RtValue::obj("array", Native::List(Vec::new())),
            Expr::Cast(_, v) => self.eval_value(v, env),
            Expr::InstanceOf(class, v) => {
                let x = self.eval_value(v, env);
                RtValue::Bool(match x {
                    RtValue::Object(o) => {
                        let c = o.borrow().class.clone();
                        c == *class || self.prog.is_subtype(&c, class)
                    }
                    _ => false,
                })
            }
            Expr::Invoke(call) => self.eval_call(mid, call, env)?,
        })
    }

    /// Dispatches a call: platform/library API semantics first, app IR
    /// second.
    fn eval_call(
        &mut self,
        mid: MethodId,
        call: &Call,
        env: &mut HashMap<Local, RtValue>,
    ) -> RtResult<RtValue> {
        self.tick()?;
        let recv = call.receiver.as_ref().map(|v| self.eval_value(v, env)).unwrap_or(RtValue::Null);
        let args: Vec<RtValue> = call.args.iter().map(|v| self.eval_value(v, env)).collect();

        // Try API semantics (receiver's dynamic class, then static class).
        let dynamic_class = match &recv {
            RtValue::Object(o) => Some(o.borrow().class.clone()),
            _ => None,
        };
        if let Some(r) = self.api_call(&call.callee.class, &call.callee.name, &recv, &args)? {
            return Ok(r);
        }

        // App-level dispatch: virtual on the dynamic class.
        let target = match call.kind {
            CallKind::Static => self.prog.resolve_method(
                &call.callee.class,
                &call.callee.name,
                call.callee.params.len(),
            ),
            CallKind::Special => self.prog.resolve_method(
                &call.callee.class,
                &call.callee.name,
                call.callee.params.len(),
            ),
            CallKind::Virtual | CallKind::Interface => {
                let cls = dynamic_class.as_deref().unwrap_or(&call.callee.class);
                self.prog.resolve_method(cls, &call.callee.name, call.callee.params.len()).or_else(
                    || {
                        self.prog.resolve_method(
                            &call.callee.class,
                            &call.callee.name,
                            call.callee.params.len(),
                        )
                    },
                )
            }
        };
        match target {
            Some(t) if self.prog.method(t).has_body => self.call(t, recv, args),
            _ => {
                let _ = mid;
                Ok(RtValue::Null)
            }
        }
    }

    /// Allocation with native payloads for known classes.
    fn new_object(&mut self, class: &str) -> RtValue {
        let native = match class {
            "java.lang.StringBuilder" => Native::StringBuilder(String::new()),
            "org.json.JSONObject"
            | "com.google.gson.JsonObject"
            | "com.alibaba.fastjson.JSONObject" => Native::Json(JsonValue::object()),
            "org.json.JSONArray" => Native::Json(JsonValue::Array(Vec::new())),
            c if c.ends_with("ArrayList") || c.ends_with("LinkedList") => Native::List(Vec::new()),
            c if c.ends_with("HashMap") => Native::Map(Vec::new()),
            "android.content.ContentValues" => Native::Map(Vec::new()),
            "okhttp3.Request$Builder" => Native::Request(RequestBuild::default()),
            _ => Native::None,
        };
        RtValue::obj(class, native)
    }

    // -----------------------------------------------------------------------
    // API semantics
    // -----------------------------------------------------------------------

    /// Returns `Ok(Some(value))` when `(class, name)` is an API the
    /// interpreter implements natively; `Ok(None)` lets app dispatch run.
    #[allow(clippy::too_many_lines)]
    fn api_call(
        &mut self,
        class: &str,
        name: &str,
        recv: &RtValue,
        args: &[RtValue],
    ) -> RtResult<Option<RtValue>> {
        let s = |i: usize| args.get(i).map(RtValue::to_str_lossy).unwrap_or_default();
        let result = match (class, name) {
            // ---- strings ----
            ("java.lang.StringBuilder", "<init>") => {
                if let RtValue::Object(o) = recv {
                    o.borrow_mut().native = Native::StringBuilder(s(0));
                }
                RtValue::Null
            }
            ("java.lang.StringBuilder", "append") => {
                if let RtValue::Object(o) = recv {
                    if let Native::StringBuilder(b) = &mut o.borrow_mut().native {
                        b.push_str(&args[0].to_str_lossy());
                    }
                }
                recv.clone()
            }
            ("java.lang.StringBuilder", "toString") => RtValue::Str(recv.to_str_lossy()),
            ("java.lang.String", "equals") => {
                // Corpus uses the static-style helper `equals(a, b)` and the
                // instance form; support both.
                let (a, b) =
                    if args.len() == 2 { (s(0), s(1)) } else { (recv.to_str_lossy(), s(0)) };
                RtValue::Bool(a == b)
            }
            ("java.lang.String", "trim") => RtValue::Str(recv.to_str_lossy().trim().to_string()),
            ("java.lang.String", "toLowerCase") => RtValue::Str(recv.to_str_lossy().to_lowercase()),
            ("java.lang.String", "toString") => RtValue::Str(recv.to_str_lossy()),
            ("java.lang.String", "concat") => RtValue::Str(recv.to_str_lossy() + &s(0)),
            ("java.lang.String", "valueOf") => RtValue::Str(s(0)),
            ("java.lang.Integer", "toString")
            | ("java.lang.Long", "toString")
            | ("java.lang.Double", "toString") => RtValue::Str(s(0)),
            ("java.net.URLEncoder", "encode") => RtValue::Str(url_encode(&s(0))),

            // ---- containers ----
            ("java.util.ArrayList", "<init>") | ("java.util.LinkedList", "<init>") => RtValue::Null,
            ("java.util.ArrayList", "add")
            | ("java.util.LinkedList", "add")
            | ("java.util.List", "add") => {
                if let RtValue::Object(o) = recv {
                    if let Native::List(items) = &mut o.borrow_mut().native {
                        items.push(args[0].clone());
                    }
                }
                RtValue::Bool(true)
            }
            ("java.util.ArrayList", "get") | ("java.util.List", "get") => {
                let i = args[0].as_int() as usize;
                match recv {
                    RtValue::Object(o) => match &o.borrow().native {
                        Native::List(items) => items.get(i).cloned().unwrap_or(RtValue::Null),
                        _ => RtValue::Null,
                    },
                    _ => RtValue::Null,
                }
            }
            ("java.util.HashMap", "<init>") => RtValue::Null,
            ("java.util.HashMap", "put") | ("java.util.Map", "put") => {
                if let RtValue::Object(o) = recv {
                    if let Native::Map(m) = &mut o.borrow_mut().native {
                        m.push((s(0), args[1].clone()));
                    }
                }
                RtValue::Null
            }
            ("java.util.HashMap", "get") | ("java.util.Map", "get") => match recv {
                RtValue::Object(o) => match &o.borrow().native {
                    Native::Map(m) => m
                        .iter()
                        .rev()
                        .find(|(k, _)| *k == s(0))
                        .map(|(_, v)| v.clone())
                        .unwrap_or(RtValue::Null),
                    _ => RtValue::Null,
                },
                _ => RtValue::Null,
            },

            // ---- apache http ----
            ("org.apache.http.client.methods.HttpGet", "<init>")
            | ("org.apache.http.client.methods.HttpPost", "<init>")
            | ("org.apache.http.client.methods.HttpPut", "<init>")
            | ("org.apache.http.client.methods.HttpDelete", "<init>") => {
                let method = match class.rsplit('.').next().unwrap_or("") {
                    "HttpGet" => HttpMethod::Get,
                    "HttpPost" => HttpMethod::Post,
                    "HttpPut" => HttpMethod::Put,
                    _ => HttpMethod::Delete,
                };
                if let RtValue::Object(o) = recv {
                    o.borrow_mut().native = Native::Request(RequestBuild {
                        method: Some(method),
                        url: s(0),
                        headers: Vec::new(),
                        body: None,
                    });
                }
                RtValue::Null
            }
            (_, "setHeader") | (_, "addHeader") | (_, "setRequestProperty")
                if class.starts_with("org.apache.http") || class.starts_with("java.net") =>
            {
                if let RtValue::Object(o) = recv {
                    if let Native::Request(r) = &mut o.borrow_mut().native {
                        r.headers.push((s(0), s(1)));
                    }
                }
                RtValue::Null
            }
            (_, "setEntity") if class.starts_with("org.apache.http") => {
                let body = match &args[0] {
                    RtValue::Object(o) => match &o.borrow().native {
                        Native::List(items) => Some(form_from_pairs(items)),
                        Native::Stream(text) => Some(body_from_text(text)),
                        _ => None,
                    },
                    _ => None,
                };
                if let RtValue::Object(o) = recv {
                    if let Native::Request(r) = &mut o.borrow_mut().native {
                        r.body = body;
                    }
                }
                RtValue::Null
            }
            ("org.apache.http.client.entity.UrlEncodedFormEntity", "<init>") => {
                // Wrap the pair list so setEntity can see it.
                if let (RtValue::Object(o), Some(RtValue::Object(list))) = (recv, args.first()) {
                    let items = match &list.borrow().native {
                        Native::List(items) => items.clone(),
                        _ => Vec::new(),
                    };
                    o.borrow_mut().native = Native::List(items);
                }
                RtValue::Null
            }
            ("org.apache.http.entity.StringEntity", "<init>") => {
                if let RtValue::Object(o) = recv {
                    o.borrow_mut().native = Native::Stream(s(0));
                }
                RtValue::Null
            }
            ("org.apache.http.message.BasicNameValuePair", "<init>") => {
                if let RtValue::Object(o) = recv {
                    o.borrow_mut().native = Native::Pair(s(0), s(1));
                }
                RtValue::Null
            }
            ("org.apache.http.impl.client.DefaultHttpClient", "<init>")
            | ("android.net.http.AndroidHttpClient", "<init>") => RtValue::Null,
            ("org.apache.http.client.HttpClient", "execute")
            | ("org.apache.http.impl.client.DefaultHttpClient", "execute")
            | ("android.net.http.AndroidHttpClient", "execute") => {
                let req =
                    request_of(&args[0]).ok_or_else(|| RtError("execute: no request".into()))?;
                self.perform(req)?
            }
            ("org.apache.http.HttpResponse", "getEntity") => match recv {
                RtValue::Object(o) => {
                    let text = match &o.borrow().native {
                        Native::Response { body_text, .. } => body_text.clone(),
                        _ => String::new(),
                    };
                    RtValue::obj("org.apache.http.HttpEntity", Native::Stream(text))
                }
                _ => RtValue::Null,
            },
            ("org.apache.http.HttpEntity", "getContent") => match recv {
                RtValue::Object(o) => {
                    let text = match &o.borrow().native {
                        Native::Stream(t) => t.clone(),
                        _ => String::new(),
                    };
                    RtValue::obj("java.io.InputStream", Native::Stream(text))
                }
                _ => RtValue::Null,
            },
            ("org.apache.http.util.EntityUtils", "toString")
            | ("org.apache.commons.io.IOUtils", "toString") => RtValue::Str(args[0].to_str_lossy()),

            // ---- java.net ----
            ("java.net.URL", "<init>") => {
                if let RtValue::Object(o) = recv {
                    o.borrow_mut().native = Native::Request(RequestBuild {
                        method: None,
                        url: s(0),
                        headers: Vec::new(),
                        body: None,
                    });
                }
                RtValue::Null
            }
            ("java.net.URL", "openConnection") => {
                // The connection shares the URL's request build.
                let rb = request_of(recv).unwrap_or_default();
                RtValue::obj("java.net.HttpURLConnection", Native::Request(rb))
            }
            ("java.net.URL", "openStream") | ("java.net.URL", "getContent") => {
                let req = request_of(recv).ok_or_else(|| RtError("openStream: no url".into()))?;
                let resp = self.perform(req)?;
                response_stream(&resp)
            }
            ("java.net.HttpURLConnection", "setRequestMethod") => {
                if let RtValue::Object(o) = recv {
                    if let Native::Request(r) = &mut o.borrow_mut().native {
                        r.method = HttpMethod::parse(&s(0));
                    }
                }
                RtValue::Null
            }
            ("java.net.HttpURLConnection", "getInputStream")
            | ("java.net.URLConnection", "getInputStream")
            | ("java.net.HttpURLConnection", "connect")
            | ("java.net.URLConnection", "getContent") => {
                let req = request_of(recv).ok_or_else(|| RtError("conn: no request".into()))?;
                let resp = self.perform(req)?;
                response_stream(&resp)
            }

            // ---- okhttp ----
            ("okhttp3.Request$Builder", "url") => {
                if let RtValue::Object(o) = recv {
                    if let Native::Request(r) = &mut o.borrow_mut().native {
                        r.url = s(0);
                    }
                }
                recv.clone()
            }
            ("okhttp3.Request$Builder", "get") => {
                set_method(recv, HttpMethod::Get);
                recv.clone()
            }
            ("okhttp3.Request$Builder", "post")
            | ("okhttp3.Request$Builder", "put")
            | ("okhttp3.Request$Builder", "delete") => {
                let method = match name {
                    "post" => HttpMethod::Post,
                    "put" => HttpMethod::Put,
                    _ => HttpMethod::Delete,
                };
                set_method(recv, method);
                if let (RtValue::Object(o), Some(RtValue::Object(b))) = (recv, args.first()) {
                    let text = match &b.borrow().native {
                        Native::Stream(t) => Some(t.clone()),
                        _ => None,
                    };
                    if let Some(t) = text {
                        if let Native::Request(r) = &mut o.borrow_mut().native {
                            r.body = Some(body_from_text(&t));
                        }
                    }
                }
                recv.clone()
            }
            ("okhttp3.Request$Builder", "header") | ("okhttp3.Request$Builder", "addHeader") => {
                if let RtValue::Object(o) = recv {
                    if let Native::Request(r) = &mut o.borrow_mut().native {
                        r.headers.push((s(0), s(1)));
                    }
                }
                recv.clone()
            }
            ("okhttp3.Request$Builder", "build") => {
                let rb = request_of(recv).unwrap_or_default();
                RtValue::obj("okhttp3.Request", Native::Request(rb))
            }
            ("okhttp3.MediaType", "parse") => RtValue::Str(s(0)),
            ("okhttp3.RequestBody", "create") => {
                let content = args.get(1).map(RtValue::to_str_lossy).unwrap_or_default();
                RtValue::obj("okhttp3.RequestBody", Native::Stream(content))
            }
            ("okhttp3.OkHttpClient", "<init>") => RtValue::Null,
            ("okhttp3.OkHttpClient", "newCall") => {
                let rb = request_of(&args[0]).unwrap_or_default();
                RtValue::obj("okhttp3.Call", Native::Request(rb))
            }
            ("okhttp3.Call", "execute") => {
                let req = request_of(recv).ok_or_else(|| RtError("okhttp: no request".into()))?;
                self.perform(req)?
            }
            ("okhttp3.Response", "body") => match recv {
                RtValue::Object(o) => {
                    let text = match &o.borrow().native {
                        Native::Response { body_text, .. } => body_text.clone(),
                        _ => String::new(),
                    };
                    RtValue::obj("okhttp3.ResponseBody", Native::Stream(text))
                }
                _ => RtValue::Null,
            },
            ("okhttp3.ResponseBody", "string") => RtValue::Str(recv.to_str_lossy()),
            ("okhttp3.Response", "code") => match recv {
                RtValue::Object(o) => match &o.borrow().native {
                    Native::Response { status, .. } => RtValue::Int(i64::from(*status)),
                    _ => RtValue::Int(0),
                },
                _ => RtValue::Int(0),
            },

            // ---- volley ----
            ("com.android.volley.toolbox.Volley", "newRequestQueue") => {
                RtValue::obj("com.android.volley.RequestQueue", Native::None)
            }
            ("com.android.volley.Request", "<init>") => {
                let method = match args.first().map(RtValue::as_int).unwrap_or(0) {
                    1 => HttpMethod::Post,
                    2 => HttpMethod::Put,
                    3 => HttpMethod::Delete,
                    _ => HttpMethod::Get,
                };
                if let RtValue::Object(o) = recv {
                    let mut ob = o.borrow_mut();
                    let body = match &ob.native {
                        Native::Request(r) => r.body.clone(),
                        _ => None,
                    };
                    ob.native = Native::Request(RequestBuild {
                        method: Some(method),
                        url: s(1),
                        headers: Vec::new(),
                        body,
                    });
                }
                RtValue::Null
            }
            ("com.android.volley.RequestQueue", "add") => {
                let req_obj = args[0].clone();
                let req =
                    request_of(&req_obj).ok_or_else(|| RtError("volley: no request".into()))?;
                let resp = self.perform(req)?;
                let body_text = match &resp {
                    RtValue::Object(o) => match &o.borrow().native {
                        Native::Response { body_text, .. } => body_text.clone(),
                        _ => String::new(),
                    },
                    _ => String::new(),
                };
                // Deliver through the app's subclass.
                if let RtValue::Object(o) = &req_obj {
                    let cls = o.borrow().class.clone();
                    if let Some(t) = self.prog.resolve_method(&cls, "deliverResponse", 1) {
                        if self.prog.method(t).has_body {
                            self.call(t, req_obj.clone(), vec![RtValue::Str(body_text)])?;
                        }
                    }
                }
                args[0].clone()
            }

            // ---- retrofit ----
            ("retrofit2.CallFactory", "create") => {
                let method = HttpMethod::parse(&s(0)).unwrap_or(HttpMethod::Get);
                let body = match args.get(2) {
                    Some(RtValue::Null) | None => None,
                    Some(v) => Some(body_from_text(&v.to_str_lossy())),
                };
                RtValue::obj(
                    "retrofit2.Call",
                    Native::Request(RequestBuild {
                        method: Some(method),
                        url: s(1),
                        headers: Vec::new(),
                        body,
                    }),
                )
            }
            ("retrofit2.Call", "execute") => {
                let req = request_of(recv).ok_or_else(|| RtError("retrofit: no request".into()))?;
                self.perform(req)?
            }
            ("retrofit2.Response", "body") => match recv {
                RtValue::Object(o) => {
                    let text = match &o.borrow().native {
                        Native::Response { body_text, .. } => body_text.clone(),
                        _ => String::new(),
                    };
                    RtValue::Str(text)
                }
                _ => RtValue::Null,
            },

            // ---- loopj / Bee ----
            ("com.loopj.android.http.AsyncHttpClient", "<init>")
            | ("com.beeframework.Bee", "<init>") => RtValue::Null,
            ("com.loopj.android.http.AsyncHttpClient", "get")
            | ("com.loopj.android.http.AsyncHttpClient", "post")
            | ("com.beeframework.Bee", "get")
            | ("com.beeframework.Bee", "post") => {
                let is_post = name == "post";
                let (url, body, handler) = if is_post {
                    (s(0), Some(body_from_text(&s(1))), args.get(2).cloned())
                } else {
                    (s(0), None, args.get(1).cloned())
                };
                let resp = self.perform(RequestBuild {
                    method: Some(if is_post { HttpMethod::Post } else { HttpMethod::Get }),
                    url,
                    headers: Vec::new(),
                    body,
                })?;
                let text = match &resp {
                    RtValue::Object(o) => match &o.borrow().native {
                        Native::Response { body_text, .. } => body_text.clone(),
                        _ => String::new(),
                    },
                    _ => String::new(),
                };
                let cb_name =
                    if class.contains("beeframework") { "onReceive" } else { "onSuccess" };
                if let Some(RtValue::Object(h)) = &handler {
                    let cls = h.borrow().class.clone();
                    if let Some(t) = self.prog.resolve_method(&cls, cb_name, 1) {
                        if self.prog.method(t).has_body {
                            self.call(t, handler.clone().unwrap(), vec![RtValue::Str(text)])?;
                        }
                    }
                }
                RtValue::Null
            }

            // ---- kevinsawicki ----
            ("com.github.kevinsawicki.http.HttpRequest", "get")
            | ("com.github.kevinsawicki.http.HttpRequest", "post")
            | ("com.github.kevinsawicki.http.HttpRequest", "put") => {
                let method = match name {
                    "get" => HttpMethod::Get,
                    "post" => HttpMethod::Post,
                    _ => HttpMethod::Put,
                };
                let resp = self.perform(RequestBuild {
                    method: Some(method),
                    url: s(0),
                    headers: Vec::new(),
                    body: None,
                })?;
                let text = match &resp {
                    RtValue::Object(o) => match &o.borrow().native {
                        Native::Response { body_text, .. } => body_text.clone(),
                        _ => String::new(),
                    },
                    _ => String::new(),
                };
                RtValue::obj("com.github.kevinsawicki.http.HttpRequest", Native::Stream(text))
            }
            ("com.github.kevinsawicki.http.HttpRequest", "body") => {
                RtValue::Str(recv.to_str_lossy())
            }

            // ---- the unmodeled ad library ----
            ("com.adlib.Tracker", "send") => {
                self.perform(RequestBuild {
                    method: Some(HttpMethod::Get),
                    url: s(0),
                    headers: Vec::new(),
                    body: None,
                })?;
                RtValue::Null
            }
            ("com.adlib.Tracker", "sendPost") => {
                self.perform(RequestBuild {
                    method: Some(HttpMethod::Post),
                    url: s(0),
                    headers: Vec::new(),
                    body: Some(body_from_text(&s(1))),
                })?;
                RtValue::Null
            }

            // ---- media ----
            ("android.media.MediaPlayer", "<init>") => RtValue::Null,
            ("android.media.MediaPlayer", "setDataSource") => {
                self.perform(RequestBuild {
                    method: Some(HttpMethod::Get),
                    url: s(0),
                    headers: Vec::new(),
                    body: None,
                })?;
                RtValue::Null
            }
            ("android.media.MediaPlayer", "prepare") | ("android.media.MediaPlayer", "start") => {
                RtValue::Null
            }

            // ---- JSON (org.json) ----
            ("org.json.JSONObject", "<init>") | ("org.json.JSONArray", "<init>") => {
                if let RtValue::Object(o) = recv {
                    if args.is_empty() {
                        // already initialized at allocation
                    } else {
                        let parsed = JsonValue::parse(&s(0))
                            .map_err(|e| RtError(format!("json parse: {e}")))?;
                        o.borrow_mut().native = Native::Json(parsed);
                    }
                }
                RtValue::Null
            }
            ("org.json.JSONObject", "put") => {
                if let RtValue::Object(o) = recv {
                    if let Native::Json(j) = &mut o.borrow_mut().native {
                        j.insert(&s(0), rt_to_json(&args[1]));
                    }
                }
                recv.clone()
            }
            ("org.json.JSONObject", "getString") | ("org.json.JSONObject", "optString") => {
                let j = json_of(recv);
                let v = lookup_json(&j, &s(0));
                RtValue::Str(match v {
                    Some(JsonValue::String(s)) => s,
                    Some(other) => other.to_json(),
                    None => String::new(),
                })
            }
            ("org.json.JSONObject", "getInt") => {
                let j = json_of(recv);
                RtValue::Int(lookup_json(&j, &s(0)).and_then(|v| v.as_num()).unwrap_or(0.0) as i64)
            }
            ("org.json.JSONObject", "getBoolean") => {
                let j = json_of(recv);
                RtValue::Bool(matches!(lookup_json(&j, &s(0)), Some(JsonValue::Bool(true))))
            }
            ("org.json.JSONObject", "getJSONObject") => {
                let j = json_of(recv);
                let v = lookup_json(&j, &s(0)).unwrap_or(JsonValue::Null);
                RtValue::obj("org.json.JSONObject", Native::Json(v))
            }
            ("org.json.JSONObject", "getJSONArray") => {
                let j = json_of(recv);
                let v = lookup_json(&j, &s(0)).unwrap_or(JsonValue::Array(vec![]));
                RtValue::obj("org.json.JSONArray", Native::Json(v))
            }
            ("org.json.JSONArray", "getJSONObject") | ("org.json.JSONArray", "get") => {
                let j = json_of(recv);
                let v = j.at(args[0].as_int() as usize).cloned().unwrap_or(JsonValue::Null);
                RtValue::obj("org.json.JSONObject", Native::Json(v))
            }
            ("org.json.JSONArray", "length") => {
                let j = json_of(recv);
                RtValue::Int(match j {
                    JsonValue::Array(a) => a.len() as i64,
                    _ => 0,
                })
            }
            ("org.json.JSONArray", "put") => {
                if let RtValue::Object(o) = recv {
                    if let Native::Json(JsonValue::Array(a)) = &mut o.borrow_mut().native {
                        a.push(rt_to_json(&args[0]));
                    }
                }
                recv.clone()
            }
            ("org.json.JSONObject", "toString") | ("org.json.JSONArray", "toString") => {
                RtValue::Str(json_of(recv).to_json())
            }

            // ---- gson / jackson reflection ----
            ("com.google.gson.Gson", "<init>")
            | ("com.fasterxml.jackson.databind.ObjectMapper", "<init>") => RtValue::Null,
            ("com.google.gson.Gson", "toJson")
            | ("com.fasterxml.jackson.databind.ObjectMapper", "writeValueAsString") => {
                RtValue::Str(reflect_to_json(&args[0]).to_json())
            }
            ("com.google.gson.Gson", "fromJson")
            | ("com.fasterxml.jackson.databind.ObjectMapper", "readValue") => {
                let parsed = JsonValue::parse(&s(0)).unwrap_or(JsonValue::Null);
                let cls = s(1);
                reflect_from_json(&cls, &parsed)
            }
            ("com.fasterxml.jackson.databind.ObjectMapper", "readTree") => {
                let parsed = JsonValue::parse(&s(0)).unwrap_or(JsonValue::Null);
                RtValue::obj("com.fasterxml.jackson.databind.JsonNode", Native::Json(parsed))
            }
            ("com.fasterxml.jackson.databind.JsonNode", "get")
            | ("com.fasterxml.jackson.databind.JsonNode", "path") => {
                let j = json_of(recv);
                let v = lookup_json(&j, &s(0)).unwrap_or(JsonValue::Null);
                RtValue::obj("com.fasterxml.jackson.databind.JsonNode", Native::Json(v))
            }
            ("com.fasterxml.jackson.databind.JsonNode", "asText") => {
                RtValue::Str(match json_of(recv) {
                    JsonValue::String(s) => s,
                    other => other.to_json(),
                })
            }

            // ---- XML DOM ----
            ("javax.xml.parsers.DocumentBuilder", "<init>") => RtValue::Null,
            ("javax.xml.parsers.DocumentBuilder", "parse") => {
                let e = XmlElement::parse(&s(0)).map_err(|e| RtError(format!("xml parse: {e}")))?;
                RtValue::obj("org.w3c.dom.Document", Native::Xml(e))
            }
            ("org.w3c.dom.Document", "getElementsByTagName")
            | ("org.w3c.dom.Element", "getElementsByTagName") => {
                let root = xml_of(recv);
                let tag = s(0);
                let mut found = Vec::new();
                collect_tags(&root, &tag, &mut found);
                RtValue::obj("org.w3c.dom.NodeList", Native::NodeList(found))
            }
            ("org.w3c.dom.NodeList", "item") => {
                let i = args[0].as_int() as usize;
                match recv {
                    RtValue::Object(o) => match &o.borrow().native {
                        Native::NodeList(items) => items
                            .get(i)
                            .map(|e| {
                                RtValue::obj("org.w3c.dom.Element", Native::Element(e.clone()))
                            })
                            .unwrap_or(RtValue::Null),
                        _ => RtValue::Null,
                    },
                    _ => RtValue::Null,
                }
            }
            ("org.w3c.dom.NodeList", "getLength") => match recv {
                RtValue::Object(o) => match &o.borrow().native {
                    Native::NodeList(items) => RtValue::Int(items.len() as i64),
                    _ => RtValue::Int(0),
                },
                _ => RtValue::Int(0),
            },
            ("org.w3c.dom.Element", "getAttribute") => {
                let e = element_of(recv);
                RtValue::Str(
                    e.and_then(|e| e.attr_value(&s(0)).map(str::to_string)).unwrap_or_default(),
                )
            }
            ("org.w3c.dom.Element", "getTextContent") => {
                let e = element_of(recv);
                RtValue::Str(e.map(|e| e.text_content()).unwrap_or_default())
            }

            // ---- android state ----
            ("android.content.res.Resources", "<init>") => RtValue::Null,
            ("android.content.res.Resources", "getString") => RtValue::Str(s(0)),
            ("android.content.SharedPreferences", "getString") => {
                RtValue::Str(self.prefs.get(&s(0)).cloned().unwrap_or_else(|| s(1)))
            }
            ("android.content.SharedPreferences$Editor", "putString") => {
                self.prefs.insert(s(0), s(1));
                recv.clone()
            }
            ("android.content.ContentValues", "<init>") => RtValue::Null,
            ("android.content.ContentValues", "put") => {
                if let RtValue::Object(o) = recv {
                    if let Native::Map(m) = &mut o.borrow_mut().native {
                        m.push((s(0), args[1].clone()));
                    }
                }
                RtValue::Null
            }
            ("android.database.sqlite.SQLiteDatabase", "insert")
            | ("android.database.sqlite.SQLiteDatabase", "update") => {
                let table = s(0);
                let values_idx = if name == "insert" { 2 } else { 1 };
                if let Some(RtValue::Object(cv)) = args.get(values_idx) {
                    if let Native::Map(m) = &cv.borrow().native {
                        let t = self.db.entry(table).or_default();
                        for (k, v) in m {
                            t.insert(k.clone(), v.to_str_lossy());
                        }
                    }
                }
                RtValue::Int(1)
            }
            ("android.database.sqlite.SQLiteDatabase", "query") => {
                let table = s(0);
                let col = s(2);
                let v = self.db.get(&table).and_then(|t| t.get(&col)).cloned().unwrap_or_default();
                RtValue::obj("android.database.Cursor", Native::Cursor(vec![v]))
            }
            ("android.database.Cursor", "getString") => match recv {
                RtValue::Object(o) => match &o.borrow().native {
                    Native::Cursor(vals) => RtValue::Str(
                        vals.get(args[0].as_int() as usize).cloned().unwrap_or_default(),
                    ),
                    _ => RtValue::Str(String::new()),
                },
                _ => RtValue::Str(String::new()),
            },
            ("android.database.Cursor", "moveToNext") => RtValue::Bool(false),

            // ---- device origins ----
            ("android.widget.EditText", "<init>") => RtValue::Null,
            ("android.widget.EditText", "getText") => RtValue::Str("user-input".into()),
            ("android.location.Location", "getCity") => RtValue::Str("Irvine".into()),
            ("android.location.Location", "getLatitude") => RtValue::Float(33.68),
            ("android.location.Location", "getLongitude") => RtValue::Float(-117.82),
            ("android.media.AudioRecord", "read") => RtValue::Int(0),
            ("android.location.LocationManager", "requestLocationUpdates") => RtValue::Null,

            // ---- consumption sinks ----
            ("android.widget.ImageView", "<init>")
            | ("android.widget.ImageView", "setImageBitmap")
            | ("android.webkit.WebView", "loadUrl")
            | ("java.io.FileOutputStream", "write")
            | ("java.io.FileOutputStream", "<init>") => RtValue::Null,

            // ---- async machinery: synchronous in the harness ----
            (_, "execute") if self.prog.is_subtype(class, "android.os.AsyncTask") => {
                // run doInBackground then onPostExecute on the receiver.
                let cls = dynamic_class_of(recv).unwrap_or_else(|| class.to_string());
                let mut result = RtValue::Null;
                if let Some(t) = self.prog.resolve_method(&cls, "doInBackground", 1) {
                    if self.prog.method(t).has_body {
                        result = self.call(
                            t,
                            recv.clone(),
                            vec![args.first().cloned().unwrap_or(RtValue::Null)],
                        )?;
                    }
                }
                if let Some(t) = self.prog.resolve_method(&cls, "onPostExecute", 1) {
                    if self.prog.method(t).has_body {
                        self.call(t, recv.clone(), vec![result])?;
                    }
                }
                RtValue::Null
            }
            ("java.lang.Thread", "<init>") => {
                if let (RtValue::Object(o), Some(r)) = (recv, args.first()) {
                    o.borrow_mut().fields.insert("runnable".into(), r.clone());
                }
                RtValue::Null
            }
            ("java.lang.Thread", "start") => {
                let runnable = match recv {
                    RtValue::Object(o) => o.borrow().fields.get("runnable").cloned(),
                    _ => None,
                };
                if let Some(r) = runnable {
                    self.run_runnable(&r)?;
                }
                RtValue::Null
            }
            ("android.os.Handler", "<init>") | ("java.util.Timer", "<init>") => RtValue::Null,
            ("android.os.Handler", "post")
            | ("android.os.Handler", "postDelayed")
            | ("java.util.Timer", "schedule") => {
                if let Some(r) = args.first() {
                    let r = r.clone();
                    self.run_runnable(&r)?;
                }
                RtValue::Bool(true)
            }
            ("android.view.View", "setOnClickListener") => RtValue::Null,

            _ => return Ok(None),
        };
        Ok(Some(result))
    }

    fn run_runnable(&mut self, r: &RtValue) -> RtResult<()> {
        if let RtValue::Object(o) = r {
            let cls = o.borrow().class.clone();
            if let Some(t) = self.prog.resolve_method(&cls, "run", 0) {
                if self.prog.method(t).has_body {
                    self.call(t, r.clone(), vec![])?;
                }
            }
        }
        Ok(())
    }

    /// Fires a request at the mock server, records the transaction, and
    /// returns a Response object.
    fn perform(&mut self, rb: RequestBuild) -> RtResult<RtValue> {
        let mut headers = Headers::new();
        for (k, v) in &rb.headers {
            headers.add(k, v);
        }
        let body = rb.body.clone().unwrap_or(Body::Empty);
        let request = Request {
            method: rb.method.unwrap_or(HttpMethod::Get),
            uri: Uri::parse(&rb.url),
            headers,
            body,
        };
        let response = self.server.serve(&request);
        self.trace.push(Transaction { request, response: response.clone() });
        let body_text = response.body.to_bytes_string();
        Ok(RtValue::obj(
            "org.apache.http.HttpResponse",
            Native::Response { status: response.status, body_text, body: response.body },
        ))
    }
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

fn dynamic_class_of(v: &RtValue) -> Option<String> {
    match v {
        RtValue::Object(o) => Some(o.borrow().class.clone()),
        _ => None,
    }
}

fn request_of(v: &RtValue) -> Option<RequestBuild> {
    match v {
        RtValue::Object(o) => match &o.borrow().native {
            Native::Request(r) => Some(r.clone()),
            _ => None,
        },
        _ => None,
    }
}

fn set_method(v: &RtValue, m: HttpMethod) {
    if let RtValue::Object(o) = v {
        if let Native::Request(r) = &mut o.borrow_mut().native {
            r.method = Some(m);
        }
    }
}

fn response_stream(resp: &RtValue) -> RtValue {
    let text = match resp {
        RtValue::Object(o) => match &o.borrow().native {
            Native::Response { body_text, .. } => body_text.clone(),
            _ => String::new(),
        },
        _ => String::new(),
    };
    RtValue::obj("java.io.InputStream", Native::Stream(text))
}

fn json_of(v: &RtValue) -> JsonValue {
    match v {
        RtValue::Object(o) => match &o.borrow().native {
            Native::Json(j) => j.clone(),
            Native::Stream(s) => JsonValue::parse(s).unwrap_or(JsonValue::Null),
            _ => JsonValue::Null,
        },
        RtValue::Str(s) => JsonValue::parse(s).unwrap_or(JsonValue::Null),
        _ => JsonValue::Null,
    }
}

/// Member lookup tolerant of the wrap-in-array idiom (Fig. 8's status.json
/// is an array of station objects).
fn lookup_json(j: &JsonValue, key: &str) -> Option<JsonValue> {
    match j {
        JsonValue::Object(_) => j.get(key).cloned(),
        JsonValue::Array(items) => items.iter().find_map(|it| it.get(key).cloned()),
        _ => None,
    }
}

fn xml_of(v: &RtValue) -> XmlElement {
    match v {
        RtValue::Object(o) => match &o.borrow().native {
            Native::Xml(e) | Native::Element(e) => e.clone(),
            _ => XmlElement::new("empty"),
        },
        _ => XmlElement::new("empty"),
    }
}

fn element_of(v: &RtValue) -> Option<XmlElement> {
    match v {
        RtValue::Object(o) => match &o.borrow().native {
            Native::Element(e) | Native::Xml(e) => Some(e.clone()),
            _ => None,
        },
        _ => None,
    }
}

fn collect_tags(e: &XmlElement, tag: &str, out: &mut Vec<XmlElement>) {
    if e.name == tag {
        out.push(e.clone());
    }
    for c in &e.children {
        if let XmlNode::Element(ce) = c {
            collect_tags(ce, tag, out);
        }
    }
}

fn rt_to_json(v: &RtValue) -> JsonValue {
    match v {
        RtValue::Null => JsonValue::Null,
        RtValue::Int(i) => JsonValue::Number(*i as f64),
        RtValue::Float(f) => JsonValue::Number(*f),
        RtValue::Bool(b) => JsonValue::Bool(*b),
        RtValue::Str(s) => JsonValue::String(s.clone()),
        RtValue::Object(o) => match &o.borrow().native {
            Native::Json(j) => j.clone(),
            _ => JsonValue::String(v.to_str_lossy()),
        },
    }
}

/// Reflection-based serialization: the object's fields become JSON keys.
fn reflect_to_json(v: &RtValue) -> JsonValue {
    match v {
        RtValue::Object(o) => {
            let mut out = JsonValue::object();
            for (k, fv) in &o.borrow().fields {
                out.insert(k, rt_to_json(fv));
            }
            out
        }
        other => rt_to_json(other),
    }
}

/// Reflection-based parsing: JSON keys become object fields.
fn reflect_from_json(class: &str, j: &JsonValue) -> RtValue {
    let obj = RtValue::obj(class, Native::Json(j.clone()));
    if let (RtValue::Object(o), JsonValue::Object(m)) = (&obj, j) {
        for (k, v) in m {
            let fv = match v {
                JsonValue::String(s) => RtValue::Str(s.clone()),
                JsonValue::Number(n) => RtValue::Float(*n),
                JsonValue::Bool(b) => RtValue::Bool(*b),
                other => RtValue::Str(other.to_json()),
            };
            o.borrow_mut().fields.insert(k.clone(), fv);
        }
    }
    obj
}

fn form_from_pairs(items: &[RtValue]) -> Body {
    let pairs: Vec<(String, String)> = items
        .iter()
        .filter_map(|it| match it {
            RtValue::Object(o) => match &o.borrow().native {
                Native::Pair(k, v) => Some((k.clone(), v.clone())),
                _ => None,
            },
            _ => None,
        })
        .collect();
    Body::Form(pairs)
}

/// Interprets body text as JSON when it parses, plain text otherwise.
fn body_from_text(text: &str) -> Body {
    match JsonValue::parse(text) {
        Ok(j) => Body::Json(j),
        Err(_) => Body::Text(text.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_corpus::{Route, ServerSpec};
    use extractocol_ir::{ApkBuilder, Type, Value};

    fn tiny_app() -> (Apk, ServerSpec) {
        let mut b = ApkBuilder::new("t", "t");
        extractocol_core::stubs::install(&mut b);
        b.class("t.Api", |c| {
            let tok = c.field("mTok", Type::string());
            c.method("login", vec![Type::string()], Type::Void, |m| {
                let this = m.recv("t.Api");
                let user = m.arg(0, "user");
                let sb =
                    m.new_obj("java.lang.StringBuilder", vec![Value::str("http://h/login?u=")]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(user)]);
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                let resp = m.vcall(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                    Type::object("org.apache.http.HttpResponse"),
                );
                let ent = m.vcall(
                    resp,
                    "org.apache.http.HttpResponse",
                    "getEntity",
                    vec![],
                    Type::object("org.apache.http.HttpEntity"),
                );
                let body = m.scall(
                    "org.apache.http.util.EntityUtils",
                    "toString",
                    vec![Value::Local(ent)],
                    Type::string(),
                );
                let j = m.new_obj("org.json.JSONObject", vec![Value::Local(body)]);
                let t = m.vcall(
                    j,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("token")],
                    Type::string(),
                );
                m.put_field(this, &tok, t);
                m.ret_void();
            });
            c.method("fetch", vec![], Type::Void, |m| {
                let this = m.recv("t.Api");
                let t = m.temp(Type::string());
                m.get_field(t, this, &tok);
                let sb =
                    m.new_obj("java.lang.StringBuilder", vec![Value::str("http://h/items?auth=")]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(t)]);
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                m.vcall_void(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                );
                m.ret_void();
            });
        });
        let server = ServerSpec::new()
            .route(Route::json(HttpMethod::Get, "http://h/login.*", r#"{"token":"tk-99"}"#))
            .route(Route::empty(HttpMethod::Get, "http://h/items.*"));
        (b.build(), server)
    }

    #[test]
    fn executes_login_then_fetch_with_shared_state() {
        let (apk, server) = tiny_app();
        let mut interp = Interpreter::new(&apk, &server);
        interp.invoke("t.Api", "login", vec![RtValue::Str("alice".into())]).unwrap();
        interp.invoke("t.Api", "fetch", vec![]).unwrap();
        assert_eq!(interp.trace.len(), 2);
        assert_eq!(interp.trace[0].request.uri.raw, "http://h/login?u=alice");
        // The token from the first response flows into the second request.
        assert_eq!(interp.trace[1].request.uri.raw, "http://h/items?auth=tk-99");
        assert_eq!(interp.trace[0].response.status, 200);
    }
}

#[cfg(test)]
mod api_semantics_tests {
    use super::*;
    use extractocol_corpus::{Route, ServerSpec};
    use extractocol_ir::{ApkBuilder, Type, Value};

    fn run_method(
        build: impl FnOnce(&mut extractocol_ir::MethodBuilder),
        server: ServerSpec,
    ) -> (Vec<Transaction>, RtValue) {
        let mut b = ApkBuilder::new("t", "t");
        extractocol_core::stubs::install(&mut b);
        b.class("t.C", |c| {
            c.method("m", vec![], Type::string(), build);
        });
        let apk = b.build();
        let mut interp = Interpreter::new(&apk, &server);
        let r = interp.invoke("t.C", "m", vec![]).expect("interpretation");
        (interp.trace, r)
    }

    #[test]
    fn json_build_and_parse_round_trip() {
        let (_, r) = run_method(
            |m| {
                m.recv("t.C");
                let j = m.new_obj("org.json.JSONObject", vec![]);
                m.vcall_void(
                    j,
                    "org.json.JSONObject",
                    "put",
                    vec![Value::str("a"), Value::str("1")],
                );
                m.vcall_void(j, "org.json.JSONObject", "put", vec![Value::str("b"), Value::int(2)]);
                let text = m.vcall(j, "org.json.JSONObject", "toString", vec![], Type::string());
                let j2 = m.new_obj("org.json.JSONObject", vec![Value::Local(text)]);
                let v = m.vcall(
                    j2,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("a")],
                    Type::string(),
                );
                m.ret(v);
            },
            ServerSpec::new(),
        );
        assert!(matches!(r, RtValue::Str(s) if s == "1"));
    }

    #[test]
    fn xml_dom_navigation() {
        let (_, r) = run_method(
            |m| {
                m.recv("t.C");
                let text = m.temp(Type::string());
                m.cstr(
                    text,
                    "<root><item id=\"7\">first</item><item id=\"8\">second</item></root>",
                );
                let db = m.new_obj("javax.xml.parsers.DocumentBuilder", vec![]);
                let doc = m.vcall(
                    db,
                    "javax.xml.parsers.DocumentBuilder",
                    "parse",
                    vec![Value::Local(text)],
                    Type::object("org.w3c.dom.Document"),
                );
                let nl = m.vcall(
                    doc,
                    "org.w3c.dom.Document",
                    "getElementsByTagName",
                    vec![Value::str("item")],
                    Type::object("org.w3c.dom.NodeList"),
                );
                let el = m.vcall(
                    nl,
                    "org.w3c.dom.NodeList",
                    "item",
                    vec![Value::int(1)],
                    Type::object("org.w3c.dom.Element"),
                );
                let attr = m.vcall(
                    el,
                    "org.w3c.dom.Element",
                    "getAttribute",
                    vec![Value::str("id")],
                    Type::string(),
                );
                m.ret(attr);
            },
            ServerSpec::new(),
        );
        assert!(matches!(r, RtValue::Str(s) if s == "8"));
    }

    #[test]
    fn gson_reflection_round_trip() {
        let (_, r) = run_method(
            |m| {
                m.recv("t.C");
                // fromJson fills fields; toJson reads them back.
                let gson = m.new_obj("com.google.gson.Gson", vec![]);
                let obj = m.vcall(
                    gson,
                    "com.google.gson.Gson",
                    "fromJson",
                    vec![Value::str(r#"{"user":"bob","age":7}"#), Value::str("t.User")],
                    Type::obj_root(),
                );
                let text = m.vcall(
                    gson,
                    "com.google.gson.Gson",
                    "toJson",
                    vec![Value::Local(obj)],
                    Type::string(),
                );
                m.ret(text);
            },
            ServerSpec::new(),
        );
        let RtValue::Str(s) = r else { panic!("expected string") };
        let v = extractocol_http::JsonValue::parse(&s).unwrap();
        assert_eq!(v.get("user").unwrap().as_str(), Some("bob"));
    }

    #[test]
    fn loops_and_switches_execute() {
        use extractocol_ir::{BinOp, CondOp, Expr};
        let (_, r) = run_method(
            |m| {
                m.recv("t.C");
                let i = m.local("i", Type::Int);
                let acc = m.local("acc", Type::Int);
                m.cint(i, 0);
                m.cint(acc, 0);
                m.label("head");
                m.iff(CondOp::Ge, i, Value::int(5), "done");
                m.assign(acc, Expr::Bin(BinOp::Add, Value::Local(acc), Value::Local(i)));
                m.assign(i, Expr::Bin(BinOp::Add, Value::Local(i), Value::int(1)));
                m.goto("head");
                m.label("done");
                let out = m.temp(Type::string());
                m.switch(acc, vec![(10, "ten")], "other");
                m.label("ten");
                m.cstr(out, "ten");
                m.goto("end");
                m.label("other");
                m.cstr(out, "other");
                m.label("end");
                m.ret(out);
            },
            ServerSpec::new(),
        );
        assert!(matches!(r, RtValue::Str(s) if s == "ten"), "0+1+2+3+4 = 10");
    }

    #[test]
    fn header_gated_requests_carry_headers() {
        let server = ServerSpec::new().route(
            Route::json(HttpMethod::Get, ".*", r#"{"ok":"yes"}"#)
                .with_required_header("X-Auth", "secret-.*"),
        );
        let (trace, r) = run_method(
            |m| {
                m.recv("t.C");
                let req = m.new_obj(
                    "org.apache.http.client.methods.HttpGet",
                    vec![Value::str("https://h/x")],
                );
                m.vcall_void(
                    req,
                    "org.apache.http.client.methods.HttpGet",
                    "setHeader",
                    vec![Value::str("X-Auth"), Value::str("secret-1")],
                );
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                let resp = m.vcall(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                    Type::object("org.apache.http.HttpResponse"),
                );
                let ent = m.vcall(
                    resp,
                    "org.apache.http.HttpResponse",
                    "getEntity",
                    vec![],
                    Type::object("org.apache.http.HttpEntity"),
                );
                let body = m.scall(
                    "org.apache.http.util.EntityUtils",
                    "toString",
                    vec![Value::Local(ent)],
                    Type::string(),
                );
                m.ret(body);
            },
            server,
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].response.status, 200);
        assert!(matches!(r, RtValue::Str(s) if s.contains("ok")));
    }
}
