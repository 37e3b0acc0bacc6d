//! The serving workloads' building blocks: seeded traffic generation
//! (corpus, near-miss and hostile lines), the expected reply of every
//! line, the stage-by-stage classify composition the traced run times,
//! and the two load generators (closed-loop round trip, pipelined
//! window) against a [`Daemon`](extractocol_serve::Daemon) over TCP.

use crate::analysis::{bump, shuffle, Tally};
use crate::spans::SpanStore;
use crate::stats::{process_cpu_s, LogHistogram, MachineSpeed};
use extractocol_core::conformance::request_body_matches_budgeted;
use extractocol_dynamic::trace::TrafficTrace;
use extractocol_dynamic::{generate_attacks, parse_request_line, AdversarialConfig, AttackClass};
use extractocol_http::regexlite::DEFAULT_MATCH_BUDGET;
use extractocol_http::{Body, Request, Response, Transaction, Uri};
use extractocol_ir::rng::Rng;
use extractocol_serve::{SignatureIndex, Verdict};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Near-miss lines per `serve-stream` tile.
pub const NEAR_MISS_PER_TILE: usize = 2048;
/// Hostile lines per `serve-stream` tile, one per attack class.
pub const ATTACKS_PER_TILE: usize = AttackClass::ALL.len();
/// Attack cases generated per class; the median-length one is used.
const ATTACK_POOL_PER_CLASS: usize = 15;
/// Lines longer than this stay out of the brute-force subsample (a
/// linear scan over every signature on a 60 KB query would dominate
/// set-up without adding signal).
const BRUTE_MAX_LINE: usize = 4096;
/// One line in this many gets the brute-force check.
const BRUTE_STRIDE: usize = 8;

/// Traffic kind of one generated line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A perfect-fuzzer request of a corpus app.
    Corpus,
    /// A corpus URI mutated past its trie prefix (reaches candidates,
    /// matches none).
    NearMiss,
    /// A `generate_attacks` line.
    Attack,
}

/// What the daemon must answer to one line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this reply line.
    Reply(String),
    /// A parse rejection: any `error\t…` line.
    Error,
}

impl Expect {
    pub fn accepts(&self, reply: &str) -> bool {
        match self {
            Expect::Reply(r) => r == reply,
            Expect::Error => reply.starts_with("error\t"),
        }
    }
}

/// One tile of traffic, replayed cyclically by the load generators.
pub struct Traffic {
    pub lines: Vec<String>,
    pub kinds: Vec<Kind>,
    pub expected: Vec<Expect>,
}

impl Traffic {
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.kinds.iter().filter(|k| **k == kind).count()
    }
}

/// Serializes one request as a wire-format line (no newline).
pub fn request_line(req: &Request) -> String {
    let trace = TrafficTrace {
        app: "bench".to_string(),
        transactions: vec![Transaction {
            request: req.clone(),
            response: Response::ok(Body::Empty),
        }],
    };
    trace.to_request_text().trim_end_matches('\n').to_string()
}

/// The perfect-fuzzer traffic of every corpus app as wire lines, in
/// corpus order.
pub fn corpus_lines() -> Vec<String> {
    extractocol_serve::bench::corpus_requests().iter().map(request_line).collect()
}

/// The request the daemon decodes from a line (`None` for lines it
/// rejects or skips).
pub fn parsed(line: &str) -> Option<Request> {
    parse_request_line(line).ok().flatten()
}

/// The daemon's reply to a line, computed in-process with
/// `SignatureIndex::classify`.
pub fn expected_reply(index: &SignatureIndex, line: &str) -> Expect {
    match parse_request_line(line) {
        Ok(Some(req)) => Expect::Reply(match index.classify(&req).0 {
            Verdict::Match(id) => {
                let sig = index.sig(id);
                format!("match\t{}\t{}\t{}", sig.app, sig.txn_id, sig.dp_class)
            }
            Verdict::Unmatched => "unmatched".to_string(),
        }),
        _ => Expect::Error,
    }
}

/// Whether a parsed request is a near miss: no signature matches, yet at
/// least one candidate of the same method survives trie pruning, so the
/// structural matcher runs on it.
pub fn is_near_miss(index: &SignatureIndex, req: &Request, brute: bool) -> bool {
    let verdict = if brute { index.classify_brute(req).0 } else { index.classify(req).0 };
    verdict == Verdict::Unmatched
        && index.candidates(&req.uri.raw).iter().any(|&id| index.sig(id).method == req.method)
}

/// `n` seeded near-miss lines: a matched corpus request whose URI is
/// edited after its signature's literal prefix (inserted junk, a
/// replaced character, or a truncation), kept only if it reaches a
/// same-method candidate and matches nothing.
pub fn near_miss_lines(
    index: &SignatureIndex,
    base: &[Request],
    n: usize,
    seed: u64,
) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x6e65_6172_6d69_7373);
    let mut out = Vec::with_capacity(n);
    let alphabet = ['q', 'z', 'x', '7', '~', '-', '_'];
    let mut attempts = 0usize;
    while out.len() < n && attempts < n * 50 {
        attempts += 1;
        let req = rng.pick(base);
        let Verdict::Match(id) = index.classify(req).0 else { continue };
        let uri = &req.uri.raw;
        let keep = index.sig(id).prefix.len();
        if keep > uri.len() || !uri.is_char_boundary(keep) {
            continue;
        }
        let tail: Vec<char> = uri[keep..].chars().collect();
        let at = rng.below(tail.len() + 1);
        let junk_len = 2 + rng.below(3);
        let junk = rng.ascii_string(&alphabet, junk_len);
        let mut edited: String = uri[..keep].to_string();
        // Past the end of the URI only an insertion edits anything.
        match if at == tail.len() { 0 } else { rng.below(3) } {
            0 => {
                edited.extend(&tail[..at]);
                edited.push_str(&junk);
                edited.extend(&tail[at..]);
            }
            1 => {
                edited.extend(&tail[..at]);
                edited.push_str(&junk);
                edited.extend(&tail[at + 1..]);
            }
            _ => edited.extend(&tail[..at]),
        }
        let candidate = Request { uri: Uri::parse(&edited), ..req.clone() };
        let line = request_line(&candidate);
        if parsed(&line).is_some_and(|r| is_near_miss(index, &r, false)) {
            out.push(line);
        }
    }
    out
}

/// One hostile line per attack class: from a seeded suite of
/// `ATTACK_POOL_PER_CLASS` cases per class, the median-length line the
/// daemon answers with exactly one reply (blank, comment and multi-line
/// cases get none or several, so they are skipped).
pub fn attack_lines(base: &[Request], seed: u64) -> Vec<(AttackClass, String)> {
    let config =
        AdversarialConfig { seed: seed ^ 0x6174_7461_636b, per_class: ATTACK_POOL_PER_CLASS };
    let cases = generate_attacks(&config, base);
    AttackClass::ALL
        .iter()
        .filter_map(|&class| {
            let mut pool: Vec<&str> = cases
                .iter()
                .filter(|c| c.class == class)
                .map(|c| c.line.as_str())
                .filter(|l| !l.contains('\n') && !matches!(parse_request_line(l), Ok(None)))
                .filter(|l| !is_verb(l.split('\t').next().unwrap_or("")))
                .collect();
            pool.sort_by_key(|l| (l.len(), *l));
            pool.get(pool.len() / 2).map(|l| (class, l.to_string()))
        })
        .collect()
}

/// Daemon control verbs: a traffic line must never start with one.
fn is_verb(field: &str) -> bool {
    matches!(field, "PING" | "STATS" | "HEALTH" | "METRICS" | "SLOW" | "SHUTDOWN" | "SWAP")
}

fn build_traffic(index: &SignatureIndex, mut lines: Vec<(Kind, String)>, seed: u64) -> Traffic {
    shuffle(&mut Rng::new(seed ^ 0x7469_6c65), &mut lines);
    let expected = lines.iter().map(|(_, l)| expected_reply(index, l)).collect();
    let (kinds, lines) = lines.into_iter().unzip();
    Traffic { lines, kinds, expected }
}

/// `serve-rtt` tile: every corpus line once, in seeded order.
pub fn rtt_traffic(index: &SignatureIndex, corpus: &[String], seed: u64) -> Traffic {
    build_traffic(index, corpus.iter().map(|l| (Kind::Corpus, l.clone())).collect(), seed)
}

/// `serve-stream` tile: every corpus line once, plus
/// [`NEAR_MISS_PER_TILE`] near-miss lines and one hostile line per attack
/// class, in seeded order.
pub fn stream_traffic(index: &SignatureIndex, corpus: &[String], seed: u64) -> Traffic {
    let base: Vec<Request> = corpus.iter().filter_map(|l| parsed(l)).collect();
    let mut lines: Vec<(Kind, String)> = corpus.iter().map(|l| (Kind::Corpus, l.clone())).collect();
    lines.extend(
        near_miss_lines(index, &base, NEAR_MISS_PER_TILE, seed)
            .into_iter()
            .map(|l| (Kind::NearMiss, l)),
    );
    lines.extend(attack_lines(&base, seed).into_iter().map(|(_, l)| (Kind::Attack, l)));
    build_traffic(index, lines, seed)
}

/// Re-classifies a spread subsample of the tile through the brute-force
/// linear scan; returns `(checked, disagreements)` against `classify`.
pub fn brute_check(index: &SignatureIndex, traffic: &Traffic) -> (usize, usize) {
    let mut checked = 0;
    let mut wrong = 0;
    for line in traffic.lines.iter().step_by(BRUTE_STRIDE) {
        if line.len() > BRUTE_MAX_LINE {
            continue;
        }
        if let Some(req) = parsed(line) {
            checked += 1;
            if index.classify_brute(&req).0 != index.classify(&req).0 {
                wrong += 1;
            }
        }
    }
    (checked, wrong)
}

/// Parses one line, times the whole `classify` call, then classifies it
/// again stage by stage — trie probe, then per candidate the method
/// filter, structural URI match and body match — timing each public
/// call, and returns whether the composed verdict equals `classify`'s.
pub fn classify_layered(
    index: &SignatureIndex,
    line: &str,
    spans: &mut SpanStore,
    unit: u64,
    tally: &mut Tally,
) -> bool {
    let stage = |name: &'static str, t0: Instant, spans: &mut SpanStore, tally: &mut Tally| {
        let t1 = Instant::now();
        spans.record(unit, name, "request", t0, t1);
        bump(tally, name, (t1 - t0).as_nanos() as f64);
    };
    let start = Instant::now();
    bump(tally, "requests", 1.0);
    let parsed = parse_request_line(line);
    stage("wire.parse_ns", start, spans, tally);
    let req = match parsed {
        Ok(Some(req)) => req,
        _ => {
            bump(tally, "wire.parse_errors", 1.0);
            spans.record(unit, "request", "", start, Instant::now());
            return true;
        }
    };
    let t = Instant::now();
    let (verdict, _) = index.classify(&req);
    stage("index.classify_ns", t, spans, tally);

    let t = Instant::now();
    let cands = index.candidates(&req.uri.raw);
    stage("index.probe_ns", t, spans, tally);
    bump(tally, "index.candidates_per_req", cands.len() as f64);

    let mut composed = Verdict::Unmatched;
    for id in cands {
        let sig = index.sig(id);
        if sig.method != req.method {
            continue;
        }
        bump(tally, "siglang.uri_evals_per_req", 1.0);
        let t = Instant::now();
        let uri_ok = sig.uri.matches_budgeted(&req.uri.raw, DEFAULT_MATCH_BUDGET);
        stage("siglang.uri_match_ns", t, spans, tally);
        match uri_ok {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => {
                bump(tally, "siglang.budget_exhausted", 1.0);
                continue;
            }
        }
        if let Some(body_sig) = &sig.body {
            if !req.body.is_empty() {
                bump(tally, "conformance.body_evals_per_req", 1.0);
                let t = Instant::now();
                let body_ok =
                    request_body_matches_budgeted(body_sig, &req.body, DEFAULT_MATCH_BUDGET);
                stage("conformance.body_match_ns", t, spans, tally);
                match body_ok {
                    Ok(true) => {}
                    Ok(false) => continue,
                    Err(_) => {
                        bump(tally, "siglang.budget_exhausted", 1.0);
                        continue;
                    }
                }
            }
        }
        composed = Verdict::Match(id);
        break;
    }
    spans.record(unit, "request", "", start, Instant::now());
    composed == verdict
}

/// One replayed tile: whether it was traced, its wall time (reply to
/// reply) and the CPU time the whole process spent meanwhile.
pub struct Tile {
    pub traced: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// What one load-generator run observed.
#[derive(Default)]
pub struct LoadOutcome {
    /// Send-to-reply time per request.
    pub rtt: LogHistogram,
    /// Every completed tile.
    pub tiles: Vec<Tile>,
    pub attempted: u64,
    pub correct: u64,
    pub failed: u64,
    /// Requests whose composed verdict differed from `classify`.
    pub composed_mismatches: u64,
    /// First send to last reply, seconds.
    pub elapsed_s: f64,
    /// Stage sums over traced requests (ns, counts).
    pub stages: Tally,
    pub spans: SpanStore,
}

/// Drives one connection with up to `window` requests outstanding
/// (`serve-rtt`: 1, a closed loop; `serve-stream`: a pipelined window),
/// replaying whole tiles until `seconds` have passed, then draining. One
/// thread writes and reads, so the generator and the daemon's connection
/// thread fit the box's two cores: it waits for one reply, takes every
/// reply already buffered, then refills the window with one write. Traced tiles compose each line stage
/// by stage before sending it. Between tiles, at most every 200 ms, the
/// machine-speed reference is sampled outside every tile's measurement.
#[allow(clippy::too_many_arguments)]
pub fn run_load(
    addr: SocketAddr,
    index: &SignatureIndex,
    traffic: &Traffic,
    window: usize,
    seconds: f64,
    trace: bool,
    spans_cap: usize,
    speed: &mut MachineSpeed,
) -> std::io::Result<LoadOutcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let frames: Vec<Vec<u8>> =
        traffic.lines.iter().map(|l| format!("{l}\n").into_bytes()).collect();
    let n = frames.len() as u64;
    let start = Instant::now();
    let mut out = LoadOutcome::default();
    let mut spans = SpanStore::new(start, spans_cap);
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut next = 0u64;
    let mut sending = true;
    let mut tile_mark = (start, process_cpu_s());
    let mut reply = String::new();
    let (mut batch, mut pending) = (Vec::new(), Vec::new());
    'run: loop {
        // Refill the window and send the new lines in one write.
        while sending && inflight.len() + pending.len() < window {
            let (k, i) = ((next / n) as usize, (next % n) as usize);
            if i == 0 && start.elapsed().as_secs_f64() >= seconds {
                sending = false;
                break;
            }
            if crate::traced_round(trace, k)
                && !classify_layered(
                    index,
                    &traffic.lines[i],
                    &mut spans,
                    next + 1,
                    &mut out.stages,
                )
            {
                out.composed_mismatches += 1;
            }
            batch.extend_from_slice(&frames[i]);
            pending.push(next);
            next += 1;
        }
        if !batch.is_empty() {
            let sent = Instant::now();
            inflight.extend(pending.drain(..).map(|seq| (seq, sent)));
            writer.write_all(&batch)?;
            batch.clear();
        }
        // Wait for one reply, then take every reply already buffered.
        loop {
            let Some((seq, sent)) = inflight.pop_front() else { break 'run };
            out.attempted += 1;
            reply.clear();
            if reader.read_line(&mut reply)? == 0 {
                // The daemon hung up: this and every request still in
                // flight went unanswered.
                out.attempted += inflight.len() as u64;
                out.failed += 1 + inflight.len() as u64;
                break 'run;
            }
            let now = Instant::now();
            out.rtt.record_us((now - sent).as_secs_f64() * 1e6);
            let i = (seq % n) as usize;
            if traffic.expected[i].accepts(reply.trim_end_matches(['\r', '\n'])) {
                out.correct += 1;
            } else {
                out.failed += 1;
            }
            if i as u64 == n - 1 {
                out.tiles.push(Tile {
                    traced: crate::traced_round(trace, (seq / n) as usize),
                    wall_s: (now - tile_mark.0).as_secs_f64(),
                    cpu_s: process_cpu_s() - tile_mark.1,
                });
                speed.sample_every(Duration::from_millis(200));
                tile_mark = (Instant::now(), process_cpu_s());
            }
            if !reader.buffer().contains(&b'\n') {
                break;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.spans = spans;
    Ok(out)
}

/// Reads the daemon's `serve_daemon_request_latency_us` `(sum, count)`
/// through the `METRICS` verb.
pub fn daemon_latency(addr: SocketAddr) -> std::io::Result<(f64, f64)> {
    let text = extractocol_serve::scrape(&addr.to_string(), "METRICS")?;
    let value = |name: &str| -> f64 {
        text.lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(k, _)| k.split('{').next() == Some(name))
            .and_then(|(_, v)| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok((
        value("serve_daemon_request_latency_us_sum"),
        value("serve_daemon_request_latency_us_count"),
    ))
}
