//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, checks every output, prints a
//! human-readable report, and ends with one JSON result line carrying
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when any check failed, 2 on bad arguments.

use extractocol_corpus::AppSpec;
use extractocol_ir::rng::Rng;
use extractocol_ir::Apk;
use extractocol_perfbench::analysis::{self, bump, Tally};
use extractocol_perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use extractocol_perfbench::serving::{self, Kind};
use extractocol_perfbench::spans::SpanStore;
use extractocol_perfbench::stats::{median, peak_rss_mb, process_cpu_s, MachineSpeed, Summary};
use extractocol_serve::{Daemon, DaemonConfig, SignatureIndex};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["analyze-cold", "analyze-incr", "serve-rtt", "serve-stream"];
/// Outstanding requests on the pipelined `serve-stream` connection.
const STREAM_WINDOW: usize = 64;
/// Spans kept in memory by a traced run; later ones are only counted.
const SPAN_CAP: usize = 200_000;
/// Scratch and trace output, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";
/// Analysis passes a run makes at least (two of each kind when traced).
const MIN_PASSES: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = val.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// What one workload run measured and checked.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    report: Vec<String>,
}

impl Run {
    /// One checked unit of work (an app report, a reply, a set-up check).
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                self.report.push(format!("FAILED {}", what()));
            }
        }
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    fn line(&mut self, s: String) {
        self.report.push(s);
    }
}

/// Per-metric medians over a set of per-pass tallies (absent reads 0).
fn layer_medians(tallies: &[Tally]) -> Tally {
    let mut keys: Vec<&'static str> = tallies.iter().flat_map(|t| t.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let v: Vec<f64> = tallies.iter().map(|t| t.get(k).copied().unwrap_or(0.0)).collect();
            (k, median(&v))
        })
        .collect()
}

/// Closes a traced pass: unattributed time is pass wall time minus the
/// sum of the timed layers.
fn close_pass(mut tally: Tally, wall_s: f64) -> Tally {
    let attributed: f64 = tally.iter().filter(|(k, _)| k.ends_with("ms")).map(|(_, v)| v).sum();
    tally.insert("analyze.unattributed_ms", wall_s * 1e3 - attributed);
    tally
}

/// Sets the gated end-to-end metrics from CPU seconds measured in this
/// run, rescaled to the reference machine speed, and prints the scale.
fn set_normalized(run: &mut Run, speed: &MachineSpeed, setup_cpu_s: f64, op_cpu_s: f64) {
    let f = speed.factor();
    run.set("setup_s", setup_cpu_s * f);
    run.set("cpu_us_per_op", op_cpu_s * 1e6 * f);
    run.line(format!(
        "machine speed: reference kernel {:.3} ms CPU (median of {}), scale {f:.4}; \
         raw setup {setup_cpu_s:.4} s CPU, raw {:.2} us CPU per op",
        speed.kernel_s() * 1e3,
        speed.len(),
        op_cpu_s * 1e6
    ));
}

/// One printed reading: median, quartiles, tail and sample count.
fn summary_line(name: &str, unit: &str, s: &Summary) -> String {
    format!(
        "{name} {:.4} {unit} (q1 {:.4}, q3 {:.4}, p90 {:.4}, p99 {:.4}, n {})",
        s.p50, s.p25, s.p75, s.p90, s.p99, s.n
    )
}

// ---------------------------------------------------------------------------
// analyze-cold / analyze-incr
// ---------------------------------------------------------------------------

/// One corpus app as a workload sees it: the original, for `-incr` its
/// seeded one-method mutation, the cold reference report of each, and
/// its summary-cache file.
struct AppCase {
    app: AppSpec,
    mutated: Option<Apk>,
    refs: [Option<String>; 2],
    cache: Option<PathBuf>,
}

impl AppCase {
    fn apk(&self, variant: usize) -> &Apk {
        match (&self.mutated, variant) {
            (Some(m), 1) => m,
            _ => &self.app.apk,
        }
    }

    fn config(&self) -> extractocol_dynamic::conformance::EvalConfig {
        match &self.cache {
            Some(path) => analysis::incr_config(path.clone()),
            None => analysis::cold_config(),
        }
    }
}

/// Set-up: corpus construction; for `-incr` also the cold reference
/// reports of every original and mutated app and the priming pass that
/// fills each app's summary cache with the original's summaries.
fn setup_analysis(incr: bool, seed: u64, work: &Path, run: &mut Run) -> Vec<AppCase> {
    let apps = extractocol_corpus::all_apps();
    let mut rng = Rng::new(seed ^ 0x6d75_7461_7465);
    apps.into_iter()
        .enumerate()
        .map(|(i, app)| {
            if !incr {
                return AppCase { app, mutated: None, refs: [None, None], cache: None };
            }
            let os = app.truth.open_source;
            let cold = analysis::analyze(&app.apk, os, &analysis::cold_config());
            run.check(analysis::matches_truth(&app, &cold), || {
                format!("{}: cold report counts differ from ground truth", app.truth.name)
            });
            let mutation = analysis::mutate_app(&app.apk, &cold, &mut rng);
            run.check(mutation.is_some(), || format!("{}: no mutable root method", app.truth.name));
            let mutated = mutation.map_or_else(|| app.apk.clone(), |(m, _)| m);
            let cold_mut = analysis::analyze(&mutated, os, &analysis::cold_config());
            let cache = work.join(format!("app{i}.exsm"));
            let _ = std::fs::remove_file(&cache);
            let prime = analysis::analyze(&app.apk, os, &analysis::incr_config(cache.clone()));
            let refs = [Some(analysis::report_json(&cold)), Some(analysis::report_json(&cold_mut))];
            run.check(refs[0].as_deref() == Some(analysis::report_json(&prime).as_str()), || {
                format!("{}: priming report differs from cold", app.truth.name)
            });
            AppCase { app, mutated: Some(mutated), refs, cache: Some(cache) }
        })
        .collect()
}

fn run_analysis(incr: bool, args: &Args, work: &Path, run: &mut Run) -> Option<SpanStore> {
    let reps = if incr { 3 } else { 5 };
    let mut speed = MachineSpeed::default();
    let (mut setup_s, mut setup_cpu) = (vec![], vec![]);
    let mut cases = Vec::new();
    for _ in 0..reps {
        speed.sample();
        let (t, c) = (Instant::now(), process_cpu_s());
        cases = setup_analysis(incr, args.seed, work, run);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_cpu.push(process_cpu_s() - c);
    }
    let n = cases.len();
    if incr {
        run.line(format!("mutated apps {n} (one seeded transaction-root method each)"));
    }

    let origin = Instant::now();
    let mut spans = SpanStore::new(origin, if args.trace { SPAN_CAP } else { 0 });
    let (mut pass_s, mut traced_s, mut app_ms, mut tallies) = (vec![], vec![], vec![], vec![]);
    let mut pass_cpu = vec![];
    let mut unit = 0u64;
    for k in 0usize.. {
        if k >= MIN_PASSES && origin.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let mut order: Vec<usize> = (0..n).collect();
        analysis::shuffle(
            &mut Rng::new(args.seed ^ (k as u64).wrapping_mul(0x9E37_79B9)),
            &mut order,
        );
        // `-incr` alternates mutated and original, so the cache always
        // holds the other variant's summaries: one method changed.
        let variant = if incr { (k + 1) % 2 } else { 0 };
        let traced = extractocol_perfbench::traced_round(args.trace, k);
        let mut tally = Tally::new();
        let mut reports = Vec::with_capacity(n);
        speed.sample();
        let pass_start = Instant::now();
        let cpu_start = process_cpu_s();
        for &i in &order {
            let case = &cases[i];
            let (apk, os, cfg) = (case.apk(variant), case.app.truth.open_source, case.config());
            let t = Instant::now();
            let report = if traced {
                unit += 1;
                let (report, layers) = analysis::analyze_layered(apk, os, &cfg, &mut spans, unit);
                for (name, v) in layers {
                    bump(&mut tally, name, v);
                }
                report
            } else {
                analysis::analyze(apk, os, &cfg)
            };
            if !traced {
                app_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            reports.push((i, report));
        }
        let wall = pass_start.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - cpu_start;
        for (i, report) in &reports {
            let case = &mut cases[*i];
            let json = analysis::report_json(report);
            let truth_ok = variant == 1 || analysis::matches_truth(&case.app, report);
            let same = case.refs[variant].get_or_insert_with(|| json.clone()) == &json;
            run.check(truth_ok && same, || {
                format!("{} pass {k} (traced: {traced}): report check", case.app.truth.name)
            });
        }
        if traced {
            traced_s.push(wall);
            tallies.push(close_pass(tally, wall));
        } else {
            pass_s.push(wall);
            pass_cpu.push(cpu);
        }
    }

    let corpus = Summary::of(&pass_s);
    set_normalized(run, &speed, median(&setup_cpu), median(&pass_cpu) / n as f64);
    run.line(summary_line("corpus_s", "s", &corpus));
    run.line(summary_line("corpus_cpu_s", "s", &Summary::of(&pass_cpu)));
    run.line(summary_line("app_ms", "ms", &Summary::of(&app_ms)));
    run.line(summary_line("setup_wall_s", "s", &Summary::of(&setup_s)));
    run.line(summary_line("setup_cpu_s", "s", &Summary::of(&setup_cpu)));
    if args.trace {
        for (name, v) in layer_medians(&tallies) {
            run.set(name, v);
        }
        run.set("trace_overhead", median(&traced_s) / corpus.p50);
        run.line(format!("traced passes {} untraced passes {}", traced_s.len(), pass_s.len()));
    }
    args.trace.then_some(spans)
}

// ---------------------------------------------------------------------------
// serve-rtt / serve-stream
// ---------------------------------------------------------------------------

/// A running daemon and what its set-up produced.
struct Served {
    addr: SocketAddr,
    index: SignatureIndex,
    handle: JoinHandle<io::Result<()>>,
    archive_ms: f64,
    archive_bytes: usize,
}

impl Served {
    /// `SHUTDOWN`, then wait for the accept loop and every connection
    /// thread to end.
    fn stop(self) -> bool {
        let bye = extractocol_serve::send_lines(&self.addr.to_string(), "SHUTDOWN\n");
        let joined = self.handle.join();
        matches!(bye, Ok(v) if v == ["bye"]) && matches!(joined, Ok(Ok(())))
    }
}

/// Set-up: corpus analysis, compile, archive write and load, daemon
/// start on `127.0.0.1:0`, and a `PING` answered. A traced run also
/// composes each app's analysis layer by layer (checked against the
/// untraced report) and records one layer tally per set-up.
fn setup_serving(
    trace: bool,
    work: &Path,
    run: &mut Run,
    spans: &mut SpanStore,
    tallies: &mut Vec<Tally>,
) -> io::Result<Served> {
    let apps = extractocol_corpus::all_apps();
    let cfg = analysis::cold_config();
    let reports: Vec<_> =
        apps.iter().map(|a| analysis::analyze(&a.apk, a.truth.open_source, &cfg)).collect();
    for (app, r) in apps.iter().zip(&reports) {
        run.check(analysis::matches_truth(app, r), || {
            format!("{}: report counts differ from ground truth", app.truth.name)
        });
    }
    if trace {
        let mut tally = Tally::new();
        let start = Instant::now();
        let first_unit = (tallies.len() * apps.len()) as u64;
        let layered: Vec<_> = apps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let unit = first_unit + i as u64;
                let (r, layers) =
                    analysis::analyze_layered(&a.apk, a.truth.open_source, &cfg, spans, unit);
                for (name, v) in layers {
                    bump(&mut tally, name, v);
                }
                r
            })
            .collect();
        tallies.push(close_pass(tally, start.elapsed().as_secs_f64()));
        for ((app, r), l) in apps.iter().zip(&reports).zip(&layered) {
            run.check(analysis::report_json(r) == analysis::report_json(l), || {
                format!("{}: layered report differs", app.truth.name)
            });
        }
    }
    let index = SignatureIndex::compile(&reports);
    let path = work.join("index.exsv");
    std::fs::write(&path, extractocol_serve::write_archive(&index))?;
    let bytes = std::fs::read(&path)?;
    let t = Instant::now();
    let loaded =
        extractocol_serve::read_archive(&bytes).map_err(|e| io::Error::other(e.to_string()))?;
    let archive_ms = t.elapsed().as_secs_f64() * 1e3;
    let daemon = Arc::new(Daemon::new(loaded, DaemonConfig::default()));
    daemon.metrics_index_load(archive_ms / 1e3);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || daemon.serve_tcp(listener));
    let served = Served { addr, index, handle, archive_ms, archive_bytes: bytes.len() };
    let pong = extractocol_serve::send_lines(&addr.to_string(), "PING\n");
    run.check(matches!(&pong, Ok(v) if v == &["pong"]), || format!("PING answered {pong:?}"));
    Ok(served)
}

fn run_serve(
    stream: bool,
    args: &Args,
    work: &Path,
    run: &mut Run,
) -> io::Result<Option<SpanStore>> {
    let origin = Instant::now();
    let mut spans = SpanStore::new(origin, if args.trace { SPAN_CAP } else { 0 });
    let (mut setup_s, mut setup_cpu, mut archive_ms, mut tallies) =
        (vec![], vec![], vec![], vec![]);
    let mut speed = MachineSpeed::default();
    let mut served: Option<Served> = None;
    for _ in 0..3 {
        if let Some(prev) = served.take() {
            run.check(prev.stop(), || "daemon shutdown after set-up".into());
        }
        speed.sample();
        let (t, c) = (Instant::now(), process_cpu_s());
        let s = setup_serving(args.trace, work, run, &mut spans, &mut tallies)?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_cpu.push(process_cpu_s() - c);
        archive_ms.push(s.archive_ms);
        served = Some(s);
    }
    let served = served.expect("three set-ups ran");

    // Inputs, generated from the seed (not part of set-up).
    let corpus = serving::corpus_lines();
    let traffic = if stream {
        serving::stream_traffic(&served.index, &corpus, args.seed)
    } else {
        serving::rtt_traffic(&served.index, &corpus, args.seed)
    };
    let counts = [Kind::Corpus, Kind::NearMiss, Kind::Attack].map(|k| traffic.count(k));
    let shape = if stream {
        [corpus.len(), serving::NEAR_MISS_PER_TILE, serving::ATTACKS_PER_TILE]
    } else {
        [corpus.len(), 0, 0]
    };
    run.check(counts == shape, || format!("traffic shape {counts:?}, want {shape:?}"));
    let share = |c: usize| c as f64 / traffic.len() as f64;
    run.line(format!(
        "traffic tile {} lines: corpus {} ({:.4}), near-miss {} ({:.4}), attack {} ({:.4})",
        traffic.len(),
        counts[0],
        share(counts[0]),
        counts[1],
        share(counts[1]),
        counts[2],
        share(counts[2])
    ));
    let (checked, wrong) = serving::brute_check(&served.index, &traffic);
    run.check(checked > 0 && wrong == 0, || {
        format!("brute-force check: {wrong} of {checked} differ")
    });
    run.line(format!("brute-force subsample {checked} lines, {wrong} disagreements"));

    let before = serving::daemon_latency(served.addr)?;
    let cap = if args.trace { SPAN_CAP } else { 0 };
    let window = if stream { STREAM_WINDOW } else { 1 };
    let out = serving::run_load(
        served.addr,
        &served.index,
        &traffic,
        window,
        args.seconds,
        args.trace,
        cap,
        &mut speed,
    )?;
    let after = serving::daemon_latency(served.addr)?;
    let archive_bytes = served.archive_bytes;
    run.check(served.stop(), || "daemon shutdown after the stream".into());

    run.attempted += out.attempted;
    run.failed += out.failed;
    let traced_requests = out.stages.get("requests").copied().unwrap_or(0.0);
    run.attempted += traced_requests as u64;
    run.failed += out.composed_mismatches;
    if out.composed_mismatches > 0 {
        run.line(format!(
            "FAILED composed verdict differs on {} requests",
            out.composed_mismatches
        ));
    }

    let rtt = out.rtt.summary();
    let tiles = |traced: bool, f: &dyn Fn(&serving::Tile) -> f64| -> Vec<f64> {
        out.tiles.iter().filter(|t| t.traced == traced).map(f).collect()
    };
    let per_tile = traffic.len() as f64;
    let tile_s = Summary::of(&tiles(false, &|t| t.wall_s));
    let tile_cpu = Summary::of(&tiles(false, &|t| t.cpu_s));
    set_normalized(run, &speed, median(&setup_cpu), tile_cpu.p50 / per_tile);
    run.line(format!(
        "req_per_s {:.1} 1/s ({} correct replies in {:.3} s, window {window})",
        out.correct as f64 / out.elapsed_s,
        out.correct,
        out.elapsed_s,
    ));
    run.line(summary_line("tile_s", "s", &tile_s));
    run.line(summary_line("tile_cpu_s", "s", &tile_cpu));
    run.line(summary_line("rtt_us", "us", &rtt));
    run.line(summary_line("setup_wall_s", "s", &Summary::of(&setup_s)));
    run.line(summary_line("setup_cpu_s", "s", &Summary::of(&setup_cpu)));

    if args.trace {
        for (name, v) in layer_medians(&tallies) {
            run.set(name, v);
        }
        let per_req = traced_requests.max(1.0);
        let traced_tiles = (traced_requests / per_tile).max(1.0);
        for (name, v) in &out.stages {
            match *name {
                "requests" => {}
                "wire.parse_errors" | "siglang.budget_exhausted" => run.set(name, v / traced_tiles),
                _ => run.set(name, v / per_req),
            }
        }
        let service = (after.0 - before.0) / (after.1 - before.1).max(1.0);
        run.set("daemon.service_us_mean", service);
        run.set("daemon.outside_us_mean", rtt.mean - service);
        run.set("archive.load_ms", median(&archive_ms));
        run.set("archive.bytes", archive_bytes as f64);
        run.set("trace_overhead", median(&tiles(true, &|t| t.wall_s)) / tile_s.p50);
        run.line(format!("traced requests {traced_requests}, tiles {}", out.tiles.len()));
        spans.absorb(out.spans);
        return Ok(Some(spans));
    }
    Ok(None)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }

    let mut run = Run::default();
    run.line(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    let spans = match args.workload.as_str() {
        "analyze-cold" => Ok(run_analysis(false, &args, &work, &mut run)),
        "analyze-incr" => Ok(run_analysis(true, &args, &work, &mut run)),
        "serve-rtt" => run_serve(false, &args, &work, &mut run),
        _ => run_serve(true, &args, &work, &mut run),
    };
    let _ = std::fs::remove_dir_all(&work);
    match spans {
        Ok(Some(spans)) => {
            let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            match spans.write_jsonl(&path) {
                Ok(()) => run.line(format!(
                    "spans {} written to {} ({} dropped past the cap)",
                    spans.len(),
                    path.display(),
                    spans.dropped()
                )),
                Err(e) => run.line(format!("spans not written: {e}")),
            }
        }
        Ok(None) => {}
        Err(e) => run.check(false, || format!("I/O error: {e}")),
    }
    run.set("peak_rss_mb", peak_rss_mb());

    let correct = run.failed == 0 && run.attempted > 0;
    let names = if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    for l in &run.report {
        println!("{l}");
    }
    for (name, unit, _) in names {
        println!("metric {name} {} {unit}", run.values.get(name).copied().unwrap_or(0.0));
    }
    println!(
        "error_rate {} ratio ({} failed of {} attempted)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    println!(
        "{}",
        result_json(correct, run.attempted.max(1), run.failed, names, |n| run
            .values
            .get(n)
            .copied())
    );
    std::process::exit(if correct { 0 } else { 1 });
}
