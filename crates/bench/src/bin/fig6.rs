//! Fig. 6: total unique URI / request body+query-string / response body
//! signature counts per method, open-source vs closed-source.
//!
//! Paper series — open source: URI 98/95/98, request 92/91/92,
//! response 48/48/48 (Extractocol / manual fuzzing / source code);
//! closed source: URI 1058/586/402, request 732/240/314,
//! response 216/141/222 (Extractocol / manual / automatic).

use extractocol_bench::Table;
use extractocol_dynamic::eval::AppEval;
use extractocol_dynamic::run_perfect_fuzzer;
use extractocol_http::Body;

#[derive(Default)]
struct Counts {
    uri: usize,
    request: usize,
    response: usize,
}

fn static_counts(eval: &AppEval) -> Counts {
    let mut c = Counts::default();
    for t in &eval.report.transactions {
        c.uri += 1;
        if t.has_query_string() || t.request_body.is_some() {
            c.request += 1;
        }
        if t.response.is_some() {
            c.response += 1;
        }
    }
    c
}

fn trace_counts(trace: &extractocol_dynamic::TrafficTrace) -> Counts {
    use std::collections::BTreeSet;
    let mut uri = BTreeSet::new();
    let mut req = BTreeSet::new();
    let mut resp = BTreeSet::new();
    for t in &trace.transactions {
        let key = format!("{} {}", t.request.method, t.request.uri);
        uri.insert(key.clone());
        if !t.request.uri.query().is_empty() || !matches!(t.request.body, Body::Empty) {
            req.insert(key.clone());
        }
        if !matches!(t.response.body, Body::Empty) {
            resp.insert(key);
        }
    }
    Counts { uri: uri.len(), request: req.len(), response: resp.len() }
}

fn main() {
    let mut rows: Vec<(&str, Counts, Counts, Counts)> = Vec::new();
    for open in [true, false] {
        let apps: Vec<_> = extractocol_corpus::all_apps()
            .into_iter()
            .filter(|a| a.truth.open_source == open)
            .collect();
        let mut stat = Counts::default();
        let mut man = Counts::default();
        let mut third = Counts::default();
        for app in &apps {
            let eval = AppEval::run(app);
            let s = static_counts(&eval);
            stat.uri += s.uri;
            stat.request += s.request;
            stat.response += s.response;
            let m = trace_counts(&eval.manual);
            man.uri += m.uri;
            man.request += m.request;
            man.response += m.response;
            let t = if open {
                trace_counts(&run_perfect_fuzzer(app))
            } else {
                trace_counts(&eval.auto)
            };
            third.uri += t.uri;
            third.request += t.request;
            third.response += t.response;
        }
        rows.push((if open { "open-source" } else { "closed-source" }, stat, man, third));
    }

    let mut table = Table::new(&[
        "Corpus",
        "Series",
        "Extractocol",
        "Manual fuzzing",
        "Source code | Auto fuzzing",
    ]);
    for (name, s, m, t) in &rows {
        table.row(vec![
            name.to_string(),
            "URI".into(),
            s.uri.to_string(),
            m.uri.to_string(),
            t.uri.to_string(),
        ]);
        table.row(vec![
            String::new(),
            "Request body/query".into(),
            s.request.to_string(),
            m.request.to_string(),
            t.request.to_string(),
        ]);
        table.row(vec![
            String::new(),
            "Response body".into(),
            s.response.to_string(),
            m.response.to_string(),
            t.response.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("paper (open):   URI 98/95/98, request 92/91/92, response 48/48/48");
    println!("paper (closed): URI 1058/586/402, request 732/240/314, response 216/141/222");
}
