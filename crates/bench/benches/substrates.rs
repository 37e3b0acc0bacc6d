//! Substrate micro-bench: the taint engine on growing programs.

use extractocol_analysis::{
    AccessPath, CallGraph, CallbackRegistry, ConservativeModel, Direction, Seed, TaintEngine,
    TaintOptions,
};
use extractocol_bench::timing;
use extractocol_ir::{ApkBuilder, ProgramIndex, Type, Value};

/// A synthetic call chain of `n` methods copying a tainted string through.
fn chain_apk(n: usize) -> extractocol_ir::Apk {
    let mut b = ApkBuilder::new("chain", "t");
    b.class("t.C", |c| {
        for i in 0..n {
            let next = format!("m{}", i + 1);
            let last = i + 1 == n;
            c.static_method(&format!("m{i}"), vec![Type::string()], Type::string(), move |m| {
                let p = m.arg(0, "p");
                if last {
                    m.ret(p);
                } else {
                    let r = m.scall("t.C", &next, vec![Value::Local(p)], Type::string());
                    m.ret(r);
                }
            });
        }
    });
    b.build()
}

fn taint_scaling() {
    for n in [10usize, 50, 200] {
        let apk = chain_apk(n);
        let prog = ProgramIndex::new(&apk);
        let graph = CallGraph::build(&prog, &CallbackRegistry::empty());
        let engine = TaintEngine::new(&prog, &graph, &ConservativeModel, TaintOptions::default());
        let m0 = prog.resolve_method("t.C", "m0", 1).unwrap();
        let p0 = extractocol_ir::Local(0);
        timing::bench(&format!("taint_chain/{n}"), 2, 50, || {
            engine.run(
                Direction::Forward,
                &[Seed { method: m0, stmt: 0, fact: AccessPath::local(p0) }],
            )
        });
    }
}

fn main() {
    taint_scaling();
}
