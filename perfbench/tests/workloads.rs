//! Runs all three workloads at a tiny scale in one process, traced, and
//! checks the benchmark's own invariants: the correctness gate passes,
//! every deployment gives the same answers, every wrapper call lands in
//! exactly one Fig 4.8 step, and the router reads zero when standalone.

use doclite_perfbench::trace::Step;
use doclite_perfbench::{run, Options, Outcome, Workload};

const SF: f64 = 0.005;

fn run_tiny(workload: Workload, seed: u64) -> Outcome {
    let opts = Options {
        workload,
        sf: SF,
        seed,
        seconds: 0.0,
        trace: true,
        setups: 1,
    };
    run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn three_workloads_agree_and_trace_every_call() {
    let outcomes: Vec<(Workload, Outcome)> = Workload::ALL
        .into_iter()
        .map(|w| (w, run_tiny(w, 7)))
        .collect();

    for (w, out) in &outcomes {
        let name = w.name();
        assert!(out.gate.attempted > 0, "{name}: nothing attempted");
        assert_eq!(out.gate.failed, 0, "{name}: {:?}", out.gate.errors);
        assert!(
            out.answers.iter().all(|a| a.rows > 0),
            "{name}: {:?}",
            out.answers
        );

        let t = &out.traced;
        let step_calls: u64 = Step::ALL.iter().map(|&s| t.step(s).calls).sum();
        assert!(t.calls > 0, "{name}: the traced round made no calls");
        assert_eq!(
            step_calls, t.calls,
            "{name}: a wrapper call landed in no step"
        );

        let router = [
            "router.net_s",
            "router.exchanges",
            "router.bytes",
            "router.retries",
        ];
        let metric = |m: &str| out.metric(m).unwrap_or_else(|| panic!("{name}: no {m}"));
        if *w == Workload::NormalizedSharded {
            assert!(
                metric("router.exchanges") > 0.0,
                "{name}: no router exchanges"
            );
            assert!(
                metric("router.net_s") > 0.0,
                "{name}: no modelled network time"
            );
        } else {
            for m in router {
                assert_eq!(metric(m), 0.0, "{name}: {m} on a standalone deployment");
            }
        }
    }

    let (_, first) = &outcomes[0];
    for (w, out) in &outcomes[1..] {
        assert_eq!(
            out.answers,
            first.answers,
            "{} answers differ from normalized_standalone",
            w.name()
        );
    }
}

#[test]
fn the_seed_changes_load_order_but_not_answers() {
    let a = run_tiny(Workload::NormalizedStandalone, 7);
    let b = run_tiny(Workload::NormalizedStandalone, 8);
    assert_eq!(b.gate.failed, 0, "{:?}", b.gate.errors);
    assert_eq!(a.answers, b.answers);
}
