//! Experiment E-PERF1 (quick table form) — engine comparison with
//! wall-clock timings; the criterion bench `bench_homcount` produces the
//! statistically rigorous version.

use bagcq_bench::{
    digraph_schema, emit_trace_section, fmt_count, query_families, random_digraph, row, sep,
    start_trace_from_args,
};
use bagcq_core::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let trace = start_trace_from_args();
    let schema = digraph_schema();
    println!("## E-PERF1 — naive vs tree-decomposition #Hom");
    println!();
    println!("The engines trade places with density: backtracking costs ~one step");
    println!("per homomorphism, so it wins while counts are tiny and loses once");
    println!("they grow; the DP takes each bag's candidates from index buckets, so");
    println!("it pays per bag sweep, not per homomorphism. Sparse databases below,");
    println!("then denser ones.");
    for (n, density) in [(10u32, 0.15), (20, 0.15), (12, 0.5), (14, 0.45)] {
        let d = random_digraph(&schema, n, density, 42);
        println!();
        println!(
            "database: {} vertices, {} edges",
            d.vertex_count(),
            d.atom_count(schema.relation_by_name("E").unwrap())
        );
        row(&[
            "query".into(),
            "vars".into(),
            "width".into(),
            "count".into(),
            "naive".into(),
            "treewidth".into(),
            "speedup".into(),
        ]);
        sep(7);
        for (name, q) in query_families(&schema) {
            let width = TreewidthCounter.decomposition_width(&q);
            let t0 = Instant::now();
            let c_naive = CountRequest::new(&q, &d).backend(BackendChoice::Naive).count();
            let t_naive = t0.elapsed();
            let t0 = Instant::now();
            let c_tw = CountRequest::new(&q, &d).backend(BackendChoice::Treewidth).count();
            let t_tw = t0.elapsed();
            assert_eq!(c_naive, c_tw);
            let speedup = t_naive.as_secs_f64() / t_tw.as_secs_f64().max(1e-9);
            row(&[
                name.into(),
                q.var_count().to_string(),
                width.to_string(),
                fmt_count(&c_naive),
                format!("{t_naive:.2?}"),
                format!("{t_tw:.2?}"),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    println!();
    println!("Shape: naive wins only on the sparsest data (counts below ten, where");
    println!("decomposing and compiling the bags is the DP's whole cost); once");
    println!("counts reach the hundreds the DP wins on every family — enumeration");
    println!("pays per homomorphism, the DP does not. This is the classic #Hom");
    println!("output-sensitivity trade-off.");

    println!();
    println!("## E-KERNEL — widening accumulators across the overflow boundaries");
    println!();
    println!("Both kernels run the same workload: the query families over a dense");
    println!("14-vertex digraph, plus (2-walks)↑k power queries whose counts cross");
    println!("the u64 and u128 boundaries — so the accumulators must widen mid-run.");
    println!("Results are asserted identical across the kernels; the table reports");
    println!("per-kernel wall-clock, throughput, and promotion count.");
    println!();
    let d_kernel = random_digraph(&schema, 14, 0.45, 42);
    let kernel_workload = || {
        let mut qs: Vec<(String, Query)> =
            query_families(&schema).into_iter().map(|(n, q)| (n.to_string(), q)).collect();
        let walks = path_query(&schema, "E", 2);
        for k in [4u32, 8, 16, 24] {
            qs.push((format!("(2-walks)↑{k}"), walks.power(k)));
        }
        qs
    };
    // Backtracking results once, so both kernels are checked against them.
    let reference: Vec<Nat> = kernel_workload()
        .iter()
        .map(|(_, q)| CountRequest::new(q, &d_kernel).backend(BackendChoice::Naive).count())
        .collect();
    const ROUNDS: u32 = 5;
    row(&["backend".into(), "per round".into(), "queries/s".into(), "promotions".into()]);
    sep(4);
    for choice in BackendChoice::REGISTERED {
        let workload = kernel_workload();
        let promos_before = acc_promotions();
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for ((name, q), want) in workload.iter().zip(&reference) {
                let got = CountRequest::new(q, &d_kernel).backend(choice).count();
                assert_eq!(&got, want, "{choice}: backend diverges on {name}");
            }
        }
        let per_round = t0.elapsed() / ROUNDS;
        let promos = (acc_promotions() - promos_before) / u64::from(ROUNDS);
        let secs = per_round.as_secs_f64().max(1e-9);
        row(&[
            choice.label().into(),
            format!("{per_round:.2?}"),
            format!("{:.0}", workload.len() as f64 / secs),
            promos.to_string(),
        ]);
    }
    println!();
    println!("Promotions fire only on the boundary-crossing powers, u64 → u128 → Nat");
    println!("per widening; every other count stays on the machine word.");
    println!();
    println!("## E-PERF2 — batched evaluation service (bagcq-engine)");
    println!();
    println!("The same counts, submitted as one batch to the concurrent engine with");
    println!("cross-validation on (every count computed by BOTH engines and compared),");
    println!("then resubmitted to show the single-flight memo cache at work.");
    let d = Arc::new(random_digraph(&schema, 12, 0.3, 7));
    let engine = EvalEngine::new(EngineConfig { cross_validate: true, ..EngineConfig::default() });
    let make_batch = || {
        query_families(&schema)
            .into_iter()
            .map(|(_, q)| Job::count(q, Arc::clone(&d)))
            .collect::<Vec<_>>()
    };
    for round in 0..2 {
        for (handle, (name, q)) in
            engine.submit_batch(make_batch()).iter().zip(query_families(&schema))
        {
            let got = handle.wait();
            let want = CountRequest::new(&q, &d).count();
            assert_eq!(got.as_count(), Some(&want), "{name}: engine diverges from direct count");
            if round == 0 {
                println!("  {name}: {}", fmt_count(&want));
            }
        }
    }

    // A containment check run on this thread through the engine: every
    // count the refutation phase makes is cross-validated, and only the
    // verdict is cached.
    let edges = path_query(&schema, "E", 1);
    let walks = path_query(&schema, "E", 2);
    let out = engine.run(Job::check(CheckRequest::new(&edges, &walks).into_spec()));
    let verdict = out.as_verdict().expect("no faults configured, the check cannot fail");
    assert!(verdict.is_refuted(), "edges ≤ 2-walks must be refuted");
    println!();
    println!("containment `edges ≤ 2-walks` through the engine: refuted (correct).");

    let m = engine.metrics();
    assert!(m.cache_hits > 0, "resubmitted batch must hit the cache");
    assert!(m.cross_validations > 0);
    assert_eq!(m.jobs_panicked, 0);
    println!();
    print!("{}", m.render());

    println!();
    println!("## E-RESIL — the same workload under deterministic fault injection");
    println!();
    println!("Seeded chaos plan (panics and stalls) threaded through every");
    println!("evaluation checkpoint. Completed outcomes stay bit-identical to the");
    println!("clean run above; a panic hops once to the naive engine, and nothing");
    println!("faulty ever enters the memo cache.");
    let injector = FaultInjector::new(FaultPlan::seeded(42).with_rate_per_mille(100));
    let chaos = EvalEngine::new(EngineConfig {
        fault: Some(Arc::clone(&injector)),
        ..EngineConfig::default()
    });
    // Injected panics are caught by the engine; keep their backtraces out
    // of the experiment output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut recovered = 0u32;
    for (handle, (name, q)) in chaos.submit_batch(make_batch()).iter().zip(query_families(&schema))
    {
        let want = CountRequest::new(&q, &d).count();
        let mut out = handle.wait();
        while out.is_failure() {
            // Never cached, so a resubmission recomputes; the plan's
            // fault cap guarantees this loop terminates.
            recovered += 1;
            out = chaos.submit(Job::count(q.clone(), Arc::clone(&d))).wait();
        }
        assert_eq!(out.as_count(), Some(&want), "{name}: fault injection corrupted a count");
    }
    std::panic::set_hook(prev_hook);
    println!();
    println!(
        "faults injected: {} (of {} checkpoints); jobs resubmitted to recovery: {recovered}",
        injector.injected(),
        injector.checkpoints()
    );

    let m = chaos.metrics();
    assert!(m.fallbacks_taken + m.jobs_panicked > 0 || injector.injected() == 0);
    println!();
    print!("{}", m.render());

    println!();
    println!("## E-OVERLOAD — a burst, then a drain");
    println!();
    println!("One evaluation slot, stalled by one latency fault, and a burst of 40");
    println!("calls: 20 callers arrive together, one evaluates behind the stall and");
    println!("19 wait for the slot; then a drain closes the slots, and 20 more calls");
    println!("arrive while it runs. Every call resolves exactly once: the evaluating");
    println!("caller is served the direct count, the rest are shed as draining, and");
    println!("the drain loses nothing and meets its deadline.");
    const BURST: usize = 40;
    // A plan whose only fault is one 200ms stall at the first checkpoint:
    // it holds the slot while the callers queue and the drain begins.
    let stall = FaultInjector::new(FaultPlan {
        latency: std::time::Duration::from_millis(200),
        ..FaultPlan::seeded(0)
            .with_kinds(&[FaultKind::Latency])
            .with_rate_per_mille(1000)
            .with_max_faults(1)
    });
    let serving = EvalEngine::new(EngineConfig {
        workers: 1,
        memory_budget_bytes: 1 << 20,
        fault: Some(stall),
        ..EngineConfig::default()
    });
    let q = path_query(&schema, "E", 2);
    let want = CountRequest::new(&q, &d).count();
    let call = || serving.run(Job::count(q.clone(), Arc::clone(&d)));
    let (burst, report) = std::thread::scope(|s| {
        let callers: Vec<_> = (0..BURST / 2).map(|_| s.spawn(call)).collect();
        while serving.metrics().queue_depth < (BURST / 2 - 1) as u64 {
            std::thread::yield_now();
        }
        let drain = s.spawn(|| serving.drain(std::time::Duration::from_secs(5)));
        // Health reads Draining only once the slots are closed.
        while serving.health() != EngineHealth::Draining {
            std::thread::yield_now();
        }
        let mut burst: Vec<Outcome> = (0..BURST / 2).map(|_| call()).collect();
        burst.extend(callers.into_iter().map(|c| c.join().expect("caller returns")));
        (burst, drain.join().expect("drain returns"))
    });
    let (mut served, mut shed) = (0u64, 0u64);
    for out in burst {
        match out {
            Outcome::Count(n) => {
                assert_eq!(n, want, "the burst corrupted a served count");
                served += 1;
            }
            Outcome::Shed(reason) => {
                assert_eq!(reason, ShedReason::Draining);
                shed += 1;
            }
            other => panic!("unexpected outcome in the burst: {other:?}"),
        }
    }
    assert_eq!(served + shed, BURST as u64, "every call resolves exactly once");
    assert!(report.met_deadline && report.stragglers == 0, "drain must not lose jobs: {report:?}");
    println!();
    println!("burst of {BURST}: served={served} shed={shed} (typed, accounted)");
    println!(
        "drain: completed={} shed={} stragglers={} met_deadline={} in {:.2?}",
        report.completed, report.shed, report.stragglers, report.met_deadline, report.elapsed
    );
    let m = serving.metrics();
    assert_eq!(m.jobs_completed, m.jobs_submitted, "every job resolves exactly once");
    assert_eq!(m.jobs_shed, shed);
    assert_eq!(m.queue_high_water, (BURST / 2 - 1) as u64, "all but one caller waited");
    assert_eq!(m.health, EngineHealth::Draining);
    println!();
    print!("{}", m.render());

    // The engine-wide byte budget fails Nat-heavy evaluations typed — a
    // starved account refuses the very first component count.
    let starved = EvalEngine::new(EngineConfig {
        workers: 1,
        memory_budget_bytes: 1,
        ..EngineConfig::default()
    });
    let refused = match starved.run(Job::count(q, Arc::clone(&d))) {
        Outcome::MemoryBudgetExceeded => "memory budget exceeded",
        other => panic!("1-byte budget must refuse, got {other:?}"),
    };
    println!();
    println!("1-byte memory budget refuses the count with a typed failure: {refused}");

    emit_trace_section(trace);
}
