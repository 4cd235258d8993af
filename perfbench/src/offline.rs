//! `spmm_offline`: one caller in a closed loop over a fixed set of Table I
//! mimics plus an R-MAT graph, prepared under the default `SmatConfig`,
//! calling `Smat::try_spmm` round-robin over one narrow and one wide
//! right-hand side. The paper's own experiment; the serving layers are
//! bypassed.

use std::time::Instant;

use smat::{Smat, SmatConfig};
use smat_formats::{Dense, F16};
use smat_workloads::generators::rmat;
use smat_workloads::suitesparse::by_name;

use crate::layers::{check_run, probe, Ops, Tenant};
use crate::oracle::rhs;
use crate::spans::{Spans, NO_REQ};
use crate::{median, metric, percentile, process_cpu_s, serve, Args, Metric, Outcome};

/// Linear scale of the Table I mimics.
pub const SCALE: f64 = 0.02;
/// The narrow and the wide right-hand side.
pub const WIDTHS: [usize; 2] = [8, 64];
/// Table I mimics in the loop.
pub const MIMICS: [&str; 4] = ["dc2", "cop20k_A", "cant", "conf5_4-8x8"];
/// R-MAT graph: scale (2^k rows), edges dropped, generator seed.
pub const RMAT: (u32, usize, u64) = (12, 60_000, 7);
/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The tenants, fixed across seeds so set-up cost does not depend on the
/// seed.
pub fn tenants() -> Vec<Tenant> {
    let mut out: Vec<Tenant> = MIMICS
        .iter()
        .map(|name| {
            let m = by_name(name).expect("Table I mimic exists");
            Tenant::new(*name, m.generate::<F16>(SCALE))
        })
        .collect();
    let (k, edges, seed) = RMAT;
    out.push(Tenant::new(
        format!("rmat-{k}"),
        rmat::<F16>(k, edges, seed),
    ));
    out
}

/// One operation of a round: tenant, width, right-hand side, and the
/// oracle's digest of its product.
struct Op {
    tenant: usize,
    b: Dense<F16>,
    expect: u64,
}

/// The closed loop's figures for one measured pass.
struct Pass {
    calls: u64,
    /// Host (wall) ms inside each `try_spmm` call.
    call_ms: Vec<f64>,
    /// Host ms between one call's return and the next call (the caller's
    /// own checking work).
    gap_ms: Vec<f64>,
    wall_s: f64,
    /// Process CPU seconds over the pass.
    cpu_s: f64,
    /// Σ useful FLOP and Σ simulated ms over the first round.
    round_flop: f64,
    round_sim_ms: f64,
}

fn measure(
    handles: &[Smat<F16>],
    tenants: &[Tenant],
    round: &[Op],
    seconds: f64,
    sp: &mut Spans,
    ops: &mut Ops,
) -> Pass {
    let start = Instant::now();
    let cpu0 = process_cpu_s();
    let mut pass = Pass {
        calls: 0,
        call_ms: Vec::new(),
        gap_ms: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        round_flop: 0.0,
        round_sim_ms: 0.0,
    };
    // Simulated time of each op in the first round: the simulated clock is
    // a function of structure and width only, so later rounds must agree.
    let mut first_sim: Vec<f64> = Vec::new();
    let mut last_return: Option<Instant> = None;
    let mut rounds = 0usize;
    // Whole rounds only, so every run attempts the same mix.
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, op) in round.iter().enumerate() {
            let req = pass.calls;
            let t = &tenants[op.tenant];
            let called = Instant::now();
            if let Some(prev) = last_return {
                pass.gap_ms.push((called - prev).as_secs_f64() * 1e3);
            }
            let (res, ms) = sp.timed("pipeline.spmm", 0, req, || {
                handles[op.tenant].try_spmm(&op.b)
            });
            last_return = Some(Instant::now());
            pass.calls += 1;
            pass.call_ms.push(ms);
            let id = sp.open("check", 0, req);
            match res {
                Ok(run) => {
                    check_run(ops, &t.name, &run, t.oracle.nnz(), op.expect);
                    let sim = run.report.elapsed_ms();
                    if rounds == 0 {
                        first_sim.push(sim);
                        pass.round_flop += run.report.launch.totals.flop_useful as f64;
                        pass.round_sim_ms += sim;
                    } else if first_sim[i] != sim {
                        ops.failed += 1;
                        eprintln!(
                            "perfbench: simulated time of {} moved: {} vs {sim} ms",
                            t.name, first_sim[i]
                        );
                    }
                }
                Err(e) => ops.check(false, &format!("try_spmm on {}: {e}", t.name)),
            }
            sp.close(id);
        }
        rounds += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = process_cpu_s() - cpu0;
    pass
}

/// The median call latency of a typical round: the median, over the
/// round's operations, of each operation's median latency in the run.
/// The plain median of all calls would sit on the boundary between two
/// operations' clusters (a round holds an even number of operations of
/// very different cost) and jump between them from run to run.
fn median_of_op_medians(call_ms: &[f64], ops_per_round: usize) -> f64 {
    let per_op: Vec<f64> = (0..ops_per_round)
        .map(|i| {
            let samples: Vec<f64> = call_ms
                .iter()
                .skip(i)
                .step_by(ops_per_round)
                .copied()
                .collect();
            median(&samples)
        })
        .collect();
    median(&per_op)
}

pub fn run(args: &Args) -> Outcome {
    let t0 = Instant::now();
    let mut sp = Spans::new(args.trace, t0);
    let tenants = tenants();
    let cfg = SmatConfig::default();

    // Inputs and oracle digests, outside every timed region.
    let mut round = Vec::new();
    for (w, &n) in WIDTHS.iter().enumerate() {
        for (t, tenant) in tenants.iter().enumerate() {
            let b = rhs(
                tenant.csr.ncols(),
                n,
                args.seed ^ ((w * 64 + t) as u64) << 20,
            );
            let expect = tenant.oracle.product_digest(&b);
            round.push(Op {
                tenant: t,
                b,
                expect,
            });
        }
    }

    // Set-up: prepare every tenant; repeated, median reported.
    let mut setup_s = Vec::new();
    let mut handles = Vec::new();
    let mut ops = Ops::default();
    let mut untraced = Spans::new(false, t0);
    for rep in 0..SETUP_REPS {
        let root = sp.open("setup", 0, NO_REQ);
        let start = Instant::now();
        handles = tenants
            .iter()
            .map(|t| {
                sp.timed("prepare", root, NO_REQ, || {
                    Smat::prepare(&t.csr, cfg.clone())
                })
                .0
            })
            .collect::<Vec<_>>();
        setup_s.push(start.elapsed().as_secs_f64());
        sp.close(root);
        if rep == 0 {
            // One untimed round warms the machine before anything else is
            // timed (the first second after an idle spell runs slower).
            measure(&handles, &tenants, &round, 0.0, &mut untraced, &mut ops);
        }
    }

    let main = measure(
        &handles,
        &tenants,
        &round,
        args.seconds,
        &mut untraced,
        &mut ops,
    );
    let spmm_per_s = |p: &Pass| p.calls as f64 / p.cpu_s;
    let mut metrics: Vec<Metric> = Vec::new();
    let correct = main.round_sim_ms > 0.0;
    if !args.trace {
        metrics.push(metric("setup_s", median(&setup_s), "s"));
        metrics.push(metric("spmm_per_s", spmm_per_s(&main), "1/s"));
        metrics.push(metric(
            "sim_gflops",
            main.round_flop / (main.round_sim_ms * 1e-3) / 1e9,
            "GFLOP/s",
        ));
        metrics.push(metric("rps", main.calls as f64 / main.wall_s, "1/s"));
        metrics.push(metric(
            "p50_ms",
            median_of_op_medians(&main.call_ms, round.len()),
            "ms",
        ));
        metrics.push(metric("p99_ms", percentile(&main.call_ms, 99.0), "ms"));
    } else {
        // The same loop again with spans on; the difference is the cost of
        // tracing.
        let traced = measure(&handles, &tenants, &round, args.seconds, &mut sp, &mut ops);
        let (base, with) = (spmm_per_s(&main), spmm_per_s(&traced));
        let memo: usize = handles.iter().map(Smat::preflight_cache_len).sum();
        drop(handles);
        let mix: Vec<(usize, usize)> = round.iter().map(|op| (op.tenant, op.b.ncols())).collect();
        metrics = probe(&mut sp, &tenants, &mix, args.seed, None, &mut ops);
        metrics.push(metric("analyze.memo_entries", memo as f64, "count"));
        metrics.extend(serve::probe_server(&mut sp, &tenants, args.seed, &mut ops));
        metrics.push(metric(
            "gen.lateness_p99_ms",
            percentile(&traced.gap_ms, 99.0),
            "ms",
        ));
        metrics.push(metric(
            "trace.overhead_pct",
            (base - with) / base * 100.0,
            "%",
        ));
    }
    Outcome {
        correct,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        spans: sp,
    }
}
