//! Per-layer probe for traced runs: times the benchmark's own calls into
//! the public functions of each layer (reorder, formats, analyze, planner,
//! kernel, pipeline, overlay) on a workload's tenants and width mix, and
//! sums the simulator's counters. Kernel and pipeline calls made inside the
//! server's worker threads cannot be timed from outside, so serve workloads
//! replay their tenant/width mix through these direct calls instead.

use smat::{
    smat_spmm_scheduled_with, Calibration, Epilogue, KernelPath, MatrixUpdate, PlanSpace, Planner,
    Smat, SmatConfig,
};
use smat_formats::{Bcsr, Csr, Dense, Element, PackedIndex, F16};
use smat_gpusim::{Gpu, LaunchResult, SimError};
use smat_reorder::stats::block_row_stats;
use smat_workloads::generators::calibration_bands;

use crate::oracle::{output_digest, rhs, OracleMatrix, Rng};
use crate::spans::{Spans, NO_REQ};
use crate::{median, metric, Metric};

/// Order of the band matrices the admission planner is calibrated on.
pub const CAL_N: usize = 512;
/// Right-hand-side width the planner calibration probes with.
pub const CAL_WIDTH: usize = 8;
/// Width the planner plans for in the probe (the server plans at its
/// column budget, 64 by default).
pub const PLAN_WIDTH: usize = 64;
/// Passes over the prepare stages; each stage reports its median pass.
const PREPARE_PASSES: usize = 3;
/// Single-cell updates applied per tenant by the overlay probe.
const OVERLAY_UPDATES: usize = 8;

/// One input matrix of a workload, with the benchmark's own copy of it.
pub struct Tenant {
    pub name: String,
    pub csr: Csr<F16>,
    pub oracle: OracleMatrix,
}

impl Tenant {
    pub fn new(name: impl Into<String>, csr: Csr<F16>) -> Self {
        let oracle = OracleMatrix::from_csr(&csr);
        Tenant {
            name: name.into(),
            csr,
            oracle,
        }
    }
}

/// Checked operations of a probe or a workload loop.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Checks one product against the oracle and the simulated counters:
/// the output digest, `flop_useful == 2·nnz·N`, and simulated time > 0.
pub fn check_run(ops: &mut Ops, what: &str, run: &smat::SmatRun<F16>, nnz: usize, expect: u64) {
    let n = run.c.ncols() as u64;
    let flop_ok = run.report.launch.totals.flop_useful == 2 * nnz as u64 * n;
    let time_ok = run.report.elapsed_ms() > 0.0;
    let digest_ok = output_digest(&run.c) == expect;
    ops.check(
        flop_ok && time_ok && digest_ok,
        &format!("{what}: digest {digest_ok}, flop_useful {flop_ok}, sim time {time_ok}"),
    );
}

/// Sums of the simulated-clock counters over a set of launches.
#[derive(Default)]
struct KernelSums {
    launches: usize,
    warps: f64,
    sim_ms: f64,
    comp: f64,
    mem: f64,
    exposure: f64,
    global_bytes: f64,
    mma: f64,
    pipe_syncs: f64,
    imbalance: f64,
}

/// Runs the probe. `ops` is the width mix as `(tenant, width)` pairs;
/// `planner_rel_error`, when given, is the serving layer's own
/// prediction-error statistic and replaces the probe's.
pub fn probe(
    sp: &mut Spans,
    tenants: &[Tenant],
    mix: &[(usize, usize)],
    seed: u64,
    planner_rel_error: Option<f64>,
    ops: &mut Ops,
) -> Vec<Metric> {
    let cfg = SmatConfig::default();
    let (bh, bw) = (cfg.block_h, cfg.block_w);
    let root = sp.open("probe", 0, NO_REQ);

    // reorder + formats: each stage timed around its own public call.
    let (mut reorder_ms, mut permute_ms, mut convert_ms, mut pack_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut before, mut after, mut nblocks) = (0usize, 0usize, 0usize);
    for pass in 0..PREPARE_PASSES {
        let (mut r_ms, mut p_ms, mut c_ms, mut k_ms) = (0.0, 0.0, 0.0, 0.0);
        for t in tenants {
            let a = &t.csr;
            let (reordering, ms) = sp.timed("reorder", root, NO_REQ, || {
                smat_reorder::reorder(a, cfg.reorder, bh, bw)
            });
            r_ms += ms;
            let (permuted, ms) = sp.timed("formats.permute", root, NO_REQ, || reordering.apply(a));
            p_ms += ms;
            let (bcsr, ms) = sp.timed("formats.convert", root, NO_REQ, || {
                Bcsr::from_csr_parallel(&permuted, bh, bw)
            });
            c_ms += ms;
            let (packed, ms) = sp.timed("formats.pack_index", root, NO_REQ, || {
                PackedIndex::from_bcsr(&bcsr)
            });
            k_ms += ms;
            std::hint::black_box(&packed);
            if pass == 0 {
                before += block_row_stats(a, bh, bw).nblocks;
                after += block_row_stats(&permuted, bh, bw).nblocks;
                nblocks += bcsr.nblocks();
            }
        }
        reorder_ms.push(r_ms);
        permute_ms.push(p_ms);
        convert_ms.push(c_ms);
        pack_ms.push(k_ms);
    }

    // planner: calibration, one decision per tenant, and (unless the
    // serving layer measured it) the mean relative error of each decision's
    // predicted time against the launch it planned.
    let (cal, calibrate_ms) = sp.timed("planner.calibrate", root, NO_REQ, || {
        Calibration::fit_on(&calibration_bands::<F16>(CAL_N), CAL_WIDTH, &cfg)
    });
    let planner = Planner::with_calibration(PlanSpace::default(), cal);
    let mut decide_ms = 0.0;
    let mut rel_errors = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let (d, ms) = sp.timed("planner.decide", root, NO_REQ, || {
            planner.decide(&t.csr, PLAN_WIDTH, &cfg)
        });
        decide_ms += ms;
        if planner_rel_error.is_none() {
            let h = Smat::prepare_with_plan(&t.csr, d.apply(&cfg), d);
            let b = rhs(t.csr.ncols(), PLAN_WIDTH, seed ^ (0xca1 + i as u64));
            match h.try_spmm(&b) {
                Ok(run) => {
                    check_run(
                        ops,
                        "planned launch",
                        &run,
                        t.oracle.nnz(),
                        t.oracle.product_digest(&b),
                    );
                    let observed = run.report.elapsed_ms();
                    rel_errors.push((d.predicted_ms - observed).abs() / observed);
                }
                Err(e) => ops.check(false, &format!("planned launch of {}: {e}", t.name)),
            }
        }
    }
    let rel_error = planner_rel_error
        .unwrap_or_else(|| rel_errors.iter().sum::<f64>() / rel_errors.len().max(1) as f64);

    // Prepared handles for the analyzer, kernel, pipeline and overlay.
    let handles: Vec<Smat<F16>> = tenants
        .iter()
        .map(|t| Smat::prepare(&t.csr, cfg.clone()))
        .collect();
    let index_bytes: usize = handles.iter().map(Smat::operand_index_bytes).sum();

    // analyze: the pre-flight pass on a fresh epoch, once per tenant and
    // width the mix uses.
    let mut preflight_ms = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for &(t, n) in mix {
        if seen.insert((t, n)) {
            let (diags, ms) = sp.timed("analyze.preflight", root, NO_REQ, || {
                handles[t].preflight(n)
            });
            preflight_ms.push(ms);
            std::hint::black_box(diags);
        }
    }

    // kernel + pipeline: the mix replayed through the core kernel entry
    // point and through `Smat::try_spmm`, each output checked.
    let gpu = Gpu::new(cfg.device.clone());
    let mut sums = KernelSums::default();
    let (mut kernel_ms, mut restore_ms, mut spmm_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &(t, n)) in mix.iter().enumerate() {
        let h = &handles[t];
        let b = rhs(tenants[t].csr.ncols(), n, seed ^ (0x5eed_0000 + i as u64));
        let expect = tenants[t].oracle.product_digest(&b);
        let (launched, ms) = sp.timed("kernel", root, i as u64, || kernel(&gpu, h, &cfg, &b));
        let (launch, c_permuted) = match launched {
            Ok(x) => x,
            Err(e) => {
                ops.check(false, &format!("kernel launch on {}: {e}", tenants[t].name));
                continue;
            }
        };
        kernel_ms.push(ms);
        sums.launches += 1;
        sums.warps += launch.warps as f64;
        sums.sim_ms += launch.time_ms;
        sums.comp += launch.profile.comp_cycles;
        sums.mem += launch.profile.mem_cycles;
        sums.exposure += launch.profile.exposure_cycles;
        sums.global_bytes += launch.totals.global_bytes as f64;
        sums.mma += launch.totals.mma as f64;
        sums.pipe_syncs += launch.totals.pipe_syncs as f64;
        sums.imbalance += launch.sm_imbalance();

        let (c, ms) = sp.timed("pipeline.restore", root, i as u64, || {
            h.restore_row_order(&c_permuted)
        });
        restore_ms.push(ms);
        ops.check(
            output_digest(&c) == expect,
            "kernel output after row restore",
        );

        let (run, spmm) = sp.timed("pipeline.spmm", root, i as u64, || h.try_spmm(&b));
        match run {
            Ok(run) => {
                spmm_ms.push(spmm);
                check_run(ops, "pipeline spmm", &run, tenants[t].oracle.nnz(), expect);
            }
            Err(e) => ops.check(false, &format!("try_spmm on {}: {e}", tenants[t].name)),
        }
    }

    // overlay: seeded single-cell updates through `Smat::apply_updates`,
    // then the snapshot's scalar corrections over a base product, checked
    // against the oracle copy updated from the benchmark's own record.
    let mut rng = Rng::new(seed ^ 0x0e41);
    let (mut apply_ms, mut correct_ms, mut cells) = (Vec::new(), Vec::new(), 0usize);
    for (t, (tenant, h)) in tenants.iter().zip(&handles).enumerate() {
        let mut oracle = tenant.oracle.clone();
        for _ in 0..OVERLAY_UPDATES {
            let (r, c) = (rng.below(oracle.nrows()), rng.below(oracle.ncols()));
            let v = rng.int(-4, 4);
            oracle.set(r, c, v as f64);
            let op = update(r, c, v);
            let (_, ms) = sp.timed("overlay.apply", root, NO_REQ, || {
                h.apply_updates(std::slice::from_ref(&op))
            });
            apply_ms.push(ms);
        }
        let snapshot = h.overlay_snapshot();
        cells += snapshot.cells().len();
        let n = mix.iter().find(|&&(mt, _)| mt == t).map_or(8, |&(_, n)| n);
        let b = rhs(tenant.csr.ncols(), n, seed ^ (0x0e42_0000 + t as u64));
        let base = kernel(&gpu, h, &cfg, &b);
        match base {
            Ok((_, c_permuted)) => {
                let mut c = h.restore_row_order(&c_permuted);
                let (_, ms) = sp.timed("overlay.correct", root, NO_REQ, || {
                    snapshot.apply_corrections(&mut c, &b, 1.0)
                });
                correct_ms.push(ms);
                ops.check(
                    output_digest(&c) == oracle.product_digest(&b),
                    "base product plus overlay corrections",
                );
            }
            Err(e) => ops.check(
                false,
                &format!("overlay base launch on {}: {e}", tenant.name),
            ),
        }
    }
    sp.close(root);

    let per = |x: f64| x / sums.launches.max(1) as f64;
    vec![
        metric("reorder.ms", median(&reorder_ms), "ms"),
        metric(
            "reorder.block_reduction",
            before as f64 / after.max(1) as f64,
            "ratio",
        ),
        metric("formats.permute_ms", median(&permute_ms), "ms"),
        metric("formats.convert_ms", median(&convert_ms), "ms"),
        metric("formats.pack_index_ms", median(&pack_ms), "ms"),
        metric("formats.nblocks", nblocks as f64, "count"),
        metric("formats.index_bytes", index_bytes as f64, "bytes"),
        metric("analyze.preflight_ms", median(&preflight_ms), "ms"),
        metric("planner.calibrate_ms", calibrate_ms, "ms"),
        metric("planner.decide_ms", decide_ms, "ms"),
        metric("planner.rel_error", rel_error, "ratio"),
        metric("kernel.host_ms", median(&kernel_ms), "ms"),
        metric("kernel.warps", per(sums.warps), "count"),
        metric("kernel.sim_ms", sums.sim_ms, "ms"),
        metric("kernel.comp_cycles", sums.comp, "cycles"),
        metric("kernel.mem_cycles", sums.mem, "cycles"),
        metric("kernel.exposure_cycles", sums.exposure, "cycles"),
        metric("kernel.global_bytes", sums.global_bytes, "bytes"),
        metric("kernel.mma", sums.mma, "count"),
        metric("kernel.pipe_syncs", sums.pipe_syncs, "count"),
        metric("kernel.sm_imbalance", per(sums.imbalance), "ratio"),
        metric("pipeline.spmm_ms", median(&spmm_ms), "ms"),
        metric("pipeline.restore_ms", median(&restore_ms), "ms"),
        metric("overlay.apply_ms", median(&apply_ms), "ms"),
        metric("overlay.cells", cells as f64, "count"),
        metric("overlay.correct_ms", median(&correct_ms), "ms"),
    ]
}

/// A single-cell absolute update; value 0 deletes the cell.
pub fn update(r: usize, c: usize, v: i64) -> MatrixUpdate<F16> {
    if v == 0 {
        MatrixUpdate::Delete { row: r, col: c }
    } else {
        MatrixUpdate::Update {
            row: r,
            col: c,
            value: F16::from_f64(v as f64),
        }
    }
}

/// One launch of the core kernel entry point on a prepared handle's
/// operands, with the handle's column permutation applied to `b`. The
/// product comes back in the permuted row order.
fn kernel(
    gpu: &Gpu,
    h: &Smat<F16>,
    cfg: &SmatConfig,
    b: &Dense<F16>,
) -> Result<(LaunchResult, Dense<F16>), SimError> {
    let b_eff = h.permute_rhs(b);
    smat_spmm_scheduled_with(
        gpu,
        h.bcsr(),
        b_eff.as_ref().unwrap_or(b),
        cfg.opts,
        cfg.accum,
        Epilogue::default(),
        cfg.schedule,
        KernelPath {
            packed: h.packed_index(),
            panel_depth: cfg.panel_depth,
        },
    )
}
