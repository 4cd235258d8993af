//! `serve_burst` and `serve_mutate`: open loops against the multi-tenant
//! server from one generator thread. A collector thread waits on the
//! responses so the generator never blocks on one while a send is due.
//!
//! - `serve_burst`: bursts at a fixed rate below capacity, Zipf-skewed over
//!   the tenants, one larger tenant sharded across the two devices, the
//!   admission planner calibrated at set-up.
//! - `serve_mutate`: steady (Poisson) arrivals with `Server::mutate` cell
//!   updates interleaved, automatic compaction on, planner off.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use smat::{Calibration, PlanSpace, Planner, SmatConfig};
use smat_formats::{Dense, F16};
use smat_serve::{MatrixKey, ResponseFuture, Server, ServerConfig, ServerStats};
use smat_shard::estimated_csr_bytes;
use smat_workloads::generators::{calibration_bands, random_uniform, rmat};
use smat_workloads::suitesparse::by_name;

use crate::layers::{probe, update, Ops, Tenant, CAL_N, CAL_WIDTH};
use crate::oracle::{output_digest, rhs, Rng};
use crate::spans::{Spans, NO_REQ};
use crate::{median, metric, percentile, process_cpu_s, Args, Metric, Outcome};

/// Right-hand-side widths; each request slot rotates through them from
/// round to round.
pub const WIDTHS: [usize; 3] = [8, 16, 32];
/// Tenants of one round of 16 requests: the Zipf(1.0) shares of 16
/// requests over the six tenants, rounded. In `serve_burst` a round is one
/// burst.
pub const REQUEST_MIX: [usize; 16] = [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 5];
/// Targets of one round of 8 update batches: the Zipf(1.0) shares over
/// the five unsharded tenants, rounded.
pub const UPDATE_MIX: [usize; 8] = [0, 0, 0, 1, 1, 3, 4, 5];
/// `serve_burst`: mean request rate (one burst of 16 every 200 ms).
pub const BURST_RATE: f64 = 80.0;
/// `serve_mutate`: request rate, update-batch rate, cells per batch.
pub const MUTATE_REQ_RATE: f64 = 40.0;
pub const MUTATE_BATCH_RATE: f64 = 20.0;
pub const CELLS_PER_BATCH: usize = 2;
/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Requests of the schedule replayed through direct calls in traced runs.
const MIX_LEN: usize = 48;
/// Seconds of warm-up traffic before anything is timed. The first second
/// after an idle spell on this machine runs markedly slower (p99 more than
/// doubles) whatever the seed.
const WARMUP_S: f64 = 2.0;
/// Gap between the end of set-up and the first due send.
const LEAD: Duration = Duration::from_millis(50);

/// Index of the sharded tenant in [`tenants`], the largest by bytes.
pub const LARGE: usize = 2;

/// The tenants, fixed across seeds: five of a few hundred rows and one
/// larger one (index [`LARGE`]) that the shard budget splits in two. Ranks
/// in this order are the Zipf ranks.
pub fn tenants() -> Vec<Tenant> {
    let mimic =
        |name: &str, scale: f64| by_name(name).expect("Table I mimic").generate::<F16>(scale);
    vec![
        Tenant::new("dc2@0.0033", mimic("dc2", 0.0033)),
        Tenant::new("cop20k_A@0.003", mimic("cop20k_A", 0.003)),
        Tenant::new("cant@0.01", mimic("cant", 0.01)),
        Tenant::new("rmat-9", rmat::<F16>(9, 4000, 11)),
        Tenant::new("conf5_4-8x8@0.008", mimic("conf5_4-8x8", 0.008)),
        Tenant::new("uniform-384", random_uniform::<F16>(384, 384, 0.97, 5)),
    ]
}

/// The largest tenant by estimated CSR bytes, and a shard budget that
/// splits it in two and no other tenant.
pub fn shard_budget(tenants: &[Tenant]) -> (usize, usize) {
    let bytes: Vec<usize> = tenants
        .iter()
        .map(|t| estimated_csr_bytes(&t.csr))
        .collect();
    let largest = (0..bytes.len())
        .max_by_key(|&t| bytes[t])
        .expect("at least one tenant");
    let second = (0..bytes.len())
        .filter(|&t| t != largest)
        .map(|t| bytes[t])
        .max()
        .unwrap_or(0);
    let budget = (second + 1).max(bytes[largest] * 3 / 5);
    assert!(
        bytes[largest].div_ceil(budget) == 2,
        "the shard budget must split the largest tenant in two: {bytes:?}"
    );
    (largest, budget)
}

enum Kind {
    Request {
        tenant: usize,
        n: usize,
        b_seed: u64,
        /// Oracle digest of the product and useful FLOP (2·nnz·n) at the
        /// matrix state the request is submitted against.
        expect: u64,
        flop: f64,
    },
    Mutate {
        tenant: usize,
        cells: Vec<(usize, usize, i64)>,
    },
}

struct Event {
    due_s: f64,
    kind: Kind,
}

/// Draws from a fixed mix in rounds: every round uses each slot of the mix
/// once, in a seeded order. Stratifying the draws keeps the Zipf skew of
/// the mix while every round carries the same work, so runs with
/// different seeds differ in order, widths and values but not in load.
struct Rounds {
    mix: &'static [usize],
    order: Vec<usize>,
    drawn: usize,
}

impl Rounds {
    fn new(mix: &'static [usize]) -> Self {
        Rounds {
            mix,
            order: (0..mix.len()).collect(),
            drawn: 0,
        }
    }

    /// The next `(mix value, slot, round)`.
    fn next(&mut self, rng: &mut Rng) -> (usize, usize, usize) {
        let (round, pos) = (self.drawn / self.mix.len(), self.drawn % self.mix.len());
        if pos == 0 {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.below(i + 1));
            }
        }
        self.drawn += 1;
        let slot = self.order[pos];
        (self.mix[slot], slot, round)
    }
}

/// The seeded schedule of one run, with each request's oracle digest
/// computed from the benchmark's record of the updates before it. The
/// number of events depends only on `seconds`, and always makes whole
/// rounds of the request and update mixes.
fn schedule(
    tenants: &[Tenant],
    mutate: bool,
    updates: bool,
    seed: u64,
    seconds: f64,
) -> Vec<Event> {
    let mut rng = Rng::new(seed);
    let whole =
        |rate: f64, mix: usize| ((rate * seconds / mix as f64).round() as usize).max(1) * mix;
    let mut raw: Vec<(f64, bool)> = Vec::new();
    if mutate {
        // Poisson arrivals conditioned on their count: sorted uniform times.
        let nreq = whole(MUTATE_REQ_RATE, REQUEST_MIX.len());
        raw.extend((0..nreq).map(|_| (rng.unit() * seconds, false)));
        if updates {
            let nmut = whole(MUTATE_BATCH_RATE, UPDATE_MIX.len());
            raw.extend((0..nmut).map(|_| (rng.unit() * seconds, true)));
        }
        raw.sort_by(|a, b| a.0.total_cmp(&b.0));
    } else {
        let period = REQUEST_MIX.len() as f64 / BURST_RATE;
        let nreq = whole(BURST_RATE, REQUEST_MIX.len());
        raw.extend((0..nreq).map(|k| ((k / REQUEST_MIX.len()) as f64 * period, false)));
    }
    let mut oracles: Vec<_> = tenants.iter().map(|t| t.oracle.clone()).collect();
    let (mut requests, mut updates) = (Rounds::new(&REQUEST_MIX), Rounds::new(&UPDATE_MIX));
    raw.into_iter()
        .map(|(due_s, is_mut)| {
            let kind = if is_mut {
                let (tenant, _, _) = updates.next(&mut rng);
                let o = &mut oracles[tenant];
                let cells = (0..CELLS_PER_BATCH)
                    .map(|_| (rng.below(o.nrows()), rng.below(o.ncols()), rng.int(-4, 4)))
                    .collect::<Vec<_>>();
                for &(r, c, v) in &cells {
                    o.set(r, c, v as f64);
                }
                Kind::Mutate { tenant, cells }
            } else {
                let (tenant, slot, round) = requests.next(&mut rng);
                let n = WIDTHS[(slot + round) % WIDTHS.len()];
                let b_seed = rng.next_u64();
                let o = &oracles[tenant];
                let b = rhs(o.ncols(), n, b_seed);
                Kind::Request {
                    tenant,
                    n,
                    b_seed,
                    expect: o.product_digest(&b),
                    flop: 2.0 * o.nnz() as f64 * n as f64,
                }
            };
            Event { due_s, kind }
        })
        .collect()
}

/// A fresh server with every tenant registered. Set-up time covers the
/// planner calibration (burst) and every registration.
fn setup(tenants: &[Tenant], burst: bool, sp: &mut Spans) -> (Server<F16>, Vec<MatrixKey>, f64) {
    let (largest, budget) = shard_budget(tenants);
    assert_eq!(largest, LARGE, "the sharded tenant is the largest");
    let root = sp.open("setup", 0, NO_REQ);
    let start = Instant::now();
    let smat = SmatConfig::default();
    let planner = burst.then(|| {
        let (cal, _) = sp.timed("planner.calibrate", root, NO_REQ, || {
            Calibration::fit_on(&calibration_bands::<F16>(CAL_N), CAL_WIDTH, &smat)
        });
        Arc::new(Planner::with_calibration(PlanSpace::default(), cal))
    });
    let server = Server::new(ServerConfig {
        shard_max_bytes: Some(budget),
        planner,
        ..ServerConfig::default()
    });
    let keys = tenants
        .iter()
        .map(|t| {
            sp.timed("serve.register", root, NO_REQ, || server.register(&t.csr))
                .0
        })
        .collect();
    let secs = start.elapsed().as_secs_f64();
    sp.close(root);
    (server, keys, secs)
}

struct Pending {
    req: u64,
    tenant: usize,
    due: Instant,
    sent: Instant,
    expect: u64,
    flop: f64,
    fut: ResponseFuture<F16>,
}

/// What the collector saw.
struct Collected {
    /// Due → completion, ms, of every completed request.
    latency_ms: Vec<f64>,
    /// Submit → completion, ms, of the sharded tenant's requests.
    fanout_ms: Vec<f64>,
    last_done: Option<Instant>,
    flop: f64,
    ops: Ops,
    spans: Spans,
}

fn collect(rx: mpsc::Receiver<Pending>, trace: bool, t0: Instant) -> Collected {
    let mut c = Collected {
        latency_ms: Vec::new(),
        fanout_ms: Vec::new(),
        last_done: None,
        flop: 0.0,
        ops: Ops::default(),
        spans: Spans::new(trace, t0),
    };
    for p in rx {
        match p.fut.wait() {
            Ok(resp) => {
                let done = p.sent + Duration::from_secs_f64(resp.wall_ms / 1e3);
                c.spans.record("serve.request", p.due, done, 0, p.req);
                let (ok, _) = c
                    .spans
                    .timed("check", 0, p.req, || output_digest(&resp.c) == p.expect);
                c.ops
                    .check(ok, &format!("response {} against the oracle", p.req));
                c.latency_ms.push((done - p.due).as_secs_f64() * 1e3);
                if p.tenant == LARGE {
                    c.fanout_ms.push(resp.wall_ms);
                }
                c.flop += p.flop;
                c.last_done = Some(c.last_done.map_or(done, |d| d.max(done)));
            }
            Err(e) => c.ops.check(false, &format!("request {}: {e}", p.req)),
        }
    }
    c
}

/// One pass of the open loop.
struct Traffic {
    start: Instant,
    /// Process CPU seconds from the first send to the last response.
    cpu_s: f64,
    lateness_ms: Vec<f64>,
    collected: Collected,
    stats: ServerStats,
    /// Σ preflight memo entries and overlay cells over the unsharded
    /// tenants' resident handles at the end.
    memo_entries: usize,
    overlay_cells: usize,
}

fn drive(
    server: &Server<F16>,
    keys: &[MatrixKey],
    tenants: &[Tenant],
    events: &[Event],
    sp: &mut Spans,
    ops: &mut Ops,
) -> Traffic {
    let (tx, rx) = mpsc::channel::<Pending>();
    let trace = sp.on();
    let t0 = sp.origin();
    let collector = thread::spawn(move || collect(rx, trace, t0));
    let start = Instant::now() + LEAD;
    let cpu0 = process_cpu_s();
    let mut lateness_ms = Vec::with_capacity(events.len());
    let mut i = 0;
    while i < events.len() {
        // Build every payload due at this instant before waiting for it.
        let due_s = events[i].due_s;
        let group_end = events[i..]
            .iter()
            .position(|e| e.due_s != due_s)
            .map_or(events.len(), |k| i + k);
        let payloads: Vec<Option<Dense<F16>>> = events[i..group_end]
            .iter()
            .map(|e| match e.kind {
                Kind::Request {
                    tenant, n, b_seed, ..
                } => Some(rhs(tenants[tenant].csr.ncols(), n, b_seed)),
                Kind::Mutate { .. } => None,
            })
            .collect();
        let due = start + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        for (k, payload) in payloads.into_iter().enumerate() {
            let req = (i + k) as u64;
            let sent = Instant::now();
            lateness_ms.push((sent - due).as_secs_f64() * 1e3);
            match (&events[i + k].kind, payload) {
                (
                    Kind::Request {
                        tenant,
                        expect,
                        flop,
                        ..
                    },
                    Some(b),
                ) => {
                    let (fut, _) =
                        sp.timed("serve.submit", 0, req, || server.submit(keys[*tenant], b));
                    let pending = Pending {
                        req,
                        tenant: *tenant,
                        due,
                        sent,
                        expect: *expect,
                        flop: *flop,
                        fut,
                    };
                    tx.send(pending).expect("collector outlives the generator");
                }
                (Kind::Mutate { tenant, cells }, _) => {
                    let updates: Vec<_> = cells.iter().map(|&(r, c, v)| update(r, c, v)).collect();
                    let (res, _) = sp.timed("serve.mutate", 0, req, || {
                        server.mutate(keys[*tenant], &updates)
                    });
                    ops.check(res.is_ok(), &format!("mutate {req}: {res:?}"));
                }
                (Kind::Request { .. }, None) => unreachable!("requests carry a payload"),
            }
        }
        i = group_end;
    }
    drop(tx);
    let collected = collector.join().expect("collector thread panicked");
    ops.attempted += collected.ops.attempted;
    ops.failed += collected.ops.failed;
    let cpu_s = process_cpu_s() - cpu0;
    server.quiesce_compactions();
    let (mut memo_entries, mut overlay_cells) = (0, 0);
    for (t, key) in keys.iter().enumerate() {
        if t != LARGE {
            if let Some(h) = server.registry().peek(key) {
                memo_entries += h.preflight_cache_len();
                overlay_cells += h.overlay_snapshot().cells().len();
            }
        }
    }
    Traffic {
        start,
        cpu_s,
        lateness_ms,
        stats: server.stats(),
        collected,
        memo_entries,
        overlay_cells,
    }
}

/// Serve-layer and shard-layer metrics from the server's counters and the
/// spans around the benchmark's calls into it.
fn serve_metrics(stats: &ServerStats, sp: &Spans, fanout_ms: &[f64]) -> Vec<Metric> {
    vec![
        metric(
            "serve.submit_ms",
            median(&sp.durations("serve.submit")),
            "ms",
        ),
        metric(
            "serve.mutate_ms",
            median(&sp.durations("serve.mutate")),
            "ms",
        ),
        metric(
            "serve.register_ms",
            sp.durations("serve.register").iter().sum(),
            "ms",
        ),
        metric(
            "serve.mean_batch",
            stats.batched_requests as f64 / stats.batches.max(1) as f64,
            "requests",
        ),
        metric("serve.plan_hits", stats.plans.hits as f64, "count"),
        metric("serve.plan_misses", stats.plans.misses as f64, "count"),
        metric(
            "serve.registry_prepares",
            stats.registry.prepares as f64,
            "count",
        ),
        metric("serve.compactions", stats.compactions as f64, "count"),
        metric(
            "serve.device_busy_ms",
            stats.devices.iter().map(|d| d.busy_ms).sum(),
            "ms",
        ),
        metric("shard.fanouts", stats.fanout_requests as f64, "count"),
        metric("shard.subrequests", stats.shard_subrequests as f64, "count"),
        metric("shard.fanout_p50_ms", percentile(fanout_ms, 50.0), "ms"),
    ]
}

/// For workloads that bypass the server: registers `tenants` on a default
/// server whose shard budget splits the largest, submits one narrow request
/// per tenant, updates one cell of every unsharded tenant, and reports the
/// serve- and shard-layer metrics of that exchange. Spans go to `sp`.
pub fn probe_server(sp: &mut Spans, tenants: &[Tenant], seed: u64, ops: &mut Ops) -> Vec<Metric> {
    let (largest, budget) = shard_budget(tenants);
    let server: Server<F16> = Server::new(ServerConfig {
        shard_max_bytes: Some(budget),
        ..ServerConfig::default()
    });
    let keys: Vec<MatrixKey> = tenants
        .iter()
        .map(|t| {
            sp.timed("serve.register", 0, NO_REQ, || server.register(&t.csr))
                .0
        })
        .collect();
    let mut fanout_ms = Vec::new();
    let mut pending = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let b = rhs(tenant.csr.ncols(), 8, seed ^ (0x5e7e_0000 + t as u64));
        let expect = tenant.oracle.product_digest(&b);
        let (fut, _) = sp.timed("serve.submit", 0, t as u64, || server.submit(keys[t], b));
        pending.push((t, expect, fut));
    }
    for (t, expect, fut) in pending {
        match fut.wait() {
            Ok(resp) => {
                ops.check(
                    output_digest(&resp.c) == expect,
                    "probe response against the oracle",
                );
                if t == largest {
                    fanout_ms.push(resp.wall_ms);
                }
            }
            Err(e) => ops.check(false, &format!("probe request on {}: {e}", tenants[t].name)),
        }
    }
    let mut rng = Rng::new(seed ^ 0x37);
    for (t, tenant) in tenants.iter().enumerate() {
        if t != largest {
            let op = update(
                rng.below(tenant.oracle.nrows()),
                rng.below(tenant.oracle.ncols()),
                1,
            );
            let (res, _) = sp.timed("serve.mutate", 0, NO_REQ, || server.mutate(keys[t], &[op]));
            ops.check(res.is_ok(), &format!("probe mutate: {res:?}"));
        }
    }
    serve_metrics(&server.stats(), sp, &fanout_ms)
}

pub fn run(args: &Args) -> Outcome {
    let burst = args.workload == "serve_burst";
    let t0 = Instant::now();
    let mut sp = Spans::new(args.trace, t0);
    let tenants = tenants();
    let events = schedule(&tenants, !burst, !burst, args.seed, args.seconds);
    // Read-only traffic of the same shape that warms the machine before
    // anything is timed; it runs on the first set-up's server.
    let warmup = schedule(&tenants, !burst, false, args.seed ^ 0x3a3a, WARMUP_S);
    let mut ops = Ops::default();

    // Set-up, repeated; the last server carries the traffic.
    let mut untraced = Spans::new(false, t0);
    let mut setup_s = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take()); // shut the previous server down first
        let (server, keys, secs) = setup(&tenants, burst, &mut untraced);
        setup_s.push(secs);
        if rep == 0 {
            drive(&server, &keys, &tenants, &warmup, &mut untraced, &mut ops);
        }
        last = Some((server, keys));
    }
    let (server, keys) = last.expect("at least one set-up");
    let main = drive(&server, &keys, &tenants, &events, &mut untraced, &mut ops);
    drop(server);

    let c = &main.collected;
    let mut correct = c.ops.attempted as usize
        == events
            .iter()
            .filter(|e| matches!(e.kind, Kind::Request { .. }))
            .count()
        && main.stats.completed == c.latency_ms.len() as u64;
    let p50 = percentile(&c.latency_ms, 50.0);
    let mut metrics = Vec::new();
    if !args.trace {
        let span_s = c.last_done.map_or(0.0, |d| (d - main.start).as_secs_f64());
        metrics.push(metric("setup_s", median(&setup_s), "s"));
        metrics.push(metric(
            "spmm_per_s",
            c.latency_ms.len() as f64 / main.cpu_s,
            "1/s",
        ));
        metrics.push(metric(
            "sim_gflops",
            c.flop / (main.stats.sim_ms_total * 1e-3) / 1e9,
            "GFLOP/s",
        ));
        metrics.push(metric("rps", c.latency_ms.len() as f64 / span_s, "1/s"));
        metrics.push(metric("p50_ms", p50, "ms"));
        metrics.push(metric("p99_ms", percentile(&c.latency_ms, 99.0), "ms"));
    } else {
        // The same schedule on a fresh server with spans on.
        let (server, keys, _) = setup(&tenants, burst, &mut sp);
        let traced = drive(&server, &keys, &tenants, &events, &mut sp, &mut ops);
        let tc = traced.collected;
        correct &= traced.stats.completed == tc.latency_ms.len() as u64;
        sp.absorb(tc.spans);
        if burst {
            // Updates are not part of this traffic; time a few so the
            // serve layer's update path is measured on these tenants too.
            let mut rng = Rng::new(args.seed ^ 0xb0b);
            // Tenants 0 and 1 are unsharded.
            for k in 0..8 {
                let t = k % 2;
                let o = &tenants[t].oracle;
                let op = update(rng.below(o.nrows()), rng.below(o.ncols()), rng.int(-4, 4));
                let (res, _) =
                    sp.timed("serve.mutate", 0, NO_REQ, || server.mutate(keys[t], &[op]));
                ops.check(res.is_ok(), &format!("mutate: {res:?}"));
            }
        }
        drop(server);
        let mix: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match e.kind {
                Kind::Request { tenant, n, .. } => Some((tenant, n)),
                Kind::Mutate { .. } => None,
            })
            .take(MIX_LEN)
            .collect();
        let rel = burst.then_some(traced.stats.plan_mean_rel_error);
        metrics = probe(&mut sp, &tenants, &mix, args.seed, rel, &mut ops);
        for m in metrics.iter_mut().filter(|m| m.name == "overlay.cells") {
            m.value = traced.overlay_cells as f64;
        }
        metrics.extend(serve_metrics(&traced.stats, &sp, &tc.fanout_ms));
        metrics.push(metric(
            "analyze.memo_entries",
            traced.memo_entries as f64,
            "count",
        ));
        metrics.push(metric(
            "gen.lateness_p99_ms",
            percentile(&traced.lateness_ms, 99.0),
            "ms",
        ));
        let p50_traced = percentile(&tc.latency_ms, 50.0);
        metrics.push(metric(
            "trace.overhead_pct",
            (p50_traced - p50) / p50 * 100.0,
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
