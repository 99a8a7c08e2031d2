//! The four workloads, their timed loops, and their reports.
//!
//! Three are closed loops with one caller: the next call starts when the
//! previous one returned and was checked. `service_open` is an open loop:
//! one thread sends requests on a fixed schedule, another collects the
//! results, and a third checks them. The seed fixes operand values and
//! call order only; shapes, their weights and the rate are constants.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use modgemm_core::blas::{try_dgemm, try_gemm_batch_strided};
use modgemm_core::{
    BatchPlan, CollectingSink, ExecMetrics, GemmContext, GemmError, GemmPlan, GemmRequest,
    GemmService, GemmTicket, ModgemmConfig, ServiceConfig, ServiceStats, StridedBatch,
};
use modgemm_mat::{MatMut, MatRef, Matrix, Op};

use crate::check::product_ok;
use crate::layers::{self, mib, MatWork};
use crate::rng::Rng;
use crate::stats::{median, min_samples, percentile};
use crate::trace::Tracer;
use crate::{Args, Report, END_TO_END, PER_LAYER};

pub const NAMES: [&str; 4] = ["dgemm_ragged", "pooled_1024", "batch_small", "service_open"];

/// `dgemm_ragged` sizes: an odd count, so the median call falls inside the
/// middle size's band rather than on a step between sizes, spread over
/// 513..1024. All but 1024 are 1 above a multiple of 16, which the 16..64
/// tile range pads by the most (15 rows and columns).
const RAGGED: [usize; 5] = [513, 641, 769, 897, 1024];
const BATCH_ITEMS: usize = 64;
const BATCH_SIDE: usize = 128;

/// `service_open` traffic: `(m, k, n)` and requests per 20-request cycle.
/// 16 of 20 are small ragged shapes (64..160 per side): eight once each and
/// the largest eight times, so the median request falls inside that one
/// shape's band. 4 of 20 are medium (256..300), weighted 1/2/1 by size so
/// p90 falls inside the middle one's band. Twelve shapes overflow the
/// 8-entry plan cache.
const SERVICE_MIX: [((usize, usize, usize), usize); 12] = [
    ((64, 72, 80), 1),
    ((88, 120, 64), 1),
    ((96, 80, 112), 1),
    ((100, 96, 90), 1),
    ((77, 145, 99), 1),
    ((135, 66, 158), 1),
    ((150, 101, 117), 1),
    ((127, 113, 131), 1),
    ((160, 150, 140), 8),
    ((256, 260, 270), 1),
    ((264, 270, 280), 2),
    ((272, 280, 290), 1),
];
/// Requests per second offered to the service. One 20-request cycle takes
/// about 28 ms of execution on a 2-CPU x86-64 host, so this is about a sixth
/// of one dispatcher's capacity. At 250 req/s the same host's latencies
/// swung 4x from run to run under contention from other guests, as queues
/// built up behind stalls.
const SERVICE_RATE: f64 = 125.0;
/// A run whose generator submits later than this after a request's due
/// time at its p90 is flagged as behind schedule.
const LATE_FLAG_MS: f64 = 1.0;

/// Set-ups per run; `setup_s` reports their median. Every one is cold: the
/// run's own, timed from process start, and the others in child processes
/// of this program that set up the same workload and exit, half before the
/// timed phase and half after it, so one slow spell of the host does not
/// hold them all.
const SETUPS: usize = 5;
/// Cycles of the service mix sent one by one while setting up.
const WARMUP_CYCLES: usize = 5;
const OPERAND_STREAM: u64 = 1;
const ORDER_STREAM: u64 = 2;
const CALLER: &str = "caller";
const CHECKER: &str = "checker";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

impl Shape {
    const fn cube(n: usize) -> Self {
        Shape { m: n, k: n, n }
    }

    /// Useful flops, `2·m·k·n`; padding is not counted.
    fn flops(self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }
}

pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    // Warm-up rounds are fixed per workload, a few tenths of a second each.
    let closed = |shapes: Vec<Shape>, batch: usize, cfg: ModgemmConfig, warmup: usize| {
        closed_workload(&Closed { shapes, batch, cfg, warmup }, args, start)
    };
    let default = ModgemmConfig::default();
    match args.workload.as_str() {
        "dgemm_ragged" => closed(RAGGED.map(Shape::cube).to_vec(), 1, default, 1),
        "pooled_1024" => {
            let pooled = ModgemmConfig { parallel_depth: 2, threads: 2, ..default };
            closed(vec![Shape::cube(1024)], 1, pooled, 3)
        }
        "batch_small" => closed(vec![Shape::cube(BATCH_SIDE)], BATCH_ITEMS, default, 10),
        "service_open" => service_workload(args, start),
        other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("{e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The end-to-end report shared by every workload.
fn end_to_end(
    lat_ms: &mut [f64],
    ok: u64,
    ok_flops: f64,
    wall_s: f64,
    setup_s: &mut [f64],
) -> Result<Report, String> {
    let attempted = lat_ms.len() as u64;
    let need = min_samples(0.9);
    if lat_ms.len() < need {
        return Err(format!("{} calls; p90 needs at least {need}", lat_ms.len()));
    }
    eprintln!("perfbench: {attempted} calls, {ok} correct, {:.2} s timed", wall_s);
    let values = [
        ok_flops / wall_s / 1e9,
        median(lat_ms),
        percentile(lat_ms, 0.9),
        median(setup_s),
        peak_rss_mib()?,
        ok as f64 / attempted as f64,
    ];
    Ok(Report {
        correct: ok == attempted,
        attempted,
        failed: attempted - ok,
        metrics: END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect(),
    })
}

/// Set-up times of `n` child processes that each set up this run's
/// workload from their own start and exit ([`Args::setup_only`]). A traced
/// run reports no `setup_s` and starts none.
fn child_setups(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    if args.trace {
        return Ok(vec![]);
    }
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
                .args(["--setup-only", "1"])
                .stderr(std::process::Stdio::null())
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let value = text
                .lines()
                .last()
                .and_then(|l| l.split("\"setup_s\": {\"value\": ").nth(1))
                .and_then(|v| v.split(',').next())
                .and_then(|v| v.parse::<f64>().ok());
            match value {
                Some(v) if out.status.success() => Ok(v),
                _ => Err(format!("set-up child failed ({}): {text}", out.status)),
            }
        })
        .collect()
}

/// What a set-up child reports: its set-up time alone.
fn setup_report(start: Instant) -> Report {
    let s = start.elapsed().as_secs_f64();
    Report { correct: true, attempted: 1, failed: 0, metrics: vec![("setup_s", s, "s")] }
}

/// The per-layer report: every [`PER_LAYER`] metric, 0 where `values`
/// has none because the workload bypasses that layer.
fn per_layer(values: BTreeMap<&'static str, f64>, attempted: u64, ok: u64) -> Report {
    for name in values.keys() {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted metric {name}");
    }
    Report {
        correct: ok == attempted,
        attempted,
        failed: attempted - ok,
        metrics: PER_LAYER
            .iter()
            .map(|&(n, u)| (n, values.get(n).copied().unwrap_or(0.0), u))
            .collect(),
    }
}

/// Host ceilings, measured once per traced run.
fn host_ceilings(l: &mut BTreeMap<&'static str, f64>) {
    l.insert("host.leaf_peak_gflops", layers::leaf_peak_gflops());
    let Some(llc) = layers::llc_bytes() else {
        eprintln!("perfbench: last-level cache size unknown; copy bandwidth not measured");
        return;
    };
    l.insert("host.llc_mb", mib(llc as f64));
    let bytes = 4 * llc;
    match layers::copy_gbps(bytes) {
        Some(gbps) => {
            l.insert("host.copy_gbps", gbps);
            eprintln!(
                "perfbench: copy bandwidth over 2 x {:.0} MiB arrays (4 x LLC {:.0} MiB)",
                mib(bytes as f64),
                mib(llc as f64)
            );
        }
        None => eprintln!(
            "perfbench: copy bandwidth not measured: 2 x {:.0} MiB arrays (4 x LLC) do not fit \
             in half the available memory; add/merge passes report computed bytes moved only",
            mib(bytes as f64)
        ),
    }
}

/// Layer values common to every workload, from the plans of its shapes.
fn plan_facts(l: &mut BTreeMap<&'static str, f64>, shapes: &[(Shape, f64)], cfg: &ModgemmConfig) {
    let serial = ModgemmConfig { parallel_depth: 0, ..*cfg };
    let (mut arena, mut padded, mut logical) = (0usize, 0.0, 0.0);
    for &(s, weight) in shapes {
        let plan = GemmPlan::<f64>::try_new(s.m, s.k, s.n, &serial).expect("benchmark shapes plan");
        arena = arena.max(plan.arena_len());
        let t = cfg.plan(s.m, s.k, s.n).expect("benchmark shapes have a joint tiling");
        padded += weight * (t.m.padded * t.k.padded * t.n.padded) as f64;
        logical += weight * (s.m * s.k * s.n) as f64;
    }
    l.insert("exec.arena_mb", mib((arena * 8) as f64));
    l.insert("exec.padded_flops_ratio", padded / logical);
}

/// Writes the trace and prints each span name's self time.
fn write_trace(
    tr: &Tracer,
    args: &Args,
    l: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let st = tr.self_times();
    eprintln!("perfbench: span self times (count, total ms, self ms):");
    let mut meta = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("threads", thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
    ];
    for (name, (count, total, own)) in &st {
        eprintln!("  {name:<24} {count:>7} {total:>12.3} {own:>12.3}");
        meta.push((name, format!("count {count}, total {total:.3} ms, self {own:.3} ms")));
    }
    for (k, v) in l.iter() {
        meta.push((k, format!("{v}")));
    }
    l.insert("trace.spans", tr.spans.len() as f64);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, tr.chrome_json(&meta)).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// Closed loops: dgemm_ragged, pooled_1024, batch_small
// ---------------------------------------------------------------------------

/// A closed-loop workload: each round calls every shape once, in a seeded
/// order. `batch > 1` calls `try_gemm_batch_strided` on that many items.
/// Set-up ends with `warmup` checked rounds.
struct Closed {
    shapes: Vec<Shape>,
    batch: usize,
    cfg: ModgemmConfig,
    warmup: usize,
}

struct Operands {
    s: Shape,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

/// One traced call: its shape's index, its latency and its metrics.
struct TracedCall {
    shape: usize,
    ms: f64,
    metrics: ExecMetrics,
}

#[derive(Default)]
struct LoopOut {
    lat_ms: Vec<f64>,
    busy: Duration,
    ok: u64,
    ok_flops: f64,
    traced: Vec<TracedCall>,
}

impl Closed {
    fn operands(&self, seed: u64) -> Vec<Operands> {
        let mut rng = Rng::new(seed, OPERAND_STREAM);
        let b = self.batch;
        let mut mk = |s: Shape| Operands {
            s,
            a: rng.values(s.m * s.k * b),
            b: rng.values(s.k * s.n * b),
            c: vec![f64::NAN; s.m * s.n * b],
        };
        self.shapes.iter().map(|&s| mk(s)).collect()
    }

    /// The public call a user makes: `C = A·B`.
    fn call(&self, o: &mut Operands, cfg: &ModgemmConfig) -> Result<(), GemmError> {
        let Shape { m, k, n } = o.s;
        let nt = Op::NoTrans;
        if self.batch == 1 {
            try_dgemm(nt, nt, m, n, k, 1.0, &o.a, m, &o.b, k, 0.0, &mut o.c, m, cfg)
        } else {
            let (sa, sb, sc) = (m * k, k * n, m * n);
            try_gemm_batch_strided(
                nt, nt, m, n, k, 1.0, &o.a, m, sa, &o.b, k, sb, 0.0, &mut o.c, m, sc, self.batch,
                cfg,
            )
        }
    }

    /// The same call made through the layers the public call is built
    /// from — a fresh context, a compiled plan, one execution — with a
    /// span around each and the library's conversion/compute split placed
    /// inside the execution span.
    fn call_traced(
        &self,
        o: &mut Operands,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<ExecMetrics, GemmError> {
        let Shape { m, k, n } = o.s;
        let nt = Op::NoTrans;
        let mut sink = CollectingSink::new();
        let t0 = Instant::now();
        let mut ctx = GemmContext::new();
        let t1 = Instant::now();
        let (t2, breakdown) = if self.batch == 1 {
            let plan = GemmPlan::<f64>::try_new(m, k, n, &self.cfg)?;
            let t2 = Instant::now();
            let (a, b) = (MatRef::from_slice(&o.a, m, k, m), MatRef::from_slice(&o.b, k, n, k));
            let c = MatMut::from_slice(&mut o.c, m, n, m);
            (
                t2,
                Some(
                    plan.try_execute_with_metrics(1.0, nt, a, nt, b, 0.0, c, &mut ctx, &mut sink)?,
                ),
            )
        } else {
            let plan = BatchPlan::<f64>::try_new(m, k, n, self.batch, &self.cfg)?;
            let t2 = Instant::now();
            let desc = StridedBatch {
                alpha: 1.0,
                op_a: nt,
                a: &o.a,
                lda: m,
                stride_a: m * k,
                op_b: nt,
                b: &o.b,
                ldb: k,
                stride_b: k * n,
                beta: 0.0,
                ldc: m,
                stride_c: m * n,
            };
            plan.try_execute_with_metrics(&desc, &mut o.c, &mut ctx, &mut sink)?;
            (t2, None)
        };
        let t3 = Instant::now();
        drop(ctx);
        let root = tr.span(CALLER, "call", id, None, t0, Instant::now());
        tr.span(CALLER, "plan.compile", id, Some(root), t1, t2);
        let exec = tr.span(CALLER, "execute", id, Some(root), t2, t3);
        if let Some(bd) = breakdown {
            let at = tr.at(t2);
            let at = tr.derived(CALLER, "morton.convert_in", id, exec, at, bd.convert_in);
            let at = tr.derived(CALLER, "exec.compute", id, exec, at, bd.compute);
            tr.derived(CALLER, "morton.convert_out", id, exec, at, bd.convert_out);
        }
        Ok(sink.into_metrics())
    }

    fn check(&self, o: &Operands, salt: u64) -> bool {
        let Shape { m, k, n } = o.s;
        let (sa, sb, sc) = (m * k, k * n, m * n);
        (0..self.batch).all(|i| {
            let (a, b, c) = (&o.a[i * sa..][..sa], &o.b[i * sb..][..sb], &o.c[i * sc..][..sc]);
            product_ok(m, k, n, a, b, c, salt.wrapping_mul(1 << 20) + i as u64)
        })
    }

    /// Loads operands and makes `warmup` checked calls per shape.
    fn setup(&self, seed: u64) -> Vec<Operands> {
        let mut ops = self.operands(seed);
        for _ in 0..self.warmup {
            for (i, o) in ops.iter_mut().enumerate() {
                match self.call(o, &self.cfg) {
                    Ok(()) if self.check(o, i as u64) => {}
                    Ok(()) => eprintln!("perfbench: warm-up result for {:?} is wrong", o.s),
                    Err(e) => eprintln!("perfbench: warm-up call for {:?} failed: {e}", o.s),
                }
            }
        }
        ops
    }

    /// Calls in rounds of every shape until `budget` has passed and at
    /// least `min_calls` calls were made; each output is filled with NaN
    /// before the call and checked after it, outside its timed interval.
    /// A wrong or failed call counts as infinitely slow. With a tracer,
    /// odd rounds go through [`Closed::call_traced`] and even rounds stay
    /// untraced, so both see the same host conditions.
    fn run_loop(
        &self,
        ops: &mut [Operands],
        cfg: &ModgemmConfig,
        rng: &mut Rng,
        budget: Duration,
        min_calls: usize,
        mut tr: Option<&mut Tracer>,
    ) -> (LoopOut, LoopOut) {
        let (mut plain, mut traced) = (LoopOut::default(), LoopOut::default());
        let mut order: Vec<usize> = (0..ops.len()).collect();
        let t0 = Instant::now();
        let mut round = 0u64;
        while t0.elapsed() < budget || plain.lat_ms.len() < min_calls {
            rng.shuffle(&mut order);
            let tracing = round % 2 == 1 && tr.is_some();
            round += 1;
            for &i in &order {
                let o = &mut ops[i];
                o.c.fill(f64::NAN);
                let id = (plain.lat_ms.len() + traced.lat_ms.len()) as u64;
                let out = if tracing { &mut traced } else { &mut plain };
                let start = Instant::now();
                let res = match tr.as_deref_mut().filter(|_| tracing) {
                    None => self.call(o, cfg).map(|()| None),
                    Some(t) => self.call_traced(o, t, id).map(Some),
                };
                let took = start.elapsed();
                out.busy += took;
                let c0 = Instant::now();
                let ok = match &res {
                    Ok(_) => self.check(o, id),
                    Err(e) => {
                        eprintln!("perfbench: call {id} ({:?}) failed: {e}", o.s);
                        false
                    }
                };
                if let Some(t) = tr.as_deref_mut().filter(|_| tracing) {
                    t.span(CHECKER, "check", id, None, c0, Instant::now());
                }
                if ok {
                    out.ok += 1;
                    out.ok_flops += o.s.flops() * self.batch as f64;
                } else if res.is_ok() {
                    eprintln!("perfbench: call {id} ({:?}) returned a wrong product", o.s);
                }
                out.lat_ms.push(if ok { ms(took) } else { f64::INFINITY });
                if let Ok(Some(metrics)) = res {
                    out.traced.push(TracedCall { shape: i, ms: ms(took), metrics });
                }
            }
        }
        (plain, traced)
    }
}

fn closed_workload(spec: &Closed, args: &Args, start: Instant) -> Result<Report, String> {
    let mut ops = spec.setup(args.seed);
    if args.setup_only {
        return Ok(setup_report(start));
    }
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    setup_s.extend(child_setups(args, SETUPS / 2)?);
    let mut rng = Rng::new(args.seed, ORDER_STREAM);
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        return closed_traced(spec, &mut ops, &mut rng, budget, args);
    }
    let (mut out, _) = spec.run_loop(&mut ops, &spec.cfg, &mut rng, budget, min_samples(0.9), None);
    setup_s.extend(child_setups(args, SETUPS - setup_s.len())?);
    let wall = out.busy.as_secs_f64();
    end_to_end(&mut out.lat_ms, out.ok, out.ok_flops, wall, &mut setup_s)
}

fn closed_traced(
    spec: &Closed,
    ops: &mut [Operands],
    rng: &mut Rng,
    budget: Duration,
    args: &Args,
) -> Result<Report, String> {
    let mut tr = Tracer::new(Instant::now());
    let rounds = 2 * spec.shapes.len();
    let (mut plain, mut traced) = spec.run_loop(ops, &spec.cfg, rng, budget, rounds, Some(&mut tr));
    let plain_p50 = median(&mut plain.lat_ms);
    let mut l = BTreeMap::new();
    l.insert("trace.overhead", median(&mut traced.lat_ms) / plain_p50 - 1.0);

    // Spans: self time per layer.
    let st = tr.self_times();
    let calls = traced.traced.len() as f64;
    let total = |name: &str| st.get(name).map_or(0.0, |e| e.1);
    let own = |name: &str| st.get(name).map_or(0.0, |e| e.2);
    l.insert("plan.compile_us", own("plan.compile") / calls * 1e3);
    l.insert("plan.share", total("plan.compile") / total("call"));
    let convert = total("morton.convert_in") + total("morton.convert_out");
    // The batch DAG reports no conversion/compute split, so its whole
    // execution counts as compute.
    let compute_ms = if spec.batch == 1 { total("exec.compute") } else { total("execute") };
    l.insert("exec.compute_ms", compute_ms / calls);

    // mat and morton: probes on this workload's tiles, quadrants and
    // layouts, weighted by the calls made.
    let (mut work, mut compute_worker_ms, mut cache) = (MatWork::default(), 0.0, Vec::new());
    let (mut tasks, mut steals, mut idle_ms, mut slab, mut window) = (vec![], 0.0, 0.0, 0u64, 0);
    let mut overlap = 0.0;
    for c in &traced.traced {
        let em = &c.metrics;
        let w = layers::mat_work(spec.shapes[c.shape], &spec.cfg, em, &mut cache);
        let items = spec.batch as f64;
        work.leaf_secs += w.leaf_secs * items;
        work.leaf_flops += w.leaf_flops * items;
        work.add_secs += w.add_secs * items;
        work.add_bytes += w.add_bytes * items;
        let workers = em.pool.map_or(1, |p| p.workers.max(1)) as f64;
        let wall = if spec.batch == 1 { ms(em.breakdown.compute) } else { c.ms };
        compute_worker_ms += wall * workers;
        if let Some(p) = em.pool {
            tasks.push(p.tasks_executed as f64);
            steals += p.steals as f64;
            idle_ms += ms(p.idle);
            slab = slab.max(em.arena_bytes);
        }
        window = window.max(em.batch_window);
        overlap += em.conversion_overlap_fraction;
        let strassen = l.entry("exec.strassen_levels").or_insert(0.0);
        *strassen = f64::max(*strassen, em.strassen_levels as f64);
    }
    let (mut conv_secs, mut conv_bytes) = (0.0, 0.0);
    let mut peak = BTreeMap::new();
    host_ceilings(&mut peak);
    for &s in &spec.shapes {
        let (secs, bytes) = layers::morton_secs(s, &spec.cfg);
        conv_secs += secs;
        conv_bytes += bytes;
    }
    l.insert("morton.to_morton_gbps", conv_bytes / conv_secs / 1e9);
    if spec.batch == 1 {
        l.insert("morton.convert_ms", convert / calls);
        l.insert("morton.share", convert / total("execute"));
    } else {
        // Computed: the conversions each item needs, at the probe's rate,
        // against the worker time of the whole batch call.
        let per_call_ms = conv_secs / spec.shapes.len() as f64 * spec.batch as f64 * 1e3;
        l.insert("morton.convert_ms", per_call_ms);
        l.insert("morton.share", per_call_ms * calls / compute_worker_ms);
    }
    insert_mat(&mut l, &work, compute_worker_ms, calls, &peak);
    l.extend(peak);
    let weights: Vec<(Shape, f64)> = spec.shapes.iter().map(|&s| (s, spec.batch as f64)).collect();
    plan_facts(&mut l, &weights, &spec.cfg);

    if !tasks.is_empty() {
        l.insert("pool.tasks", median(&mut tasks));
        l.insert("pool.steals", steals / calls);
        l.insert("pool.idle_frac", idle_ms / compute_worker_ms);
        l.insert("pool.slab_mb", mib(slab as f64));
        // The same calls with one worker: the pool's whole contribution.
        let serial = ModgemmConfig { threads: 1, ..spec.cfg };
        let (mut one, _) = spec.run_loop(ops, &serial, rng, budget / 8, 3, None);
        l.insert("pool.speedup_vs_serial", median(&mut one.lat_ms) / plain_p50);
    }
    if spec.batch > 1 {
        l.insert("batch.overlap_frac", overlap / calls);
        l.insert("batch.window", window as f64);
        l.insert("batch.speedup_vs_loop", item_loop_ms(spec, ops, budget / 8) / plain_p50);
    }
    write_trace(&tr, args, &mut l)?;
    let attempted = (plain.lat_ms.len() + traced.lat_ms.len()) as u64;
    Ok(per_layer(l, attempted, plain.ok + traced.ok))
}

/// Median time of the batch done as a loop of single `try_dgemm` calls.
fn item_loop_ms(spec: &Closed, ops: &mut [Operands], budget: Duration) -> f64 {
    let o = &mut ops[0];
    let Shape { m, k, n } = o.s;
    let (sa, sb, sc) = (m * k, k * n, m * n);
    let nt = Op::NoTrans;
    let mut times = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || times.len() < 3 {
        let start = Instant::now();
        for i in 0..spec.batch {
            let (a, b) = (&o.a[i * sa..][..sa], &o.b[i * sb..][..sb]);
            let c = &mut o.c[i * sc..][..sc];
            let _ = try_dgemm(nt, nt, m, n, k, 1.0, a, m, b, k, 0.0, c, m, &spec.cfg);
        }
        times.push(ms(start.elapsed()));
    }
    median(&mut times)
}

/// `mat` layer values from the computed work and the worker time it ran in.
fn insert_mat(
    l: &mut BTreeMap<&'static str, f64>,
    w: &MatWork,
    compute_worker_ms: f64,
    calls: f64,
    host: &BTreeMap<&'static str, f64>,
) {
    let leaf_gflops = w.leaf_flops / w.leaf_secs / 1e9;
    l.insert("mat.leaf_gflops", leaf_gflops);
    l.insert("mat.leaf_share", w.leaf_secs * 1e3 / compute_worker_ms);
    l.insert("mat.leaf_vs_peak", leaf_gflops / host["host.leaf_peak_gflops"]);
    l.insert("mat.addsub_mb", mib(w.add_bytes) / calls);
    if w.add_secs > 0.0 {
        let gbps = w.add_bytes / w.add_secs / 1e9;
        l.insert("mat.addsub_gbps", gbps);
        l.insert("mat.addsub_share", w.add_secs * 1e3 / compute_worker_ms);
        if let Some(copy) = host.get("host.copy_gbps") {
            l.insert("mat.addsub_vs_copy", gbps / copy);
        }
    }
}

// ---------------------------------------------------------------------------
// Open loop: service_open
// ---------------------------------------------------------------------------

struct Template {
    s: Shape,
    a: Matrix<f64>,
    b: Matrix<f64>,
}

fn templates(seed: u64) -> Vec<Template> {
    let mut rng = Rng::new(seed, OPERAND_STREAM);
    SERVICE_MIX
        .iter()
        .map(|&((m, k, n), _)| Template {
            s: Shape { m, k, n },
            a: Matrix::from_vec(rng.values(m * k), m, k),
            b: Matrix::from_vec(rng.values(k * n), k, n),
        })
        .collect()
}

/// `count` request shapes: whole cycles of [`SERVICE_MIX`], each shuffled
/// by the seed, so every run offers the same mix in a different order.
fn request_order(seed: u64, count: usize) -> Vec<usize> {
    let cycle: Vec<usize> =
        (0..SERVICE_MIX.len()).flat_map(|i| std::iter::repeat(i).take(SERVICE_MIX[i].1)).collect();
    let mut rng = Rng::new(seed, ORDER_STREAM);
    let mut out = Vec::with_capacity(count + cycle.len());
    while out.len() < count {
        let mut c = cycle.clone();
        rng.shuffle(&mut c);
        out.extend(c);
    }
    out.truncate(count);
    out
}

/// Starts the service and sends it [`WARMUP_CYCLES`] cycles of the mix,
/// one request at a time, checking each result.
fn start_service(tpl: &[Template], seed: u64) -> GemmService<f64> {
    let svc = GemmService::start(ServiceConfig::default());
    let cycle: usize = SERVICE_MIX.iter().map(|&(_, w)| w).sum();
    for (i, &shape) in request_order(seed, WARMUP_CYCLES * cycle).iter().enumerate() {
        let t = &tpl[shape];
        match svc.call(GemmRequest::new(t.a.clone(), t.b.clone())) {
            Ok(c) if check_template(t, &c, i as u64) => {}
            Ok(_) => eprintln!("perfbench: warm-up result for {:?} is wrong", t.s),
            Err(e) => eprintln!("perfbench: warm-up request for {:?} failed: {e}", t.s),
        }
    }
    svc
}

fn check_template(t: &Template, c: &Matrix<f64>, salt: u64) -> bool {
    c.dims() == (t.s.m, t.s.n)
        && product_ok(t.s.m, t.s.k, t.s.n, t.a.as_slice(), t.b.as_slice(), c.as_slice(), salt)
}

struct Sent {
    i: usize,
    due: Instant,
    sent: (Instant, Instant),
    ticket: Result<GemmTicket<f64>, GemmError>,
}

struct Collected {
    i: usize,
    result: Result<Matrix<f64>, GemmError>,
}

/// One open-loop phase. Latencies run from each request's due time to the
/// collector seeing its result; `waits` from the end of its submission.
/// `busy_ms` is each request's share of the time at least one request was
/// due and not yet collected: from its due time, or from the result before
/// it if that came later, to its own result.
struct OpenOut {
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    waits: Vec<(Duration, Duration, u64)>,
    ok: u64,
    ok_flops: f64,
    busy_ms: Vec<f64>,
    tracer: Option<Tracer>,
}

/// Offers `order` at [`SERVICE_RATE`] from a generator thread; a collector
/// thread waits for each ticket in turn and hands the result to a checker
/// thread. With `origin`, every request gets spans.
fn open_loop(
    svc: &GemmService<f64>,
    tpl: &[Template],
    order: &[usize],
    origin: Option<Instant>,
) -> OpenOut {
    let (to_collector, sent) = mpsc::channel::<Sent>();
    let (to_checker, collected) = mpsc::channel::<Collected>();
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / SERVICE_RATE);
    thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late = Vec::with_capacity(order.len());
            for (i, &shape) in order.iter().enumerate() {
                // Operands are copied before the due time, off the clock.
                let req = GemmRequest::new(tpl[shape].a.clone(), tpl[shape].b.clone());
                let due = due(i);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let s0 = Instant::now();
                let ticket = svc.submit(req);
                let s1 = Instant::now();
                late.push(ms(s0.saturating_duration_since(due)));
                let msg = Sent { i, due, sent: (s0, s1), ticket };
                if to_collector.send(msg).is_err() {
                    break;
                }
            }
            late
        });
        let collector = scope.spawn(move || {
            let mut tr = origin.map(Tracer::new);
            let (mut lat, mut waits, mut busy, mut last) = (vec![], vec![], vec![], t0);
            for m in sent {
                let result = m.ticket.and_then(GemmTicket::wait);
                let done = Instant::now();
                // Tickets are collected in order, so the service is busy
                // with this request from its due time or the previous
                // result, whichever is later.
                busy.push(ms(done.saturating_duration_since(m.due.max(last))));
                last = done;
                lat.push(ms(done - m.due));
                let id = m.i as u64;
                let wait_sid = tr.as_mut().map_or(0, |t| {
                    let root = t.span("requests", "request", id, None, m.due, done);
                    t.span("generator", "gen.submit", id, Some(root), m.sent.0, m.sent.1);
                    t.span("requests", "service.wait", id, Some(root), m.sent.1, done)
                });
                waits.push((m.sent.1 - t0, done - m.sent.1, wait_sid));
                if to_checker.send(Collected { i: m.i, result }).is_err() {
                    break;
                }
            }
            (lat, waits, busy, tr)
        });
        let checker = scope.spawn(move || {
            let mut tr = origin.map(Tracer::new);
            let mut ok = vec![false; order.len()];
            for c in collected {
                let t = &tpl[order[c.i]];
                let c0 = Instant::now();
                ok[c.i] = match &c.result {
                    Ok(product) => check_template(t, product, c.i as u64),
                    Err(e) => {
                        eprintln!("perfbench: request {} ({:?}) failed: {e}", c.i, t.s);
                        false
                    }
                };
                if let Some(tr) = tr.as_mut() {
                    tr.span(CHECKER, "check", c.i as u64, None, c0, Instant::now());
                }
            }
            (ok, tr)
        });
        let late_ms = generator.join().expect("generator thread panicked");
        let (mut lat_ms, waits, busy, mut tracer) =
            collector.join().expect("collector thread panicked");
        let (ok, checks) = checker.join().expect("checker thread panicked");
        if let (Some(t), Some(c)) = (tracer.as_mut(), checks) {
            t.merge(c);
        }
        let mut out =
            OpenOut { lat_ms: vec![], late_ms, waits, ok: 0, ok_flops: 0.0, busy_ms: busy, tracer };
        for (i, good) in ok.iter().enumerate() {
            if *good {
                out.ok += 1;
                out.ok_flops += tpl[order[i]].s.flops();
            } else if let Some(l) = lat_ms.get_mut(i) {
                *l = f64::INFINITY;
            }
        }
        out.lat_ms = lat_ms;
        out
    })
}

fn service_workload(args: &Args, start: Instant) -> Result<Report, String> {
    let tpl = templates(args.seed);
    let svc = start_service(&tpl, args.seed);
    if args.setup_only {
        return Ok(setup_report(start));
    }
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    setup_s.extend(child_setups(args, SETUPS / 2)?);
    eprintln!("perfbench: peak RSS after set-up {:.1} MiB", peak_rss_mib()?);
    let count = (SERVICE_RATE * args.seconds).round() as usize;
    let order = request_order(args.seed, count.max(min_samples(0.9)));
    if args.trace {
        return service_traced(&svc, &tpl, &order, args);
    }
    let mut out = open_loop(&svc, &tpl, &order, None);
    setup_s.extend(child_setups(args, SETUPS - setup_s.len())?);
    let late_p90 = flag_late(&mut out.late_ms);
    let mut waits: Vec<f64> = out.waits.iter().map(|w| ms(w.1)).collect();
    eprintln!(
        "perfbench: generator lateness p50 {:.3} ms p90 {late_p90:.3} ms; submit-to-result \
         p50 {:.3} ms p90 {:.3} ms; peak queue depth {}",
        median(&mut out.late_ms),
        median(&mut waits),
        percentile(&mut waits, 0.9),
        svc.stats().peak_queue_depth
    );
    let secs = service_secs(&mut out.busy_ms, &order);
    end_to_end(&mut out.lat_ms, out.ok, out.ok_flops, secs, &mut setup_s)
}

/// The seconds the service takes for the requests of `order`: each
/// request counts the median busy time of its shape, so a host stall
/// that holds a few requests does not count against the whole run.
fn service_secs(busy_ms: &mut [f64], order: &[usize]) -> f64 {
    let mut per_shape = vec![Vec::new(); SERVICE_MIX.len()];
    for (&s, &b) in order.iter().zip(busy_ms.iter()) {
        per_shape[s].push(b);
    }
    let typical: Vec<f64> = per_shape.iter_mut().map(|v| median(v)).collect();
    order.iter().map(|&s| typical[s]).sum::<f64>() / 1e3
}

fn flag_late(late_ms: &mut [f64]) -> f64 {
    let p90 = percentile(late_ms, 0.9);
    if p90 > LATE_FLAG_MS {
        eprintln!("perfbench: generator fell behind schedule: p90 lateness {p90:.3} ms");
    }
    p90
}

/// What one shape costs the service's dispatcher with nothing else
/// running: plan compile, then execution on a warm context.
struct Isolated {
    compile_ms: f64,
    exec_ms: f64,
    convert_ms: f64,
    compute_ms: f64,
    metrics: ExecMetrics,
}

fn isolate(t: &Template, cfg: &ModgemmConfig) -> Result<Isolated, String> {
    let Shape { m, k, n } = t.s;
    let err = |e: GemmError| format!("{:?}: {e}", t.s);
    let compile_ms = layers::secs_per_call(|| {
        let _ = std::hint::black_box(GemmPlan::<f64>::try_new(m, k, n, cfg));
    }) * 1e3;
    let plan = GemmPlan::<f64>::try_new(m, k, n, cfg).map_err(err)?;
    let mut ctx = GemmContext::new();
    let mut c = Matrix::zeros(m, n);
    let nt = Op::NoTrans;
    // Timing first also warms the context, so the split below is not
    // inflated by first-use allocation.
    let exec_ms = layers::secs_per_call(|| {
        let _ = plan.try_execute(1.0, nt, t.a.view(), nt, t.b.view(), 0.0, c.view_mut(), &mut ctx);
    }) * 1e3;
    let mut sink = CollectingSink::new();
    let (a, b) = (t.a.view(), t.b.view());
    let bd = plan
        .try_execute_with_metrics(1.0, nt, a, nt, b, 0.0, c.view_mut(), &mut ctx, &mut sink)
        .map_err(err)?;
    let total = bd.total().as_secs_f64().max(f64::MIN_POSITIVE);
    let share = |d: Duration| exec_ms * d.as_secs_f64() / total;
    Ok(Isolated {
        compile_ms,
        exec_ms,
        convert_ms: share(bd.convert_in + bd.convert_out),
        compute_ms: share(bd.compute),
        metrics: sink.into_metrics(),
    })
}

fn service_traced(
    svc: &GemmService<f64>,
    tpl: &[Template],
    order: &[usize],
    args: &Args,
) -> Result<Report, String> {
    let half = order.len() / 2;
    let mut plain = open_loop(svc, tpl, &order[..half], None);
    let before: ServiceStats = svc.stats();
    let mut traced = open_loop(svc, tpl, &order[half..], Some(Instant::now()));
    let after = svc.stats();
    let mut tr = traced.tracer.take().expect("traced phase records spans");
    let mut l = BTreeMap::new();
    l.insert("trace.overhead", median(&mut traced.lat_ms) / median(&mut plain.lat_ms) - 1.0);
    l.insert("gen.late_ms_p90", flag_late(&mut traced.late_ms));

    let cfg = ServiceConfig::default().gemm;
    let iso: Vec<Isolated> = tpl.iter().map(|t| isolate(t, &cfg)).collect::<Result<_, _>>()?;
    // Queue wait: time from submission to result, less the isolated
    // execution time of the request's shape.
    let mut queue = Vec::with_capacity(traced.waits.len());
    for (j, &(at, wait, sid)) in traced.waits.iter().enumerate() {
        let x = &iso[order[half + j]];
        let exec = Duration::from_secs_f64(x.exec_ms / 1e3).min(wait);
        let id = (half + j) as u64;
        let at = tr.derived("requests", "service.queue", id, sid, at, wait - exec);
        tr.derived("requests", "service.execute", id, sid, at, exec);
        queue.push(ms(wait - exec));
    }
    l.insert("service.queue_wait_ms_p50", median(&mut queue));
    l.insert("service.queue_wait_ms_p90", percentile(&mut queue, 0.9));
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let misses = after.plan_cache_misses - before.plan_cache_misses;
    l.insert("service.plan_cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    l.insert("service.peak_queue_depth", after.peak_queue_depth as f64);
    let rejected = |s: &ServiceStats| s.rejected_overload + s.rejected_shutdown;
    l.insert("service.rejected", (rejected(&after) - rejected(&before)) as f64);
    l.insert("service.ledger_peak_mb", mib(after.peak_bytes_in_use as f64));

    // Every other layer: the isolated costs, weighted by the traced mix.
    let requests = &order[half..];
    let calls = requests.len() as f64;
    let sum = |f: &dyn Fn(&Isolated) -> f64| requests.iter().map(|&s| f(&iso[s])).sum::<f64>();
    let (exec_ms, compute_ms) = (sum(&|x| x.exec_ms), sum(&|x| x.compute_ms));
    let mut compile: Vec<f64> = iso.iter().map(|x| x.compile_ms).collect();
    let compile_ms = median(&mut compile);
    l.insert("plan.compile_us", compile_ms * 1e3);
    l.insert("plan.share", misses as f64 * compile_ms / (exec_ms + misses as f64 * compile_ms));
    l.insert("exec.compute_ms", compute_ms / calls);
    l.insert("morton.convert_ms", sum(&|x| x.convert_ms) / calls);
    l.insert("morton.share", sum(&|x| x.convert_ms) / exec_ms);
    let strassen = iso.iter().map(|x| x.metrics.strassen_levels).max().unwrap_or(0);
    l.insert("exec.strassen_levels", strassen as f64);
    let (mut work, mut cache) = (MatWork::default(), Vec::new());
    let (mut conv_secs, mut conv_bytes) = (0.0, 0.0);
    let mut counts = vec![0usize; tpl.len()];
    requests.iter().for_each(|&s| counts[s] += 1);
    for ((t, x), &n) in tpl.iter().zip(&iso).zip(&counts) {
        let w = layers::mat_work(t.s, &cfg, &x.metrics, &mut cache);
        let n = n as f64;
        work.leaf_secs += w.leaf_secs * n;
        work.leaf_flops += w.leaf_flops * n;
        work.add_secs += w.add_secs * n;
        work.add_bytes += w.add_bytes * n;
        let (secs, bytes) = layers::morton_secs(t.s, &cfg);
        conv_secs += secs;
        conv_bytes += bytes;
    }
    l.insert("morton.to_morton_gbps", conv_bytes / conv_secs / 1e9);
    let mut host = BTreeMap::new();
    host_ceilings(&mut host);
    insert_mat(&mut l, &work, compute_ms, calls, &host);
    l.extend(host);
    let weights: Vec<(Shape, f64)> =
        tpl.iter().zip(&SERVICE_MIX).map(|(t, &(_, w))| (t.s, w as f64)).collect();
    plan_facts(&mut l, &weights, &cfg);
    write_trace(&tr, args, &mut l)?;
    let attempted = (plain.lat_ms.len() + traced.lat_ms.len()) as u64;
    Ok(per_layer(l, attempted, plain.ok + traced.ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_order_keeps_the_mix_and_varies_with_the_seed() {
        let a = request_order(1, 200);
        assert_eq!(a, request_order(1, 200));
        assert_ne!(a, request_order(2, 200));
        let cycle: usize = SERVICE_MIX.iter().map(|&(_, w)| w).sum();
        assert_eq!(cycle, 20);
        for (i, &(_, w)) in SERVICE_MIX.iter().enumerate() {
            assert_eq!(a.iter().filter(|&&s| s == i).count(), w * 200 / cycle);
        }
    }

    #[test]
    fn service_time_counts_each_shapes_median_so_a_stall_does_not_swing_it() {
        let order = [0, 0, 0, 1, 1, 1];
        let mut busy_ms = [1.0, 1.0, 100.0, 2.0, 2.0, 2.0];
        assert!((service_secs(&mut busy_ms, &order) - 0.009).abs() < 1e-12);
    }

    #[test]
    fn every_shape_plans_without_a_split() {
        let cfg = ModgemmConfig::default();
        let shapes = RAGGED.iter().map(|&n| (n, n, n)).chain(SERVICE_MIX.iter().map(|&(s, _)| s));
        for (m, k, n) in shapes.chain([(BATCH_SIDE, BATCH_SIDE, BATCH_SIDE)]) {
            assert!(cfg.plan(m, k, n).is_some(), "{m}x{k}x{n} has no joint tiling");
        }
    }

    #[test]
    fn closed_loop_counts_and_checks_every_call() {
        let shapes = vec![Shape::cube(40), Shape::cube(33)];
        let spec = Closed { shapes, batch: 3, cfg: ModgemmConfig::default(), warmup: 1 };
        let mut ops = spec.setup(5);
        let mut rng = Rng::new(5, ORDER_STREAM);
        let (out, _) = spec.run_loop(&mut ops, &spec.cfg, &mut rng, Duration::ZERO, 4, None);
        assert_eq!(out.lat_ms.len(), 4);
        assert_eq!(out.ok, 4);
        assert!(out.lat_ms.iter().all(|l| l.is_finite()));
    }
}
