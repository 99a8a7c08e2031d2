//! Per-layer probes for the traced run: the benchmark times the library's
//! public layer functions on the tile, quadrant and operand layouts a
//! workload's plans use, and combines those rates with the plan's
//! operation counts. Values built that way are *computed*, not measured
//! inside a call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use modgemm_core::schedule::{count_ops, steps_for};
use modgemm_core::{ExecMetrics, ModgemmConfig};
use modgemm_mat::{KernelKind, LeafKernel, MatMut, MatRef, Op};
use modgemm_morton::{from_morton, to_morton, MortonLayout};

use crate::rng::Rng;
use crate::workloads::Shape;

const MIB: f64 = 1024.0 * 1024.0;
/// The tile the leaf-kernel peak is measured on: three 64×64 f64 tiles
/// (96 KiB) stay in L2 on any current x86-64 or aarch64 core.
const PEAK_TILE: usize = 64;

/// Seconds per call of `f`: the median over seven batches, each long
/// enough (≥ 2 ms) that timer resolution does not matter.
pub fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let mut reps = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let mut per: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    crate::stats::median(&mut per)
}

/// Seconds per `mul_add` of one `m × k × n` leaf tile product.
pub fn leaf_secs(kernel: KernelKind, m: usize, k: usize, n: usize) -> f64 {
    let mut rng = Rng::new(0, 0x1EAF);
    let (a, b) = (rng.values(m * k), rng.values(k * n));
    let mut c = vec![0.0; m * n];
    secs_per_call(|| {
        let (av, bv) = (MatRef::from_slice(&a, m, k, m), MatRef::from_slice(&b, k, n, k));
        kernel.mul_add(black_box(av), black_box(bv), MatMut::from_slice(&mut c, m, n, m));
    })
}

/// The host's leaf-kernel ceiling in GF/s: the packed SIMD kernel on a
/// cache-resident tile, best of five measurements.
pub fn leaf_peak_gflops() -> f64 {
    let t = PEAK_TILE;
    let best = (0..5).map(|_| leaf_secs(KernelKind::Packed, t, t, t)).fold(f64::INFINITY, f64::min);
    2.0 * (t * t * t) as f64 / best / 1e9
}

/// Seconds per `add_flat` over `len` elements (two reads, one write).
pub fn add_secs(len: usize) -> f64 {
    let mut rng = Rng::new(0, 0xADD);
    let (a, b) = (rng.values(len), rng.values(len));
    let mut d = vec![0.0; len];
    secs_per_call(|| modgemm_mat::addsub::add_flat(black_box(&mut d), &a, &b))
}

/// `(seconds, bytes moved)` of converting one shape's `A` and `B` into
/// Morton order and its `C` back, with the layouts the plan uses.
pub fn morton_secs(s: Shape, cfg: &ModgemmConfig) -> (f64, f64) {
    let t = cfg.plan(s.m, s.k, s.n).expect("benchmark shapes have a joint tiling");
    let la = MortonLayout::new(t.m.tile, t.k.tile, t.depth);
    let lb = MortonLayout::new(t.k.tile, t.n.tile, t.depth);
    let lc = MortonLayout::new(t.m.tile, t.n.tile, t.depth);
    let mut rng = Rng::new(0, 0x3047);
    let (a, b) = (rng.values(s.m * s.k), rng.values(s.k * s.n));
    let mut c = vec![0.0; s.m * s.n];
    let (mut za, mut zb, zc) = (vec![0.0; la.len()], vec![0.0; lb.len()], rng.values(lc.len()));
    let secs = secs_per_call(|| {
        to_morton(MatRef::from_slice(&a, s.m, s.k, s.m), Op::NoTrans, &la, &mut za);
        to_morton(MatRef::from_slice(&b, s.k, s.n, s.k), Op::NoTrans, &lb, &mut zb);
        from_morton(&zc, &lc, MatMut::from_slice(&mut c, s.m, s.n, s.m));
        black_box((&za, &zb, &c));
    });
    // Each conversion reads its source and writes its destination once.
    let elems = (s.m * s.k + la.len()) + (s.k * s.n + lb.len()) + (lc.len() + s.m * s.n);
    (secs, (elems * 8) as f64)
}

/// The work one executed plan hands to the `mat` layer, from its plan
/// facts: leaf products and the Strassen add/merge passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatWork {
    pub leaf_secs: f64,
    pub leaf_flops: f64,
    pub add_secs: f64,
    pub add_bytes: f64,
}

/// Computes [`MatWork`] for one call of `s` whose metrics are `em`, timing
/// the leaf tile and each staged level's quadrant size with the probes
/// above (memoized in `cache`, keyed by size).
pub fn mat_work(
    s: Shape,
    cfg: &ModgemmConfig,
    em: &ExecMetrics,
    cache: &mut Vec<((usize, usize, usize), f64)>,
) -> MatWork {
    let t = cfg.plan(s.m, s.k, s.n).expect("benchmark shapes have a joint tiling");
    let kernel = em.kernel_selected.unwrap_or(cfg.leaf_kernel);
    let mut memo = |key: (usize, usize, usize), f: &dyn Fn() -> f64| match cache
        .iter()
        .find(|(k, _)| *k == key)
    {
        Some(&(_, v)) => v,
        None => {
            let v = f();
            cache.push((key, v));
            v
        }
    };
    let (tm, tk, tn) = (t.m.tile, t.k.tile, t.n.tile);
    let strassen = em.strassen_levels as u32;
    let leaves = 7f64.powi(strassen as i32) * 8f64.powi((t.depth as u32 - strassen) as i32);
    let per_leaf = memo((tm, tk, tn), &|| leaf_secs(kernel, tm, tk, tn));
    let mut w = MatWork {
        leaf_secs: leaves * per_leaf,
        leaf_flops: leaves * 2.0 * (tm * tk * tn) as f64,
        ..MatWork::default()
    };
    let sched = em.schedule_selected.unwrap_or_default();
    let ops = count_ops(steps_for(cfg.variant, sched));
    let (pm, pk, pn) = (t.m.padded, t.k.padded, t.n.padded);
    for level in 0..(em.strassen_levels - em.fused_levels) {
        let nodes = 7f64.powi(level as i32);
        let half = |x: usize| x >> (level + 1);
        let quads = [
            (ops.adds_a, half(pm) * half(pk)),
            (ops.adds_b, half(pk) * half(pn)),
            (ops.adds_c, half(pm) * half(pn)),
        ];
        for (count, len) in quads {
            let secs = memo((0, 0, len), &|| add_secs(len));
            w.add_secs += nodes * count as f64 * secs;
            w.add_bytes += nodes * count as f64 * (3 * len * 8) as f64;
        }
    }
    w
}

/// Size in bytes of the largest cache of CPU 0, from Linux sysfs.
pub fn llc_bytes() -> Option<u64> {
    let mut best = None;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(text) = std::fs::read_to_string(path) else { break };
        let t = text.trim();
        let bytes = match t.strip_suffix('K') {
            Some(kib) => kib.parse::<u64>().ok().map(|v| v << 10),
            None => t.strip_suffix('M').and_then(|m| m.parse::<u64>().ok()).map(|v| v << 20),
        };
        best = best.max(bytes);
    }
    best
}

/// Memory this process may still take: `MemAvailable`, and the cgroup's
/// headroom where a cgroup (v2) limit is set.
pub fn available_bytes() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kib = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())?;
    let read = |f: &str| -> Option<u64> {
        std::fs::read_to_string(format!("/sys/fs/cgroup/{f}")).ok()?.trim().parse().ok()
    };
    let cgroup = read("memory.max").zip(read("memory.current")).map(|(m, c)| m.saturating_sub(c));
    Some(cgroup.map_or(kib << 10, |c| c.min(kib << 10)))
}

/// Streaming copy bandwidth in GB/s (read + write bytes) over a source and
/// a destination array of `bytes` each, or `None` when the two would take
/// more than half of [`available_bytes`].
pub fn copy_gbps(bytes: u64) -> Option<f64> {
    available_bytes().filter(|&free| bytes.saturating_mul(4) <= free)?;
    let len = (bytes / 8) as usize;
    let src = vec![1.0f64; len];
    let mut dst = vec![0.0f64; len];
    let secs = secs_per_call(|| dst.copy_from_slice(black_box(&src)));
    Some(2.0 * bytes as f64 / secs / 1e9)
}

pub fn mib(bytes: f64) -> f64 {
    bytes / MIB
}
