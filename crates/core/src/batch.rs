//! Whole-batch scheduling: many same-shape GEMMs as **one** task graph.
//!
//! A batch executed as a loop of [`crate::plan::GemmPlan`] calls
//! serializes conversion and compute at every item boundary: each call
//! converts its operands to Morton order, runs its compute to a full
//! quiesce, and scatters the result back — exactly the §3.5-style
//! bandwidth gap the SC'98 paper's Figure 7 measures for the single-GEMM
//! case.
//!
//! [`BatchPlan`] instead compiles the **entire batch** with the lowering
//! every call uses (`TiledPlan::lower_items` in [`crate::plan`](mod@crate::plan), which a
//! `GemmPlan` compiles as a batch of one): every item contributes an
//! independent subgraph
//!
//! ```text
//! ConvertA chunks ─┐
//!                  ├─► item compute subtree ─► Unpack chunks ─► done gate
//! ConvertB chunks ─┘
//! ```
//!
//! and the subgraphs share nothing except the *window slots* they cycle
//! through, so item `i+1`'s conversion chunks fill worker deques while
//! item `i` is still multiplying — conversion/compute overlap falls out
//! of ordinary work stealing instead of a bespoke pipeline. With one
//! resolved worker the same graph runs inline on the caller, item after
//! item.
//!
//! Memory is admitted by an in-flight **window** `w`, not by the batch
//! size: the arenas hold `w` slots of `(A, B, C, slab)` (closed form in
//! [`crate::counts::batch_slot_elems`]) and item `i`'s first task depends
//! on the *done gate* of item `i − w` (its slot's previous occupant), so
//! a [`crate::config::MemoryBudget`] caps `w` toward 1 — concurrency
//! degrades before recursion depth does, the same degradation order the
//! parallel slab uses. `ModgemmConfig::batch_window = 0` auto-sizes the
//! window: `2 · workers` on the pool, 1 inline.

use core::mem::size_of;

use modgemm_mat::view::required_len;
use modgemm_mat::{MatMut, MatRef, Op, Scalar};

use crate::config::{ModgemmConfig, NonFinitePolicy, VerifyMode};
use crate::error::{GemmError, Operand};
use crate::gemm::GemmContext;
use crate::metrics::{MetricsSink, NoopSink};
use crate::plan::{run_on_context, GemmPlan, TaskGraph, TiledPlan};
use crate::pool::{BatchInput, CancelToken, GraphIo, IoSpec, ItemIo};

/// The strided operand description of one batched call, mirroring
/// `cblas_*gemm_batch_strided`: item `i`'s `A` starts at `a[i·stride_a]`
/// (likewise `B`), its `C` at `c[i·stride_c]` in the `c` slice passed
/// alongside. `stride_a`/`stride_b` may be `0` to broadcast one operand
/// across the batch; `stride_c` must keep the output windows disjoint.
#[derive(Clone, Copy, Debug)]
pub struct StridedBatch<'x, S> {
    /// Scales the product.
    pub alpha: S,
    /// Transposition applied to every item's `A`.
    pub op_a: Op,
    /// All items' `A` data.
    pub a: &'x [S],
    /// Leading dimension of each item's `A`.
    pub lda: usize,
    /// Element offset between consecutive items' `A` (0 broadcasts).
    pub stride_a: usize,
    /// Transposition applied to every item's `B`.
    pub op_b: Op,
    /// All items' `B` data.
    pub b: &'x [S],
    /// Leading dimension of each item's `B`.
    pub ldb: usize,
    /// Element offset between consecutive items' `B` (0 broadcasts).
    pub stride_b: usize,
    /// Scales the existing `C` contents.
    pub beta: S,
    /// Leading dimension of each item's `C`.
    pub ldc: usize,
    /// Element offset between consecutive items' `C`; at least
    /// `required_len(m, n, ldc)` when the batch has more than one item.
    pub stride_c: usize,
}

/// A precompiled whole-batch execution plan for `batch` GEMMs of one
/// `m × k × n` shape under one [`ModgemmConfig`].
///
/// Compile once with [`BatchPlan::try_new`], execute repeatedly with
/// [`BatchPlan::try_execute`] against a warm [`GemmContext`] — repeated
/// executions are allocation-free, like the single-GEMM plan. The
/// convenience wrappers [`crate::blas::try_gemm_batch_strided`] /
/// [`crate::blas::gemm_batch_strided`] plan-and-execute in one call.
///
/// ```
/// use modgemm_core::{BatchPlan, GemmContext, ModgemmConfig, StridedBatch};
/// use modgemm_mat::Op;
///
/// let cfg = ModgemmConfig::default();
/// let plan: BatchPlan<f64> = BatchPlan::try_new(4, 4, 4, 3, &cfg).unwrap();
/// let a = vec![1.0; 16 * 3];
/// let b = vec![2.0; 16 * 3];
/// let mut c = vec![0.0; 16 * 3];
/// let desc = StridedBatch {
///     alpha: 1.0, op_a: Op::NoTrans, a: &a, lda: 4, stride_a: 16,
///     op_b: Op::NoTrans, b: &b, ldb: 4, stride_b: 16,
///     beta: 0.0, ldc: 4, stride_c: 16,
/// };
/// let mut ctx = GemmContext::new();
/// plan.try_execute(&desc, &mut c, &mut ctx).unwrap();
/// assert!(c.iter().all(|&x| x == 8.0));
/// ```
#[derive(Clone, Debug)]
pub struct BatchPlan<S> {
    item: GemmPlan<S>,
    batch: usize,
    /// The whole batch lowered into one task graph; `None` when the item
    /// plan has no tiled strategy (§3.5-split or degenerate shapes).
    graph: Option<TaskGraph>,
}

impl<S: Scalar> BatchPlan<S> {
    /// Compiles a batch plan: one item plan (truncation search, layout
    /// tree, arenas) plus the whole-batch task graph with a
    /// budget-capped in-flight window.
    pub fn try_new(
        m: usize,
        k: usize,
        n: usize,
        batch: usize,
        cfg: &ModgemmConfig,
    ) -> Result<Self, GemmError> {
        Self::from_plan(GemmPlan::try_new(m, k, n, cfg)?, batch)
    }

    /// Wraps an existing item plan (e.g. one from a service plan cache)
    /// into a batch plan for `batch` items.
    pub fn from_plan(item: GemmPlan<S>, batch: usize) -> Result<Self, GemmError> {
        let (m, k, n) = item.dims();
        // The window derives from the *effective* config — a tuning
        // profile may pin `batch_window` per shape — while the plan
        // itself stores the caller's config, same split as `GemmPlan`.
        let (eff, _) = crate::tune::effective_config(item.config(), m, k, n)?;
        let graph =
            item.tiled().map(|tp| tp.lower_items(batch, resolve_window::<S>(&eff, tp, batch)));
        Ok(BatchPlan { item, batch, graph })
    }

    /// The per-item plan the batch was compiled around.
    pub fn item_plan(&self) -> &GemmPlan<S> {
        &self.item
    }

    /// The number of items the plan was compiled for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The in-flight window: how many items' workspaces are admitted
    /// concurrently. 1 for split or degenerate item plans.
    pub fn window(&self) -> usize {
        self.graph.as_ref().map_or(1, |g| g.window)
    }

    /// Tasks in the whole-batch graph — positive for every tiled item
    /// plan and batch ≥ 1, at any thread count; 0 for split or
    /// degenerate item plans, which run the per-item loop. Drives
    /// cancellation sweep tests.
    pub fn parallel_tasks(&self) -> usize {
        self.graph.as_ref().map_or(0, |g| g.tasks.len())
    }

    /// Elements of the packed A, B and C arenas and of the workspace the
    /// batch graph carves from a context, or `None` when the item plan is
    /// split or degenerate — the service's admission estimate.
    pub(crate) fn buffer_lens(&self) -> Option<[usize; 4]> {
        self.graph.as_ref().map(TaskGraph::buffer_lens)
    }

    /// Executes the batch: `C_i ← α·op(A_i)·op(B_i) + β·C_i` for every
    /// item. See [`StridedBatch`] for the operand encoding.
    pub fn try_execute(
        &self,
        desc: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
    ) -> Result<(), GemmError> {
        self.try_execute_impl(desc, c, ctx, None, &mut NoopSink)
    }

    /// [`BatchPlan::try_execute`] reporting execution metrics (including
    /// `batch_items` / `batch_window` / `conversion_overlap_fraction`)
    /// through `sink`.
    pub fn try_execute_with_metrics<K: MetricsSink>(
        &self,
        desc: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        self.try_execute_impl(desc, c, ctx, None, sink)
    }

    /// Cancellable [`BatchPlan::try_execute_with_metrics`]: the token is
    /// checked before every task of the batch graph (and between items
    /// of the per-item loop); on cancellation the context remains
    /// reusable.
    pub fn try_execute_cancellable_with_metrics<K: MetricsSink>(
        &self,
        desc: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
        cancel: &CancelToken,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        self.try_execute_impl(desc, c, ctx, Some(cancel), sink)
    }

    fn try_execute_impl<K: MetricsSink>(
        &self,
        d: &StridedBatch<'_, S>,
        c: &mut [S],
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        if self.batch == 0 {
            return Ok(());
        }
        let (m, k, n) = self.item.dims();
        let (ar, ac) = d.op_a.apply_dims(m, k);
        let (br, bc) = d.op_b.apply_dims(k, n);
        // Validate EVERY operand of EVERY item before touching any
        // output: a strided batch's per-item geometry is uniform, so the
        // whole batch is covered by one leading-dimension check and one
        // last-item length check per operand.
        check_strided(Operand::A, d.a.len(), ar, ac, d.lda, d.stride_a, self.batch)?;
        check_strided(Operand::B, d.b.len(), br, bc, d.ldb, d.stride_b, self.batch)?;
        check_strided(Operand::C, c.len(), m, n, d.ldc, d.stride_c, self.batch)?;
        let c_item = required_len(m, n, d.ldc);
        if self.batch > 1 && d.stride_c < c_item {
            return Err(GemmError::BatchOverlap { stride: d.stride_c, needed: c_item });
        }
        let (lda, ldb, ldc) = (d.lda, d.ldb, d.ldc);
        let base = ItemIo { a: d.a.as_ptr(), lda, b: d.b.as_ptr(), ldb, c: c.as_mut_ptr(), ldc };
        let input = BatchInput::Strided { base, stride: [d.stride_a, d.stride_b, d.stride_c] };
        let (ops, dims) = ((d.op_a, d.op_b), self.item.dims());
        let spec = IoSpec { input, dims, ops, alpha: d.alpha, beta: d.beta };
        // SAFETY: the checks above put every item's windows inside the
        // borrowed slices and keep the C windows disjoint; `a`/`b` are
        // shared borrows and `c` an exclusive one, all held for the call.
        unsafe { self.execute_spec(spec, ctx, cancel, sink) }
    }

    /// Executes the batch over an explicit per-item pointer table — the
    /// [`crate::service::GemmService`] coalescing path, where items live
    /// in unrelated request buffers.
    ///
    /// # Safety
    ///
    /// Every `ItemIo` must point to operands of this plan's `m × k × n`
    /// shape (under `op_a`/`op_b`) with valid leading dimensions, live
    /// for the whole call, and with all `c` windows mutually disjoint
    /// and disjoint from every `a`/`b`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn try_execute_items<K: MetricsSink>(
        &self,
        op_a: Op,
        op_b: Op,
        alpha: S,
        beta: S,
        items: &[ItemIo<S>],
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        if items.len() != self.batch {
            return Err(GemmError::BatchLenMismatch {
                a: items.len(),
                b: items.len(),
                c: self.batch,
            });
        }
        let input = BatchInput::Items(items.as_ptr());
        let spec = IoSpec { input, dims: self.item.dims(), ops: (op_a, op_b), alpha, beta };
        self.execute_spec(spec, ctx, cancel, sink)
    }

    /// Runs validated items: the batch graph, or — for what the graph
    /// does not cover (verification retries, non-finite scans, the α = 0
    /// early-out, split or degenerate item plans) — the per-item loop,
    /// which is also the semantic reference the property tests pin the
    /// graph against.
    ///
    /// # Safety
    /// As [`Self::try_execute_items`], for every item of `spec.input`.
    unsafe fn execute_spec<K: MetricsSink>(
        &self,
        spec: IoSpec<S>,
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        if let Some(token) = cancel {
            token.check()?;
        }
        let cfg = self.item.config();
        let graph = self.graph.as_ref().filter(|_| {
            cfg.verify == VerifyMode::Off
                && cfg.non_finite == NonFinitePolicy::Propagate
                && spec.alpha != S::ZERO
        });
        match (graph, self.item.tiled()) {
            (Some(graph), Some(tp)) => {
                self.run_graph(graph, tp, GraphIo::from_raw(spec), ctx, cancel, sink)
            }
            _ => self.execute_serial(spec, ctx, cancel, sink),
        }
    }

    /// The per-item loop: one planned execution per item on the shared
    /// context, outputs written in batch order.
    ///
    /// # Safety
    /// As [`Self::try_execute_items`], for every item of `spec.input`.
    unsafe fn execute_serial<K: MetricsSink>(
        &self,
        spec: IoSpec<S>,
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        let IoSpec { input, dims: (m, k, n), ops: (op_a, op_b), alpha, beta } = spec;
        let (ar, ac) = op_a.apply_dims(m, k);
        let (br, bc) = op_b.apply_dims(k, n);
        for i in 0..self.batch {
            let it = input.item(i);
            let av = MatRef::from_raw_parts(it.a, ar, ac, it.lda);
            let bv = MatRef::from_raw_parts(it.b, br, bc, it.ldb);
            let cv = MatMut::from_raw_parts(it.c, m, n, it.ldc);
            let res = match cancel {
                Some(token) => self.item.try_execute_cancellable_with_metrics(
                    alpha, op_a, av, op_b, bv, beta, cv, ctx, token, sink,
                ),
                None => self
                    .item
                    .try_execute_with_metrics(alpha, op_a, av, op_b, bv, beta, cv, ctx, sink),
            };
            res.map(|_| ()).map_err(|e| match e {
                // Cancellation is a batch-level outcome, same as on the
                // graph path; everything else names the failing item.
                GemmError::Cancelled | GemmError::DeadlineExceeded => e,
                other => GemmError::BatchItem { index: i, source: Box::new(other) },
            })?;
        }
        if K::ENABLED {
            sink.record_batch(self.batch, 1, 0.0);
        }
        Ok(())
    }

    /// Runs the batch graph on `ctx` and books the batch's metrics.
    fn run_graph<K: MetricsSink>(
        &self,
        graph: &TaskGraph,
        tp: &TiledPlan,
        io: GraphIo<'_, S>,
        ctx: &mut GemmContext<S>,
        cancel: Option<&CancelToken>,
        sink: &mut K,
    ) -> Result<(), GemmError> {
        if K::ENABLED {
            let (m, k, n) = self.item.dims();
            let slab = graph.slab_len();
            sink.record_problem(m, k, n);
            sink.record_tuning(self.item.profile_hit());
            // One planned-execution record per batch, one plan-facts
            // record per item: aggregate flop/padding accounting scales
            // with the work actually done.
            sink.record_plan_execution((slab * size_of::<S>()) as u64);
            for _ in 0..self.batch {
                sink.record_plan(tp.facts);
            }
            sink.record_workspace(slab, slab * size_of::<S>());
            sink.record_kernel(tp.policy.kernel);
            sink.record_bytes_packed(
                crate::counts::packed_bytes(tp.layouts, tp.policy, size_of::<S>())
                    * self.batch as u64,
            );
        }
        let times = run_on_context(graph, tp, io, ctx, cancel, sink)?;
        if K::ENABLED {
            sink.record_batch(self.batch, graph.window, times.overlap_fraction);
        }
        Ok(())
    }
}

/// The in-flight window: requested (or, when auto, `2 · workers` on the
/// pool and 1 inline) capped to the batch, then budget-capped so `w`
/// slots of packed operands plus slab fit the
/// [`crate::config::MemoryBudget`] — window admission degrades toward 1
/// before the item plan loses recursion depth.
fn resolve_window<S: Scalar>(eff: &ModgemmConfig, tp: &TiledPlan, batch: usize) -> usize {
    let workers = tp.workers(batch);
    let requested = match eff.batch_window {
        0 if workers < 2 => 1,
        0 => 2 * workers,
        w => w,
    };
    let per_slot = crate::counts::batch_slot_elems(tp.layouts, tp.policy, tp.depth);
    crate::counts::batch_window_cap(
        requested.min(batch.max(1)),
        per_slot,
        eff.memory_budget.max_elements(size_of::<S>()),
    )
}

/// One leading-dimension check plus one whole-batch length check for a
/// strided operand (per-item geometry is uniform, so the last item's
/// window bounds every other item's).
fn check_strided(
    operand: Operand,
    data_len: usize,
    rows: usize,
    cols: usize,
    ld: usize,
    stride: usize,
    batch: usize,
) -> Result<(), GemmError> {
    let min = rows.max(1);
    if ld < min {
        return Err(GemmError::BadLeadingDim { operand, ld, min });
    }
    let one = required_len(rows, cols, ld);
    let needed =
        (batch - 1).checked_mul(stride).and_then(|off| off.checked_add(one)).unwrap_or(usize::MAX);
    if data_len < needed {
        return Err(GemmError::SliceTooShort { operand, needed, got: data_len });
    }
    Ok(())
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::metrics::CollectingSink;

    fn cfg_threads(threads: usize) -> ModgemmConfig {
        ModgemmConfig { threads, ..Default::default() }
    }

    fn filled(len: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..len).map(f).collect()
    }

    /// Serial per-item reference over the same strided encoding.
    fn reference(plan: &GemmPlan<f64>, d: &StridedBatch<'_, f64>, c: &mut [f64], batch: usize) {
        let (m, k, n) = plan.dims();
        let (ar, ac) = d.op_a.apply_dims(m, k);
        let (br, bc) = d.op_b.apply_dims(k, n);
        let mut ctx = GemmContext::new();
        for i in 0..batch {
            let av = MatRef::from_slice(
                &d.a[i * d.stride_a..i * d.stride_a + required_len(ar, ac, d.lda)],
                ar,
                ac,
                d.lda,
            );
            let bv = MatRef::from_slice(
                &d.b[i * d.stride_b..i * d.stride_b + required_len(br, bc, d.ldb)],
                br,
                bc,
                d.ldb,
            );
            let cv = MatMut::from_slice(
                &mut c[i * d.stride_c..i * d.stride_c + required_len(m, n, d.ldc)],
                m,
                n,
                d.ldc,
            );
            plan.try_execute(d.alpha, d.op_a, av, d.op_b, bv, d.beta, cv, &mut ctx).unwrap();
        }
    }

    #[test]
    fn batch_dag_matches_serial_reference() {
        // At every thread count and batch size a tiled item plan lowers to
        // one graph — inline with one worker (auto window 1), pooled when
        // the batch gives two or more workers something to overlap — that
        // matches the per-item loop.
        let (m, k, n) = (24, 20, 28);
        for (threads, batch) in [(1usize, 1usize), (1, 5), (3, 1), (3, 5)] {
            let plan: BatchPlan<f64> =
                BatchPlan::try_new(m, k, n, batch, &cfg_threads(threads)).expect("valid plan");
            let graph = plan.graph.as_ref().expect("every tiled batch lowers to a graph");
            let pooled = threads >= 2 && batch >= 2;
            assert_eq!(graph.workers, if pooled { threads } else { 1 });
            assert!(pooled || plan.window() == 1, "the auto window is 1 inline");
            // Ragged leading dimensions, padded strides, and op(B) = Bᵀ
            // (stored n × k): the converts must honor all of it.
            let (lda, ldb, ldc) = (m + 1, n + 2, m + 3);
            let sa = required_len(m, k, lda) + 5;
            let sb = required_len(n, k, ldb) + 2;
            let sc = required_len(m, n, ldc) + 1;
            let a = filled((batch - 1) * sa + required_len(m, k, lda), |i| (i % 13) as f64 - 6.0);
            let b = filled((batch - 1) * sb + required_len(n, k, ldb), |i| (i % 7) as f64 * 0.5);
            let c0 = filled((batch - 1) * sc + required_len(m, n, ldc), |i| (i % 5) as f64);
            let desc = StridedBatch {
                alpha: 1.25,
                op_a: Op::NoTrans,
                a: &a,
                lda,
                stride_a: sa,
                op_b: Op::Trans,
                b: &b,
                ldb,
                stride_b: sb,
                beta: -0.5,
                ldc,
                stride_c: sc,
            };
            let mut got = c0.clone();
            let mut want = c0.clone();
            let mut sink = CollectingSink::default();
            plan.try_execute_with_metrics(&desc, &mut got, &mut GemmContext::new(), &mut sink)
                .unwrap();
            reference(plan.item_plan(), &desc, &mut want, batch);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "elem {i}: {g} vs {w}");
            }
            let metrics = sink.into_metrics();
            assert_eq!((metrics.batch_items, metrics.batch_window), (batch as u64, plan.window()));
        }
    }

    #[test]
    fn window_respects_budget_and_batch() {
        let cfg = cfg_threads(4);
        let plan: BatchPlan<f64> = BatchPlan::try_new(32, 32, 32, 16, &cfg).unwrap();
        // Auto window: 2·threads, capped by batch; budget unlimited.
        assert_eq!(plan.window(), 8);
        let plan: BatchPlan<f64> = BatchPlan::try_new(32, 32, 32, 3, &cfg).unwrap();
        assert_eq!(plan.window(), 3);
        let cfg = ModgemmConfig { batch_window: 2, ..cfg_threads(4) };
        let plan: BatchPlan<f64> = BatchPlan::try_new(32, 32, 32, 16, &cfg).unwrap();
        assert_eq!(plan.window(), 2);
        // A tiny budget degrades the window to 1 (but never kills the
        // batch path outright).
        let cfg = ModgemmConfig {
            memory_budget: crate::config::MemoryBudget::MaxWorkspaceBytes(1),
            ..cfg_threads(4)
        };
        let plan: BatchPlan<f64> = BatchPlan::try_new(32, 32, 32, 16, &cfg).unwrap();
        assert_eq!(plan.window(), 1);
    }

    #[test]
    fn strided_validation_is_total_and_typed() {
        let cfg = cfg_threads(1);
        let plan: BatchPlan<f64> = BatchPlan::try_new(4, 4, 4, 3, &cfg).unwrap();
        let a = vec![0.0; 48];
        let b = vec![0.0; 48];
        let good = StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: &a,
            lda: 4,
            stride_a: 16,
            op_b: Op::NoTrans,
            b: &b,
            ldb: 4,
            stride_b: 16,
            beta: 0.0,
            ldc: 4,
            stride_c: 16,
        };
        let mut ctx = GemmContext::new();
        // Bad ld on A.
        let mut c = vec![1.0; 48];
        let d = StridedBatch { lda: 3, ..good };
        assert!(matches!(
            plan.try_execute(&d, &mut c, &mut ctx),
            Err(GemmError::BadLeadingDim { operand: Operand::A, ld: 3, min: 4 })
        ));
        // Last item's B window missing: typed, and C untouched even
        // though items 0..1 were individually valid.
        let d = StridedBatch { b: &b[..40], ..good };
        assert!(matches!(
            plan.try_execute(&d, &mut c, &mut ctx),
            Err(GemmError::SliceTooShort { operand: Operand::B, .. })
        ));
        assert!(c.iter().all(|&x| x == 1.0), "no output may be written before validation");
        // Overlapping C windows are rejected.
        let d = StridedBatch { stride_c: 15, ..good };
        assert!(matches!(
            plan.try_execute(&d, &mut c, &mut ctx),
            Err(GemmError::BatchOverlap { stride: 15, needed: 16 })
        ));
        // Broadcast A (stride 0) is legal.
        let d = StridedBatch { stride_a: 0, ..good };
        plan.try_execute(&d, &mut c, &mut ctx).unwrap();
    }

    #[test]
    fn empty_and_degenerate_batches_are_benign() {
        let cfg = cfg_threads(2);
        let plan: BatchPlan<f64> = BatchPlan::try_new(4, 4, 4, 0, &cfg).unwrap();
        let mut ctx = GemmContext::new();
        let d = StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: &[],
            lda: 4,
            stride_a: 0,
            op_b: Op::NoTrans,
            b: &[],
            ldb: 4,
            stride_b: 0,
            beta: 0.0,
            ldc: 4,
            stride_c: 0,
        };
        plan.try_execute(&d, &mut [], &mut ctx).unwrap();
        // k = 0 has no tiled strategy, hence no graph: the per-item loop
        // applies the β scaling.
        let plan: BatchPlan<f64> = BatchPlan::try_new(2, 0, 2, 2, &cfg).unwrap();
        assert_eq!(plan.parallel_tasks(), 0);
        let mut c = vec![2.0; 8];
        let d = StridedBatch { ldc: 2, stride_c: 4, beta: 0.5, ..d };
        plan.try_execute(&d, &mut c, &mut ctx).unwrap();
        assert!(c.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn repeated_batch_execution_is_allocation_free() {
        let (m, k, n, batch) = (32, 32, 32, 6);
        let cfg = cfg_threads(2);
        let plan: BatchPlan<f64> = BatchPlan::try_new(m, k, n, batch, &cfg).unwrap();
        assert!(plan.parallel_tasks() > 0);
        let one = m * k;
        let a = filled(batch * one, |i| (i % 9) as f64);
        let b = filled(batch * k * n, |i| (i % 4) as f64);
        let mut c = vec![0.0; batch * m * n];
        let d = StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: &a,
            lda: m,
            stride_a: one,
            op_b: Op::NoTrans,
            b: &b,
            ldb: k,
            stride_b: k * n,
            beta: 0.0,
            ldc: m,
            stride_c: m * n,
        };
        let mut ctx = GemmContext::new();
        plan.try_execute(&d, &mut c, &mut ctx).unwrap();
        let mut sink = CollectingSink::default();
        plan.try_execute_with_metrics(&d, &mut c, &mut ctx, &mut sink).unwrap();
        let metrics = sink.into_metrics();
        assert_eq!(metrics.temp_alloc_bytes, 0, "warm batch execution must not allocate");
        assert_eq!(metrics.batch_items, batch as u64);
        assert!(metrics.conversion_overlap_fraction >= 0.0);
    }

    #[test]
    fn batch_cancellation_drains_and_context_survives() {
        let (m, k, n, batch) = (24, 24, 24, 4);
        let cfg = cfg_threads(2);
        let plan: BatchPlan<f64> = BatchPlan::try_new(m, k, n, batch, &cfg).unwrap();
        let tasks = plan.parallel_tasks();
        assert!(tasks > 0);
        let a = filled(batch * m * k, |i| (i % 11) as f64);
        let b = filled(batch * k * n, |i| (i % 6) as f64);
        let c0 = vec![0.25; batch * m * n];
        let d = StridedBatch {
            alpha: 1.0,
            op_a: Op::NoTrans,
            a: &a,
            lda: m,
            stride_a: m * k,
            op_b: Op::NoTrans,
            b: &b,
            ldb: k,
            stride_b: k * n,
            beta: 0.0,
            ldc: m,
            stride_c: m * n,
        };
        let mut want = c0.clone();
        reference(plan.item_plan(), &d, &mut want, batch);
        let mut ctx = GemmContext::new();
        // Trip mid-DAG, then prove the context is still good.
        let token = CancelToken::cancelling_after(tasks as u64 / 2);
        let mut got = c0.clone();
        let res = plan.try_execute_cancellable_with_metrics(
            &d,
            &mut got,
            &mut ctx,
            &token,
            &mut NoopSink,
        );
        assert!(matches!(res, Err(GemmError::Cancelled)));
        let mut got = c0;
        plan.try_execute(&d, &mut got, &mut ctx).unwrap();
        assert_eq!(got, want, "post-cancel reuse must produce exact results");
    }
}
