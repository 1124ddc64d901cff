//! Phase cost model: prefill and decode steps priced by the graph compiler.
//!
//! Every phase is a real `gaudi-graph` compute graph compiled through the
//! existing `gaudi-compiler`/`gaudi-hw` cost models, so serving latencies
//! inherit the paper's calibration: prefill GEMMs amortize the MME's
//! launch overhead over a whole prompt, while decode's batched GEMVs sit
//! on the small-matmul launch-overhead floor of Table 2 — per-token cost
//! explodes and the busy-time balance tilts toward the MME.
//!
//! Compiling a graph per simulated step would dwarf the simulation itself,
//! so compiled costs are memoized — the serving analog of SynapseAI's
//! recipe cache, and the reason phase shapes are bucketed at all
//! ([`CostModel::shape`], the one place that buckets them). A memo entry
//! is the [`PhaseCost`] alone, the only part of a compile the simulation
//! reads: every cold shape is built into the [`PlanCache`]'s one
//! workspace graph, handed to the compiler by value and taken back, and
//! the scheduler's steps are folded into the cost as it places them, so
//! no plan is collected and no memory plan is made. Memoization is
//! two-level:
//!
//! * each [`CostModel`] is one replica's recipe table: one entry per phase
//!   [`Shape`] it has priced, holding the phase's cost and whether the
//!   replica has paid that shape's recipe warmup ([`RecipeConfig`]) — a
//!   lock-free `HashMap` hit on every simulated phase;
//! * table misses fall through to the [`PlanCache`] of the model's
//!   [`CostContext`], keyed by the full
//!   `(model/hardware/options/bucket/partition fingerprint, shape)` —
//!   shareable across data-parallel replicas and across sweep
//!   configuration points, so the compiler runs **once per distinct shape
//!   process-wide** instead of once per replica per point.
//!
//! The cache is safe to share between threads (the engine's replicas run
//! on a [`gaudi_exec::ExecPool`]); a compile happens under the cache lock,
//! so each shape is compiled exactly once no matter how many replicas race
//! to it, and every caller reads the same cost, bit for bit. The lock also
//! guards the workspace graph the cache lends each compile.
//!
//! The memory planner has one reader: the activation footprint that
//! [`ActivationBudget`](crate::ActivationBudget) admission reserves. Its
//! estimate compiles the two worst-case shapes afresh with the planner
//! and caches nothing.

use crate::engine::ServingConfig;
use crate::error::ServingError;
use crate::idhash::IdMap;
use gaudi_compiler::{GraphCompiler, PlannedOp};
use gaudi_graph::Graph;
use gaudi_hw::EngineId;
use gaudi_models::decode::{build_decode_step_into, build_prefill_into};
use gaudi_models::LlmConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Compiled cost of one phase execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCost {
    /// Wall time of the phase on the simulated device, ms.
    pub ms: f64,
    /// MME busy time, ns.
    pub mme_busy_ns: f64,
    /// TPC-cluster busy time, ns.
    pub tpc_busy_ns: f64,
    /// DMA busy time, ns.
    pub dma_busy_ns: f64,
    /// NIC (collective) busy time, ns — nonzero only for multi-card plans.
    pub nic_busy_ns: f64,
}

impl PhaseCost {
    /// Add one scheduled step's duration to its engine's busy time.
    fn charge(&mut self, step: &PlannedOp) {
        match step.engine {
            EngineId::Mme => self.mme_busy_ns += step.dur_ns,
            EngineId::TpcCluster => self.tpc_busy_ns += step.dur_ns,
            EngineId::Dma(_) => self.dma_busy_ns += step.dur_ns,
            EngineId::Nic => self.nic_busy_ns += step.dur_ns,
            EngineId::Host => {}
        }
    }
}

/// Which phase graph a cache entry prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Whole-prompt forward pass (emits the first output token).
    Prefill,
    /// One batched single-token decode step.
    Decode,
}

/// One phase as a replica runs it, built by [`CostModel::shape`]: the key
/// of the replica's recipe table and of the shared [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Which phase graph.
    pub phase: Phase,
    /// Sequences the phase is priced for, padding included.
    pub batch: usize,
    /// Prompt or longest context, rounded up to the context bucket, tokens.
    pub len: usize,
}

impl Shape {
    /// Token slots the phase computes (`batch × len`), padding included.
    pub(crate) fn slots(&self) -> usize {
        self.batch * self.len
    }
}

/// Full identity of a compiled phase plan. The `config` component is a
/// collision-free fingerprint of everything else that shapes the plan:
/// model configuration, hardware model, compiler options, context bucket,
/// and partition spec (serving phases are single-card, so the partition
/// component is currently the constant `1-card replica`; a future
/// tensor-parallel serving path would put its `PartitionSpec` here).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    config: Arc<str>,
    shape: Shape,
}

/// Running totals of a [`PlanCache`]'s effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered without compiling.
    pub hits: u64,
    /// Lookups that compiled a new plan.
    pub misses: u64,
    /// Distinct plans currently cached (== `misses` unless cleared).
    pub entries: usize,
}

/// A keyed, thread-safe memo of compiled phase costs.
///
/// The compile closure runs under the cache lock, so every distinct
/// [`PlanKey`] is compiled exactly once even when many replicas race to
/// the same cold shape, and all of them read the same cost.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    map: HashMap<PlanKey, PhaseCost>,
    /// The graph every cold shape is built into, lent to one compile at a
    /// time under the lock: its node storage outlives each build, so a
    /// shape no larger than an earlier one allocates no node vector.
    workspace: Graph,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The cache's state, taken from a poisoned lock too: a compile that
    /// panicked leaves nothing a later call reads. The map and the counters
    /// change only after a compile returns, and every build clears the
    /// workspace graph before it builds into it (`CostContext::cost` even
    /// takes the graph by value, leaving an empty one behind a panic).
    fn lock(&self) -> MutexGuard<'_, PlanCacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch `key`, compiling (and memoizing) it on first sight. `compile`
    /// gets the cache's workspace graph to build the shape into, and must
    /// leave a graph there for the next cold shape. A `compile` that
    /// panics memoizes nothing, and the cache stays usable.
    pub fn get_or_compile(
        &self,
        key: PlanKey,
        compile: impl FnOnce(&mut Graph) -> Result<PhaseCost, ServingError>,
    ) -> Result<PhaseCost, ServingError> {
        let mut inner = self.lock();
        if let Some(&hit) = inner.map.get(&key) {
            inner.hits += 1;
            return Ok(hit);
        }
        // Compile under the lock: a cold shape is compiled exactly once.
        let cost = compile(&mut inner.workspace)?;
        inner.misses += 1;
        inner.map.insert(key, cost);
        Ok(cost)
    }

    /// Distinct plans cached.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/entry counters, for benchmarking and reports.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
        }
    }
}

/// Quantitative model of SynapseAI recipe-cache warmup.
///
/// The [`PlanCache`]/[`CostModel`] memos above keep the *simulation* fast;
/// this models what recipe compilation costs the *simulated device*. The
/// first time a replica runs a phase [`Shape`] the host compiles a
/// recipe, and that latency lands on the request stream. A fresh replica
/// starts cold; a restarted replica (the `kill_for` path) loses its recipe
/// table ([`CostModel`]) and pays warmup again.
///
/// `batch_bucket` is the knob the HPU serving stack exposes as batch-size
/// bucketing: coarser buckets mean fewer distinct recipes (fewer warmup
/// stalls) but every decode step is padded up to the bucket and priced at
/// the padded batch — the padding-waste vs. cache-miss tradeoff the `kv`
/// experiment of the `sweeps` binary measures.
#[derive(Debug, Clone, PartialEq)]
pub struct RecipeConfig {
    /// Host-side recipe-compile latency charged on the first use of each
    /// shape per replica, ms. `0.0` disables warmup.
    pub compile_ms: f64,
    /// Decode batch sizes are rounded up to a multiple of this before
    /// keying (and pricing) the step. `1` = exact batches.
    pub batch_bucket: usize,
}

impl Default for RecipeConfig {
    /// Warmup off, exact batches — the legacy cost model, bit-identical
    /// to reports produced before the recipe model existed.
    fn default() -> Self {
        RecipeConfig {
            compile_ms: 0.0,
            batch_bucket: 1,
        }
    }
}

impl RecipeConfig {
    /// Round a batch size up to its bucket.
    pub fn bucketed_batch(&self, batch: usize) -> usize {
        round_up(batch.max(1), self.batch_bucket)
    }

    /// Reject malformed warmup parameters before a simulation starts.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_bucket == 0 {
            return Err("recipe batch_bucket must be at least 1".into());
        }
        if !self.compile_ms.is_finite() || self.compile_ms < 0.0 {
            return Err(format!(
                "recipe compile_ms must be finite and non-negative, got {}",
                self.compile_ms
            ));
        }
        Ok(())
    }
}

/// `n` rounded up to a multiple of `bucket` (at least 1). Every phase is
/// shaped through it, so a power-of-two bucket (the exact-batch `1`
/// included) rounds with a mask instead of a division.
fn round_up(n: usize, bucket: usize) -> usize {
    if bucket.is_power_of_two() {
        (n + bucket - 1) & !(bucket - 1)
    } else {
        n.div_ceil(bucket) * bucket
    }
}

/// Everything needed to compile, shape and price phases for one serving
/// configuration: immutable and `Sync`, built once per serving simulation
/// (or once per sweep) and shared by `Arc` across all replica
/// [`CostModel`]s — replicas do not clone the model, hardware, and option
/// structs apiece.
#[derive(Debug)]
pub struct CostContext {
    compiler: GraphCompiler,
    model: LlmConfig,
    /// Context/prompt lengths are rounded up to a multiple of this before
    /// graph construction, bounding the number of distinct compilations.
    bucket: usize,
    /// Decode batch bucketing and the first-run recipe warmup.
    recipes: RecipeConfig,
    /// Decode slot count: no batch is padded past it.
    max_batch: usize,
    /// Collision-free identity of this configuration inside [`PlanCache`]
    /// keys (the cache may be shared across differently-configured sweep
    /// points).
    fingerprint: Arc<str>,
    cache: Arc<PlanCache>,
}

impl CostContext {
    /// Context for `cfg`'s model on its hardware under its compiler
    /// options, shaping phases by its `ctx_bucket`, `recipes` and
    /// `max_batch`, and memoizing into `cache` (pass one `Arc` to every
    /// point of a sweep to share plans across it).
    pub fn new(cfg: &ServingConfig, cache: Arc<PlanCache>) -> Self {
        let (model, hw, opts, bucket) = (&cfg.model, &cfg.hw, &cfg.opts, cfg.ctx_bucket);
        assert!(bucket > 0, "bucket must be positive");
        let fingerprint: Arc<str> = format!(
            "model={model:?}|hw={hw:?}|opts={opts:?}|bucket={bucket}|partition=1-card replica"
        )
        .into();
        CostContext {
            compiler: GraphCompiler::new(hw.clone(), opts.clone()),
            model: model.clone(),
            bucket,
            recipes: cfg.recipes.clone(),
            max_batch: cfg.max_batch,
            fingerprint,
            cache,
        }
    }

    /// Build the phase graph of `shape` into `g`, replacing what it held.
    fn build(&self, shape: Shape, g: &mut Graph) -> Result<(), ServingError> {
        let Shape { phase, batch, len } = shape;
        match phase {
            Phase::Prefill => build_prefill_into(&self.model, batch, len, g).map(drop)?,
            Phase::Decode => build_decode_step_into(&self.model, batch, len, g).map(drop)?,
        }
        Ok(())
    }

    /// Compile-or-fetch one phase shape's cost. A cold shape is built into
    /// the cache's workspace graph, handed to the compiler by value (the
    /// passes rewrite it in place) and taken back. The scheduler's steps
    /// are charged to the cost in issue order as it places them, the order
    /// a collected plan lists them in, so no plan is collected.
    fn cost(&self, shape: Shape) -> Result<PhaseCost, ServingError> {
        let key = PlanKey {
            config: Arc::clone(&self.fingerprint),
            shape,
        };
        self.cache.get_or_compile(key, |workspace| {
            self.build(shape, workspace)?;
            let mut cost = PhaseCost::default();
            let (graph, makespan_ns) = self
                .compiler
                .compile_streamed(std::mem::take(workspace), |step| cost.charge(&step))?;
            *workspace = graph;
            cost.ms = makespan_ns / 1e6;
            Ok(cost)
        })
    }
}

/// One replica's recipe table over a shared [`CostContext`]: every phase
/// [`Shape`] the replica has priced, with its cost and whether the replica
/// has run it yet (paid its recipe warmup). A restarted replica gets a
/// fresh, cold table.
pub struct CostModel {
    ctx: Arc<CostContext>,
    table: IdMap<Shape, (PhaseCost, bool)>,
}

impl CostModel {
    /// Cost model for `cfg` with a private plan cache. To share compiled
    /// plans across replicas or sweep points, build one [`CostContext`]
    /// and use [`with_context`](Self::with_context) instead.
    pub fn new(cfg: &ServingConfig) -> Self {
        Self::with_context(Arc::new(CostContext::new(cfg, Arc::new(PlanCache::new()))))
    }

    /// A cold table over a shared compile context: cheap to construct (no
    /// config clones), and plan compilations are shared with every other
    /// model on the same context.
    pub fn with_context(ctx: Arc<CostContext>) -> Self {
        CostModel {
            ctx,
            table: IdMap::default(),
        }
    }

    /// The shape a `phase` over `batch` sequences runs at, whose prompt or
    /// longest context is `len` tokens — the one place phase shapes are
    /// bucketed. Lengths round up to the context bucket; a decode batch is
    /// padded up to the recipe batch bucket, but never past the slot
    /// count.
    pub fn shape(&self, phase: Phase, batch: usize, len: usize) -> Shape {
        let ctx = &self.ctx;
        let batch = match phase {
            Phase::Prefill => batch,
            Phase::Decode => ctx.recipes.bucketed_batch(batch).min(ctx.max_batch),
        };
        let len = round_up(len.max(1), ctx.bucket);
        Shape { phase, batch, len }
    }

    /// The compiled cost of `shape` and whether this replica has run it
    /// (paid its recipe warmup), from one probe of the table. A shape the
    /// table lacks is fetched from the shared [`PlanCache`] — bit-equal
    /// for every caller that asks for the same shape — and enters the
    /// table cold. Pricing a shape does not warm it: a phase that runs a
    /// cold shape calls [`warm`](Self::warm), and one dropped after
    /// pricing leaves it cold.
    pub fn compiled(&mut self, shape: Shape) -> Result<(PhaseCost, bool), ServingError> {
        if let Some(&hit) = self.table.get(&shape) {
            return Ok(hit);
        }
        let cost = self.ctx.cost(shape)?;
        self.table.insert(shape, (cost, false));
        Ok((cost, false))
    }

    /// Activation workspace of `shape` as `(planned, naive)` bytes: the
    /// memory planner's packed-arena extent (what planned admission
    /// reserves) and the sum of every activation tensor in the phase graph
    /// (the no-reuse footprint a planner-less budget must reserve). It
    /// compiles the shape afresh, outside the table and the [`PlanCache`],
    /// which keep costs only. The planner runs on the *scheduled* graph
    /// (after lowering/DCE/fusion), so the footprint matches what the plan
    /// executes.
    pub(crate) fn activation_bytes(&self, shape: Shape) -> Result<(u64, u64), ServingError> {
        let ctx = &self.ctx;
        let mut graph = Graph::new();
        ctx.build(shape, &mut graph)?;
        let (_, _, mem) = ctx.compiler.compile_with_memplan(graph)?;
        Ok((mem.arena_bytes, mem.naive_bytes))
    }

    /// Run `shape`, which [`compiled`](Self::compiled) has priced: the
    /// first run warms it and returns the recipe warmup it costs, and
    /// every later run costs nothing. The engine calls it only for a shape
    /// its probe found cold.
    pub fn warm(&mut self, shape: Shape) -> f64 {
        match self.table.get_mut(&shape) {
            Some((_, warm)) if !*warm => {
                *warm = true;
                self.ctx.recipes.compile_ms
            }
            _ => 0.0,
        }
    }

    /// Distinct phase shapes this replica has priced, the table's size (a
    /// shared [`CostContext`] may have compiled some of them on another
    /// replica's behalf).
    pub fn compiled_graphs(&self) -> usize {
        self.table.len()
    }

    /// Recipes this replica has compiled: the shapes it has run.
    pub fn recipe_compiles(&self) -> u64 {
        self.table.values().filter(|(_, warm)| *warm).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Phase::{Decode, Prefill};

    /// The tiny model on the default hardware and options, bucketed by
    /// `bucket` tokens.
    fn cfg(bucket: usize) -> ServingConfig {
        ServingConfig::builder()
            .model(LlmConfig::tiny(97))
            .ctx_bucket(bucket)
            .build()
    }

    fn cm() -> CostModel {
        CostModel::new(&cfg(64))
    }

    /// The table entry behind one phase over `batch` sequences at `len`
    /// tokens.
    fn price(m: &mut CostModel, phase: Phase, batch: usize, len: usize) -> PhaseCost {
        let shape = m.shape(phase, batch, len);
        m.compiled(shape).unwrap().0
    }

    /// Every field of `c`, as bits.
    fn bits(c: PhaseCost) -> [u64; 5] {
        [
            c.ms,
            c.mme_busy_ns,
            c.tpc_busy_ns,
            c.dma_busy_ns,
            c.nic_busy_ns,
        ]
        .map(f64::to_bits)
    }

    /// Every field of the cost of `shape` under `cfg` as a fresh compile of
    /// a freshly built graph gives it, as bits: the plan's makespan, and
    /// each engine's step durations summed in the plan's order.
    fn fresh_bits(cfg: &ServingConfig, shape: Shape) -> [u64; 5] {
        let Shape { phase, batch, len } = shape;
        let graph = match phase {
            Prefill => {
                gaudi_models::build_prefill(&cfg.model, batch, len)
                    .unwrap()
                    .0
            }
            Decode => {
                gaudi_models::build_decode_step(&cfg.model, batch, len)
                    .unwrap()
                    .0
            }
        };
        let compiler = GraphCompiler::new(cfg.hw.clone(), cfg.opts.clone());
        let (_, plan) = compiler.compile(graph).unwrap();
        let mut busy = [0.0; 4];
        for step in &plan.steps {
            let lane = match step.engine {
                EngineId::Mme => 0,
                EngineId::TpcCluster => 1,
                EngineId::Dma(_) => 2,
                EngineId::Nic => 3,
                EngineId::Host => continue,
            };
            busy[lane] += step.dur_ns;
        }
        let [mme_busy_ns, tpc_busy_ns, dma_busy_ns, nic_busy_ns] = busy;
        bits(PhaseCost {
            ms: plan.makespan_ns / 1e6,
            mme_busy_ns,
            tpc_busy_ns,
            dma_busy_ns,
            nic_busy_ns,
        })
    }

    #[test]
    fn costs_built_in_one_workspace_equal_fresh_compiles() {
        // The paper GPT, so the DMA and host-stall lanes carry steps too.
        let cfg = ServingConfig::builder().ctx_bucket(64).build();
        let mut m = CostModel::new(&cfg);
        // A large decode, then a small prefill into the graph it left.
        for shape in [m.shape(Decode, 8, 1024), m.shape(Prefill, 1, 10)] {
            assert_eq!(bits(m.compiled(shape).unwrap().0), fresh_bits(&cfg, shape));
        }
        // A shape whose build fails leaves the workspace usable.
        let empty = Shape {
            phase: Prefill,
            batch: 0,
            len: 64,
        };
        assert!(m.compiled(empty).is_err());
        for shape in [
            m.shape(Prefill, 2, 300),
            m.shape(Decode, 1, 64),
            m.shape(Decode, 3, 512),
            m.shape(Prefill, 1, 10),
        ] {
            assert_eq!(bits(m.compiled(shape).unwrap().0), fresh_bits(&cfg, shape));
        }
    }

    #[test]
    fn shapes_round_lengths_up_and_pad_decode_batches_to_the_slot_count() {
        let m = CostModel::new(&ServingConfig {
            max_batch: 10,
            recipes: RecipeConfig {
                compile_ms: 0.0,
                batch_bucket: 4,
            },
            ..cfg(64)
        });
        let len = |len| m.shape(Decode, 1, len).len;
        assert_eq!((len(0), len(1), len(64), len(65)), (64, 64, 64, 128));
        let batch = |phase, batch| m.shape(phase, batch, 1).batch;
        assert_eq!((batch(Decode, 1), batch(Decode, 5)), (4, 8));
        assert_eq!(batch(Decode, 9), 10, "a bucket of 12 would pass 10 slots");
        assert_eq!(batch(Prefill, 1), 1, "prefill batches are never padded");
        assert_eq!(m.shape(Decode, 3, 100).slots(), 4 * 128);
    }

    #[test]
    fn masked_rounding_equals_the_division_for_every_bucket() {
        for bucket in 1..=70 {
            for n in 1..=300 {
                assert_eq!(
                    round_up(n, bucket),
                    n.div_ceil(bucket) * bucket,
                    "{n}, {bucket}"
                );
            }
        }
    }

    #[test]
    fn caching_is_exact_per_bucket() {
        let mut m = cm();
        let a = price(&mut m, Decode, 2, 10);
        let b = price(&mut m, Decode, 2, 60); // same bucket
        assert_eq!(m.compiled_graphs(), 1);
        assert_eq!(a.ms, b.ms);
        let c = price(&mut m, Decode, 2, 70); // next bucket
        assert_eq!(m.compiled_graphs(), 2);
        assert!(c.ms >= a.ms);
    }

    #[test]
    fn shared_context_compiles_each_shape_once_across_replicas() {
        let cache = Arc::new(PlanCache::new());
        let ctx = Arc::new(CostContext::new(&cfg(64), Arc::clone(&cache)));
        let mut replica_a = CostModel::with_context(Arc::clone(&ctx));
        let mut replica_b = CostModel::with_context(Arc::clone(&ctx));

        let a = price(&mut replica_a, Decode, 2, 10);
        let b = price(&mut replica_b, Decode, 2, 60); // same bucket
        assert_eq!(bits(a), bits(b), "repeated shapes read one compiled cost");
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            },
            "one compile, one hit"
        );

        // A different ctx bucket is a different plan, and so is a
        // different phase at the same shape: each compiles once.
        let c = price(&mut replica_a, Decode, 2, 70);
        let p = price(&mut replica_a, Prefill, 2, 10);
        assert_eq!((cache.stats().misses, cache.len()), (3, 3));
        assert_eq!(bits(price(&mut replica_b, Decode, 2, 70)), bits(c));
        assert_eq!(bits(price(&mut replica_b, Prefill, 2, 10)), bits(p));
        assert_eq!(
            cache.stats().misses,
            3,
            "the other replica compiles nothing"
        );

        // The table answers repeats without touching the shared cache.
        let before = cache.stats();
        assert_eq!(bits(price(&mut replica_a, Decode, 2, 10)), bits(a));
        assert_eq!(cache.stats(), before);
    }

    #[test]
    fn distinct_bucket_configs_do_not_collide_in_a_shared_cache() {
        let cache = Arc::new(PlanCache::new());
        let coarse = Arc::new(CostContext::new(&cfg(64), Arc::clone(&cache)));
        let fine = Arc::new(CostContext::new(&cfg(16), Arc::clone(&cache)));
        let a = price(&mut CostModel::with_context(coarse), Decode, 1, 10);
        let b = price(&mut CostModel::with_context(fine), Decode, 1, 10);
        // Same nominal request, different bucketing: 64- vs 16-token graphs.
        assert_eq!((cache.stats().misses, cache.len()), (2, 2));
        assert!(b.ms <= a.ms, "finer bucket prices a smaller graph");
    }

    #[test]
    fn a_compile_that_panics_leaves_the_cache_usable() {
        let cache = PlanCache::new();
        let key = |len| PlanKey {
            config: "tiny".into(),
            shape: Shape {
                phase: Decode,
                batch: 1,
                len,
            },
        };
        let cost = |ms| PhaseCost {
            ms,
            ..PhaseCost::default()
        };
        let compile = |ms| move |_: &mut Graph| Ok(cost(ms));
        assert_eq!(cache.get_or_compile(key(16), compile(1.0)).unwrap().ms, 1.0);
        let panicked = std::panic::catch_unwind(|| {
            cache.get_or_compile(key(32), |_| panic!("a compile that panics"))
        });
        assert!(panicked.is_err());
        // The earlier key answers from the map, a new key compiles, and
        // the counters count only the compiles that returned.
        let unreachable = |_: &mut Graph| unreachable!("an earlier key is memoized");
        assert_eq!(cache.get_or_compile(key(16), unreachable).unwrap().ms, 1.0);
        assert_eq!(cache.get_or_compile(key(48), compile(3.0)).unwrap().ms, 3.0);
        let stats = PlanCacheStats {
            hits: 1,
            misses: 2,
            entries: 2,
        };
        assert_eq!((cache.stats(), cache.len()), (stats, 2));
    }

    fn paper_cm() -> CostModel {
        CostModel::new(&ServingConfig::builder().ctx_bucket(64).build())
    }

    #[test]
    fn decode_per_token_cost_dwarfs_prefill_per_token_cost() {
        // Table 2's small-matmul column: a [1,d]×[d,d] GEMV pays nearly the
        // same MME launch overhead as a full [S,d]×[d,d] GEMM, so one
        // decode step costs about as much as prefilling hundreds of prompt
        // tokens. This asymmetry is the entire case for continuous
        // batching.
        let mut m = paper_cm();
        let prefill = price(&mut m, Prefill, 1, 512);
        let decode = price(&mut m, Decode, 1, 512);
        assert!(
            prefill.ms > decode.ms,
            "prefill of 512 tokens ({} ms) should outweigh one decode step ({} ms)",
            prefill.ms,
            decode.ms
        );
        let prefill_per_tok = prefill.ms / 512.0;
        assert!(
            decode.ms > 50.0 * prefill_per_tok,
            "decode per-token {} ms vs prefill per-token {} ms",
            decode.ms,
            prefill_per_tok
        );
    }

    #[test]
    fn decode_shifts_busy_balance_toward_the_mme() {
        // Per Table 2, small matrix products collapse MME efficiency: a
        // decode step's GEMVs keep the MME busy for its full launch
        // overhead while doing ~1/S of prefill's matmul flops, and its
        // softmax/norm TPC work shrinks from S×S scores to 1×S. The busy
        // balance therefore tilts toward the MME in decode.
        let mut m = paper_cm();
        let prefill = price(&mut m, Prefill, 1, 512);
        let decode = price(&mut m, Decode, 1, 512);
        let prefill_tpc_share = prefill.tpc_busy_ns / (prefill.tpc_busy_ns + prefill.mme_busy_ns);
        let decode_tpc_share = decode.tpc_busy_ns / (decode.tpc_busy_ns + decode.mme_busy_ns);
        assert!(
            decode_tpc_share < prefill_tpc_share,
            "decode TPC share {decode_tpc_share:.3} should fall below prefill {prefill_tpc_share:.3}"
        );
    }

    #[test]
    fn recipe_table_warms_each_shape_once() {
        let mut m = CostModel::new(&ServingConfig {
            recipes: RecipeConfig {
                compile_ms: 7.5,
                batch_bucket: 4,
            },
            ..cfg(64)
        });
        let shape = m.shape(Decode, 3, 50);
        let cold = |m: &mut CostModel, shape| !m.compiled(shape).unwrap().1;
        // Pricing, however often, does not warm the table…
        assert!(cold(&mut m, shape));
        assert!(cold(&mut m, shape));
        assert_eq!((m.compiled_graphs(), m.recipe_compiles()), (1, 0));
        // …the first run does, exactly once per shape.
        assert_eq!(m.warm(shape), 7.5);
        assert_eq!(m.warm(shape), 0.0);
        assert!(!cold(&mut m, shape));
        let same = m.shape(Decode, 4, 64);
        assert!(!cold(&mut m, same), "the same shape");
        assert_eq!(m.warm(same), 0.0, "the same shape");
        // Phase, batch, and length are all part of the key.
        for other in [
            m.shape(Prefill, 4, 64),
            m.shape(Decode, 8, 64),
            m.shape(Decode, 4, 128),
        ] {
            assert!(cold(&mut m, other));
            assert_eq!(m.warm(other), 7.5);
        }
        assert_eq!((m.compiled_graphs(), m.recipe_compiles()), (4, 4));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The recipe table under random phase sequences, driven as the
        /// engine drives it (probe, then `warm` only for a shape the probe
        /// found cold and only if the phase runs) and checked against a
        /// reference kept here: the shapes each table has priced and run.
        /// Each op is `(kind, batch, len, runs)`: kind 0 restarts the
        /// replica with a fresh table over the same context, 1–2 price a
        /// prefill and 3–7 a decode step, which runs or is dropped after
        /// pricing.
        #[test]
        fn recipe_table_warms_and_counts_like_a_reference_under_random_phases(
            ops in proptest::collection::vec(
                (0u8..8, 1usize..12, 1usize..300, proptest::prelude::any::<bool>()),
                1..48,
            ),
        ) {
            use std::collections::HashSet;
            let cfg = ServingConfig {
                max_batch: 8,
                recipes: RecipeConfig {
                    compile_ms: 7.5,
                    batch_bucket: 3,
                },
                ..cfg(64)
            };
            let ctx = Arc::new(CostContext::new(&cfg, Arc::new(PlanCache::new())));
            let mut m = CostModel::with_context(Arc::clone(&ctx));
            let (mut priced, mut run) = (HashSet::new(), HashSet::new());
            let mut fresh = HashMap::new();
            for (kind, batch, len, runs) in ops {
                if kind == 0 {
                    m = CostModel::with_context(Arc::clone(&ctx));
                    (priced, run) = (HashSet::new(), HashSet::new());
                    continue;
                }
                let phase = if kind < 3 { Prefill } else { Decode };
                let shape = m.shape(phase, batch, len);
                let (cost, warm) = m.compiled(shape).unwrap();
                let want = *fresh.entry(shape).or_insert_with(|| fresh_bits(&cfg, shape));
                proptest::prop_assert_eq!(bits(cost), want, "{:?}", shape);
                proptest::prop_assert_eq!(warm, run.contains(&shape), "{:?}", shape);
                priced.insert(shape);
                if runs {
                    let charged = if warm { 0.0 } else { m.warm(shape) };
                    let first = run.insert(shape);
                    proptest::prop_assert_eq!(charged, if first { 7.5 } else { 0.0 });
                }
                proptest::prop_assert_eq!(m.compiled_graphs(), priced.len());
                proptest::prop_assert_eq!(m.recipe_compiles(), run.len() as u64);
            }
        }
    }

    #[test]
    fn recipe_batch_bucketing_rounds_up() {
        let cfg = RecipeConfig {
            compile_ms: 1.0,
            batch_bucket: 4,
        };
        assert_eq!(cfg.bucketed_batch(1), 4);
        assert_eq!(cfg.bucketed_batch(4), 4);
        assert_eq!(cfg.bucketed_batch(5), 8);
        let exact = RecipeConfig::default();
        assert_eq!(exact.bucketed_batch(3), 3);
        assert_eq!(exact.compile_ms, 0.0);
    }

    #[test]
    fn recipe_config_validates() {
        assert!(RecipeConfig::default().validate().is_ok());
        assert!(RecipeConfig {
            compile_ms: 1.0,
            batch_bucket: 0
        }
        .validate()
        .is_err());
        assert!(RecipeConfig {
            compile_ms: f64::NAN,
            batch_bucket: 1
        }
        .validate()
        .is_err());
        assert!(RecipeConfig {
            compile_ms: -1.0,
            batch_bucket: 1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn activation_estimates_pack_below_the_naive_sum() {
        let cache = Arc::new(PlanCache::new());
        let m = CostModel::with_context(Arc::new(CostContext::new(&cfg(64), Arc::clone(&cache))));
        for shape in [m.shape(Prefill, 1, 64), m.shape(Decode, 4, 128)] {
            let (planned, naive) = m.activation_bytes(shape).unwrap();
            assert!(planned > 0);
            assert!(
                planned <= naive,
                "the packed arena can never exceed the naive sum ({planned} vs {naive})"
            );
        }
        // A transformer phase has elementwise chains to collapse, so the
        // planner must actually win, not just tie.
        let (planned, naive) = m.activation_bytes(m.shape(Prefill, 1, 64)).unwrap();
        assert!(planned < naive);
        let (planned, naive) = crate::engine::activation_estimate(&cfg(64)).unwrap();
        assert!(0 < planned && planned < naive, "{planned} vs {naive}");
        // The footprints are compiled outside the table and the cache.
        assert_eq!(m.compiled_graphs(), 0);
        assert_eq!(cache.stats(), PlanCacheStats::default());
    }

    #[test]
    fn batched_decode_amortizes_launch_overhead() {
        // Continuous batching works because one decode step for B requests
        // costs far less than B single-request steps.
        let mut m = paper_cm();
        let single = price(&mut m, Decode, 1, 512);
        let batched = price(&mut m, Decode, 8, 512);
        assert!(
            batched.ms < 4.0 * single.ms,
            "batch-8 step {} ms vs single step {} ms",
            batched.ms,
            single.ms
        );
    }
}
