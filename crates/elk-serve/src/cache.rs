//! Plan cache: one compile + simulate per distinct workload signature.
//!
//! Continuous batching generates a stream of `(phase, batch, seq)` step
//! shapes. After bucketing (see [`elk_model::SeqBuckets`]) the stream
//! collapses onto a small set of signatures, so caching the simulated
//! step latency per signature means repeated shapes never recompile.
//! Lookups share work in three layers, each more widely than the next:
//!
//! 1. **Plan sets per chip**, owned by the [`DesignRunner`] passed in
//!    (and by the runners derived from it), so the graphs of all batch
//!    sizes and sequence buckets enumerate each operator shape once.
//! 2. **Catalogs per graph signature.** Design-independent, so the five
//!    evaluation designs share one catalog.
//! 3. **Latencies per design**, keyed on [`PlanKey`].
//!
//! Layers 2 and 3 belong to the cache and live exactly as long as it.
//! Nothing is process-global: a fresh cache and runner start cold, so
//! repeated runs in one process (benchmark repetitions, sweep points)
//! measure the same work, and memory held for one engine is freed with it.
//!
//! The cache is **thread-safe and single-flight**: lookups take `&self`
//! (replica event loops run concurrently against one shared cache), and
//! each graph signature is guarded by an [`elk_par::SingleFlight`] slot,
//! so of N concurrent misses on one key exactly one builds the catalog
//! or compiles the plan and the rest wait for its result — two
//! in-flight requests never compile the same [`PlanKey`] twice. A
//! lookup compiles only the design it asks for, as the paper's compiler
//! plans one design at a time. It counts as a miss exactly when it
//! built the catalog or compiled the plan, and as a hit otherwise; each
//! key is computed once, by a lookup that asked for it, so cached values
//! and the hit/miss split are the same at any thread count.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use elk_baselines::{Design, DesignRunner};
use elk_core::{Catalog, CompileError};
use elk_model::{ModelGraph, Phase, SeqBuckets, TransformerConfig, Workload};
use elk_par::SingleFlight;
use elk_sim::SimOptions;
use elk_units::Seconds;

use crate::BatchConfig;

/// Cache key: the workload signature the compiled step latency depends
/// on.
///
/// The model is identified **by name**: the cache trusts
/// [`TransformerConfig::name`] to uniquely identify the architecture,
/// and assumes the same [`SimOptions`] on every lookup. Both hold
/// inside [`ServingSim`](crate::ServingSim), which fixes the config per
/// instance; callers driving a shared `PlanCache` directly must keep
/// model names unique and simulator options constant themselves.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// Model name (from [`TransformerConfig::name`]).
    pub model: String,
    /// Tensor-parallel shard count the graph was built for.
    pub shards: u64,
    /// Evaluation design the plan was compiled for.
    pub design: Design,
    /// Step phase (prefill or decode).
    pub phase: Phase,
    /// Bucketed batch size.
    pub batch: u64,
    /// Bucketed sequence length.
    pub seq_bucket: u64,
}

impl PlanKey {
    /// Builds the key for `design` on a **bucketed** workload.
    #[must_use]
    pub fn new(model: &str, shards: u64, design: Design, wl: Workload) -> Self {
        PlanKey {
            model: model.to_string(),
            shards,
            design,
            phase: wl.phase,
            batch: wl.batch,
            seq_bucket: wl.seq_len,
        }
    }
}

/// Hit/miss counters, cumulative over the cache's lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups whose requested key was (or became) available without
    /// this lookup computing it — including lookups that waited on
    /// another thread's in-flight compile of the same key.
    pub hits: u64,
    /// Lookups that computed their requested key: compiled + simulated
    /// the design, or memoized its compile failure.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction (`0.0` before any lookup).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counters accumulated since an earlier `snapshot` of this cache.
    #[must_use]
    pub fn since(&self, snapshot: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - snapshot.hits,
            misses: self.misses - snapshot.misses,
        }
    }
}

/// Signature of the graph/catalog, shared by all designs:
/// `(model name, shards, phase, batch, seq bucket)`.
type GraphKey = (String, u64, Phase, u64, u64);

/// The mutable cache maps, behind one mutex. Compiles happen *outside*
/// the lock (guarded by the single-flight slots), so lookups of already
/// cached keys never block behind an in-flight compile of another key.
#[derive(Debug, Default)]
struct Inner {
    graphs: HashMap<GraphKey, Arc<(ModelGraph, Catalog)>>,
    latencies: HashMap<PlanKey, Seconds>,
    /// Signatures known to have no feasible plan, so the serving layer's
    /// fallback (micro-batch splitting) does not recompile the same
    /// doomed shape every step.
    graph_failures: HashMap<GraphKey, CompileError>,
    plan_failures: HashMap<PlanKey, CompileError>,
    stats: CacheStats,
}

/// Memoizes compiled-and-simulated step latencies per [`PlanKey`].
///
/// The catalog layer is keyed on the workload signature alone (reused
/// across designs), and the latency layer additionally on the design.
/// Both live for the cache's lifetime, so one cache shared across
/// designs and replicas maximizes reuse; plan sets come from the
/// runner's catalogs. See the module docs for the layers and the
/// concurrency contract.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    graph_flight: SingleFlight<GraphKey>,
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Simulated latency of one `wl` step under `design`, compiling on
    /// first sight of the signature. `wl` must already be bucketed —
    /// the cache keys on it verbatim.
    ///
    /// Safe to call from concurrent replica threads: the compile for
    /// any given key happens at most once (single-flight), and the
    /// returned latency is independent of interleaving.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from catalog construction or planning.
    pub fn step_latency(
        &self,
        runner: &DesignRunner,
        cfg: &TransformerConfig,
        shards: u64,
        design: Design,
        wl: Workload,
        sim: &SimOptions,
    ) -> Result<Seconds, CompileError> {
        self.step_latency_for(runner, &cfg.name, shards, design, wl, sim, |w, s| {
            cfg.build(w, s)
        })
    }

    /// [`step_latency`](Self::step_latency) with an explicit graph
    /// builder — the entry point for callers whose unit of compilation
    /// is not a whole [`TransformerConfig`] (the cluster planner caches
    /// per **pipeline stage**, building each stage's sub-graph here).
    ///
    /// `model_key` must uniquely identify the architecture `build`
    /// produces, exactly as [`PlanKey`]'s docs require of model names;
    /// equal keys share cached plans, so two structurally identical
    /// stages with the same key compile once.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from catalog construction or planning.
    #[allow(clippy::too_many_arguments)]
    pub fn step_latency_for<F>(
        &self,
        runner: &DesignRunner,
        model_key: &str,
        shards: u64,
        design: Design,
        wl: Workload,
        sim: &SimOptions,
        build: F,
    ) -> Result<Seconds, CompileError>
    where
        F: FnOnce(Workload, u64) -> ModelGraph,
    {
        let key = PlanKey::new(model_key, shards, design, wl);
        let gkey: GraphKey = (
            model_key.to_string(),
            shards,
            wl.phase,
            wl.batch,
            wl.seq_len,
        );
        if let Some(answer) = self.cached(&key, &gkey) {
            return answer;
        }
        // Every insert for this signature happens inside its flight, so
        // the re-check sees whatever a lookup it waited on computed, and
        // what is still missing this lookup computes itself.
        self.graph_flight.with(&gkey, || {
            if let Some(answer) = self.cached(&key, &gkey) {
                return answer;
            }
            let shared = {
                let mut inner = self.lock();
                inner.stats.misses += 1;
                inner.graphs.get(&gkey).cloned()
            };
            let shared = match shared {
                Some(shared) => shared,
                None => {
                    let graph = build(wl, shards);
                    let catalog = runner.catalog(&graph).inspect_err(|e| {
                        self.lock().graph_failures.insert(gkey.clone(), e.clone());
                    })?;
                    let shared = Arc::new((graph, catalog));
                    self.lock().graphs.insert(gkey.clone(), Arc::clone(&shared));
                    shared
                }
            };
            let (graph, catalog) = &*shared;
            let latency = runner
                .run(design, graph, catalog, sim)
                .inspect_err(|e| {
                    self.lock().plan_failures.insert(key.clone(), e.clone());
                })?
                .report
                .total;
            self.lock().latencies.insert(key, latency);
            Ok(latency)
        })
    }

    /// The remembered answer for `key` of signature `gkey`, counted as a
    /// hit: its latency, its plan's failure or its catalog's failure.
    fn cached(&self, key: &PlanKey, gkey: &GraphKey) -> Option<Result<Seconds, CompileError>> {
        let mut inner = self.lock();
        let answer = match inner.latencies.get(key) {
            Some(&latency) => Ok(latency),
            None => Err(inner
                .plan_failures
                .get(key)
                .or_else(|| inner.graph_failures.get(gkey))?
                .clone()),
        };
        inner.stats.hits += 1;
        Some(answer)
    }

    /// Cumulative hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of distinct compiled plans resident.
    #[must_use]
    pub fn plans(&self) -> usize {
        self.lock().latencies.len()
    }

    /// Number of distinct graph/catalog signatures resident.
    #[must_use]
    pub fn catalogs(&self) -> usize {
        self.lock().graphs.len()
    }
}

/// The one step-pricing path every serving engine shares: successful
/// step latencies per `(design, workload)`, in front of a [`PlanCache`].
/// A replay prices hundreds of thousands of steps over a few dozen
/// bucketed shapes; a memo hit skips the cache's string keys, hashing
/// and lock, so the cache counts only the first lookup of each shape per
/// memo. Failures are not memoized: they abort the caller's run, and the
/// cache already remembers them.
///
/// Every step of a replay looks the memo up, so a hit is one relaxed
/// atomic load: the memo holds a slot per step shape its engine's
/// [`BatchConfig`] can produce, split halves included — every design,
/// decode and prefill, every batch shape (powers of two up to
/// `max_batch`'s when batches are bucketed, else `1..=max_batch`) and
/// every sequence bucket. That is a few hundred slots, a few KB.
/// Shapes outside the table (unbucketed batches above
/// [`MAX_DIRECT_BATCH`](Self::MAX_DIRECT_BATCH), or any other phase)
/// fall back to a locked map, so every key is still priced once.
#[derive(Debug)]
pub struct StepMemo {
    /// A latency's `f64` bits per slot, [`EMPTY`] until it is priced.
    /// Loads and stores are `Relaxed`: a slot publishes only its own
    /// bits, and a racing reader that misses it prices the shape again.
    slots: Box<[AtomicU64]>,
    /// Bucket batches to powers of two (index by `log2`), else index
    /// `batch - 1`.
    pow2_batches: bool,
    batch_slots: u32,
    seq_buckets: SeqBuckets,
    seq_slots: u32,
    overflow: Mutex<HashMap<(Design, Workload), Seconds>>,
}

/// The empty-slot sentinel: no latency is NaN.
const EMPTY: u64 = 0x7ff8_0000_0000_0000;

impl StepMemo {
    /// The largest unbucketed batch the table holds a slot for.
    pub const MAX_DIRECT_BATCH: u64 = 64;

    /// An empty memo sized for the step shapes `batch` produces.
    ///
    /// # Panics
    ///
    /// Panics if `batch` fails [`BatchConfig::validate`].
    #[must_use]
    pub fn new(batch: &BatchConfig) -> Self {
        batch.validate().unwrap_or_else(|e| panic!("{e}"));
        let pow2_batches = batch.bucket_batch;
        let batch_slots = if pow2_batches {
            // log2 of max_batch rounded up to a power of two, plus one.
            u64::BITS - batch.max_batch.saturating_sub(1).leading_zeros() + 1
        } else {
            batch.max_batch.min(Self::MAX_DIRECT_BATCH) as u32
        };
        let SeqBuckets { min, max } = batch.seq_buckets;
        let seq_slots = max.ilog2() - min.ilog2() + if max.is_power_of_two() { 1 } else { 2 };
        let len = Design::ALL.len() * 2 * batch_slots as usize * seq_slots as usize;
        StepMemo {
            slots: (0..len).map(|_| AtomicU64::new(EMPTY)).collect(),
            pow2_batches,
            batch_slots,
            seq_buckets: batch.seq_buckets,
            seq_slots,
            overflow: Mutex::default(),
        }
    }

    /// The table slot of `(design, wl)`, or `None` for a shape outside
    /// the table.
    #[inline]
    fn slot(&self, design: Design, wl: Workload) -> Option<&AtomicU64> {
        let phase = match wl.phase {
            Phase::Decode => 0,
            Phase::Prefill => 1,
            Phase::TrainingForward => return None,
        };
        let b = wl.batch;
        let batch = if self.pow2_batches {
            b.is_power_of_two().then(|| u64::from(b.ilog2()))
        } else {
            b.checked_sub(1)
        }
        .filter(|&i| i < u64::from(self.batch_slots))?;
        let SeqBuckets { min, max } = self.seq_buckets;
        let s = wl.seq_len;
        let seq = if s == max {
            self.seq_slots - 1
        } else if s.is_power_of_two() && min <= s && s < max {
            s.ilog2() - min.ilog2()
        } else {
            return None;
        };
        let row = (design as usize * 2 + phase) * self.batch_slots as usize;
        Some(&self.slots[(row + batch as usize) * self.seq_slots as usize + seq as usize])
    }

    fn overflow(&self) -> MutexGuard<'_, HashMap<(Design, Workload), Seconds>> {
        self.overflow.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized latency of a `wl` step under `design`, if it has
    /// been priced.
    #[must_use]
    #[inline]
    pub fn get(&self, design: Design, wl: Workload) -> Option<Seconds> {
        match self.slot(design, wl) {
            Some(slot) => {
                let bits = slot.load(Ordering::Relaxed);
                (bits != EMPTY).then(|| Seconds::new(f64::from_bits(bits)))
            }
            None => self.overflow().get(&(design, wl)).copied(),
        }
    }

    /// How many memoized shapes have no table slot. None for the shapes
    /// of the memo's own [`BatchConfig`] up to
    /// [`MAX_DIRECT_BATCH`](Self::MAX_DIRECT_BATCH).
    #[must_use]
    pub fn spilled(&self) -> usize {
        self.overflow().len()
    }

    /// The latency of one `wl` step under `design`: the memoized answer,
    /// else `price(wl)`. When the whole shape has no feasible on-chip
    /// plan (`compile_error` of the failure is a capacity error —
    /// prefill attention is quadratic in sequence length, so
    /// long-context steps can exceed SRAM at batch sizes decode handles
    /// fine), the step runs as two sequential half batches, each priced
    /// back through this memo. A batch-1 failure is a genuine error: the
    /// request cannot run on this chip.
    ///
    /// # Errors
    ///
    /// `price`'s error when splitting cannot recover it, else the first
    /// error of a half.
    pub fn price<E>(
        &self,
        design: Design,
        wl: Workload,
        compile_error: fn(&E) -> &CompileError,
        price: &impl Fn(Workload) -> Result<Seconds, E>,
    ) -> Result<Seconds, E> {
        if let Some(t) = self.get(design, wl) {
            return Ok(t);
        }
        let t = match price(wl) {
            Err(e)
                if wl.batch > 1
                    && matches!(
                        compile_error(&e),
                        CompileError::NoFeasiblePlan { .. } | CompileError::CapacityExceeded { .. }
                    ) =>
            {
                let lo = wl.batch / 2;
                let half =
                    |batch| self.price(design, Workload { batch, ..wl }, compile_error, price);
                half(lo)? + half(wl.batch - lo)?
            }
            whole => whole?,
        };
        match self.slot(design, wl) {
            Some(slot) => slot.store(t.as_secs().to_bits(), Ordering::Relaxed),
            None => {
                self.overflow().insert((design, wl), t);
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::HashSet;

    use super::*;
    use elk_hw::presets;
    use elk_model::{zoo, OpId, SeqBuckets};
    use elk_units::Bytes;

    fn tiny_cfg() -> TransformerConfig {
        let mut cfg = zoo::llama2_13b();
        cfg.layers = 2;
        cfg
    }

    #[test]
    fn second_lookup_hits() {
        let cfg = tiny_cfg();
        let runner = DesignRunner::new(presets::ipu_pod4());
        let cache = PlanCache::new();
        let wl = Workload::decode(16, 512);
        let sim = SimOptions::default();
        let a = cache
            .step_latency(&runner, &cfg, 4, Design::ElkFull, wl, &sim)
            .unwrap();
        let b = cache
            .step_latency(&runner, &cfg, 4, Design::ElkFull, wl, &sim)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.plans(), 1);
    }

    #[test]
    fn designs_share_the_catalog() {
        let cfg = tiny_cfg();
        let runner = DesignRunner::new(presets::ipu_pod4());
        let cache = PlanCache::new();
        let wl = Workload::decode(16, 512);
        let sim = SimOptions::default();
        for d in Design::ALL {
            cache.step_latency(&runner, &cfg, 4, d, wl, &sim).unwrap();
        }
        assert_eq!(cache.catalogs(), 1, "catalog must be design-independent");
        assert_eq!(cache.plans(), 5);
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn a_first_miss_compiles_only_the_requested_design() {
        let cfg = tiny_cfg();
        let runner = DesignRunner::new(presets::ipu_pod4());
        let cache = PlanCache::new();
        let wl = Workload::decode(16, 512);
        let sim = SimOptions::default();
        cache
            .step_latency(&runner, &cfg, 4, Design::Basic, wl, &sim)
            .unwrap();
        assert_eq!(cache.plans(), 1, "no other design is compiled");
        assert_eq!(cache.catalogs(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        // The next design reuses the catalog but compiles its own plan:
        // a miss, because this lookup did the work.
        cache
            .step_latency(&runner, &cfg, 4, Design::ElkFull, wl, &sim)
            .unwrap();
        assert_eq!((cache.plans(), cache.catalogs()), (2, 1));
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn concurrent_lookups_compile_each_key_once() {
        const N: u64 = 6;
        let cfg = tiny_cfg();
        let runner = DesignRunner::new(presets::ipu_pod4());
        let cache = PlanCache::new();
        let wl = Workload::decode(16, 512);
        let sim = SimOptions::default();
        // N racing lookups of one key, then N of another design's key on
        // the same signature.
        for (round, design) in [Design::ElkDyn, Design::Basic].into_iter().enumerate() {
            let latencies: Vec<Seconds> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..N)
                    .map(|_| {
                        s.spawn(|| {
                            cache
                                .step_latency(&runner, &cfg, 4, design, wl, &sim)
                                .unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(latencies.windows(2).all(|w| w[0] == w[1]));
            let round = round as u64 + 1;
            assert_eq!(
                cache.plans() as u64,
                round,
                "single-flight: one compile per key"
            );
            assert_eq!(
                cache.stats(),
                CacheStats {
                    hits: round * (N - 1),
                    misses: round,
                },
                "exactly one lookup per key did the work"
            );
        }
        assert_eq!(cache.catalogs(), 1);
    }

    #[test]
    fn custom_builders_share_plans_per_model_key() {
        let cfg = tiny_cfg();
        let runner = DesignRunner::new(presets::ipu_pod4());
        let cache = PlanCache::new();
        let wl = Workload::decode(16, 512);
        let sim = SimOptions::default();
        // Two structurally identical "stages" under one key: one compile.
        let a = cache
            .step_latency_for(
                &runner,
                "stage[0..1]",
                4,
                Design::Basic,
                wl,
                &sim,
                |w, s| cfg.build_stage(w, s, 0..1, false, false),
            )
            .unwrap();
        let b = cache
            .step_latency_for(
                &runner,
                "stage[0..1]",
                4,
                Design::Basic,
                wl,
                &sim,
                |w, s| cfg.build_stage(w, s, 1..2, false, false),
            )
            .unwrap();
        assert_eq!(a, b, "same key, same cached latency");
        assert_eq!(cache.plans(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // A different key compiles separately.
        let c = cache
            .step_latency_for(
                &runner,
                "stage[+head]",
                4,
                Design::Basic,
                wl,
                &sim,
                |w, s| cfg.build_stage(w, s, 1..2, false, true),
            )
            .unwrap();
        assert!(c > b, "the head stage does strictly more work");
        assert_eq!(cache.plans(), 2);
    }

    #[test]
    fn graphs_of_one_chip_share_plan_sets() {
        let cfg = tiny_cfg();
        let runner = DesignRunner::new(presets::ipu_pod4());
        let mesh = DesignRunner::new(presets::ipu_pod4_mesh());
        let cache = PlanCache::new();
        let sim = SimOptions::default();
        for seq in [256, 512] {
            cache
                .step_latency(
                    &runner,
                    &cfg,
                    4,
                    Design::Basic,
                    Workload::decode(16, seq),
                    &sim,
                )
                .unwrap();
        }
        // Operators whose shape does not depend on the sequence length
        // get one shared plan set in both catalogs, not two equal ones.
        let catalog = |model: &str, seq| {
            let key: GraphKey = (model.to_string(), 4, Phase::Decode, 16, seq);
            Arc::clone(&cache.lock().graphs[&key])
        };
        let shared = |a: &Catalog, b: &Catalog| {
            (0..a.len())
                .filter(|&i| std::ptr::eq(a.op(OpId(i)), b.op(OpId(i))))
                .count()
        };
        let (short, long) = (catalog(&cfg.name, 256), catalog(&cfg.name, 512));
        let n = shared(&short.1, &long.1);
        assert!(0 < n && n < short.1.len(), "{n} of {}", short.1.len());

        // Another chip plans through its own runner's sets. The plan key
        // does not name the system, so the mesh part gets a model key of
        // its own.
        let wl = Workload::decode(16, 256);
        cache
            .step_latency_for(&mesh, "mesh", 4, Design::Basic, wl, &sim, |w, s| {
                cfg.build(w, s)
            })
            .unwrap();
        assert_eq!(shared(&short.1, &catalog("mesh", 256).1), 0);
    }

    #[test]
    fn stats_delta() {
        let s0 = CacheStats { hits: 2, misses: 3 };
        let s1 = CacheStats { hits: 7, misses: 4 };
        assert_eq!(s1.since(s0), CacheStats { hits: 5, misses: 1 });
        assert!((s1.hit_rate() - 7.0 / 11.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    const ID: fn(&CompileError) -> &CompileError = |e| e;

    fn too_big() -> CompileError {
        CompileError::CapacityExceeded {
            op: "attn".into(),
            required: Bytes::kib(900),
            capacity: Bytes::kib(600),
        }
    }

    /// A pricer that records every shape it is asked for and fails with
    /// a capacity error above `max_batch`: one millisecond per request.
    fn capped(
        max_batch: u64,
        calls: &RefCell<Vec<u64>>,
    ) -> impl Fn(Workload) -> Result<Seconds, CompileError> + '_ {
        move |wl| {
            calls.borrow_mut().push(wl.batch);
            if wl.batch > max_batch {
                Err(too_big())
            } else {
                Ok(Seconds::from_millis(wl.batch as f64))
            }
        }
    }

    #[test]
    fn a_memo_hit_does_not_touch_the_cache_counters() {
        let mut model = zoo::llama2_13b();
        model.layers = 2;
        let runner = DesignRunner::new(presets::ipu_pod4()).with_threads(1);
        let cache = PlanCache::new();
        let sim = SimOptions::default();
        let price = |w| cache.step_latency(&runner, &model, 4, Design::ElkFull, w, &sim);
        let memo = StepMemo::new(&BatchConfig::default());
        let wl = Workload::decode(4, 512);
        let first = memo.price(Design::ElkFull, wl, ID, &price).unwrap();
        let again = memo.price(Design::ElkFull, wl, ID, &price).unwrap();
        assert_eq!(first, again);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn a_split_shape_prices_each_half_once_through_the_memo() {
        let calls = RefCell::new(Vec::new());
        let price = capped(4, &calls);
        let memo = StepMemo::new(&unbucketed(16, SeqBuckets::default()));
        // 12 splits into 6 + 6 and each 6 into 3 + 3: the second of each
        // equal pair is a memo hit.
        let t = memo.price(Design::ElkFull, Workload::decode(12, 512), ID, &price);
        assert_eq!(t, Ok(Seconds::from_millis(12.0)));
        assert_eq!(*calls.borrow(), [12, 6, 3]);
        // Of 7's unequal halves, 3 is already memoized and 4 is priced
        // once; every whole and split shape is now a memo hit.
        let t = memo.price(Design::ElkFull, Workload::decode(7, 512), ID, &price);
        assert_eq!(t, Ok(Seconds::from_millis(7.0)));
        for batch in [12, 7, 6, 4, 3] {
            memo.price(Design::ElkFull, Workload::decode(batch, 512), ID, &price)
                .unwrap();
        }
        assert_eq!(*calls.borrow(), [12, 6, 3, 7, 4]);
    }

    #[test]
    fn a_failure_is_not_memoized_and_propagates() {
        let calls = RefCell::new(Vec::new());
        let memo = StepMemo::new(&BatchConfig::default());
        // Batch 1 cannot split; a non-capacity error is never split.
        let price = capped(0, &calls);
        for _ in 0..2 {
            let t = memo.price(Design::Basic, Workload::decode(1, 512), ID, &price);
            assert_eq!(t, Err(too_big()));
        }
        assert_eq!(*calls.borrow(), [1, 1], "each failure is priced again");
        let empty = |_: Workload| Err::<Seconds, _>(CompileError::EmptyGraph);
        let t = memo.price(Design::Basic, Workload::decode(8, 512), ID, &empty);
        assert_eq!(t, Err(CompileError::EmptyGraph));
        // A half's failure fails the whole shape.
        calls.borrow_mut().clear();
        let t = memo.price(Design::Basic, Workload::decode(2, 512), ID, &price);
        assert_eq!(t, Err(too_big()));
        assert_eq!(*calls.borrow(), [2, 1]);
    }

    /// A batch config that does not round batches to powers of two.
    fn unbucketed(max_batch: u64, seq_buckets: SeqBuckets) -> BatchConfig {
        BatchConfig {
            max_batch,
            seq_buckets,
            bucket_batch: false,
            ..BatchConfig::default()
        }
    }

    /// Every step shape a replica can ask for: each design, both
    /// phases, every batch up to 16 and every bucket of 64..4096.
    fn ladder() -> Vec<(Design, Workload)> {
        let mut keys = Vec::new();
        for design in Design::ALL {
            for phase in [Phase::Decode, Phase::Prefill] {
                for batch in 1..=16 {
                    for seq_len in SeqBuckets::new(64, 4096).ladder() {
                        keys.push((
                            design,
                            Workload {
                                batch,
                                seq_len,
                                phase,
                            },
                        ));
                    }
                }
            }
        }
        assert_eq!(keys.len(), 5 * 2 * 16 * 7);
        keys
    }

    /// Prices `keys` twice through `memo`: each key is priced once and
    /// every lookup returns its own key's latency.
    fn prices_each_key_once(memo: &StepMemo, keys: &[(Design, Workload)]) {
        // A latency of its own per key, in nanoseconds.
        let latency = |design: Design, wl: Workload| {
            let d = Design::ALL.iter().position(|&x| x == design).unwrap() as u64;
            let p = u64::from(wl.phase == Phase::Prefill);
            Seconds::new((((d * 2 + p) * 100 + wl.batch) * 10_000 + wl.seq_len) as f64 * 1e-9)
        };
        let calls = RefCell::new(HashMap::new());
        for pass in 0..2 {
            for &(design, wl) in keys {
                let price = |w: Workload| {
                    *calls.borrow_mut().entry((design, w)).or_insert(0) += 1;
                    Ok::<_, CompileError>(latency(design, w))
                };
                let t = memo.price(design, wl, ID, &price);
                assert_eq!(t, Ok(latency(design, wl)), "pass {pass}: {design:?} {wl:?}");
            }
            let calls = calls.borrow();
            assert_eq!(calls.len(), keys.len(), "pass {pass}");
            assert!(
                calls.values().all(|&n| n == 1),
                "pass {pass}: a key priced twice"
            );
        }
    }

    #[test]
    fn a_full_signature_ladder_prices_each_key_once() {
        let keys = ladder();
        // Sized for the ladder: every key has a table slot.
        let table = StepMemo::new(&unbucketed(16, SeqBuckets::new(64, 4096)));
        assert!(keys.iter().all(|&(d, wl)| table.slot(d, wl).is_some()));
        prices_each_key_once(&table, &keys);
        assert_eq!(table.spilled(), 0);
        // Power-of-two batches only: the other batches go to the map.
        let mixed = StepMemo::new(&BatchConfig {
            max_batch: 16,
            seq_buckets: SeqBuckets::new(64, 4096),
            ..BatchConfig::default()
        });
        let slotted = keys.iter().filter(|&&(d, wl)| mixed.slot(d, wl).is_some());
        assert_eq!(slotted.count(), 5 * 2 * 5 * 7);
        prices_each_key_once(&mixed, &keys);
        assert_eq!(mixed.spilled(), 5 * 2 * 11 * 7);
        // A ladder the table does not hold at all.
        let map = StepMemo::new(&unbucketed(16, SeqBuckets::new(8192, 8192)));
        assert!(!keys.iter().any(|&(d, wl)| map.slot(d, wl).is_some()));
        prices_each_key_once(&map, &keys);
        assert_eq!(map.spilled(), keys.len());
    }

    /// The shapes `cfg` produces for batches of `1..=max_batch` requests
    /// at raw lengths `1..=4 * max bucket`, with every split half.
    fn step_shapes(cfg: &BatchConfig) -> HashSet<Workload> {
        fn halves(wl: Workload, out: &mut HashSet<Workload>) {
            if out.insert(wl) && wl.batch > 1 {
                let lo = wl.batch / 2;
                halves(Workload { batch: lo, ..wl }, out);
                halves(
                    Workload {
                        batch: wl.batch - lo,
                        ..wl
                    },
                    out,
                );
            }
        }
        let mut out = HashSet::new();
        let longest = 4 * cfg.seq_buckets.max;
        for phase in [Phase::Decode, Phase::Prefill] {
            for n in 1..=cfg.max_batch {
                let mut seq = 1;
                while seq <= longest {
                    halves(cfg.step_workload(phase, n, seq), &mut out);
                    seq += 1 + seq / 3;
                }
            }
        }
        out
    }

    #[test]
    fn every_step_shape_of_a_batch_config_has_its_own_slot() {
        let mut configs = Vec::new();
        for (min, max) in [(64, 4096), (256, 8192), (512, 512), (256, 1000), (1, 3)] {
            let buckets = SeqBuckets::new(min, max);
            for max_batch in [1, 2, 7, 8, 12, 16, 48, 64] {
                configs.push(unbucketed(max_batch, buckets));
                configs.push(BatchConfig {
                    max_batch,
                    seq_buckets: buckets,
                    ..BatchConfig::default()
                });
            }
        }
        for cfg in &configs {
            let memo = StepMemo::new(cfg);
            let shapes = step_shapes(cfg);
            let mut slots = HashSet::new();
            for design in Design::ALL {
                for &wl in &shapes {
                    let slot = memo.slot(design, wl);
                    let slot = slot.unwrap_or_else(|| panic!("{cfg:?}: {wl:?} has no slot"));
                    assert!(
                        slots.insert(std::ptr::from_ref(slot)),
                        "{wl:?} shares a slot"
                    );
                }
            }
            // Sized from the config: no slot is left idle.
            assert_eq!(memo.slots.len(), slots.len(), "{cfg:?}");
        }
        // Unbucketed batches above the direct limit spill to the map.
        let wide = StepMemo::new(&unbucketed(100, SeqBuckets::default()));
        assert!(wide
            .slot(Design::Basic, Workload::decode(64, 256))
            .is_some());
        assert!(wide
            .slot(Design::Basic, Workload::decode(65, 256))
            .is_none());
        assert!(wide
            .slot(Design::Basic, Workload::training_forward(1, 256))
            .is_none());
    }

    #[test]
    fn the_key_includes_the_design() {
        let memo = StepMemo::new(&BatchConfig::default());
        let wl = Workload::decode(8, 512);
        let ms = |x: f64| move |_: Workload| Ok::<_, CompileError>(Seconds::from_millis(x));
        let full = memo.price(Design::ElkFull, wl, ID, &ms(1.0));
        let basic = memo.price(Design::Basic, wl, ID, &ms(2.0));
        assert_eq!(
            (full, basic),
            (Ok(Seconds::from_millis(1.0)), Ok(Seconds::from_millis(2.0)))
        );
        let again = memo.price(Design::ElkFull, wl, ID, &ms(3.0));
        assert_eq!(
            again,
            Ok(Seconds::from_millis(1.0)),
            "a hit skips the pricer"
        );
    }
}
