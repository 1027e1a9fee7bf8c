//! The program interpreter, with §2.3 cost accounting.
//!
//! Applying a program `P` to a database `D` (the paper's `P(D)`) assigns each
//! input relation to its base register, executes the statements, and charges
//! the head relation of every statement. The total cost is
//! `Σ_{i=1}^{n+m} |Rᵢ|`: the `n` inputs plus the `m` statement heads.
//!
//! Registers hold `Arc<Relation>`, so reading a register — including the
//! common "reduce a base relation, then join it" pattern where one value is
//! read many times — is a reference-count bump, never a deep copy of the
//! tuples. Statement heads still *assign* fresh relations, matching the
//! paper's destructive-assignment semantics.
//!
//! There is one executor, [`try_execute_with`] ([`execute`] and
//! [`execute_with`] are its defaults and its panicking form). It walks a
//! list of *levels*: each level's statements are evaluated against the
//! register file as the previous level left it, then their heads are
//! written back. With [`ExecConfig::threads`]` > 1` the levels are the
//! hazard-free ones of [`mod@crate::schedule`] — same-level statements touch
//! disjoint registers, so each reads exactly what it would read in program
//! order — a level of width > 1 runs concurrently through
//! [`mjoin_relation::par_map`], and inside each statement an index probe of
//! at least [`SMALL`] rows runs in chunks. Each nesting
//! level runs on at most `threads` threads: a level wider than `threads` is
//! cut into `threads` contiguous chunks, so a level whose statements run
//! chunked kernels uses at most `threads²`.
//! With one thread the list is the trivial schedule, every statement its own
//! level in program order. Either way heads are charged, and
//! [`ExecOutcome::peak_resident`] replayed, in statement order once the
//! head sizes are known, so the outcome (result, ledger, `head_sizes`,
//! `peak_resident`) depends on the program and database alone; the
//! differential tests in `mjoin-core` enforce this on randomized databases.
//!
//! There is likewise one join kernel and one index-cache policy: every
//! keyed join and semijoin statement probes a [`JoinIndex`]. It peeks the
//! run's [`IndexCache`]; a hit probes the cached index, a miss builds one
//! (for a join on the smaller side), probes it and inserts it. Before a
//! level of width > 1 the indices two or more of its statements share are
//! built once and inserted. A cache passed in through [`ExecConfig::cache`]
//! therefore warms at every thread count. A Cartesian join builds an
//! empty-key index it never caches, and probes it the same way. Rewriting
//! a register drops the indices over its old value unless that value is one
//! of the run's inputs, so a later run over the same inputs rebuilds
//! nothing.
//!
//! The index is the one grouping structure as well. A projection `π_Y R`
//! reads the key groups of `R`'s index on `Y` ([`ops::project_indexed`]),
//! peeked and, on a miss, built and inserted as a join's build side is. A
//! semijoin `R ⋉ S` whose target the cache already holds a dense index for
//! on the shared key — by `Arc` identity, or through the fingerprint
//! directory when `R`'s fingerprint is memoized, so a miss computes none —
//! with at least [`GROUP_SEMIJOIN_MIN_ROWS`] rows per key, tests each key
//! once against `S`'s index ([`ops::semijoin_grouped`]) instead of probing
//! every row. Either way the head is the same set of rows, at the same
//! size.
//!
//! Registers hold [`Answer`]s: rows, or — only ever the head of the
//! program's last statement, when it writes the result — a [`Product`] of
//! a keyed join's operands or a [`Selection`](ops::Selection) of a group
//! semijoin's surviving key groups. A group semijoin that drops keys is
//! counted from its target's dense index and, as that last statement,
//! left a selection: a caller that reads only the answer's size (a
//! server's `run` reply) never gathers its rows. Any other group semijoin
//! is gathered at once, so no statement reads a selection. A last join is
//! counted before
//! it is gathered ([`JoinIndex::count`] over the index it would probe, or
//! over each Grace pair's under a spill plan), and stays a product when its
//! fan-out `|head| / (|left| + |right|)` reaches [`FACTORIZE_MIN_FANOUT`].
//! The ledger, `head_sizes` and `peak_resident` see the counted length, so
//! they do not depend on the choice. On a shared two-vCPU Xeon host,
//! `mjoin_cli run` over `AB ⋈ BC` of 2,048 rows a side (21 alternating
//! pairs per fan-out, medians) printed a product 14 % slower than the
//! gathered head at fan-out 1, 3 % slower at 2, 8 % faster at 4 (15 of 21
//! pairs) and 25 % faster at 8 (21 of 21), 66 % at 64; a caller that
//! materializes the product instead (a `query` component) paid 5 % at
//! fan-out 8 and 3 % at 64. The constant is the smallest power of two at
//! which printing won every pair.

use crate::dataflow::{num_regs, reg_index};
use crate::program::Program;
use crate::schedule::schedule;
use crate::stmt::{Reg, Stmt};
use mjoin_relation::fxhash::FxHashMap;
use mjoin_relation::ops::{
    self, join_key_positions, par_join_indexed_cutoff, par_semijoin_indexed_cutoff, JoinIndex,
    Product, TrieIndex, GROUP_SEMIJOIN_MIN_ROWS, SMALL,
};
use mjoin_relation::{par_map, Answer, AttrSet, CostLedger, Database, Relation, Schema};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The tuple budget of a cache built at the defaults: the private cache of
/// a run with no [`ExecConfig::cache`], and a resident server's shared one.
/// The cache evicts least-recently-used indices once the total tuples
/// resident in cached indices exceed it.
pub const DEFAULT_CACHE_TUPLES: u64 = 4 << 20;

/// The fan-out `|head| / (|left| + |right|)` from which the program's last
/// statement, a keyed join writing the result, is left a [`Product`]
/// instead of gathered: its answer then holds the operands' rows, not the
/// head's. Below it the head is materialized as any other. The module docs
/// give the measured crossover.
pub const FACTORIZE_MIN_FANOUT: usize = 8;

/// The byte budget beside [`DEFAULT_CACHE_TUPLES`]: resident bytes are the
/// table heap plus the pinned relation's payload
/// ([`JoinIndex::resident_bytes`]: packed columns with each dictionary pool
/// counted once). Eviction runs while *either* budget is exceeded, so
/// tuple-cheap but byte-heavy string relations cannot pin unbounded memory.
pub const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

/// Execution knobs for [`execute_with`]; [`execute`] uses the defaults
/// (one thread, a private cache).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads for the levels of the schedule and for the chunked
    /// index probes inside each statement. `1` runs the
    /// statements one by one in program order, each probe as one chunk.
    pub threads: usize,
    /// The index cache this run memoizes build-side [`JoinIndex`]es in.
    /// `None` (the default) gives each run a private cache at
    /// [`DEFAULT_CACHE_TUPLES`] / [`DEFAULT_CACHE_BYTES`]. A resident
    /// server passes one [`SharedIndexCache`] into every request's config
    /// so warm state survives across runs and sessions. A cache with
    /// budgets `(0, 0)` refuses every index: each statement builds its own.
    pub cache: Option<SharedIndexCache>,
    /// Cooperative cancellation: polled once per level, which with one
    /// thread is once per statement. `None` runs to completion. Use
    /// [`try_execute_with`] to observe a cancellation as a value instead of
    /// a panic.
    pub cancel: Option<CancelToken>,
    /// The peak-memory budget (bytes) this run was admitted under, if any.
    /// Not read by the interpreter: the per-statement decision is
    /// precomputed into [`ExecConfig::spill`] by the static memory
    /// analysis. The field stays only because the frozen benchmark harness
    /// sets it (ROADMAP item 1b removes it).
    pub mem_budget: Option<u64>,
    /// The statically derived spill schedule: statements the memory
    /// certificate proved cannot fit `mem_budget` take the Grace-hash
    /// out-of-core join path with the planned partition count; everything
    /// else runs the in-memory kernels with no runtime check at all.
    /// `None` (the default) never spills.
    pub spill: Option<Arc<SpillPlan>>,
}

/// A statically derived spill schedule: for each statement of a program,
/// either the number of Grace-hash partitions to run it with, or nothing —
/// the in-memory path. Produced by the memory analysis
/// (`mjoin_analyze::memory::MemCertificate::spill_plan`) from the certified
/// per-statement build-side bounds and a byte budget; consumed by
/// [`execute_with`] via [`ExecConfig::spill`]. Plain data, so the executor
/// crate needs no dependency on the analyzer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillPlan {
    parts: Vec<Option<usize>>,
}

impl SpillPlan {
    /// A plan from per-statement partition counts (`parts[i]` is `Some(p)`
    /// when statement `i` must spill into `p` partitions).
    pub fn new(parts: Vec<Option<usize>>) -> Self {
        SpillPlan { parts }
    }

    /// The planned partition count for statement `stmt`, or `None` for the
    /// in-memory path (also `None` past the end of the plan).
    pub fn partitions(&self, stmt: usize) -> Option<usize> {
        self.parts.get(stmt).copied().flatten()
    }

    /// Whether any statement is scheduled to spill.
    pub fn any(&self) -> bool {
        self.parts.iter().any(Option::is_some)
    }

    /// Number of statements scheduled to spill.
    pub fn spilled_stmts(&self) -> usize {
        self.parts.iter().filter(|p| p.is_some()).count()
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            cache: None,
            cancel: None,
            mem_budget: None,
            spill: None,
        }
    }
}

impl ExecConfig {
    /// Defaults at `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
            ..ExecConfig::default()
        }
    }

    /// The cache this run works against: the shared one if provided, else
    /// a fresh private cache at the default budgets.
    fn run_cache(&self) -> SharedIndexCache {
        self.cache
            .clone()
            .unwrap_or_else(|| IndexCache::shared(DEFAULT_CACHE_TUPLES, DEFAULT_CACHE_BYTES))
    }

    /// Whether this run was cancelled (explicitly or by deadline).
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The planned Grace-hash partition count for statement `stmt`, if the
    /// static analysis scheduled it to spill.
    fn spill_partitions(&self, stmt: usize) -> Option<usize> {
        self.spill.as_ref().and_then(|p| p.partitions(stmt))
    }
}

/// A cooperative cancellation handle: cloned into an [`ExecConfig`] and
/// polled by the interpreter at level boundaries. Fires either
/// explicitly ([`CancelToken::cancel`], e.g. from a server's shutdown path)
/// or implicitly once a deadline passes (per-request budgets). Clones share
/// one flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only fires on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Request cancellation. Execution stops at the next statement (or
    /// level) boundary; the statement in flight runs to completion.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Execution stopped at a statement boundary before completing: the
/// [`CancelToken`] fired (explicit cancel or deadline). Carries the index
/// of the first statement that did *not* run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cancelled {
    /// Index of the first unexecuted statement.
    pub at_stmt: usize,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution cancelled before statement {}", self.at_stmt)
    }
}

impl std::error::Error for Cancelled {}

/// Discriminant for hash-table entries ([`JoinIndex`]) in the cache keys.
const KIND_HASH: u8 = 0;
/// Discriminant for sorted-trie entries ([`TrieIndex`]) in the cache keys.
const KIND_TRIE: u8 = 1;

/// Cache key: the identity of an `Arc<Relation>`, the index *kind* (hash
/// table or sorted trie — the same relation and key positions yield
/// different structures), and the key positions the index was built over.
/// Safe against pointer reuse because every cached index holds its
/// relation's `Arc` — the allocation cannot be freed (and its address
/// recycled) while the entry exists.
type IndexKey = (usize, u8, Box<[usize]>);

fn index_key(rel: &Arc<Relation>, key_pos: &[usize]) -> IndexKey {
    (Arc::as_ptr(rel) as usize, KIND_HASH, key_pos.into())
}

/// Fallback cache key: the relation's structural [`Relation::fingerprint`],
/// its schema, and kind and key positions. Two `Arc`s holding the same set
/// of tuples over the same schema — an original and its TSV round-trip
/// reload, say — share this key even though their pointer-identity
/// [`IndexKey`]s differ. The fingerprint hashes values only, so the schema
/// keeps two equal-valued relations over different attributes (two spokes
/// of one hub, say) from overwriting each other's alias.
type FingerprintKey = (u128, Schema, u8, Box<[usize]>);

fn fingerprint_key_of(rel: &Relation, kind: u8, key_pos: &[usize]) -> FingerprintKey {
    (
        rel.fingerprint(),
        rel.schema().clone(),
        kind,
        key_pos.into(),
    )
}

/// A cached index of either kind. The cache stores both the program
/// interpreter's build-side hash tables and the WCOJ executor's sorted trie
/// views under one budget, so a resident server balances the two uses
/// instead of double-budgeting.
#[derive(Clone)]
pub(crate) enum CachedIndex {
    /// A build-side hash table (the binary program executor's index).
    Hash(Arc<JoinIndex>),
    /// A sorted trie view (the worst-case-optimal executor's index).
    Trie(Arc<TrieIndex>),
}

impl CachedIndex {
    fn kind(&self) -> u8 {
        match self {
            CachedIndex::Hash(_) => KIND_HASH,
            CachedIndex::Trie(_) => KIND_TRIE,
        }
    }

    fn relation(&self) -> &Arc<Relation> {
        match self {
            CachedIndex::Hash(i) => i.relation(),
            CachedIndex::Trie(i) => i.relation(),
        }
    }

    fn key_positions(&self) -> &[usize] {
        match self {
            CachedIndex::Hash(i) => i.key_positions(),
            CachedIndex::Trie(i) => i.key_positions(),
        }
    }

    fn tuples(&self) -> usize {
        match self {
            CachedIndex::Hash(i) => i.tuples(),
            CachedIndex::Trie(i) => i.tuples(),
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            CachedIndex::Hash(i) => i.resident_bytes(),
            CachedIndex::Trie(i) => i.resident_bytes(),
        }
    }
}

struct CacheEntry {
    index: CachedIndex,
    /// Resident bytes, frozen at insert time (the live value can change if
    /// the relation's other view materializes later; accounting must
    /// subtract exactly what it added).
    bytes: u64,
    last_used: u64,
}

/// The cross-statement join-index cache. Algorithm-2 programs read the same
/// head relations many times (a semijoin sweep down the CPF tree, a join
/// sweep back up); memoizing the build-side table turns every re-read into
/// a probe-only statement. Bounded by resident tuples and bytes with LRU
/// eviction. When a register is rewritten the entries over its old value
/// are dropped, unless that value is one of the run's input relations: the
/// caller's database still holds an input, so a later run over the same
/// relation finds its index by fingerprint instead of rebuilding it.
///
/// One-shot runs build a private cache per execution; a resident server
/// shares one behind a mutex across every session (see
/// [`SharedIndexCache`] and [`ExecConfig::cache`]). The lock is only ever
/// held for map operations — index *builds* happen outside it.
pub struct IndexCache {
    budget_tuples: u64,
    budget_bytes: u64,
    map: FxHashMap<IndexKey, CacheEntry>,
    /// Structural fallback directory: fingerprint key → primary key of a
    /// live entry over content-identical tuples. Entries can dangle after
    /// eviction/invalidation; lookups drop dangling ones lazily.
    by_fingerprint: FxHashMap<FingerprintKey, IndexKey>,
    resident_tuples: u64,
    resident_bytes: u64,
    tick: u64,
}

/// An [`IndexCache`] shared across runs (and server sessions). Lock
/// discipline: take the mutex only around cache-map operations, never
/// across a kernel or an index build.
pub type SharedIndexCache = Arc<Mutex<IndexCache>>;

/// Lock a shared cache, recovering from poisoning: the cache holds only
/// immutable `Arc<JoinIndex>` values plus accounting that [`debit`]
/// saturates, so state left by a panicking peer is still safe to read —
/// a long-lived server must not let one crashed session wedge the cache.
///
/// [`debit`]: IndexCache::debit
fn lock_cache(cache: &SharedIndexCache) -> MutexGuard<'_, IndexCache> {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl std::fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexCache")
            .field("entries", &self.map.len())
            .field("resident_tuples", &self.resident_tuples)
            .field("resident_bytes", &self.resident_bytes)
            .finish_non_exhaustive()
    }
}

impl IndexCache {
    /// An empty cache with the given eviction budgets.
    pub fn with_budgets(budget_tuples: u64, budget_bytes: u64) -> Self {
        IndexCache {
            budget_tuples,
            budget_bytes,
            map: FxHashMap::default(),
            by_fingerprint: FxHashMap::default(),
            resident_tuples: 0,
            resident_bytes: 0,
            tick: 0,
        }
    }

    /// An empty cache wrapped for sharing across runs/sessions.
    pub fn shared(budget_tuples: u64, budget_bytes: u64) -> SharedIndexCache {
        Arc::new(Mutex::new(IndexCache::with_budgets(
            budget_tuples,
            budget_bytes,
        )))
    }

    /// Number of cached indices.
    pub fn entries(&self) -> usize {
        self.map.len()
    }

    /// Total tuples pinned by cached indices.
    pub fn resident_tuples(&self) -> u64 {
        self.resident_tuples
    }

    /// Total bytes pinned by cached indices (insert-time-frozen per entry).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Drop every entry. Accounting must return exactly to zero — each
    /// entry debits the same frozen figures it credited at insert.
    pub fn clear(&mut self) {
        let entries: Vec<CacheEntry> = self.map.drain().map(|(_, e)| e).collect();
        self.by_fingerprint.clear();
        for e in entries {
            self.debit(e.index.tuples() as u64, e.bytes);
        }
        debug_assert_eq!(self.resident_tuples, 0, "tuple accounting drifted");
        debug_assert_eq!(self.resident_bytes, 0, "byte accounting drifted");
    }

    /// Subtract a removed entry's frozen accounting. Every removal path
    /// (replace, evict, invalidate, clear) goes through here: the debit
    /// must mirror the insert-time credit exactly, and because the live
    /// `JoinIndex::resident_bytes` can drift after insert (shared
    /// `Arc<Dict>` growth), any mismatch is a bookkeeping bug — loud in
    /// debug builds, saturated (never wrapped into a phantom multi-EB
    /// residency that would evict everything) in release.
    fn debit(&mut self, tuples: u64, bytes: u64) {
        debug_assert!(
            self.resident_tuples >= tuples,
            "cache debits {tuples} tuples but only {} are accounted",
            self.resident_tuples
        );
        debug_assert!(
            self.resident_bytes >= bytes,
            "cache debits {bytes} bytes but only {} are accounted",
            self.resident_bytes
        );
        self.resident_tuples = self.resident_tuples.saturating_sub(tuples);
        self.resident_bytes = self.resident_bytes.saturating_sub(bytes);
    }

    /// Whether either resident budget (tuples or bytes) is exceeded.
    fn over_budget(&self) -> bool {
        self.resident_tuples > self.budget_tuples || self.resident_bytes > self.budget_bytes
    }

    /// Look up an index without touching the hit/miss counters (a join
    /// peeks both of its sides before deciding which lookup "counts").
    ///
    /// A pointer-identity miss falls back to the structural fingerprint, so
    /// a semantically identical relation reloaded into a fresh `Arc` (the
    /// TSV round-trip case) still reuses the cached index. The fallback
    /// re-checks the cached relation's own (memoized) fingerprint — not just
    /// schema and tuple count — because a `by_fingerprint` alias can go
    /// stale: after its primary entry is evicted the allocator may recycle
    /// the raw-pointer key for a *different* relation's entry, and without
    /// the content check a stale alias would serve that other relation's
    /// index. The remaining exposure is a full 128-bit hash collision,
    /// which we accept for the reuse it buys.
    ///
    /// `rel`'s fingerprint is computed before the lock is taken: every
    /// cached relation's is memoized at insert, so an identity hit never
    /// needed the hash, and a miss would have computed it anyway.
    fn peek(
        cache: &SharedIndexCache,
        rel: &Arc<Relation>,
        key_pos: &[usize],
    ) -> Option<Arc<JoinIndex>> {
        let fingerprint = Some(rel.fingerprint());
        match lock_cache(cache).peek_cached(rel, KIND_HASH, key_pos, fingerprint)? {
            CachedIndex::Hash(i) => Some(i),
            CachedIndex::Trie(_) => unreachable!("kind-tagged key returned wrong index kind"),
        }
    }

    /// `peek` for an index the caller can do without: by `Arc` identity, or
    /// through the fingerprint directory only when `rel`'s fingerprint is
    /// already memoized (an input's, or a copy of one), so a miss costs no
    /// pass over the rows.
    fn peek_resident(
        cache: &SharedIndexCache,
        rel: &Arc<Relation>,
        key_pos: &[usize],
    ) -> Option<Arc<JoinIndex>> {
        let fingerprint = rel.memoized_fingerprint();
        match lock_cache(cache).peek_cached(rel, KIND_HASH, key_pos, fingerprint)? {
            CachedIndex::Hash(i) => Some(i),
            CachedIndex::Trie(_) => unreachable!("kind-tagged key returned wrong index kind"),
        }
    }

    /// Trie-view twin of `peek`, for the WCOJ executor. Unlike the hash
    /// path (where a join peeks both sides before deciding which lookup
    /// counts), every trie lookup counts, so the `index_cache.trie_hit` /
    /// `trie_miss` counters are maintained here. Like `peek`, it hashes
    /// `rel` before it takes the lock.
    pub fn peek_trie(
        cache: &SharedIndexCache,
        rel: &Arc<Relation>,
        key_pos: &[usize],
    ) -> Option<Arc<TrieIndex>> {
        let fingerprint = Some(rel.fingerprint());
        match lock_cache(cache).peek_cached(rel, KIND_TRIE, key_pos, fingerprint) {
            Some(CachedIndex::Trie(i)) => {
                mjoin_trace::add("index_cache.trie_hit", 1);
                mjoin_trace::add("index_cache.bytes_not_allocated", i.heap_bytes() as u64);
                Some(i)
            }
            Some(CachedIndex::Hash(_)) => {
                unreachable!("kind-tagged key returned wrong index kind")
            }
            None => {
                mjoin_trace::add("index_cache.trie_miss", 1);
                None
            }
        }
    }

    /// The entry for `rel` by `Arc` identity, else the one the fingerprint
    /// directory names for `fingerprint` (`rel`'s; `None` skips the
    /// directory).
    fn peek_cached(
        &mut self,
        rel: &Arc<Relation>,
        kind: u8,
        key_pos: &[usize],
        fingerprint: Option<u128>,
    ) -> Option<CachedIndex> {
        self.tick += 1;
        let tick = self.tick;
        let key = (Arc::as_ptr(rel) as usize, kind, key_pos.into());
        if let Some(e) = self.map.get_mut(&key) {
            e.last_used = tick;
            return Some(e.index.clone());
        }
        let fkey = (fingerprint?, rel.schema().clone(), kind, key_pos.into());
        if let Some(primary) = self.by_fingerprint.get(&fkey).cloned() {
            match self.map.get_mut(&primary) {
                Some(e)
                    if e.index.relation().schema() == rel.schema()
                        && e.index.relation().len() == rel.len()
                        && e.index.relation().fingerprint() == fkey.0 =>
                {
                    e.last_used = tick;
                    mjoin_trace::add("index_cache.fingerprint_hit", 1);
                    return Some(e.index.clone());
                }
                // The entry the alias points at does not hold this content
                // (recycled pointer or vanished entry) — drop the alias.
                Some(_) | None => {
                    self.by_fingerprint.remove(&fkey);
                }
            }
        }
        None
    }

    /// Remove one primary entry: debit its frozen accounting and drop its
    /// fingerprint alias if (and only if) the alias still points at it, so
    /// stale aliases cannot outlive the entry and later resolve to a
    /// recycled-pointer key.
    fn remove_entry(&mut self, key: &IndexKey) -> Option<CacheEntry> {
        let gone = self.map.remove(key)?;
        let fkey = fingerprint_key_of(
            gone.index.relation(),
            gone.index.kind(),
            gone.index.key_positions(),
        );
        if self.by_fingerprint.get(&fkey) == Some(key) {
            self.by_fingerprint.remove(&fkey);
        }
        self.debit(gone.index.tuples() as u64, gone.bytes);
        Some(gone)
    }

    /// Record a statement that reused a cached index: the build pass — and
    /// the table's heap allocation — it did not pay for.
    fn note_hit(index: &JoinIndex) {
        mjoin_trace::add("index_cache.hit", 1);
        mjoin_trace::add("index_cache.bytes_not_allocated", index.heap_bytes() as u64);
    }

    /// Record a statement that had an index opportunity but found no entry.
    fn note_miss() {
        mjoin_trace::add("index_cache.miss", 1);
    }

    /// Cache a freshly built index, evicting least-recently-used entries
    /// until both resident budgets (tuples and bytes) hold. Indices larger
    /// than a whole budget on either axis are not cached (they would only
    /// flush everything else). The relation's fingerprint, the directory's
    /// key, is computed before the lock is taken.
    fn insert(cache: &SharedIndexCache, index: Arc<JoinIndex>) {
        mjoin_trace::add("index_cache.insert", 1);
        index.relation().fingerprint();
        lock_cache(cache).insert_cached(CachedIndex::Hash(index));
    }

    /// Trie-view twin of `insert`: cache a freshly sorted trie under the
    /// same budgets (and the same LRU) as the hash entries.
    pub fn insert_trie(cache: &SharedIndexCache, index: Arc<TrieIndex>) {
        mjoin_trace::add("index_cache.trie_insert", 1);
        index.relation().fingerprint();
        lock_cache(cache).insert_cached(CachedIndex::Trie(index));
    }

    fn insert_cached(&mut self, index: CachedIndex) {
        let bytes = index.resident_bytes() as u64;
        if index.tuples() as u64 > self.budget_tuples || bytes > self.budget_bytes {
            return;
        }
        let key = (
            Arc::as_ptr(index.relation()) as usize,
            index.kind(),
            index.key_positions().into(),
        );
        self.by_fingerprint.insert(
            fingerprint_key_of(index.relation(), index.kind(), index.key_positions()),
            key.clone(),
        );
        self.tick += 1;
        self.resident_tuples += index.tuples() as u64;
        self.resident_bytes += bytes;
        mjoin_trace::add("index_cache.insert_tuples", index.tuples() as u64);
        mjoin_trace::add("index_cache.insert_bytes", bytes);
        if let Some(old) = self.map.insert(
            key.clone(),
            CacheEntry {
                index,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.debit(old.index.tuples() as u64, old.bytes);
        }
        while self.over_budget() && self.map.len() > 1 {
            let lru = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("map has a non-newest entry");
            let gone = self.remove_entry(&lru).expect("key just found");
            let evict_name = match gone.index {
                CachedIndex::Hash(_) => "index_cache.evict",
                CachedIndex::Trie(_) => "index_cache.trie_evict",
            };
            mjoin_trace::add(evict_name, 1);
            mjoin_trace::add("index_cache.evict_tuples", gone.index.tuples() as u64);
            mjoin_trace::add("index_cache.evict_bytes", gone.bytes);
        }
    }

    /// Drop every index over `rel` — called when a register holding a
    /// temporary (not one of the run's inputs) is rewritten. Relations are
    /// immutable and an index pins its relation, so this only frees memory:
    /// over-invalidating costs a rebuild, keeping an entry never a wrong
    /// answer.
    fn invalidate(&mut self, rel: &Arc<Relation>) {
        let ptr = Arc::as_ptr(rel) as usize;
        let stale: Vec<IndexKey> = self
            .map
            .keys()
            .filter(|(p, _, _)| *p == ptr)
            .cloned()
            .collect();
        for key in stale {
            self.remove_entry(&key).expect("key just listed");
        }
    }
}

/// The outcome of running a program on a database.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The answer in the program's declared result register: its rows,
    /// shared, not copied, out of the interpreter's register file, or — for
    /// a last join of fan-out at least [`FACTORIZE_MIN_FANOUT`] — a
    /// [`Product`] of its operands, or — for a last group semijoin that
    /// drops keys — a [`Selection`](ops::Selection) of its target's key
    /// groups. Each derefs to the rows; `len()` counts them without
    /// materializing.
    pub result: Answer,
    /// The cost account (inputs + every statement head).
    pub ledger: CostLedger,
    /// `|head|` after each statement, in statement order. Used by the
    /// Theorem 2 experiments to locate the peak intermediate.
    pub head_sizes: Vec<usize>,
    /// Peak *resident* tuples: the maximum, over statement boundaries in
    /// program order, of the total tuples held across all registers at
    /// once. The paper motivates linear join expressions by their single
    /// live temporary; this measures the analogous space footprint for
    /// programs. It is replayed from the head sizes, so it is a property of
    /// the program and database — the same at every thread count, though a
    /// run that executes a wide level concurrently may transiently hold
    /// more.
    pub peak_resident: u64,
    /// The statements the spill plan routed through Grace hash whose spill
    /// failed, each with its I/O error, in statement order. Each joined in
    /// memory instead — the same answer, over the budget the plan was
    /// certified against.
    pub spill_failures: Vec<(usize, String)>,
}

impl ExecOutcome {
    /// Total tuple-count cost `cost(P(D))`.
    pub fn cost(&self) -> u64 {
        self.ledger.total()
    }
}

/// The register file: shared-ownership answers, so reads are cheap and
/// concurrent statement evaluation can hold operands without copying. Only
/// the last statement's head can be a [`Product`] or a
/// [`Selection`](ops::Selection), so no statement reads one.
struct Machine {
    bases: Vec<Answer>,
    temps: Vec<Option<Answer>>,
    /// The run's input relations, the base registers' initial values.
    inputs: Vec<Arc<Relation>>,
}

impl Machine {
    fn new(program: &Program, db: &Database) -> Self {
        let inputs: Vec<Arc<Relation>> = db.relations().iter().cloned().map(Arc::new).collect();
        Machine {
            bases: inputs.iter().cloned().map(Answer::Rows).collect(),
            temps: vec![None; program.temp_names.len()],
            inputs,
        }
    }

    /// Whether `rel` is one of the run's input relations.
    fn is_input(&self, rel: &Arc<Relation>) -> bool {
        self.inputs.iter().any(|input| Arc::ptr_eq(input, rel))
    }

    /// Read a register's rows; see [`Machine::answer`].
    fn read(&self, program: &Program, reg: Reg) -> Arc<Relation> {
        self.answer(program, reg).relation()
    }

    /// Read a register; unwritten variables read through their alias chain.
    /// Costs one `Arc` clone (a reference-count bump), not a relation copy.
    fn answer(&self, program: &Program, reg: Reg) -> &Answer {
        let mut cur = reg;
        loop {
            match cur {
                Reg::Base(i) => return &self.bases[i],
                Reg::Temp(t) => match &self.temps[t] {
                    Some(answer) => return answer,
                    None => {
                        cur = program.temp_init[t]
                            .expect("validated: unwritten variable has an alias");
                    }
                },
            }
        }
    }

    /// The register at `reg_index` `idx` (see [`num_regs`]), after a write.
    fn register(&self, program: &Program, idx: usize) -> &Answer {
        match idx.checked_sub(program.num_bases) {
            None => &self.bases[idx],
            Some(t) => self.temps[t].as_ref().expect("a written register"),
        }
    }

    /// Write a register, returning the value it previously held (if any) so
    /// the caller can invalidate indices built over it.
    fn write(&mut self, reg: Reg, value: Answer) -> Option<Answer> {
        match reg {
            Reg::Base(i) => Some(std::mem::replace(&mut self.bases[i], value)),
            Reg::Temp(t) => self.temps[t].replace(value),
        }
    }
}

/// Evaluate one statement's body against the current register file. Every
/// keyed join and semijoin probes a [`JoinIndex`], and every projection
/// onto a proper, non-empty key reads one's key groups: the cached index on
/// a hit, else a fresh one it builds and inserts. A semijoin reads its
/// target's key groups instead of probing every row when the cache already
/// holds a dense index over the target with enough rows per key (see the
/// module docs); a group path counts that index as one more hit. Probes
/// run in chunks on `threads` threads from [`SMALL`] rows.
///
/// The cache mutex is taken per peek/insert, never held across a kernel;
/// hit/miss counters are bumped here rather than in [`IndexCache::peek`]
/// because a join peeks both of its sides before deciding which lookup
/// counts.
///
/// With `last` set — the program's last statement, writing its result —
/// a keyed join is counted before it is gathered, and left a [`Product`]
/// when its fan-out reaches [`FACTORIZE_MIN_FANOUT`], and a group semijoin
/// that drops keys is left a [`Selection`](ops::Selection); otherwise both
/// are gathered at once. A scheduled spill that fails leaves its I/O error
/// in `spill_failed`.
#[allow(clippy::too_many_arguments)]
fn eval_stmt(
    program: &Program,
    m: &Machine,
    stmt: &Stmt,
    threads: usize,
    spill: Option<usize>,
    last: bool,
    spill_failed: &mut Option<String>,
    cache: &SharedIndexCache,
) -> (Reg, Answer) {
    let peek = |rel: &Arc<Relation>, key_pos: &[usize]| IndexCache::peek(cache, rel, key_pos);
    match stmt {
        Stmt::Project { dst, src, attrs } => {
            let src_rel = m.read(program, *src);
            let Some(key_pos) = projection_key(&src_rel, attrs) else {
                // The identity, or the nullary projection: no key groups
                // worth an index.
                let projected = ops::project(&src_rel, Schema::from_set(attrs).attrs())
                    .expect("validated: projection attrs ⊆ source scheme");
                return (*dst, projected.into());
            };
            if let Some(index) = peek(&src_rel, &key_pos) {
                IndexCache::note_hit(&index);
                return (*dst, ops::project_indexed(&index).into());
            }
            IndexCache::note_miss();
            let index = Arc::new(JoinIndex::build(src_rel, key_pos));
            let out = ops::project_indexed(&index);
            IndexCache::insert(cache, index);
            (*dst, out.into())
        }
        Stmt::Join { dst, left, right } => {
            let l = m.read(program, *left);
            let r = m.read(program, *right);
            let (lpos, rpos) = join_key_positions(l.schema(), r.schema());
            if lpos.is_empty() {
                // Cartesian product: the empty-key index (one bucket chain
                // holding the smaller side) is worth nothing to another
                // statement, so it is not cached; and there is no key to
                // spill by — the memory analysis never schedules these.
                let (index, probe) = JoinIndex::on_smaller(l, r);
                return (
                    *dst,
                    par_join_indexed_cutoff(&index, &probe, threads, SMALL).into(),
                );
            }
            // The head a product may stand for: at least the fan-out bound
            // times the operand rows.
            let operand_rows = l.len() + r.len();
            let fanned_out = |head: usize| head >= FACTORIZE_MIN_FANOUT * operand_rows;
            if let Some(p) = spill {
                // The certificate proved this statement's build side cannot
                // fit the budget: Grace-hash through temp files, one pair's
                // index in memory at a time (a product holds the pairs' rows,
                // not their indices). On an I/O failure (temp dir full, disk
                // gone) fall through to the in-memory path rather than lose
                // the query, and say so.
                let spilled = match last {
                    true => ops::grace_hash_product(&l, &r, p).map(|(product, stats)| {
                        let answer = match fanned_out(product.len()) {
                            true => Answer::Product(Arc::new(product)),
                            false => product.materialize().clone().into(),
                        };
                        (answer, stats)
                    }),
                    false => ops::grace_hash_join(&l, &r, p).map(|(out, s)| (out.into(), s)),
                };
                match spilled {
                    Ok((out, stats)) => {
                        mjoin_trace::add("mem.partitions", stats.partitions);
                        mjoin_trace::add("mem.spilled_bytes", stats.spilled_bytes);
                        mjoin_trace::add("mem.passes", 1);
                        return (*dst, out);
                    }
                    Err(e) => {
                        mjoin_trace::add("mem.spill_failed", 1);
                        *spill_failed = Some(e.to_string());
                    }
                }
            }
            // Peek both sides; with a choice, keep the index on the larger
            // side so the smaller side does the probing.
            let hit = match (peek(&l, &lpos), peek(&r, &rpos)) {
                (Some(li), Some(ri)) => Some(if li.tuples() >= ri.tuples() {
                    (li, Arc::clone(&r))
                } else {
                    (ri, Arc::clone(&l))
                }),
                (Some(li), None) => Some((li, Arc::clone(&r))),
                (None, Some(ri)) => Some((ri, Arc::clone(&l))),
                (None, None) => None,
            };
            let join = |index: &Arc<JoinIndex>, probe: Arc<Relation>| -> Answer {
                if last {
                    let product = Product::new(Arc::clone(index), Arc::clone(&probe));
                    if fanned_out(product.len()) {
                        return Answer::Product(Arc::new(product));
                    }
                }
                par_join_indexed_cutoff(index, &probe, threads, SMALL).into()
            };
            if let Some((index, probe)) = hit {
                IndexCache::note_hit(&index);
                return (*dst, join(&index, probe));
            }
            IndexCache::note_miss();
            let (index, probe) = JoinIndex::on_smaller(l, r);
            let index = Arc::new(index);
            let out = join(&index, probe);
            IndexCache::insert(cache, index);
            (*dst, out)
        }
        Stmt::Semijoin { target, filter } => {
            let t = m.read(program, *target);
            let f = m.read(program, *filter);
            let (fpos, tpos) = join_key_positions(f.schema(), t.schema());
            if fpos.is_empty() {
                // Degenerate case: all of the target or none of it, no
                // per-tuple work to index.
                return (*target, ops::semijoin(&t, &f).into());
            }
            // A dense index the cache already holds over the target, with
            // enough rows per key, lets each key be tested once.
            let groups = IndexCache::peek_resident(cache, &t, &tpos).filter(|index| {
                index
                    .dense_groups()
                    .is_some_and(|g| g * GROUP_SEMIJOIN_MIN_ROWS <= t.len())
            });
            let (index, built) = match peek(&f, &fpos) {
                Some(index) => {
                    IndexCache::note_hit(&index);
                    (index, false)
                }
                None => {
                    IndexCache::note_miss();
                    (Arc::new(JoinIndex::build(f, fpos)), true)
                }
            };
            let out = match groups {
                Some(groups) => {
                    IndexCache::note_hit(&groups);
                    let out = ops::semijoin_grouped(&t, &groups, &index).expect("a dense index");
                    match last {
                        true => out,
                        false => Answer::Rows(out.relation()),
                    }
                }
                None => par_semijoin_indexed_cutoff(&t, &index, threads, SMALL).into(),
            };
            if built {
                IndexCache::insert(cache, index);
            }
            (*target, out)
        }
    }
}

fn stmt_kind(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Project { .. } => "project",
        Stmt::Join { .. } => "join",
        Stmt::Semijoin { .. } => "semijoin",
    }
}

/// [`eval_stmt`] wrapped in an `exec/stmt` span carrying the statement
/// index, kind, output cardinality (the data EXPLAIN ANALYZE reports) and
/// output bytes (the column bytes the head holds, which show the width its
/// integer cells were written at — a factorized head's are its operand
/// parts', and it carries `factorized`; a selection's are its slot marks,
/// and it carries `selection`), plus the I/O error of a scheduled spill
/// that failed. Only the last statement, when it writes the result, may be
/// left a product or a selection: nothing but the caller reads its head.
fn eval_stmt_traced(
    program: &Program,
    m: &Machine,
    stmt: &Stmt,
    index: usize,
    threads: usize,
    spill: Option<usize>,
    cache: &SharedIndexCache,
) -> (Reg, Answer, Option<String>) {
    let mut sp = mjoin_trace::span("exec", "stmt");
    let last = index + 1 == program.stmts.len() && stmt.head() == program.result;
    let mut failed = None;
    let (head, value) = eval_stmt(program, m, stmt, threads, spill, last, &mut failed, cache);
    if sp.is_active() {
        sp.arg("index", index);
        sp.arg("kind", stmt_kind(stmt));
        sp.arg("out_rows", value.len());
        sp.arg("out_bytes", value.resident_col_bytes());
        if value.is_factorized() {
            sp.arg("factorized", 1u64);
        }
        if value.is_selection() {
            sp.arg("selection", 1u64);
        }
        if let Some(p) = spill {
            sp.arg("spill_partitions", p);
        }
    }
    (head, value, failed)
}

/// The positions of `attrs` in `src`, the key whose index groups `π_attrs
/// src`, unless that projection is the identity or the nullary one.
fn projection_key(src: &Relation, attrs: &AttrSet) -> Option<Vec<usize>> {
    let key_pos = (src.schema().positions_of(Schema::from_set(attrs).attrs()))
        .expect("validated: projection attrs ⊆ source scheme");
    (!key_pos.is_empty() && key_pos.len() < src.schema().arity()).then_some(key_pos)
}

/// The index opportunities of one statement: `(relation, key positions)`
/// pairs an index could serve. Joins contribute both sides at the
/// natural-join key; semijoins their filter side; projections their source
/// at the projected attributes. Degenerate statements (identity and
/// nullary projections, Cartesian joins, disjoint semijoins) contribute
/// nothing.
fn stmt_index_candidates(
    program: &Program,
    m: &Machine,
    stmt: &Stmt,
) -> Vec<(Arc<Relation>, Vec<usize>)> {
    match stmt {
        Stmt::Project { src, attrs, .. } => {
            let src = m.read(program, *src);
            match projection_key(&src, attrs) {
                Some(key_pos) => vec![(src, key_pos)],
                None => Vec::new(),
            }
        }
        Stmt::Join { left, right, .. } => {
            let l = m.read(program, *left);
            let r = m.read(program, *right);
            let (lpos, rpos) = join_key_positions(l.schema(), r.schema());
            if lpos.is_empty() {
                Vec::new()
            } else {
                vec![(l, lpos), (r, rpos)]
            }
        }
        Stmt::Semijoin { target, filter } => {
            let t = m.read(program, *target);
            let f = m.read(program, *filter);
            let (fpos, _) = join_key_positions(f.schema(), t.schema());
            if fpos.is_empty() {
                return Vec::new();
            }
            vec![(f, fpos)]
        }
    }
}

/// Before a level of width > 1 runs, put the indices two or more of its
/// statements want into the cache: one build, many probes, whatever the
/// relation's size. The build counts as the one miss it represents; each
/// statement that then probes it counts a hit. Pairs wanted once are left
/// to their statement ([`eval_stmt`] builds them on a miss). If the
/// budget evicts (or refuses) the index before a statement peeks, that
/// statement just misses.
fn prefetch_level_indices(
    program: &Program,
    m: &Machine,
    cache: &SharedIndexCache,
    level: &[usize],
) {
    let wanted: Vec<(Arc<Relation>, Vec<usize>)> = level
        .iter()
        .flat_map(|&i| stmt_index_candidates(program, m, &program.stmts[i]))
        .collect();
    let mut demand: FxHashMap<IndexKey, usize> = FxHashMap::default();
    for (rel, pos) in &wanted {
        *demand.entry(index_key(rel, pos)).or_insert(0) += 1;
    }
    for (rel, pos) in wanted {
        // `remove` so each shared key is handled once.
        let shared = demand
            .remove(&index_key(&rel, &pos))
            .is_some_and(|d| d >= 2);
        if shared && IndexCache::peek(cache, &rel, &pos).is_none() {
            IndexCache::note_miss();
            // Built outside the lock (the guard above died with the `if`
            // condition).
            let index = Arc::new(JoinIndex::build(rel, pos));
            IndexCache::insert(cache, index);
        }
    }
}

/// Execute `program` on `db` with the default [`ExecConfig`] (a private
/// index cache, one thread).
///
/// The program should have passed [`crate::validate::validate`]; running an
/// invalid program may panic (it will not produce wrong answers silently).
pub fn execute(program: &Program, db: &Database) -> ExecOutcome {
    execute_with(program, db, &ExecConfig::default())
}

/// Execute `program` on `db` under an explicit [`ExecConfig`]. The
/// observable [`ExecOutcome`] depends only on the program and database —
/// never on the thread count or on what the index cache holds or refuses
/// (the differential tests in `mjoin-core` enforce this).
pub fn execute_with(program: &Program, db: &Database, cfg: &ExecConfig) -> ExecOutcome {
    try_execute_with(program, db, cfg)
        .expect("execution cancelled — use try_execute_with to observe cancellation")
}

/// [`execute_with`], but surfacing a fired [`ExecConfig::cancel`] token as
/// a [`Cancelled`] value instead of a panic. A run with no token (or one
/// that never fires) always returns `Ok`.
///
/// This is the one executor loop (see the module docs): it walks a list of
/// levels, evaluating each level's statements against the register file as
/// the previous level left it and writing the heads back before the next.
pub fn try_execute_with(
    program: &Program,
    db: &Database,
    cfg: &ExecConfig,
) -> Result<ExecOutcome, Cancelled> {
    run(program, db, cfg, None)
}

/// The fingerprints of one program's statement heads over one database,
/// kept across its runs by [`try_execute_seeded`]. A run records the
/// fingerprint of every head it computed one for (an index lookup or
/// insert on a fresh head computes it), and a later run seeds it into the
/// same statement's fresh head ([`Relation::seed_fingerprint`]), so from
/// the second run on no temporary hashes a row. That is sound because a
/// head is a deterministic set of rows over the same input rows.
#[derive(Debug, Default)]
pub struct HeadFingerprints {
    heads: OnceLock<Box<[OnceLock<u128>]>>,
}

impl HeadFingerprints {
    /// One slot per statement of a program of `stmts` statements.
    fn slots(&self, stmts: usize) -> &[OnceLock<u128>] {
        let slots = self
            .heads
            .get_or_init(|| (0..stmts).map(|_| OnceLock::new()).collect());
        debug_assert_eq!(slots.len(), stmts, "head fingerprints of another program");
        slots
    }
}

/// Record a head's fingerprint if its run computed one.
fn record_head(slot: &OnceLock<u128>, head: &Answer) {
    if let Some(fp) = rows_of(head).and_then(Relation::memoized_fingerprint) {
        let _ = slot.set(fp);
    }
}

/// The relation of an answer that is rows (neither a product nor a
/// selection).
fn rows_of(answer: &Answer) -> Option<&Relation> {
    match answer {
        Answer::Rows(rel) => Some(rel),
        Answer::Product(_) | Answer::Selection(_) => None,
    }
}

/// [`try_execute_with`] for a program that runs again over the same
/// database: heads' fingerprints are recorded into and seeded from `heads`
/// (see [`HeadFingerprints`]). The outcome is the same.
pub fn try_execute_seeded(
    program: &Program,
    db: &Database,
    cfg: &ExecConfig,
    heads: &HeadFingerprints,
) -> Result<ExecOutcome, Cancelled> {
    run(program, db, cfg, Some(heads))
}

/// The executor loop behind [`try_execute_with`] and
/// [`try_execute_seeded`].
fn run(
    program: &Program,
    db: &Database,
    cfg: &ExecConfig,
    heads: Option<&HeadFingerprints>,
) -> Result<ExecOutcome, Cancelled> {
    assert_eq!(
        program.num_bases,
        db.len(),
        "program and database disagree on the number of relations"
    );
    let threads = cfg.threads.max(1);
    let n = program.stmts.len();
    let levels: Vec<Vec<usize>> = if threads == 1 {
        // The trivial schedule: program order, nothing to analyze.
        (0..n).map(|i| vec![i]).collect()
    } else {
        let sched = schedule(program);
        // Double-entry race check: in debug builds, never trust a schedule
        // the independent auditor rejects. Compiled out of release builds.
        #[cfg(debug_assertions)]
        if let Err(e) = crate::schedule::audit_schedule(program, &sched) {
            panic!("schedule failed its audit: {e}");
        }
        sched.levels
    };
    let mut sp = mjoin_trace::span("exec", "execute");
    if sp.is_active() {
        sp.arg("stmts", n);
        sp.arg("threads", threads);
    }

    let mut m = Machine::new(program, db);
    let cache = cfg.run_cache();
    let cache = &cache;
    let mut head_sizes = vec![0usize; n];
    let mut spill_failures = Vec::new();
    let heads = heads.map(|h| h.slots(n));
    // The statement whose head each register holds, by `reg_index`.
    let mut producer: Vec<Option<usize>> = vec![None; num_regs(program)];

    for (lv, level) in levels.into_iter().enumerate() {
        if cfg.cancelled() {
            // A level's indices ascend, and every later level depends on
            // this one: its first statement is the smallest unexecuted.
            return Err(Cancelled { at_stmt: level[0] });
        }
        // Only a level of width > 1 is more than its one `exec/stmt`: it
        // gets a span of its own and the shared-index prefetch.
        let mut level_sp = None;
        if level.len() > 1 {
            let level_sp = level_sp.insert(mjoin_trace::span("exec", "level"));
            if level_sp.is_active() {
                level_sp.arg("level", lv + 1);
                level_sp.arg("stmts", level.len());
            }
            prefetch_level_indices(program, &m, cache, &level);
        }
        // At most `threads` threads, this one among them, run the level.
        let computed = par_map(level, threads, |i| {
            let spill = cfg.spill_partitions(i);
            let stmt = &program.stmts[i];
            let head = eval_stmt_traced(program, &m, stmt, i, threads, spill, cache);
            (i, head)
        });
        for (i, (head, value, failed)) in computed {
            spill_failures.extend(failed.map(|e| (i, e)));
            head_sizes[i] = value.len();
            mjoin_trace::add("exec.head_tuples", value.len() as u64);
            let seeded = heads.and_then(|h| h[i].get());
            if let (Some(&fp), Some(rel)) = (seeded, rows_of(&value)) {
                rel.seed_fingerprint(fp);
            }
            let old = m.write(head, value);
            let overwritten = producer[reg_index(program, head)].replace(i);
            if let (Some(heads), Some(p), Some(old)) = (heads, overwritten, &old) {
                record_head(&heads[p], old);
            }
            // Indices over an input stay cached (see `IndexCache`).
            if let Some(Answer::Rows(old)) = old {
                if !m.is_input(&old) {
                    lock_cache(cache).invalidate(&old);
                }
            }
        }
    }
    if let Some(heads) = heads {
        for (reg, p) in producer.iter().enumerate() {
            if let Some(p) = *p {
                record_head(&heads[p], m.register(program, reg));
            }
        }
    }
    // An input's fingerprint computed during the run goes back to the
    // caller's relation, so a later run over it does not hash it again.
    for (input, rel) in m.inputs.iter().zip(db.relations()) {
        if let (Some(fp), None) = (input.memoized_fingerprint(), rel.memoized_fingerprint()) {
            rel.seed_fingerprint(fp);
        }
    }

    // Levels need not run statements in index order.
    spill_failures.sort_unstable();
    // Heads are charged in *statement* order whatever order the levels ran
    // them in, so the ledger does not depend on the schedule.
    let mut ledger = CostLedger::new();
    db.charge_inputs(&mut ledger);
    for (i, &size) in head_sizes.iter().enumerate() {
        ledger.charge_generated(format!("stmt {i}"), size);
    }
    Ok(ExecOutcome {
        result: m.answer(program, program.result).clone(),
        ledger,
        peak_resident: peak_resident(program, db, &head_sizes),
        head_sizes,
        spill_failures,
    })
}

/// Replay register sizes in statement order: each statement replaces its
/// head register's size with `sizes[i]`, and the footprint is sampled at
/// every statement boundary. Head sizes determine the whole trajectory, so
/// the figure is a property of the program and database, not of the
/// schedule that ran it.
fn peak_resident(program: &Program, db: &Database, sizes: &[usize]) -> u64 {
    let mut base_sizes: Vec<u64> = db.relations().iter().map(|r| r.len() as u64).collect();
    let mut temp_sizes: Vec<u64> = vec![0; program.temp_names.len()];
    let mut resident: u64 = base_sizes.iter().sum();
    let mut peak = resident;
    for (stmt, &size) in program.stmts.iter().zip(sizes) {
        let slot = match stmt.head() {
            Reg::Base(i) => &mut base_sizes[i],
            Reg::Temp(t) => &mut temp_sizes[t],
        };
        resident = resident - *slot + size as u64;
        *slot = size as u64;
        peak = peak.max(resident);
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use mjoin_hypergraph::DbScheme;
    use mjoin_relation::{relation_of_ints, Catalog};

    /// Run `f` with tracing on and return what it recorded. Serialized: the
    /// sink is process-global, so two tests toggling it concurrently would
    /// switch each other off mid-run and drain each other's counters.
    fn traced<T>(f: impl FnOnce() -> T) -> (T, mjoin_trace::Trace) {
        static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serial = TRACING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        mjoin_trace::set_enabled(true);
        mjoin_trace::clear();
        let out = f();
        let trace = mjoin_trace::take();
        mjoin_trace::set_enabled(false);
        (out, trace)
    }

    fn chain_db() -> (Catalog, DbScheme, Database) {
        let mut c = Catalog::new();
        let r = relation_of_ints(&mut c, "AB", &[&[1, 2], &[9, 8]]).unwrap();
        let s = relation_of_ints(&mut c, "BC", &[&[2, 3], &[7, 7]]).unwrap();
        let t = relation_of_ints(&mut c, "CD", &[&[3, 4]]).unwrap();
        let scheme = DbScheme::parse(&mut c, &["AB", "BC", "CD"]);
        (c, scheme, Database::from_relations(vec![r, s, t]))
    }

    #[test]
    fn join_program_computes_full_join() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let out = execute(&p, &db);
        assert_eq!(*out.result, db.join_all());
        // cost: inputs 2+2+1 = 5, AB⋈BC = 1, ⋈CD = 1 → 7.
        assert_eq!(out.cost(), 7);
        assert_eq!(out.head_sizes, vec![1, 1]);
    }

    #[test]
    fn semijoin_reduction_lowers_cost() {
        let (_c, scheme, db) = chain_db();
        // Reduce AB by BC before joining: dangling (9,8) disappears early.
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(v, Reg::Base(1)); // V := AB ⋉ BC → {(1,2)}
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let out = execute(&p, &db);
        assert_eq!(*out.result, db.join_all());
        assert_eq!(out.head_sizes, vec![1, 1, 1]);
        assert_eq!(out.cost(), 5 + 3);
    }

    #[test]
    fn alias_reads_through_without_cost() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        let p = b.finish(v);
        let out = execute(&p, &db);
        // No statements: result is just R(AB); cost is the inputs only.
        assert_eq!(*out.result, *db.relation(0));
        assert_eq!(out.cost(), db.total_tuples());
        assert!(out.head_sizes.is_empty());
        assert_eq!(out.peak_resident, db.total_tuples());
    }

    #[test]
    fn peak_resident_tracks_live_registers() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let out = execute(&p, &db);
        // Inputs (5 tuples) stay resident; V adds at most 1 tuple.
        assert_eq!(out.peak_resident, 6);
        assert!(out.peak_resident <= out.cost());
    }

    #[test]
    fn projection_statement() {
        let (c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        let f = b.new_temp("F");
        let b_attr = mjoin_relation::AttrSet::singleton(c.lookup("B").unwrap());
        b.project(f, Reg::Base(0), b_attr);
        let p = b.finish(f);
        let out = execute(&p, &db);
        assert_eq!(out.result.len(), 2); // π_B(AB) = {2, 8}
        assert_eq!(out.result.schema().arity(), 1);
    }

    #[test]
    fn base_register_can_be_reduced_in_place() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        b.semijoin(Reg::Base(0), Reg::Base(1));
        let p = b.finish(Reg::Base(0));
        let out = execute(&p, &db);
        assert_eq!(out.result.len(), 1);
        // Original database untouched.
        assert_eq!(db.relation(0).len(), 2);
    }

    #[test]
    #[should_panic(expected = "disagree on the number of relations")]
    fn wrong_database_size_panics() {
        let (_c, scheme, db) = chain_db();
        let b = ProgramBuilder::new(&scheme);
        let p = b.finish(Reg::Base(0));
        let small = db.restrict(&[0, 1]);
        execute(&p, &small);
    }

    #[test]
    fn reading_a_register_shares_rather_than_copies() {
        let (_c, scheme, db) = chain_db();
        let b = ProgramBuilder::new(&scheme);
        let p = b.finish(Reg::Base(0));
        let m = Machine::new(&p, &db);
        let first = m.read(&p, Reg::Base(0));
        let second = m.read(&p, Reg::Base(0));
        assert!(
            Arc::ptr_eq(&first, &second),
            "read must return the same shared allocation"
        );
    }

    #[test]
    fn outcome_is_the_same_at_every_thread_count() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        // Mix of parallelizable reductions and a serial join chain.
        b.semijoin(Reg::Base(0), Reg::Base(1));
        b.semijoin(Reg::Base(2), Reg::Base(1));
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let seq = execute(&p, &db);
        for threads in [2, 4] {
            let par = execute_with(&p, &db, &ExecConfig::with_threads(threads));
            assert_eq!(*par.result, *seq.result, "threads = {threads}");
            assert_eq!(par.head_sizes, seq.head_sizes, "threads = {threads}");
            assert_eq!(par.peak_resident, seq.peak_resident, "threads = {threads}");
            assert_eq!(par.ledger, seq.ledger, "threads = {threads}");
        }
    }

    /// A level wider than `threads` runs on at most `threads` threads and
    /// gives the one-thread outcome.
    #[test]
    fn a_wide_level_runs_on_at_most_threads_threads() {
        use std::collections::BTreeSet;
        let mut c = Catalog::new();
        let hub: Vec<Vec<i64>> = (0..200).map(|k| vec![k; 5]).collect();
        let hub: Vec<&[i64]> = hub.iter().map(Vec::as_slice).collect();
        let mut rels = vec![relation_of_ints(&mut c, "ABCDE", &hub).unwrap()];
        // Spoke i keeps all of its 100 + i rows, so `out_rows` tells this
        // run's statements from any other test's.
        let spokes = ["AF", "BG", "CH", "DI", "EJ"];
        for (i, scheme) in spokes.iter().enumerate() {
            let rows: Vec<Vec<i64>> = (0..100 + i as i64).map(|k| vec![k, -k]).collect();
            let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
            rels.push(relation_of_ints(&mut c, scheme, &rows).unwrap());
        }
        let scheme = DbScheme::parse(&mut c, &["ABCDE", "AF", "BG", "CH", "DI", "EJ"]);
        let db = Database::from_relations(rels);
        let mut b = ProgramBuilder::new(&scheme);
        for spoke in 1..=spokes.len() {
            b.semijoin(Reg::Base(spoke), Reg::Base(0));
        }
        let p = b.finish(Reg::Base(1));
        assert_eq!(schedule(&p).levels, vec![vec![0, 1, 2, 3, 4]]);

        let seq = execute(&p, &db);
        let (par, t) = traced(|| execute_with(&p, &db, &ExecConfig::with_threads(2)));
        let int = |e: &mjoin_trace::Event, key| e.arg(key).and_then(mjoin_trace::ArgValue::as_int);
        let (mut stmts, mut tids) = (BTreeSet::new(), BTreeSet::new());
        for e in &t.events {
            if let (("exec", "stmt"), Some(i), Some(out)) =
                ((e.cat, e.name), int(e, "index"), int(e, "out_rows"))
            {
                if out == 100 + i {
                    stmts.insert(i);
                    tids.insert(e.tid);
                }
            }
        }
        assert_eq!(stmts, (0..5).collect());
        assert!(tids.len() <= 2, "the level ran on threads {tids:?}");
        assert_eq!(*par.result, *seq.result);
        assert_eq!(par.ledger, seq.ledger);
        assert_eq!(par.head_sizes, seq.head_sizes);
        assert_eq!(par.head_sizes, vec![100, 101, 102, 103, 104]);
        assert_eq!(par.peak_resident, seq.peak_resident);
    }

    #[test]
    fn index_cache_fingerprint_hits_on_tsv_reload() {
        use mjoin_relation::tsv::{relation_from_tsv, relation_to_tsv};
        let mut c = Catalog::new();
        let ab = relation_of_ints(&mut c, "AB", &[&[1, 2], &[5, 6]]).unwrap();
        let bc = relation_of_ints(&mut c, "BC", &[&[2, 3], &[6, 7]]).unwrap();
        let db_rel = relation_of_ints(&mut c, "DB", &[&[4, 2], &[9, 6]]).unwrap();
        // Round-trip BC through TSV: same tuples, a fresh allocation.
        let text = relation_to_tsv(&c, &bc);
        let bc_reload = relation_from_tsv(&mut c, &text).unwrap();
        assert_eq!(bc, bc_reload);
        assert_eq!(bc.fingerprint(), bc_reload.fingerprint());
        let scheme = DbScheme::parse(&mut c, &["AB", "BC", "DB", "BC"]);
        let database = Database::from_relations(vec![ab, bc, db_rel, bc_reload]);

        let mut b = ProgramBuilder::new(&scheme);
        b.semijoin(Reg::Base(0), Reg::Base(1)); // builds + caches the BC index
        b.semijoin(Reg::Base(2), Reg::Base(3)); // reloaded BC: fresh Arc, same tuples
        let p = b.finish(Reg::Base(0));

        let (out, t) = traced(|| execute(&p, &database));
        assert!(
            t.counter("index_cache.fingerprint_hit").unwrap_or(0) >= 1,
            "the reloaded relation must reuse the cached index via its fingerprint"
        );
        assert!(t.counter("index_cache.hit").unwrap_or(0) >= 1);
        assert_eq!(out.head_sizes, vec![2, 2]); // every B value appears in BC
    }

    /// Churn inserts/evictions through a tiny-budget cache using relations
    /// that *share* dictionary allocations (so the live
    /// `JoinIndex::resident_bytes` of an entry can differ from what a
    /// naive re-measure would say), then clear: the frozen-figure
    /// accounting must land back on exactly zero, never drift or
    /// underflow.
    #[test]
    fn cache_accounting_survives_churn_with_shared_dicts() {
        use mjoin_relation::Value;
        let mut c = Catalog::new();
        let a = c.intern("A");
        let b = c.intern("B");
        // One batch of string relations built over a common value pool so
        // columnar dictionaries share allocations across relations.
        let make = |salt: usize| {
            let rows: Vec<mjoin_relation::Row> = (0..64)
                .map(|i| {
                    vec![
                        Value::str(format!("k{}", (i + salt) % 16)),
                        Value::str(format!("v{i}")),
                    ]
                    .into()
                })
                .collect();
            Arc::new(Relation::from_rows(Schema::new(vec![a, b]), rows).unwrap())
        };
        let rels: Vec<Arc<Relation>> = (0..12).map(make).collect();

        // Budgets small enough that inserting all 12 indices forces many
        // evictions (each index pins 64 tuples).
        let shared = IndexCache::shared(200, u64::MAX);
        for round in 0..4 {
            for rel in &rels {
                let idx = Arc::new(JoinIndex::build(Arc::clone(rel), vec![0]));
                IndexCache::insert(&shared, idx);
                assert!(
                    lock_cache(&shared).resident_tuples() <= 200 + 64,
                    "round {round}: eviction failed to bound residency"
                );
            }
            // Re-inserting an already-cached key replaces in place.
            let idx = Arc::new(JoinIndex::build(Arc::clone(&rels[0]), vec![0]));
            IndexCache::insert(&shared, idx);
            // Invalidate a few by pointer.
            lock_cache(&shared).invalidate(&rels[1]);
            lock_cache(&shared).invalidate(&rels[2]);
        }
        let mut cache = lock_cache(&shared);
        assert!(cache.entries() > 0);
        cache.clear();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.resident_tuples(), 0, "tuple accounting drifted");
        assert_eq!(cache.resident_bytes(), 0, "byte accounting drifted");
    }

    /// A peek hashes a fresh relation before it takes the cache's lock, so
    /// a session holding the lock never waits on another's hash: while
    /// another thread holds the lock, a peek of a fresh 100,000-row
    /// relation gets as far as memoizing its fingerprint, for the hash
    /// index and the trie alike.
    #[test]
    fn a_peek_hashes_a_fresh_relation_outside_the_cache_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        type Peek = fn(&SharedIndexCache, &Arc<Relation>) -> bool;
        let peeks: [Peek; 2] = [
            |cache, rel| IndexCache::peek(cache, rel, &[0]).is_some(),
            |cache, rel| IndexCache::peek_trie(cache, rel, &[0, 1]).is_some(),
        ];
        let rows: Vec<[i64; 2]> = (0..100_000).map(|i| [i, i % 97]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| &r[..]).collect();
        for peek in peeks {
            let rel = Arc::new(relation_of_ints(&mut Catalog::new(), "AB", &rows).unwrap());
            let cache = IndexCache::shared(u64::MAX, u64::MAX);
            let (locked, is_locked) = mpsc::channel();
            let holder = {
                let (cache, rel) = (Arc::clone(&cache), Arc::clone(&rel));
                std::thread::spawn(move || {
                    let _guard = lock_cache(&cache);
                    locked.send(()).unwrap();
                    let give_up = Instant::now() + Duration::from_secs(30);
                    while rel.memoized_fingerprint().is_none() && Instant::now() < give_up {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    rel.memoized_fingerprint().is_some()
                })
            };
            is_locked.recv().unwrap();
            assert!(!peek(&cache, &rel), "an empty cache holds no index");
            assert!(holder.join().unwrap(), "the peek hashed under the lock");
        }
    }

    /// Regression: a `by_fingerprint` alias must never serve another
    /// relation's index. Removal paths drop the alias with the entry, and
    /// even an alias that survives into the pointer-reuse window (grafted
    /// by hand here: same schema, same row count, different content — the
    /// shape the old schema+len validation could not tell apart) must fail
    /// the content check and miss instead of returning the wrong index.
    #[test]
    fn stale_fingerprint_alias_never_serves_another_relations_index() {
        let mut c = Catalog::new();
        let r1 = Arc::new(relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap());
        let r2 = Arc::new(relation_of_ints(&mut c, "AB", &[&[5, 6], &[7, 8]]).unwrap());
        let cache = IndexCache::shared(u64::MAX, u64::MAX);

        IndexCache::insert(&cache, Arc::new(JoinIndex::build(Arc::clone(&r1), vec![0])));
        lock_cache(&cache).invalidate(&r1);
        assert!(
            lock_cache(&cache).by_fingerprint.is_empty(),
            "the alias must die with its primary entry"
        );

        IndexCache::insert(&cache, Arc::new(JoinIndex::build(Arc::clone(&r2), vec![0])));
        lock_cache(&cache).by_fingerprint.insert(
            fingerprint_key_of(&r1, KIND_HASH, &[0]),
            index_key(&r2, &[0]),
        );
        // A fresh allocation with r1's content takes the fallback path.
        let r1_again = Arc::new(relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap());
        assert!(
            IndexCache::peek(&cache, &r1_again, &[0]).is_none(),
            "stale alias served a different relation's index"
        );
        // The poisoned alias is dropped; r2's own entry is untouched.
        assert!(!lock_cache(&cache)
            .by_fingerprint
            .contains_key(&fingerprint_key_of(&r1, KIND_HASH, &[0])));
        assert!(IndexCache::peek(&cache, &r2, &[0]).is_some());
    }

    /// Trie views live in the same cache as hash indices: kind-tagged keys
    /// keep them apart for the same `(relation, positions)` pair and both
    /// count against one budget. Asserts on the cache's own accessors only:
    /// the process-global trace counters are shared with every concurrently
    /// running test that touches an index cache.
    #[test]
    fn trie_and_hash_entries_coexist_under_one_budget() {
        use mjoin_relation::ops::TrieIndex;
        let mut c = Catalog::new();
        let r = Arc::new(relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap());
        let shared = IndexCache::shared(u64::MAX, u64::MAX);

        assert!(
            IndexCache::peek_trie(&shared, &r, &[0, 1]).is_none(),
            "cold cache"
        );
        IndexCache::insert(
            &shared,
            Arc::new(JoinIndex::build(Arc::clone(&r), vec![0, 1])),
        );
        assert!(
            IndexCache::peek_trie(&shared, &r, &[0, 1]).is_none(),
            "a hash entry must not satisfy a trie lookup"
        );
        IndexCache::insert_trie(
            &shared,
            Arc::new(TrieIndex::build(Arc::clone(&r), vec![0, 1])),
        );
        assert_eq!(
            lock_cache(&shared).entries(),
            2,
            "same (rel, positions), two kinds"
        );
        assert!(IndexCache::peek(&shared, &r, &[0, 1]).is_some());
        assert!(IndexCache::peek_trie(&shared, &r, &[0, 1]).is_some());
        let mut cache = lock_cache(&shared);
        assert_eq!(cache.resident_tuples(), 4, "both entries pin their tuples");
        drop(cache);

        // Fingerprint fallback works for tries too: same content, new Arc.
        let r_again = Arc::new(relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap());
        assert!(IndexCache::peek_trie(&shared, &r_again, &[0, 1]).is_some());
        cache = lock_cache(&shared);
        assert_eq!(cache.entries(), 2, "lookups insert nothing");

        cache.clear();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.resident_tuples(), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    /// A cached trie is charged exactly its level payloads (plus the
    /// relation it pins): nothing else is retained per tuple.
    #[test]
    fn trie_cache_accounting_is_the_level_payloads() {
        use mjoin_relation::ops::TrieIndex;
        let mut c = Catalog::new();
        let r = Arc::new(relation_of_ints(&mut c, "AB", &[&[1, 2], &[3, 4]]).unwrap());
        let t = Arc::new(TrieIndex::build(Arc::clone(&r), vec![0, 1]));
        // Two permuted levels of one-byte cells (each column spans 2).
        let level_bytes = t.depth() * t.tuples();
        assert_eq!(t.heap_bytes(), level_bytes);

        let shared = IndexCache::shared(u64::MAX, u64::MAX);
        let resident = t.resident_bytes() as u64;
        assert_eq!(resident, (level_bytes + r.resident_col_bytes()) as u64);
        IndexCache::insert_trie(&shared, t);
        let mut cache = lock_cache(&shared);
        assert_eq!(cache.resident_bytes(), resident);
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
    }

    /// A [`SpillPlan`] routes exactly the scheduled statements through the
    /// Grace-hash path; the result is identical to the in-memory run and
    /// the `mem.*` counters record the partition work.
    #[test]
    fn spill_plan_routes_statements_through_grace_hash() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);
        let unbudgeted = execute(&p, &db);

        for threads in [1usize, 4] {
            let cfg = ExecConfig {
                mem_budget: Some(1),
                spill: Some(Arc::new(SpillPlan::new(vec![Some(2), None]))),
                ..ExecConfig::with_threads(threads)
            };
            let (out, t) = traced(|| execute_with(&p, &db, &cfg));
            assert_eq!(*out.result, *unbudgeted.result, "threads = {threads}");
            assert_eq!(out.head_sizes, unbudgeted.head_sizes);
            assert_eq!(
                t.counter("mem.passes"),
                Some(1),
                "exactly the one planned statement spills (threads = {threads})"
            );
            assert_eq!(t.counter("mem.partitions"), Some(2));
            assert!(t.counter("mem.spilled_bytes").unwrap_or(0) > 0);
        }

        // No plan → no spill, no counters.
        let (out, t) = traced(|| execute(&p, &db));
        assert_eq!(*out.result, *unbudgeted.result);
        assert_eq!(t.counter("mem.passes"), None);
    }

    /// `chain_spill`'s many-to-many shape: `AB` and `BC` of `n` rows each
    /// on a 4-valued `B`, whose join holds `n²/4` rows — fan-out `n/8`.
    fn many_to_many(n: i64) -> (DbScheme, Database) {
        let mut c = Catalog::new();
        let ab: Vec<[i64; 2]> = (0..n).map(|i| [i, i % 4]).collect();
        let bc: Vec<[i64; 2]> = (0..n).map(|i| [i % 4, 1000 + i]).collect();
        let ab: Vec<&[i64]> = ab.iter().map(|r| &r[..]).collect();
        let bc: Vec<&[i64]> = bc.iter().map(|r| &r[..]).collect();
        let r = relation_of_ints(&mut c, "AB", &ab).unwrap();
        let s = relation_of_ints(&mut c, "BC", &bc).unwrap();
        let scheme = DbScheme::parse(&mut c, &["AB", "BC"]);
        (scheme, Database::from_relations(vec![r, s]))
    }

    /// A last join writing the result is left a product from fan-out
    /// [`FACTORIZE_MIN_FANOUT`] up — in memory and spilled, at one and four
    /// threads — with the gathered join's length, rows and ledger; just
    /// below it, or not last, the head is gathered.
    #[test]
    fn a_last_join_of_high_fan_out_is_left_factorized() {
        // Fan-out 64²/4 / 128 = 8 and 60²/4 / 120 = 7.5.
        for (n, factorized) in [(64, true), (60, false)] {
            let (scheme, db) = many_to_many(n);
            let mut b = ProgramBuilder::new(&scheme);
            let x = b.new_temp("X");
            b.join(x, Reg::Base(0), Reg::Base(1));
            let p = b.finish(x);
            let plans = [None, Some(Arc::new(SpillPlan::new(vec![Some(2)])))];
            for (threads, spill) in [1, 4]
                .into_iter()
                .flat_map(|t| plans.clone().map(|s| (t, s)))
            {
                let what = format!("n = {n}, threads = {threads}, spill = {spill:?}");
                let cfg = ExecConfig {
                    spill,
                    ..ExecConfig::with_threads(threads)
                };
                // Serialized with the tests that read the global `mem.*`
                // counters, which a spilled run adds to.
                let (out, _) = traced(|| execute_with(&p, &db, &cfg));
                assert_eq!(out.result.is_factorized(), factorized, "{what}");
                assert_eq!(out.result.len(), (n * n / 4) as usize, "{what}");
                assert_eq!(out.head_sizes, vec![(n * n / 4) as usize], "{what}");
                assert_eq!(out.cost(), (2 * n + n * n / 4) as u64, "{what}");
                assert_eq!(*out.result, db.join_all(), "{what}");
            }
            // Not last: the same join, read by a later statement, is gathered.
            let mut b = ProgramBuilder::new(&scheme);
            let x = b.new_temp("X");
            b.join(x, Reg::Base(0), Reg::Base(1));
            b.semijoin(x, Reg::Base(0));
            let out = execute(&b.finish(x), &db);
            assert!(!out.result.is_factorized(), "n = {n}");
            assert_eq!(*out.result, db.join_all(), "n = {n}");
        }
    }

    /// A factorized head's `exec/stmt` span says so, and its `out_bytes`
    /// are the column bytes of the operands it holds, not of its rows.
    #[test]
    fn a_factorized_head_is_traced_at_the_bytes_it_holds() {
        let (scheme, db) = many_to_many(64);
        let mut b = ProgramBuilder::new(&scheme);
        let x = b.new_temp("X");
        b.join(x, Reg::Base(0), Reg::Base(1));
        let p = b.finish(x);
        let (out, t) = traced(|| {
            // A span of this thread's, to tell its events from other tests'.
            drop(mjoin_trace::span("test", "marker"));
            execute(&p, &db)
        });
        assert!(out.result.is_factorized());
        let tid = t.events.iter().find(|e| e.name == "marker").unwrap().tid;
        let stmt = (t.events.iter())
            .find(|e| (e.tid, e.cat, e.name) == (tid, "exec", "stmt"))
            .expect("an exec/stmt span");
        let operands: usize = db
            .relations()
            .iter()
            .map(Relation::resident_col_bytes)
            .sum();
        assert_eq!(stmt.int_arg("factorized"), Some(1));
        assert_eq!(stmt.int_arg("out_rows"), Some(1024));
        assert_eq!(stmt.int_arg("out_bytes"), Some(operands as i64));
        assert_eq!(out.result.resident_col_bytes(), operands);
    }

    /// A shared cache passed through `ExecConfig.cache` carries warm
    /// indices from one run into the next — the resident-server path — at
    /// every thread count, including programs whose levels all have width 1.
    #[test]
    fn shared_cache_warms_at_every_thread_count() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.semijoin(v, Reg::Base(1));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);

        for threads in [1, 2, 4] {
            let shared = IndexCache::shared(4 << 20, 256 << 20);
            let cfg = ExecConfig {
                cache: Some(Arc::clone(&shared)),
                ..ExecConfig::with_threads(threads)
            };
            let first = execute_with(&p, &db, &cfg);
            let (second, warm) = traced(|| execute_with(&p, &db, &cfg));

            assert_eq!(*first.result, *second.result, "threads = {threads}");
            assert!(
                warm.counter("index_cache.hit").unwrap_or(0) >= 1,
                "threads = {threads}: the second run must hit the index the first run left \
                 in the shared cache"
            );
            assert!(lock_cache(&shared).entries() >= 1, "threads = {threads}");
        }
    }

    /// A keyed join that misses leaves its index — over the smaller side, a
    /// tie going left — in the cache for later statements and runs; a
    /// Cartesian join's empty-key index is not kept.
    #[test]
    fn a_join_miss_caches_its_index_and_a_cartesian_join_does_not() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        let x = b.new_temp("X");
        let y = b.new_temp("Y");
        b.join(x, Reg::Base(0), Reg::Base(1)); // AB ⋈ BC on B
        b.join(y, Reg::Base(0), Reg::Base(2)); // AB × CD
        let p = b.finish(x);
        for threads in [1, 4] {
            let shared = IndexCache::shared(DEFAULT_CACHE_TUPLES, DEFAULT_CACHE_BYTES);
            let cfg = ExecConfig {
                cache: Some(Arc::clone(&shared)),
                ..ExecConfig::with_threads(threads)
            };
            let out = execute_with(&p, &db, &cfg);
            assert_eq!(out.head_sizes, vec![1, 2], "threads = {threads}");
            assert_eq!(lock_cache(&shared).entries(), 1, "threads = {threads}");
            let input = Arc::new(db.relation(0).clone());
            assert!(IndexCache::peek(&shared, &input, &[1]).is_some());
        }
    }

    /// A pre-fired token stops execution before the first statement; a
    /// token that never fires changes nothing.
    #[test]
    fn cancellation_stops_at_statement_boundaries() {
        let (_c, scheme, db) = chain_db();
        let mut b = ProgramBuilder::new(&scheme);
        let v = b.new_temp_alias("V", Reg::Base(0));
        b.join(v, v, Reg::Base(1));
        b.join(v, v, Reg::Base(2));
        let p = b.finish(v);

        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let cfg = ExecConfig {
                cancel: Some(token.clone()),
                ..ExecConfig::with_threads(threads)
            };
            let err = try_execute_with(&p, &db, &cfg).unwrap_err();
            assert_eq!(err.at_stmt, 0, "threads = {threads}");
        }

        let live = ExecConfig {
            cancel: Some(CancelToken::new()),
            ..ExecConfig::default()
        };
        let out = try_execute_with(&p, &db, &live).unwrap();
        assert_eq!(*out.result, db.join_all());

        // An already-expired deadline cancels exactly like an explicit
        // cancel.
        let expired = ExecConfig {
            cancel: Some(CancelToken::with_deadline(std::time::Instant::now())),
            ..ExecConfig::default()
        };
        assert!(try_execute_with(&p, &db, &expired).is_err());
    }

    /// `serve_warm`'s reducer in small: a 2,003-row hub `AB` over 53 keys,
    /// three 131-row spokes over 50 of them reduced by the hub, projected
    /// onto `B`, intersected and folded back into the hub. The guard keeps
    /// a second test that runs it from running at once: each tells its
    /// spans from other tests' by the hub's sizes, which only they share.
    fn hub_reducer() -> (MutexGuard<'static, ()>, Database, Program) {
        static HUB: Mutex<()> = Mutex::new(());
        let guard = HUB
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut c = Catalog::new();
        let hub: Vec<[i64; 2]> = (0..2_003).map(|i| [i, i % 53]).collect();
        let spoke: Vec<[i64; 2]> = (0..131).map(|j| [j % 50, j]).collect();
        let hub: Vec<&[i64]> = hub.iter().map(|r| &r[..]).collect();
        let spoke: Vec<&[i64]> = spoke.iter().map(|r| &r[..]).collect();
        let mut rels = vec![relation_of_ints(&mut c, "AB", &hub).unwrap()];
        for scheme in ["BC", "BD", "BE"] {
            rels.push(relation_of_ints(&mut c, scheme, &spoke).unwrap());
        }
        let scheme = DbScheme::parse(&mut c, &["AB", "BC", "BD", "BE"]);
        let mut b = ProgramBuilder::new(&scheme);
        for s in 1..=3 {
            b.semijoin(Reg::Base(s), Reg::Base(0));
        }
        let keys: Vec<Reg> = (1..=3)
            .map(|s| {
                let x = b.new_temp(format!("K{s}"));
                b.project(
                    x,
                    Reg::Base(s),
                    scheme.attrs_of(0).intersect(scheme.attrs_of(s)),
                );
                x
            })
            .collect();
        for &k in &keys[1..] {
            b.join(keys[0], keys[0], k);
        }
        b.semijoin(Reg::Base(0), keys[0]);
        (
            guard,
            Database::from_relations(rels),
            b.finish(Reg::Base(0)),
        )
    }

    /// A second run of the hub reducer on one shared cache projects each
    /// spoke through the index the first run left for it and reduces the
    /// hub by its key groups, at one thread and at four, with the heads,
    /// ledger and answer of a run whose cache keeps nothing.
    #[test]
    fn a_warm_hub_reducer_takes_both_group_paths() {
        let (_hub, db, p) = hub_reducer();
        let no_memo = ExecConfig {
            cache: Some(IndexCache::shared(0, 0)),
            ..ExecConfig::default()
        };
        let cold = execute_with(&p, &db, &no_memo);
        let kept = (0..2_003).filter(|i| i % 53 < 50).count();
        assert_eq!(cold.result.len(), kept);
        for threads in [1, 4] {
            let shared = IndexCache::shared(DEFAULT_CACHE_TUPLES, DEFAULT_CACHE_BYTES);
            let cfg = ExecConfig {
                cache: Some(shared),
                ..ExecConfig::with_threads(threads)
            };
            execute_with(&p, &db, &cfg);
            let (warm, t) = traced(|| execute_with(&p, &db, &cfg));
            // Other tests' spans are told apart by this one's sizes.
            let grouped = |name: &str, rows_arg: &str, rows: i64| {
                (t.events.iter())
                    .filter(|e| (e.cat, e.name) == ("op", name))
                    .filter(|e| {
                        e.arg("strategy").and_then(mjoin_trace::ArgValue::as_str) == Some("groups")
                    })
                    .filter(|e| e.int_arg(rows_arg) == Some(rows))
                    .map(|e| (e.int_arg("groups"), e.int_arg("kept_groups")))
                    .collect::<Vec<_>>()
            };
            let at = format!("threads = {threads}");
            assert_eq!(
                grouped("project", "in_rows", 131),
                [(Some(50), Some(50)); 3],
                "{at}"
            );
            assert_eq!(
                grouped("semijoin", "left_rows", 2_003),
                [(Some(53), Some(50))],
                "{at}"
            );
            assert_eq!(warm.head_sizes, cold.head_sizes, "{at}");
            assert_eq!(warm.ledger, cold.ledger, "{at}");
            assert_eq!(*warm.result, *cold.result, "{at}");
        }
    }

    /// The hub reducer's last statement drops three of the hub's 53 keys.
    /// On a warm cache, at one thread and at four, it is left a selection
    /// of the hub's key groups, traced with `selection` at the bytes of its
    /// 54 slot marks and gathered by no one; followed by another statement,
    /// the same group semijoin is gathered into rows at once. Heads, ledger
    /// and answer equal a run whose cache keeps nothing, which probes every
    /// hub row.
    #[test]
    fn a_last_partial_group_semijoin_is_left_a_selection() {
        let (_hub, db, p) = hub_reducer();
        let hub_stmt = p.stmts.len() - 1;
        let mut not_last = p.clone();
        not_last.stmts.push(Stmt::Semijoin {
            target: Reg::Base(1),
            filter: Reg::Base(0),
        });
        let no_memo = ExecConfig {
            cache: Some(IndexCache::shared(0, 0)),
            ..ExecConfig::default()
        };
        let kept = (0..2_003).filter(|i| i % 53 < 50).count() as i64;
        for threads in [1, 4] {
            for (program, last) in [(&p, true), (&not_last, false)] {
                let at = format!("threads = {threads}, last = {last}");
                let cold = execute_with(program, &db, &no_memo);
                assert!(!cold.result.is_selection(), "{at}");
                let shared = IndexCache::shared(DEFAULT_CACHE_TUPLES, DEFAULT_CACHE_BYTES);
                let cfg = ExecConfig {
                    cache: Some(shared),
                    ..ExecConfig::with_threads(threads)
                };
                execute_with(program, &db, &cfg);
                let (warm, t) = traced(|| execute_with(program, &db, &cfg));
                assert_eq!(warm.result.is_selection(), last, "{at}");
                // Other tests' spans are told apart by this one's sizes.
                let hub = |cat: &str, name: &str, rows_arg: &str, rows: i64| {
                    (t.events.iter())
                        .filter(|e| (e.cat, e.name) == (cat, name))
                        .filter(|e| e.int_arg(rows_arg) == Some(rows))
                        .filter(|e| e.int_arg("out_rows") == Some(kept))
                        .collect::<Vec<_>>()
                };
                let stmt = hub("exec", "stmt", "index", hub_stmt as i64);
                assert_eq!(stmt.len(), 1, "{at}");
                assert_eq!(stmt[0].int_arg("selection"), last.then_some(1), "{at}");
                if last {
                    assert_eq!(stmt[0].int_arg("out_bytes"), Some(54), "{at}");
                }
                let strategies: Vec<_> = (hub("op", "semijoin", "left_rows", 2_003).iter())
                    .map(|e| e.arg("strategy").and_then(mjoin_trace::ArgValue::as_str))
                    .collect();
                let gathered = if last { &[][..] } else { &[Some("gather")] };
                assert_eq!(strategies[0], Some("groups"), "{at}");
                assert_eq!(&strategies[1..], gathered, "{at}");
                assert_eq!(warm.head_sizes, cold.head_sizes, "{at}");
                assert_eq!(warm.ledger, cold.ledger, "{at}");
                assert_eq!(*warm.result, *cold.result, "{at}");
            }
        }
    }

    #[test]
    fn empty_program_at_four_threads() {
        let (_c, scheme, db) = chain_db();
        let b = ProgramBuilder::new(&scheme);
        let p = b.finish(Reg::Base(2));
        let seq = execute(&p, &db);
        let par = execute_with(&p, &db, &ExecConfig::with_threads(4));
        assert_eq!(*par.result, *seq.result);
        assert_eq!(par.peak_resident, seq.peak_resident);
    }
}
