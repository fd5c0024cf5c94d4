/**
 * @file
 * Cross-run plan cache for architecture sweeps and serving.
 *
 * The compressed DBB form of a workload is config-independent: the
 * same encoded GemmPlan serves every array geometry, SMT depth, and
 * sparsity bound under comparison, so a sweep over many design
 * points only needs to encode each workload once: a conv layer's
 * input and weight tensors, masked where they lie (an events-only
 * entry lowers nothing; a compute entry lowers its activations once
 * for the kernel).
 * The same property makes the format weight-static under serving
 * traffic: one cache shared across every stream of a
 * serve::StreamScheduler lets repeated (model, batch) requests —
 * and models sharing identical layers — skip lowering and encoding
 * entirely (RunOptions::plan_cache wires it in).
 * One entry is one GEMM; a conv layer, grouped or not, is one
 * entry (one grouped GemmProblem and its plan; see
 * Accelerator::prepareLayer).
 * The cache keys entries by operand *content* (64-bit FNV-1a
 * hashes of both operands plus the GEMM dims, group and segment
 * layout, the DBB block size, and whether the weights were packed
 * for the functional kernel), so a mutated operand can never hit a stale
 * entry and results are bitwise identical with caching on or off.
 * acquire() fingerprints a GemmProblem's operand vectors on every
 * call. A conv layer's key (acquireKeyed) reads the digests its
 * input and weight tensors carry (Tensor::digest()): each tensor
 * hashes its bytes once, on the first read after a write, so a hit
 * re-reads no operand, and a write through any non-const accessor
 * forgets the digest, so the next visit misses. Hits are decided by
 * the key; acquire() cross-checks the dims on a hit, leaving only
 * the ~2^-64 same-dims content collision undetected.
 *
 * Entries own their GemmProblem (plans borrow the problem they were
 * built from), so cached plans stay valid after the caller's problem
 * dies — acquire() returns shared_ptrs, so an entry evicted while a
 * lane still simulates from it stays alive until the last user
 * drops it. A compute entry owns the (lowered) activations, beside
 * its plan's masks, profiles and one packed copy of the weights,
 * which it packs from the caller's weights in place; an events-only
 * entry owns the dims alone, beside its plan's masks and profiles,
 * since nothing on the events-only path reads an operand. A conv
 * layer's activation masks are its input's, one per (pixel, channel
 * block), not its lowered rows'.
 *
 * Thread-safety: lookups, inserts, stats(), and clear() are
 * mutex-guarded; plan construction runs outside the lock, and when
 * two threads race to build the same key the first insert wins
 * (plan contents are deterministic, so either copy is correct).
 * Hit/miss counters can differ across thread interleavings; the
 * returned plans never do.
 *
 * Eviction: strict LRU over caller-chosen entry and resident-byte
 * budgets (least-recently-acquired entries evicted until both caps
 * hold), and therefore deterministic for any single-threaded access
 * sequence; concurrent lanes may reorder recency updates, which can
 * change *which* entry is evicted but never the results computed
 * from whatever is resident. An eviction drops the entry under the
 * lock; a later lookup of its key misses and rebuilds a
 * bitwise-identical plan. DAP memo entries live outside the LRU.
 */

#ifndef S2TA_ARCH_PLAN_CACHE_HH
#define S2TA_ARCH_PLAN_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "arch/gemm_plan.hh"
#include "base/hash.hh"
#include "core/dap.hh"

namespace s2ta {

/** One cached workload: its GemmProblem plus its encoded plan. */
struct CachedPlan
{
    /**
     * The compute entry at block size @p bz of @p p's activations
     * against the K x groups*N weight matrix at @p w, packed where
     * it lies: it owns p, which need hold only the activations, and
     * its plan borrows it. @p w is not kept.
     */
    CachedPlan(GemmProblem p, const int8_t *w, int bz)
        : problem(std::move(p)),
          plan(GemmPlan::build(problem, problem.a.data(), w, bz, true))
    {}

    /** The events-only entry at block size @p bz of @p p: p's dims,
     *  and its plan's masks and profiles. No operand is kept. */
    CachedPlan(const GemmProblem &p, int bz)
        : problem(p.withoutOperands()),
          plan(GemmPlan::build(problem, p.a.data(), p.w.data(), bz,
                               false))
    {}

    /**
     * The entry at block size @p bz of conv layer @p shape, @p p
     * being its lowered GEMM (with the lowered activations for a
     * compute entry, its dims alone otherwise), over the input
     * tensor at @p input and the weight tensor at @p w, masked (and,
     * if @p compute, packed) where they lie: GemmPlan's conv build,
     * across @p pool's lanes when given. It owns p; neither tensor
     * is kept or copied.
     */
    CachedPlan(GemmProblem p, const Conv2dShape &shape,
               const int8_t *input, const int8_t *w, int bz, bool compute,
               ThreadPool *pool = nullptr)
        : problem(std::move(p)),
          plan(GemmPlan::build(problem, shape, input, w, bz, compute,
                               pool))
    {}

    /** The GEMM: activations and dims in a compute entry, dims
     *  alone in an events-only one. */
    const GemmProblem problem;
    const GemmPlan plan;
};

class PlanCache
{
  public:
    /** Cache effectiveness counters. */
    struct Stats
    {
        /** Plan-entry lookups that found a resident encoding. */
        int64_t hits = 0;
        /** Plan-entry lookups that had to lower + encode. */
        int64_t misses = 0;
        /** Entries evicted (dropped) to hold the budgets. */
        int64_t evictions = 0;
        /** Plan entries currently resident. */
        int64_t entries = 0;
        /** Bytes held by resident entries: activations and packed
         *  weights (compute entries only), and one mask byte per
         *  block. */
        int64_t resident_bytes = 0;
        /** Stays 0; kept for perfbench until a benchmark change. */
        int64_t spill_hits = 0;
        /** Stays 0; kept for perfbench until a benchmark change. */
        int64_t spill_bytes = 0;
        /** DAP-memo lookups, counted separately so plan hit rates
         *  in bench artifacts stay meaningful. */
        int64_t dap_hits = 0;
        int64_t dap_misses = 0;
    };

    /**
     * @param max_entries LRU entry capacity; 0 means unbounded
     *        (sweep drivers usually hold every workload of one
     *        model).
     * @param max_bytes LRU resident-byte budget (entryBytes of the
     *        resident entries); 0 means unbounded. Entries are
     *        evicted least-recently-used until both caps hold.
     */
    explicit PlanCache(size_t max_entries = 0, int64_t max_bytes = 0)
        : max_entries(max_entries), max_bytes(max_bytes)
    {}

    /** Ignores arg 3; kept for perfbench until a benchmark change. */
    PlanCache(size_t max_entries, int64_t max_bytes, int64_t)
        : PlanCache(max_entries, max_bytes)
    {}

    PlanCache(const PlanCache &) = delete;
    PlanCache &operator=(const PlanCache &) = delete;

    /**
     * Plan for @p p's operands, encoded at block size @p bz. The
     * operands are fingerprinted on every call, so a stale entry can
     * never be returned for mutated data; on a miss a compute entry
     * copies the activations and packs the weights, an events-only
     * entry masks both in place.
     */
    std::shared_ptr<const CachedPlan> acquire(const GemmProblem &p,
                                              int bz, bool compute);

    /**
     * Keyed variant for callers that can identify the workload
     * without materializing it (e.g. a conv layer before im2col
     * lowering): @p key must already distinguish operand content
     * (combine the source tensors' digest()s, which hash each
     * tensor once per content). @p build runs only on a miss and
     * builds the entry at block size @p bz, a compute entry exactly
     * when @p compute (the key folds both in): for a conv
     * layer, the whole layer's grouped GEMM, so a layer costs one
     * lookup and, on a miss, one lowering.
     */
    std::shared_ptr<const CachedPlan> acquireKeyed(
        uint64_t key, int bz, bool compute,
        const std::function<std::shared_ptr<const CachedPlan>()> &build);

    /**
     * Memoized DAP comparator statistics. The DAP array prunes a
     * deployed model's activations once as they stream into the
     * SRAM; its comparator counts are a pure function of (tensor
     * content, NNZ bound) — independent of the array geometry — so
     * a sweep over array configs computes them once per layer.
     * @p key must identify tensor content and bound (the tensor's
     * digest() + combine); @p compute runs only on a miss. DAP
     * entries live outside the LRU (they are a few counters, not
     * plans).
     */
    DapStats dapStats(uint64_t key,
                      const std::function<DapStats()> &compute);

    Stats stats() const;

    /** Drop every entry (counters keep accumulating). */
    void clear();

    /** s2ta::hashBytes (base/hash.hh). */
    static uint64_t
    hashBytes(const void *data, size_t len,
              uint64_t seed = kFnvOffsetBasis)
    {
        return s2ta::hashBytes(data, len, seed);
    }

    /** s2ta::hashCombine (base/hash.hh). */
    static uint64_t
    combine(uint64_t key, uint64_t value)
    {
        return hashCombine(key, value);
    }

    /** Content + geometry fingerprint of a GEMM problem. */
    static uint64_t fingerprint(const GemmProblem &p);

  private:
    /** Bytes an entry pins in memory: the operands it holds (a
     *  compute entry's activations), one mask byte per block, and
     *  the packed weights with their column sums when built. */
    static int64_t entryBytes(const CachedPlan &e);

    /** Insert @p entry under @p key and evict per the budgets. */
    void insertLocked(uint64_t key,
                      std::shared_ptr<const CachedPlan> entry);

    struct Slot
    {
        std::shared_ptr<const CachedPlan> entry;
        /** Position in lru (most recent at front). */
        std::list<uint64_t>::iterator lru_it;
    };

    const size_t max_entries;
    const int64_t max_bytes;
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Slot> slots;
    std::list<uint64_t> lru;
    std::unordered_map<uint64_t, DapStats> dap_memo;
    Stats counters;
};

} // namespace s2ta

#endif // S2TA_ARCH_PLAN_CACHE_HH
