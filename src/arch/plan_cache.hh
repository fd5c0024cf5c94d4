/**
 * @file
 * Cross-run plan cache for architecture sweeps and serving.
 *
 * The compressed DBB form of a workload is config-independent: the
 * same encoded GemmPlan serves every array geometry, SMT depth, and
 * sparsity bound under comparison, so a sweep over many design
 * points only needs to im2col-lower and encode each workload once.
 * The same property makes the format weight-static under serving
 * traffic: one cache shared across every stream of a
 * serve::StreamScheduler lets repeated (model, batch) requests —
 * and models sharing identical layers — skip lowering and encoding
 * entirely (RunOptions::plan_cache wires it in).
 * One entry is one GEMM; a conv layer, grouped or not, is one
 * entry (one grouped GemmProblem and its plan; see
 * Accelerator::prepareLayer).
 * The cache keys entries by operand *content* (a 64-bit FNV-1a
 * fingerprint of both operand byte arrays plus the GEMM dims, group
 * and segment layout, the DBB block size, and whether the dense
 * weight mirror was materialized): mutated operands re-fingerprint
 * on every call and
 * therefore can never hit a stale entry, so results are bitwise
 * identical with caching on or off. Hits are decided by the
 * fingerprint; acquire() cross-checks the dims on a hit, leaving
 * only the ~2^-64 same-dims content collision undetected.
 *
 * Entries own their GemmProblem (plans borrow the problem they were
 * built from), so cached plans stay valid after the caller's problem
 * dies — acquire() returns shared_ptrs, so an entry evicted while a
 * lane still simulates from it stays alive until the last user
 * drops it.
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
 * from whatever is resident. DAP memo entries live outside the LRU.
 *
 * Spill tier (spill_max_bytes > 0): entries evicted from the
 * resident LRU are kept in the compact spill form (spillEncode
 * below: dims + DBB blocks, varint/RLE-coded) under their own byte
 * budget with their own LRU. A lookup that misses the resident tier
 * but hits the spill tier rehydrates — decode + operand
 * reconstruction + plan build — which costs a fraction of the full
 * im2col-lower + encode miss, so a bounded cache under a cyclic
 * trace degrades smoothly instead of falling off the LRU-thrash
 * cliff. Rehydrated entries re-enter the resident tier (possibly
 * spilling another entry), and their compact image stays *parked*
 * in the spill tier, so the cyclic steady state — rehydrate, use,
 * re-evict — pays one decode per cycle and zero re-encodes. Both
 * spill encoding (an entry's first eviction) and rehydration run
 * outside the lock; only the list/map surgery is serialized. A
 * rehydrated plan is bit-identical to a fresh build.
 *
 * stats() reports each tier separately (resident hits vs spill
 * rehydrations vs full misses) so bench artifacts can attribute
 * wins to the right tier.
 */

#ifndef S2TA_ARCH_PLAN_CACHE_HH
#define S2TA_ARCH_PLAN_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "arch/gemm_plan.hh"
#include "core/dap.hh"

namespace s2ta {

class FaultInjector;

/** One cached workload: the owned operands plus their encoded plan. */
struct CachedPlan
{
    CachedPlan(GemmProblem p, int bz, bool dense_mirror)
        : problem(std::move(p)),
          plan(GemmPlan::build(problem, bz, dense_mirror))
    {}

    const GemmProblem problem;
    const GemmPlan plan;
};

class PlanCache
{
  public:
    /** Cache effectiveness counters, one set per tier. */
    struct Stats
    {
        /** Plan-entry lookups that found a resident encoding. */
        int64_t hits = 0;
        /** Plan-entry lookups that had to lower + encode (missed
         *  every tier). */
        int64_t misses = 0;
        /** Entries evicted out of the resident tier (into the
         *  spill tier when one is configured, dropped otherwise). */
        int64_t evictions = 0;
        /** Plan entries currently resident. */
        int64_t entries = 0;
        /** Operand, mask and mirror bytes held by resident
         *  entries. */
        int64_t resident_bytes = 0;
        /** Lookups served by rehydrating a spilled entry — counted
         *  apart from resident hits so artifacts distinguish RAM
         *  hits from (costlier) rehydrations. */
        int64_t spill_hits = 0;
        /** Entries currently held in spill form, including images
         *  parked for resident entries that were once rehydrated
         *  (kept so re-evicting them is free). */
        int64_t spill_entries = 0;
        /** Compact serialized bytes held by the spill tier. */
        int64_t spill_bytes = 0;
        /** Spilled entries dropped to hold the spill byte budget. */
        int64_t spill_evictions = 0;
        /** Evicted entries dropped outright because their spill
         *  encode faulted (injected) — degradation: the next use is
         *  a cold encode instead of a decode. */
        int64_t spill_drops = 0;
        /** Parked images dropped because their decode faulted
         *  (injected) — the lookup degrades to a cold encode. */
        int64_t spill_decode_faults = 0;
        /** DAP-memo lookups, counted separately so plan hit rates
         *  in bench artifacts stay meaningful. */
        int64_t dap_hits = 0;
        int64_t dap_misses = 0;
    };

    /**
     * @param max_entries LRU entry capacity; 0 means unbounded
     *        (sweep drivers usually hold every workload of one
     *        model).
     * @param max_bytes LRU resident-byte budget (operands + masks
     *        + mirrors); 0 means unbounded. Entries are
     *        evicted least-recently-used until both caps hold.
     * @param spill_max_bytes Spill-tier byte budget for evicted
     *        entries in compact form; 0 disables the tier (evicted
     *        entries are dropped, the pre-spill behavior).
     */
    explicit PlanCache(size_t max_entries = 0,
                       int64_t max_bytes = 0,
                       int64_t spill_max_bytes = 0)
        : max_entries(max_entries), max_bytes(max_bytes),
          spill_max_bytes(spill_max_bytes)
    {}

    PlanCache(const PlanCache &) = delete;
    PlanCache &operator=(const PlanCache &) = delete;

    /**
     * Plan for @p p's operands, encoded at block size @p bz. The
     * operands are fingerprinted on every call, so a stale entry can
     * never be returned for mutated data; on a miss the problem is
     * copied into the new entry.
     */
    std::shared_ptr<const CachedPlan> acquire(const GemmProblem &p,
                                              int bz,
                                              bool dense_mirror);

    /**
     * Keyed variant for callers that can identify the workload
     * without materializing it (e.g. a conv layer before im2col
     * lowering): @p key must already distinguish operand content
     * (hash the source tensors with hashBytes). @p lower runs only
     * on a miss and produces the problem to encode: for a conv
     * layer, the whole layer's grouped GEMM, so a layer costs one
     * lookup and, on a miss, one lowering.
     */
    std::shared_ptr<const CachedPlan>
    acquireKeyed(uint64_t key, int bz, bool dense_mirror,
                 const std::function<GemmProblem()> &lower);

    /**
     * Memoized DAP comparator statistics. The DAP array prunes a
     * deployed model's activations once as they stream into the
     * SRAM; its comparator counts are a pure function of (tensor
     * content, NNZ bound) — independent of the array geometry — so
     * a sweep over array configs computes them once per layer.
     * @p key must identify tensor content and bound (hashBytes +
     * combine); @p compute runs only on a miss. DAP entries live
     * outside the LRU (they are a few counters, not plans).
     */
    DapStats dapStats(uint64_t key,
                      const std::function<DapStats()> &compute);

    /**
     * Attach a fault injector for the spill tier (SpillEncode /
     * SpillDecode sites, identity = entry key); null detaches.
     * Injected spill faults are never errors — the entry degrades
     * to a cold encode, counted in spill_drops /
     * spill_decode_faults.
     */
    void setFaultInjector(const FaultInjector *fi);

    Stats stats() const;

    /** Drop every entry, resident and spilled (counters keep
     *  accumulating). */
    void clear();

    /** FNV-1a 64-bit content hash (8-byte strides + byte tail). */
    static uint64_t hashBytes(const void *data, size_t len,
                              uint64_t seed = 0xcbf29ce484222325ull);

    /** Order-dependent mix of a value into a running key. */
    static uint64_t
    combine(uint64_t key, uint64_t value)
    {
        // splitmix64 finalizer over the xor keeps single-bit key
        // differences from colliding after further combines.
        uint64_t x = key ^ (value + 0x9e3779b97f4a7c15ull);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return x;
    }

    /** Content + geometry fingerprint of a GEMM problem. */
    static uint64_t fingerprint(const GemmProblem &p);

  private:
    /** Bytes an entry pins in memory: operands, one mask byte per
     *  block, and the dense mirror when built. */
    static int64_t entryBytes(const CachedPlan &e);

    /**
     * Tiered lookup outcome: a resident entry, a reference to the
     * spilled image (rehydration happens outside the lock; the
     * image stays parked in the spill tier so a later re-eviction
     * of the rehydrated entry is an LRU touch, not a re-encode),
     * or neither.
     */
    struct Lookup
    {
        std::shared_ptr<const CachedPlan> entry;
        std::shared_ptr<const std::vector<uint8_t>> spilled;
    };

    /** An entry evicted with no parked image yet: its spill encode
     *  happens after the lock is released. */
    struct PendingSpill
    {
        uint64_t key;
        std::shared_ptr<const CachedPlan> entry;
    };

    Lookup lookupLocked(uint64_t key);
    void insertLocked(uint64_t key,
                      std::shared_ptr<const CachedPlan> entry,
                      std::vector<PendingSpill> *pending);
    /** Lock, insert (evicting per the budgets), then spill-encode
     *  any evicted entries *outside* the lock and park the images —
     *  the one insert entry point every acquire path uses. */
    void insertAndSpill(uint64_t key,
                        std::shared_ptr<const CachedPlan> entry);
    /** Park a compact image for @p key (touch if already parked)
     *  and hold the spill byte budget. */
    void
    parkLocked(uint64_t key,
               std::shared_ptr<const std::vector<uint8_t>> bytes);
    /**
     * Decode a parked image and promote it back into the resident
     * tier; null when an injected decode fault fires, in which case
     * the image is dropped (it is now suspect) and the caller falls
     * through to the cold path.
     */
    std::shared_ptr<const CachedPlan>
    rehydrate(uint64_t key,
              std::shared_ptr<const std::vector<uint8_t>> bytes);
    /** Remove @p key's parked image from the spill tier. */
    void dropSpillLocked(uint64_t key);

    struct Slot
    {
        std::shared_ptr<const CachedPlan> entry;
        /** Position in lru (most recent at front). */
        std::list<uint64_t>::iterator lru_it;
    };

    struct SpillSlot
    {
        /** Shared so a rehydrating lane can decode outside the
         *  lock while the image stays parked in the tier. */
        std::shared_ptr<const std::vector<uint8_t>> bytes;
        /** Position in spill_lru (most recent at front). */
        std::list<uint64_t>::iterator lru_it;
    };

    const size_t max_entries;
    const int64_t max_bytes;
    const int64_t spill_max_bytes;
    const FaultInjector *fault = nullptr;
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Slot> slots;
    std::list<uint64_t> lru;
    std::unordered_map<uint64_t, SpillSlot> spill_slots;
    std::list<uint64_t> spill_lru;
    std::unordered_map<uint64_t, DapStats> dap_memo;
    Stats counters;
};

/**
 * Spill-form image of @p entry: dims, group and segment layout +
 * varint/RLE-coded DBB blocks of the stored operands only (mask
 * byte + stored values per non-empty block, zero runs
 * length-coded), the values gathered from the entry's dense
 * operands. About half the entry's resident footprint at 4/8
 * density, less still next to an entry that holds a mirror.
 */
std::vector<uint8_t> spillEncode(const CachedPlan &entry);

/**
 * Rebuild a full entry from a spill-form image: operands are
 * expanded from the lossless blocks, and a build() over them with
 * the spilled entry's mirror request gives masks, profile and
 * mirror — bit-identical to the entry that was spilled. Fatal on a
 * malformed image (spill bytes never leave the process; corruption
 * here is a program bug, not an input).
 */
std::shared_ptr<const CachedPlan> spillDecode(const uint8_t *data,
                                              size_t len);

} // namespace s2ta

#endif // S2TA_ARCH_PLAN_CACHE_HH
