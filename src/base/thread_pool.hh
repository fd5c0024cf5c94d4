/**
 * @file
 * Fixed-size thread pool behind every parallel tier of the
 * simulator: the layer fan-out of Accelerator::runNetwork,
 * the intra-GEMM row-stripe sharding of dbbGemm
 * (RunOptions::shard_pool), and the request-level fan-out of
 * serve::StreamScheduler.
 *
 * parallelFor(n, fn) runs fn(i) for i in [0, n). Indices are handed
 * out through a shared atomic counter (no work stealing, no
 * per-worker deques); the calling thread participates, and the call
 * returns only when every index has completed. Determinism comes
 * from the usage pattern, not the schedule: callers write result i
 * into slot i and reduce sequentially afterwards, so outcomes are
 * bitwise identical to a serial loop no matter how indices
 * interleave across workers.
 *
 * Jobs are published as shared_ptrs, so completion waits only on
 * lanes that actually claimed work — a worker that wakes late finds
 * the counter exhausted and goes back to sleep without gating the
 * caller (important when n is much smaller than the pool).
 *
 * Nested parallelFor calls from inside a worker (or from the
 * caller's own lane) run inline (no new threads, no deadlock), so
 * e.g. a layer's row-stripe sharding composes with per-layer
 * parallelism across a network.
 */

#ifndef S2TA_BASE_THREAD_POOL_HH
#define S2TA_BASE_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/logging.hh"

namespace s2ta {

class ThreadPool
{
  public:
    /**
     * @param workers helper threads to spawn; 0 means
     *        hardware_concurrency() - 1 (the caller thread is the
     *        remaining lane). A pool with zero helpers degrades to
     *        serial inline execution.
     */
    explicit ThreadPool(int workers = 0)
    {
        if (workers == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            workers = hw > 1 ? static_cast<int>(hw) - 1 : 0;
        }
        s2ta_assert(workers >= 0, "negative worker count %d",
                    workers);
        threads.reserve(static_cast<size_t>(workers));
        for (int t = 0; t < workers; ++t)
            threads.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stopping = true;
        }
        wake_cv.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Helper threads (excluding the caller). */
    int workers() const { return static_cast<int>(threads.size()); }

    /**
     * Process-wide pool sized for the hardware, built on first use.
     * Intentionally leaked: s2ta_fatal may call std::exit from a
     * worker, and a static destructor would then join the worker
     * from itself (std::terminate). Leaking keeps the pool's
     * synchronization state alive for any workers parked in wait
     * while the process exits.
     */
    static ThreadPool &
    global()
    {
        static ThreadPool *pool = new ThreadPool();
        return *pool;
    }

    /**
     * Run fn(i) for every i in [0, n); blocks until all complete.
     *
     * Behavioral contract:
     *  - the caller participates as a lane, so a pool with zero
     *    helpers (or n == 1) degrades to a plain serial loop;
     *  - thread-safe: concurrent parallelFor calls from different
     *    threads are serialized (one job at a time, FIFO by mutex
     *    acquisition); calls from *inside* a worker lane run
     *    inline, so nested parallelism composes without deadlock
     *    or oversubscription — this also holds across distinct
     *    pool instances (the in-worker flag is per thread, not per
     *    pool);
     *  - scheduling is non-deterministic, results must not be:
     *    have fn(i) write only to slot/stripe i and reduce in
     *    index order afterwards, which makes the outcome bitwise
     *    identical to a serial loop at every lane count;
     *  - exceptions must not escape fn (workers have no handler).
     *
     * @param n  index count; n <= 0 is a no-op.
     * @param fn callable invoked as fn(int64_t i), i in [0, n).
     */
    template <typename Fn>
    void
    parallelFor(int64_t n, Fn &&fn)
    {
        if (n <= 0)
            return;
        if (n == 1 || threads.empty() || inside_worker) {
            for (int64_t i = 0; i < n; ++i)
                fn(i);
            return;
        }

        // One job at a time; concurrent callers queue up here.
        std::lock_guard<std::mutex> job_lk(job_mu);
        auto job = std::make_shared<Job>();
        job->limit = n;
        job->call = [&fn](int64_t i) { fn(i); };
        {
            std::lock_guard<std::mutex> lk(mu);
            current = job;
            ++generation;
        }
        wake_cv.notify_all();

        // The caller participates; mark its lane busy so a nested
        // parallelFor from inside fn runs inline.
        inside_worker = true;
        drain(*job);
        inside_worker = false;

        // Done when the counter is exhausted and no lane is still
        // executing a claimed index. Lanes that never claimed work
        // are not waited for (the shared_ptr keeps the job alive
        // for any of them waking late).
        std::unique_lock<std::mutex> lk(mu);
        done_cv.wait(lk, [&] {
            return job->next.load() >= job->limit &&
                   job->active.load() == 0;
        });
        if (current == job)
            current.reset();
    }

    /**
     * Run fn(begin, end) over [0, n) split into contiguous stripes
     * of at most @p stripe indices, dispatched with parallelFor
     * (same thread-safety and determinism contract). The intra-GEMM
     * sharding primitive: stripes own disjoint index ranges
     * (callers write disjoint output rows), so results are bitwise
     * identical to one fn(0, n) call at any lane count. A single
     * stripe short-circuits to one inline fn(0, n) call.
     *
     * @param n      total index count.
     * @param stripe maximum indices per stripe; must be > 0.
     * @param fn     callable invoked as fn(int64_t begin,
     *               int64_t end) over half-open ranges.
     */
    template <typename Fn>
    void
    parallelForStripes(int64_t n, int64_t stripe, Fn &&fn)
    {
        s2ta_assert(stripe > 0, "stripe %ld", stripe);
        const int64_t stripes = (n + stripe - 1) / stripe;
        if (stripes <= 1) {
            if (n > 0)
                fn(static_cast<int64_t>(0), n);
            return;
        }
        parallelFor(stripes, [&](int64_t s) {
            const int64_t begin = s * stripe;
            fn(begin, std::min(n, begin + stripe));
        });
    }

  private:
    struct Job
    {
        std::function<void(int64_t)> call;
        std::atomic<int64_t> next{0};
        int64_t limit = 0;
        /** Lanes currently inside drain() for this job. */
        std::atomic<int> active{0};
    };

    void
    drain(Job &job)
    {
        job.active.fetch_add(1);
        for (;;) {
            const int64_t i =
                job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.limit)
                break;
            job.call(i);
        }
        {
            // Decrement under the lock so the caller's predicate
            // re-check cannot miss the final transition, and so the
            // lane's writes happen-before the caller's wakeup.
            std::lock_guard<std::mutex> lk(mu);
            job.active.fetch_sub(1);
        }
        done_cv.notify_all();
    }

    void
    workerLoop()
    {
        inside_worker = true;
        uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                std::unique_lock<std::mutex> lk(mu);
                wake_cv.wait(lk, [&] {
                    return stopping || generation != seen;
                });
                if (stopping)
                    return;
                seen = generation;
                job = current;
            }
            if (job)
                drain(*job);
        }
    }

    std::vector<std::thread> threads;
    std::mutex job_mu;
    std::mutex mu;
    std::condition_variable wake_cv;
    std::condition_variable done_cv;
    std::shared_ptr<Job> current;
    uint64_t generation = 0;
    bool stopping = false;

    static thread_local bool inside_worker;
};

inline thread_local bool ThreadPool::inside_worker = false;

} // namespace s2ta

#endif // S2TA_BASE_THREAD_POOL_HH
