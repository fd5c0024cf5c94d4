/**
 * @file
 * Fixed-size thread pool behind every parallel tier of the
 * simulator: the layer fan-out of Accelerator::runNetwork, the
 * intra-GEMM row-stripe sharding of dbbGemm
 * (RunOptions::shard_pool), the bands and profiles of an
 * events-only first-sight plan build, and the request-level fan-out
 * of serve::FleetScheduler.
 *
 * parallelFor(n, fn) runs fn(i) for i in [0, n). Indices are handed
 * out through the job's atomic counter (no work stealing, no
 * per-worker deques); the calling thread participates, and the call
 * returns only when every index has completed. Determinism comes
 * from the usage pattern, not the schedule: callers write result i
 * into slot i and reduce sequentially afterwards, so outcomes are
 * bitwise identical to a serial loop no matter how indices
 * interleave across workers.
 *
 * Callers from outside the pool queue up, one job at a time. A
 * parallelFor called from a lane of the same pool (from inside fn)
 * publishes its job beside the running one: an idle lane takes the
 * newest job that still has an unclaimed index, so one layer's plan
 * build that runs alone after the other layers are done spreads
 * over the lanes they left idle. The calling lane drains its own
 * job, then waits only for that job's in-flight indices and takes
 * no other index meanwhile, so a lane only ever waits on work
 * nested below its own and nesting cannot deadlock. A call from a
 * lane of a different pool runs inline, so pools never
 * oversubscribe one another.
 *
 * Jobs are published as shared_ptrs, so completion waits only on
 * lanes that actually claimed work: a worker that wakes late finds
 * the counter exhausted and goes back to sleep without gating the
 * caller (important when n is much smaller than the pool).
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
     *  - thread-safe: concurrent calls from threads outside the
     *    pool are serialized (one job at a time, FIFO by mutex
     *    acquisition);
     *  - a call from a lane of this pool (from inside fn, at any
     *    depth) runs beside the job that lane is working on: idle
     *    lanes take the newest job with an unclaimed index, and the
     *    caller drains its job, then waits for that job's in-flight
     *    indices without taking other work;
     *  - a call from a lane of another pool runs inline;
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
        if (n == 1 || threads.empty() ||
            (lane_of != nullptr && lane_of != this)) {
            for (int64_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        auto job = std::make_shared<Job>();
        job->limit = n;
        job->call = [&fn](int64_t i) { fn(i); };
        if (lane_of == this) {
            run(job);
            return;
        }
        // One outside job at a time; concurrent callers queue up
        // here. The caller is a lane of this pool until its job is
        // done, so a nested call from inside fn publishes beside it.
        std::lock_guard<std::mutex> job_lk(job_mu);
        lane_of = this;
        run(job);
        lane_of = nullptr;
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
        int64_t limit = 0;
        /** Next index to claim (runs past limit once exhausted). */
        std::atomic<int64_t> next{0};
        /** Indices that have completed. */
        std::atomic<int64_t> done{0};
    };

    /** Publish @p job, drain it on the calling lane, and wait for
     *  the indices other lanes still run. */
    void
    run(const std::shared_ptr<Job> &job)
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            jobs.push_back(job);
        }
        wake_cv.notify_all();
        drain(*job);
        std::unique_lock<std::mutex> lk(mu);
        done_cv.wait(lk, [&] { return job->done.load() == job->limit; });
        jobs.erase(std::find(jobs.begin(), jobs.end(), job));
    }

    void
    drain(Job &job)
    {
        int64_t ran = 0;
        for (;;) {
            const int64_t i = job.next.fetch_add(1);
            if (i >= job.limit)
                break;
            job.call(i);
            ++ran;
        }
        if (ran > 0 && job.done.fetch_add(ran) + ran == job.limit) {
            // The job's last index. Taking the lock orders this
            // wakeup after the publisher's predicate check, so the
            // publisher cannot miss it.
            { std::lock_guard<std::mutex> lk(mu); }
            done_cv.notify_all();
        }
    }

    /** The newest published job with an unclaimed index, or null
     *  (mu held). */
    std::shared_ptr<Job>
    openJob() const
    {
        for (auto it = jobs.rbegin(); it != jobs.rend(); ++it)
            if ((*it)->next.load() < (*it)->limit)
                return *it;
        return nullptr;
    }

    void
    workerLoop()
    {
        lane_of = this;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                std::unique_lock<std::mutex> lk(mu);
                wake_cv.wait(lk, [&] {
                    job = openJob();
                    return stopping || job != nullptr;
                });
                if (stopping)
                    return;
            }
            drain(*job);
        }
    }

    std::vector<std::thread> threads;
    std::mutex job_mu;
    std::mutex mu;
    std::condition_variable wake_cv;
    std::condition_variable done_cv;
    /** Published jobs, oldest first: the outside job, then the
     *  nested jobs its lanes published. */
    std::vector<std::shared_ptr<Job>> jobs;
    bool stopping = false;

    /** The pool whose lane this thread currently is, if any. */
    static thread_local const ThreadPool *lane_of;
};

inline thread_local const ThreadPool *ThreadPool::lane_of = nullptr;

/** pool->parallelFor(n, fn), or a serial loop when @p pool is null. */
template <typename Fn>
void
parallelForOn(ThreadPool *pool, int64_t n, Fn &&fn)
{
    if (pool != nullptr) {
        pool->parallelFor(n, fn);
        return;
    }
    for (int64_t i = 0; i < n; ++i)
        fn(i);
}

} // namespace s2ta

#endif // S2TA_BASE_THREAD_POOL_HH
