#include "serve/wallclock_replay.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/trace.hh"

namespace s2ta {
namespace serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point epoch)
{
    return std::chrono::duration<double>(SteadyClock::now() - epoch)
        .count();
}

} // namespace

std::vector<WallclockCompletion>
replayWallclock(const Accelerator &acc,
                const std::vector<WallclockRequest> &trace,
                const WallclockReplayOptions &opts)
{
    s2ta_assert(opts.lanes >= 1, "lanes=%d", opts.lanes);
    const size_t n = trace.size();
    std::vector<WallclockCompletion> completions(n);
    for (size_t i = 0; i < n; ++i) {
        s2ta_assert(trace[i].model != nullptr,
                    "trace[%zu] has no workload", i);
        s2ta_assert(trace[i].arrival_s >= 0.0,
                    "trace[%zu] arrival %g < 0", i,
                    trace[i].arrival_s);
        completions[i].index = i;
        completions[i].stream = trace[i].stream;
        completions[i].arrival_s = trace[i].arrival_s;
        completions[i].deadline_s = trace[i].deadline_s;
    }
    if (n == 0)
        return completions;

    // The policy's view: admission index == trace index, wall
    // arrival/deadline in place of virtual ones, the caller's
    // service estimates. Policies are stateless over this exactly
    // as over the virtual scheduler's vector.
    std::vector<TimedRequest> timed(n);
    for (size_t i = 0; i < n; ++i) {
        timed[i].arrival_s = trace[i].arrival_s;
        timed[i].deadline_s = trace[i].deadline_s;
        timed[i].est_cycles = trace[i].est_cycles;
        timed[i].stream = trace[i].stream;
        timed[i].id = static_cast<uint64_t>(i);
    }

    // Feeder order: by scheduled arrival, admission index on ties.
    std::vector<size_t> by_arrival(n);
    std::iota(by_arrival.begin(), by_arrival.end(), size_t{0});
    std::stable_sort(by_arrival.begin(), by_arrival.end(),
                     [&](size_t a, size_t b) {
                         return trace[a].arrival_s <
                                trace[b].arrival_s;
                     });

    std::mutex mu;
    std::condition_variable cv;
    /** Published-but-undispatched admission indices, ascending (the
     *  shape AdmissionPolicy::pick is specified over). */
    std::vector<size_t> ready;
    size_t fed = 0;

    const SteadyClock::time_point epoch = SteadyClock::now();

    const auto feeder = [&] {
        for (const size_t i : by_arrival) {
            std::this_thread::sleep_until(
                epoch + std::chrono::duration_cast<
                            SteadyClock::duration>(
                            std::chrono::duration<double>(
                                trace[i].arrival_s)));
            const double now_s = secondsSince(epoch);
            // Only the trace hooks read the depth.
            [[maybe_unused]] size_t depth;
            {
                std::lock_guard<std::mutex> lk(mu);
                completions[i].enqueue_s = now_s;
                ready.insert(std::upper_bound(ready.begin(),
                                              ready.end(), i),
                             i);
                ++fed;
                depth = ready.size();
            }
            S2TA_TRACE_INSTANT("replay", "arrive", i);
            S2TA_TRACE_COUNTER("replay", "replay.ready", depth);
            cv.notify_one();
        }
        // Wake every lane parked on an empty queue: nothing more
        // is coming.
        cv.notify_all();
    };

    const auto worker = [&](int lane) {
        for (;;) {
            size_t i;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] {
                    return !ready.empty() || fed == n;
                });
                if (ready.empty())
                    return; // fed == n and nothing left to serve
                if (opts.policy != nullptr) {
                    i = opts.policy->pick(timed, ready);
                    const auto it = std::lower_bound(
                        ready.begin(), ready.end(), i);
                    s2ta_assert(it != ready.end() && *it == i,
                                "policy picked %zu not in ready",
                                i);
                    ready.erase(it);
                } else {
                    i = ready.front();
                    ready.erase(ready.begin());
                }
            }
            WallclockCompletion &c = completions[i];
            c.lane = lane;
            c.start_s = secondsSince(epoch);
            {
                S2TA_TRACE_SPAN_ID("replay", "request", i);
                c.run = acc.runNetwork(trace[i].model->layers,
                                       opts.run);
            }
            c.finish_s = secondsSince(epoch);
            // A lane freeing up may unblock a sibling parked on the
            // empty-queue exit condition.
            cv.notify_all();
        }
    };

    // Index 0 is the feeder, indices 1..lanes are worker lanes.
    // ThreadPool hands an index to a thread only when that thread
    // is free, and the first claim is always index 0, so the feeder
    // starts first; a worker lane that is claimed late (or never,
    // if a thread oversleeps) is safe — the running lanes serve the
    // whole trace and the late lane exits immediately.
    ThreadPool pool(opts.lanes);
    pool.parallelFor(static_cast<int64_t>(opts.lanes) + 1,
                     [&](int64_t idx) {
                         if (idx == 0)
                             feeder();
                         else
                             worker(static_cast<int>(idx) - 1);
                     });

    for (size_t i = 0; i < n; ++i) {
        s2ta_assert(completions[i].lane >= 0,
                    "request %zu was never served", i);
        s2ta_assert(completions[i].start_s >=
                        completions[i].arrival_s,
                    "request %zu started %.9f before its arrival "
                    "%.9f",
                    i, completions[i].start_s,
                    completions[i].arrival_s);
    }
    return completions;
}

} // namespace serve
} // namespace s2ta
