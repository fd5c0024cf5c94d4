/**
 * @file
 * `serve`: a closed batch of requests from the serving-throughput
 * trace, one request per model, over four streams of a
 * StreamScheduler on one request lane, events-only. The shared
 * PlanCache (400 MB resident + 2048 MB spill) is smaller than the
 * working set (about 570 MB of plans), so every steady-state pass
 * rehydrates its plans from the spill tier. An operation is one
 * request.
 */

#include <map>

#include "arch/plan_cache.hh"
#include "common.hh"
#include "serve/model_registry.hh"
#include "serve/stream_scheduler.hh"

namespace perfbench {
namespace {

using namespace s2ta;

struct Item
{
    const char *model;
    int batch;
};

/** The first three requests of the serving-throughput trace: one of
 *  each of its models. */
constexpr Item kTrace[] = {
    {"resnet50", 1}, {"alexnet", 2}, {"mobilenetv1", 1}};
constexpr int kStreams = 4;
constexpr int64_t kCacheBytes = int64_t{400} << 20;
constexpr int64_t kSpillBytes = int64_t{2048} << 20;

/** Scalar-oracle sample for seeds without a golden digest. */
constexpr size_t kSampleRequests = 2;

/** A request: its outcome, run and virtual timing. */
uint64_t
requestDigest(serve::Outcome outcome, const NetworkRun &nr,
              double start_s, double finish_s, int lane, int64_t cycles)
{
    Digest dg;
    dg.i64(static_cast<int64_t>(outcome));
    for (const LayerRun &lr : nr.layers)
        dg.events(lr.events);
    return dg.events(nr.total)
        .f64(start_s)
        .f64(finish_s)
        .i64(lane)
        .i64(cycles)
        .value();
}

class Serve : public Workload
{
  public:
    /** One request lane by design: on several lanes the LRU order
     *  follows thread interleaving, so @p lanes is ignored. */
    void
    setup(uint64_t seed, int, StageLog *log) override
    {
        registry = std::make_unique<serve::ModelRegistry>(seed);
        for (const Item &it : kTrace) {
            const auto build = [&]() -> const ModelWorkload & {
                return registry->workload(it.model, it.batch);
            };
            requests.push_back(
                log ? &log->setup("workload.build", build) : &build());
        }
        AcceleratorConfig cfg;
        cfg.array = ArrayConfig::s2taAw(4);
        cfg.sim_threads = 1;
        acc = std::make_unique<Accelerator>(cfg);
        cache = std::make_unique<PlanCache>(0, kCacheBytes, kSpillBytes);
        opts.run.validate_operands = false;
        opts.run.plan_cache = cache.get();
        opts.threads = 1;
    }

    /** The first pass encodes every plan; the second parks every
     *  spilled image. Passes after that are the steady state. */
    int warmPasses() const override { return 1; }

    void
    pass() override
    {
        serve::StreamScheduler sched(*acc, opts);
        for (size_t i = 0; i < requests.size(); ++i)
            sched.submit(static_cast<int>(i) % kStreams, *requests[i]);
        const double t0 = nowS();
        auto by_stream = sched.drain();
        drain_s = nowS() - t0;
        // Back into submission order (ids are assigned 1, 2, ...).
        completions.assign(requests.size(), {});
        for (auto &stream : by_stream)
            for (serve::Completion &c : stream)
                completions[c.id - 1] = std::move(c);
    }

    PassResult
    result() const override
    {
        PassResult r;
        for (const serve::Completion &c : completions) {
            Unit u;
            u.failed = !c.ok();
            u.digest = u.replay_digest =
                requestDigest(c.outcome, c.run, c.start_s, c.finish_s,
                              c.lane, c.service_cycles);
            r.push_back(u);
        }
        return r;
    }

    PassResult
    tracedPass(StageLog &log) override
    {
        // Admission as StreamScheduler::drain does it: round-robin
        // over the streams in ascending id, one request per round.
        std::vector<std::vector<size_t>> queues(kStreams);
        for (size_t i = 0; i < requests.size(); ++i)
            queues[i % kStreams].push_back(i);
        std::vector<size_t> admitted;
        for (size_t round = 0; admitted.size() < requests.size(); ++round)
            for (const auto &q : queues)
                if (round < q.size())
                    admitted.push_back(q[round]);

        const PlanCache::Stats before = cache->stats();
        std::vector<NetworkRun> runs(requests.size());
        std::vector<serve::TimedRequest> timed;
        std::map<const ModelWorkload *, int64_t> estimates;
        int64_t layer_id = 0;
        for (size_t req : admitted) {
            NetworkRun &nr = runs[req];
            log.scope("serve.request", static_cast<int64_t>(req), [&] {
                for (const LayerWorkload &wl : requests[req]->layers) {
                    nr.add(tracedCachedLayer(log, *acc, *cache, wl, opts.run,
                                             layer_id++));
                }
            });
            serve::TimedRequest t;
            t.service_cycles = nr.total.cycles;
            t.est_cycles =
                estimates.emplace(requests[req], nr.total.cycles).first->second;
            t.stream = static_cast<int>(req) % kStreams;
            t.id = req + 1;
            timed.push_back(t);
        }
        const std::vector<serve::LaneAssignment> lanes =
            log.stage("serve.schedule", 0, [&] {
                return serve::scheduleOnLanes(
                    opts.clock, timed,
                    serve::policyFor(serve::PolicyKind::RoundRobin),
                    opts.overload);
            });
        countCacheStats(log, *cache, before);

        PassResult r(requests.size());
        log.check("digest", 0, [&] {
            for (size_t a = 0; a < admitted.size(); ++a) {
                const size_t req = admitted[a];
                r[req].digest = r[req].replay_digest = requestDigest(
                    serve::Outcome::Ok, runs[req], lanes[a].start_s,
                    lanes[a].finish_s, lanes[a].lane,
                    timed[a].service_cycles);
            }
        });
        return r;
    }

    int64_t
    scalarCheck(bool full, uint64_t seed, int64_t *checked) override
    {
        AcceleratorConfig cfg = acc->config();
        const Accelerator ref(cfg);
        NetworkRunOptions so = opts.run;
        so.plan_cache = nullptr;
        so.engine = EngineKind::Scalar;
        int64_t bad = 0;
        for (size_t i : sampleIndices(completions.size(),
                                      full ? completions.size()
                                           : kSampleRequests,
                                      seed)) {
            const NetworkRun nr = ref.runNetwork(requests[i]->layers, so);
            const NetworkRun &got = completions[i].run;
            bool same = nr.total == got.total &&
                        nr.layers.size() == got.layers.size();
            for (size_t l = 0; same && l < nr.layers.size(); ++l)
                same = sameLayerRun(nr.layers[l], got.layers[l]);
            ++*checked;
            bad += same ? 0 : 1;
        }
        return bad;
    }

    void
    extraLayerMetrics(StageLog &log) const override
    {
        log.count("serve.drain", drain_s);
    }

  private:
    std::unique_ptr<serve::ModelRegistry> registry;
    std::vector<const ModelWorkload *> requests;
    std::unique_ptr<Accelerator> acc;
    std::unique_ptr<PlanCache> cache;
    serve::StreamScheduler::Options opts;
    /** The last pass, in submission order. */
    std::vector<serve::Completion> completions;
    double drain_s = 0.0;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeServe()
{
    return std::make_unique<Serve>();
}

} // namespace perfbench
