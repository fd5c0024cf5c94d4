#include "serve/model_registry.hh"

#include "base/hash.hh"
#include "nn/model_zoo.hh"

namespace s2ta {
namespace serve {

ModelRegistry::ModelRegistry(uint64_t seed_, BatchMode mode_)
    : seed(seed_), mode(mode_)
{}

uint64_t
ModelRegistry::modelSeed(const std::string &model) const
{
    // Depends only on (registry seed, model name): request arrival
    // order can never change workload content.
    return hashCombine(seed, hashBytes(model.data(), model.size()));
}

const ModelWorkload &
ModelRegistry::workload(const std::string &model, int batch)
{
    s2ta_assert(batch >= 1, "batch=%d", batch);
    const auto key = std::make_pair(model, batch);
    auto it = cache.find(key);
    if (it != cache.end())
        return *it->second;

    if (batch > 1) {
        // Batch variants extend the batch-1 base, so the deployed
        // model (weights, bounds, profile) is shared across every
        // batch size. Distinct mode derives sample s from a seed
        // domain-separated from the base workload's generator
        // stream (the base seed already drew the weights).
        const ModelWorkload &base = workload(model, 1);
        ModelWorkload batched =
            mode == BatchMode::Replicate
                ? withBatch(base, batch)
                : withDistinctBatch(
                      base, batch,
                      hashCombine(modelSeed(model), 0x5A3B7Eull));
        it = cache.emplace(key, std::make_unique<ModelWorkload>(
                                    std::move(batched)))
                 .first;
        return *it->second;
    }

    Rng rng(modelSeed(model));
    it = cache.emplace(key,
                       std::make_unique<ModelWorkload>(
                           buildModelWorkload(modelByName(model),
                                              rng)))
             .first;
    return *it->second;
}

} // namespace serve
} // namespace s2ta
