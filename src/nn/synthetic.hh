/**
 * @file
 * Deterministic synthetic datasets for the accuracy experiments.
 *
 * ImageNet/MNIST are not available offline, so Table 3's *relative*
 * claim (DBB pruning with fine-tuning costs <~1% accuracy; naive
 * pruning costs much more) is exercised on procedurally generated
 * classification tasks (bench/tab03_accuracy.cc runs them):
 *  - a vision task: oriented sinusoidal gratings + per-class blobs
 *    + Gaussian noise + spatial jitter, (H, W, C) images;
 *  - a feature task: noisy class centroids in R^dim, standing in
 *    for the FC sub-layer workloads of the I-BERT rows.
 */

#ifndef S2TA_NN_SYNTHETIC_HH
#define S2TA_NN_SYNTHETIC_HH

#include <vector>

#include "base/random.hh"
#include "tensor/tensor.hh"

namespace s2ta {

/** One labelled example. */
struct Sample
{
    FloatTensor input;
    int label = 0;
};

/** A labelled dataset. */
struct Dataset
{
    std::vector<Sample> samples;
    int num_classes = 0;

    int size() const { return static_cast<int>(samples.size()); }
};

/** Configuration of the synthetic vision task. */
struct SyntheticVisionConfig
{
    int height = 12;
    int width = 12;
    int channels = 3;
    int num_classes = 8;
    /** Additive Gaussian noise sigma (signal amplitude is ~1). */
    double noise = 0.65;
    /** Max spatial jitter in pixels. */
    int jitter = 2;
};

/** Generate @p count vision samples. */
Dataset makeSyntheticVision(int count,
                            const SyntheticVisionConfig &cfg,
                            Rng &rng);

/** Configuration of the synthetic feature (MLP) task. */
struct SyntheticFeatureConfig
{
    int dim = 64;
    int num_classes = 8;
    double noise = 2.2;
};

/** Generate @p count feature samples. */
Dataset makeSyntheticFeatures(int count,
                              const SyntheticFeatureConfig &cfg,
                              Rng &rng);

} // namespace s2ta

#endif // S2TA_NN_SYNTHETIC_HH
