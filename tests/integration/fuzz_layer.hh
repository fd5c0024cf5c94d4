/**
 * @file
 * The conv fuzzer's layer generator, shared by the conv fuzzer
 * (test_conv_fuzz.cc) and the network-level engine equivalence test
 * (test_engine_equivalence.cc), so both sweep the same shapes.
 */

#ifndef S2TA_TESTS_INTEGRATION_FUZZ_LAYER_HH
#define S2TA_TESTS_INTEGRATION_FUZZ_LAYER_HH

#include <algorithm>
#include <iterator>
#include <vector>

#include "arch/accelerator.hh"
#include "base/random.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {

/**
 * One fuzzed conv layer. Spatial geometry is unconstrained (the
 * h/w floor of 6 keeps every kernel/stride/pad draw valid), but the
 * channel structure follows the safe (groups, group-channels)
 * table: makeDbbTensor structures its nnz bound over flat 8-blocks,
 * so in_c must be a multiple of 8 and each group's channel segment
 * must not straddle an 8-block boundary or im2col re-blocking could
 * exceed the declared DBB bound.
 *
 * Every operand bound is drawn at most @p bz and generated over the
 * DAP's flat 8-blocks, so it also holds for each bz-block inside
 * them (bz divides 8).
 */
inline LayerWorkload
fuzzLayer(Rng &rng, int bz)
{
    LayerWorkload wl;
    wl.name = "fuzz";

    struct Pick
    {
        int groups, gc;
    };
    const Pick picks[] = {{1, 8}, {1, 16}, {2, 4},  {2, 8},
                          {4, 4}, {8, 4},  {16, 1}};
    const Pick pick = picks[rng.uniformInt(0, std::size(picks) - 1)];
    const int gc = pick.gc;
    const int in_c = pick.gc * pick.groups;
    const int goc = pick.groups >= 8
                        ? static_cast<int>(rng.uniformInt(1, 2))
                        : static_cast<int>(rng.uniformInt(1, 3));
    const int out_c = goc * pick.groups;

    const int kern_pick[] = {1, 2, 3, 5};
    const int kh = kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int kw = kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int h = static_cast<int>(rng.uniformInt(6, 14));
    const int w = static_cast<int>(rng.uniformInt(6, 14));
    const int stride = static_cast<int>(rng.uniformInt(1, 3));
    const int pad = static_cast<int>(rng.uniformInt(0, 2));
    const int batch = static_cast<int>(rng.uniformInt(1, 3));

    wl.shape = {in_c, h, w, out_c, kh, kw, stride, pad, pick.groups};
    wl.batch = batch;
    const int act_bounds[] = {1, 2, 4, 8};
    wl.act_nnz = std::min(
        bz, act_bounds[rng.uniformInt(0, std::size(act_bounds) - 1)]);
    wl.wgt_nnz = static_cast<int>(rng.uniformInt(1, bz));

    std::vector<int> in_shape = {h, w, in_c};
    if (batch > 1)
        in_shape.insert(in_shape.begin(), batch);
    wl.input = makeDbbTensor(in_shape, wl.act_nnz, rng);

    // W-DBB blocks run along the input-channel dimension: generate
    // channel-innermost and transpose into (kh, kw, gc, oc).
    const Int8Tensor tmp = makeDbbTensor(
        {kh, kw, out_c, gc}, std::min(wl.wgt_nnz, gc), rng);
    wl.weights = Int8Tensor({kh, kw, gc, out_c});
    for (int ky = 0; ky < kh; ++ky)
        for (int kx = 0; kx < kw; ++kx)
            for (int c = 0; c < gc; ++c)
                for (int oc = 0; oc < out_c; ++oc)
                    wl.weights(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    return wl;
}

} // namespace s2ta

#endif // S2TA_TESTS_INTEGRATION_FUZZ_LAYER_HH
