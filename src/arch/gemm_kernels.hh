/**
 * @file
 * Internal declarations for the runtime-dispatched mask-intersection
 * row-dot kernels.
 *
 * Each SIMD tier lives in its own translation unit compiled with
 * exactly the ISA it needs (every x86-64 build; see CMakeLists.txt);
 * this header carries only declarations so including it never
 * instantiates code under a raised ISA. Callers go through
 * dbbActiveKernel() in gemm_plan.hh — these symbols are exposed for
 * the dispatcher, for the kernel-equivalence property tests (which
 * compare every tier this CPU has against the scalar rank-gather
 * loop on the same block rows) and for tools/simd_probe. On a
 * non-x86 target each entry point is a scalar alias and each probe
 * reports unsupported, so the symbols always link.
 */

#ifndef S2TA_ARCH_GEMM_KERNELS_HH
#define S2TA_ARCH_GEMM_KERNELS_HH

#include <cstdint>

namespace s2ta {

struct DbbBlock;

/** SSSE3 pshufb-expansion row dot (gemm_kernels_v2.cc). */
int32_t dbbDotRowSimdV2(const DbbBlock *a, const DbbBlock *w,
                        int nblocks);

/** True when this CPU has SSSE3 (false on non-x86 builds). */
bool dbbSimdKernelSupportedImpl();

/**
 * AVX2 tier (gemm_kernels_avx2.cc): four blocks per operand expand
 * into one 256-bit register per iteration — twice the SSSE3 batch
 * per shuffle.
 */
int32_t dbbDotRowAvx2(const DbbBlock *a, const DbbBlock *w,
                      int nblocks);

/** True when this CPU has AVX2 (false on non-x86 builds). */
bool dbbAvx2KernelSupportedImpl();

/**
 * AVX-512 tier (gemm_kernels_avx512.cc): EIGHT blocks per operand
 * expand into one 512-bit register per masked-zeroing vpermi2b
 * (AVX512VBMI), then one 512-bit madd tree contracts 64 dense INT8
 * lanes per iteration.
 */
int32_t dbbDotRowAvx512(const DbbBlock *a, const DbbBlock *w,
                        int nblocks);

/** True when this CPU has avx512bw + avx512vbmi, the AVX-512
 *  intersection kernel's features (false on non-x86 builds). */
bool dbbAvx512KernelSupportedImpl();

/**
 * VNNI dense-mirror dot product (sub-feature of the AVX-512 tier):
 * one vpdpbusd contracts 64 INT8 pairs per instruction. vpdpbusd is
 * u8 x s8, so the signed result is recovered exactly as
 * dp(a ^ 0x80, w) - 128 * dp(1, w) — bit-identical to the scalar
 * INT32 wrapping accumulation.
 */
int32_t dbbDenseDotVnni(const int8_t *a, const int8_t *w, int k);

/** True when this CPU has avx512vnni, probed independently of the
 *  intersection kernel (false on non-x86 builds). */
bool dbbVnniKernelSupportedImpl();

/**
 * VPOPCNTDQ profile derivation (sub-feature of the AVX-512 tier):
 * adds the per-position non-zero counts of one encoded vector of
 * bz == 8 blocks into hist[block * 8 + bit] and returns the
 * vector's total mask popcount. Groups of 8 blocks whose full
 * 64-position window fits inside @p hist_len go through the SIMD
 * path (packed-mask vpopcntq for the total, vpmovm2b widening for
 * the histogram); trailing blocks fall back to per-bit updates.
 * Bit-identical to the scalar mask loops in
 * OperandProfile::fromDbb.
 */
int64_t dbbProfileVectorAvx512(const DbbBlock *blocks, int nblocks,
                               int32_t *hist, int hist_len);

/** True when this CPU has avx512vpopcntdq + avx512bw, the profile
 *  path's features (false on non-x86 builds). */
bool dbbVpopcntKernelSupportedImpl();

} // namespace s2ta

#endif // S2TA_ARCH_GEMM_KERNELS_HH
