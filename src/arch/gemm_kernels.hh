/**
 * @file
 * Internal declarations for the packed weight layout, the
 * runtime-dispatched AVX-512 contraction over it, and the cpuid
 * probes.
 *
 * The contraction lives in gemm_kernels_avx512.cc, the one
 * translation unit compiled with AVX-512 codegen (every x86-64
 * build; see CMakeLists.txt); this header carries only declarations
 * and constants, so including it never instantiates code under a
 * raised ISA. Callers go through dbbGemm in gemm_plan.hh — these
 * symbols are exposed for the dispatcher, for the kernel property
 * tests and for tools/simd_probe. On a non-x86 target each probe
 * reports unsupported and the contraction is never dispatched, so
 * the symbols always link. The AVX-512 unit includes only this
 * header: a shared inline function compiled there could be kept by
 * the linker for the whole program.
 */

#ifndef S2TA_ARCH_GEMM_KERNELS_HH
#define S2TA_ARCH_GEMM_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace s2ta {

/**
 * Packed weight layout (GemmPlan::packedWeights): each group's
 * columns in panels of kPanelCols. A panel is ceil(k/4) quads of
 * kQuadBytes — column c's weights at K rows 4q..4q+3 are bytes
 * 4c..4c+3 of quad q, vpdpbusd's operand layout — followed by the
 * panel's kPanelCols column sums as INT32 (kQuadBytes more). K and
 * N are zero-padded to whole quads and panels.
 */
constexpr int kPanelCols = 16;
constexpr int kQuadBytes = 4 * kPanelCols;

/** Bytes from one panel to the next at reduction length @p k. */
constexpr size_t
packedPanelStride(int k)
{
    return static_cast<size_t>((k + 3) / 4 + 1) * kQuadBytes;
}

/** True when this CPU has SSSE3 (false on non-x86 builds). No
 *  kernel needs it; it is a host fact the benchmarks record. */
bool dbbSimdKernelSupportedImpl();

/** True when this CPU has AVX2 (false on non-x86 builds); a host
 *  fact like dbbSimdKernelSupportedImpl. */
bool dbbAvx2KernelSupportedImpl();

/** True when this CPU can run the VNNI contraction below
 *  (dbbVnniKernelSupportedImpl()): the condition for the avx512
 *  tier (false on non-x86 builds). */
bool dbbAvx512KernelSupportedImpl();

/**
 * VNNI contraction of one group over @p rows activation rows (row i
 * holds its k values at a + i*lda) against the group's @p n packed
 * weight columns (its first panel at @p panels, 64-byte aligned),
 * writing out[i*ldc + j] for j < n. Tiles of 4 rows x 32 columns
 * accumulate in 8 zmm registers: each quad loads two panels' 64
 * bytes and broadcasts each row's 4 activation bytes XORed with
 * 0x80, since vpdpbusd multiplies u8 x s8. The signed result is
 * recovered once per tile as dp(a ^ 0x80, w) - 128 * colsum(w),
 * which wraps mod 2^32 like the scalar INT32 accumulation. No load
 * reads past an activation row's k values.
 */
void dbbPackedGemmVnni(const int8_t *a, size_t lda, int rows, int k,
                       const int8_t *panels, int n, int32_t *out,
                       size_t ldc);

/** True when this CPU has avx512bw + avx512vnni, the contraction's
 *  features (false on non-x86 builds). */
bool dbbVnniKernelSupportedImpl();

} // namespace s2ta

#endif // S2TA_ARCH_GEMM_KERNELS_HH
