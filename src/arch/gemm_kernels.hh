/**
 * @file
 * Internal declarations for the runtime-dispatched AVX-512 dense
 * dot and the cpuid probes.
 *
 * The dot lives in gemm_kernels_avx512.cc, the one translation unit
 * compiled with AVX-512 codegen (every x86-64 build; see
 * CMakeLists.txt); this header carries only declarations so
 * including it never instantiates code under a raised ISA. Callers
 * go through dbbVnniDenseEnabled() in gemm_plan.hh — these symbols
 * are exposed for the dispatcher, for the kernel-equivalence
 * property tests and for tools/simd_probe. On a non-x86 target the
 * dot is a scalar loop and each probe reports unsupported, so the
 * symbols always link. The AVX-512 unit includes only this header:
 * a shared inline function compiled there could be kept by the
 * linker for the whole program.
 */

#ifndef S2TA_ARCH_GEMM_KERNELS_HH
#define S2TA_ARCH_GEMM_KERNELS_HH

#include <cstdint>

namespace s2ta {

/** True when this CPU has SSSE3 (false on non-x86 builds). No
 *  kernel needs it; it is a host fact the benchmarks record. */
bool dbbSimdKernelSupportedImpl();

/** True when this CPU has AVX2 (false on non-x86 builds); a host
 *  fact like dbbSimdKernelSupportedImpl. */
bool dbbAvx2KernelSupportedImpl();

/** True when this CPU can run the VNNI dot below
 *  (dbbVnniKernelSupportedImpl()): the condition for the avx512
 *  tier (false on non-x86 builds). */
bool dbbAvx512KernelSupportedImpl();

/**
 * VNNI dense dot product: one vpdpbusd contracts 64 INT8 pairs per
 * instruction. vpdpbusd is u8 x s8, so the signed result is
 * recovered exactly as dp(a ^ 0x80, w) - 128 * dp(1, w) —
 * bit-identical to the scalar INT32 wrapping accumulation.
 */
int32_t dbbDenseDotVnni(const int8_t *a, const int8_t *w, int k);

/** True when this CPU has avx512bw + avx512vnni, the VNNI dot's
 *  features (false on non-x86 builds). */
bool dbbVnniKernelSupportedImpl();

} // namespace s2ta

#endif // S2TA_ARCH_GEMM_KERNELS_HH
