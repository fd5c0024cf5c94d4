/**
 * @file
 * Prints what the SIMD kernel tiers resolved to on this machine:
 * the CPU features each tier uses and their runtime cpuid probes,
 * the AVX-512 sub-feature probe (the VNNI tile), and the tier the
 * dispatcher actually selected. CI
 * runs this before the kernel tests so a log of a failing runner
 * shows exactly which paths were live; it is also the quickest way
 * to see why --simd avx512 is rejected on a given host.
 *
 * Output is one `key value` pair per line (stable keys, lower-case
 * values) so scripts can grep it. Exits 0 always — an all-scalar
 * machine is a valid configuration, not an error.
 */

#include <cstdio>

#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"

using namespace s2ta;

int
main()
{
    // The scalar tier's tile is SSE2 on x86-64 (part of the
    // baseline ISA) and a per-output loop elsewhere.
#ifdef __SSE2__
    std::printf("tier_scalar_features sse2\n");
#else
    std::printf("tier_scalar_features none\n");
#endif
    std::printf("tier_scalar true\n");
    std::printf("tier_avx512_features avx512bw+avx512vnni\n");
    std::printf("tier_avx512 %s\n",
                dbbAvx512KernelSupportedImpl() ? "true" : "false");
    std::printf("subfeature_avx512_vnni %s\n",
                dbbVnniKernelSupportedImpl() ? "true" : "false");
    std::printf("vnni_dense_dot_enabled %s\n",
                dbbVnniDenseEnabled() ? "true" : "false");
    std::printf("active_kernel %s\n",
                dbbKernelKindName(dbbActiveKernel()));
    return 0;
}
