#include "tensor/gemm.hh"

namespace s2ta {

std::vector<int32_t>
gemmReference(const GemmProblem &p)
{
    const size_t lda = static_cast<size_t>(p.groups) * p.k;
    const size_t ldc = static_cast<size_t>(p.groups) * p.n;
    std::vector<int32_t> c(static_cast<size_t>(p.m) * ldc, 0);
    // i-k-j loop order keeps the inner traversal contiguous in both
    // the weight matrix and the output row; each group contracts
    // its own column blocks of a, w and the result.
    for (int i = 0; i < p.m; ++i) {
        for (int g = 0; g < p.groups; ++g) {
            const size_t a0 = static_cast<size_t>(g) * p.k;
            const size_t c0 = static_cast<size_t>(g) * p.n;
            const int8_t *arow = &p.a[i * lda + a0];
            int32_t *crow = &c[i * ldc + c0];
            for (int kk = 0; kk < p.k; ++kk) {
                const int32_t av = arow[kk];
                if (av == 0)
                    continue;
                const int8_t *wrow = &p.w[kk * ldc + c0];
                for (int j = 0; j < p.n; ++j)
                    crow[j] += av * wrow[j];
            }
        }
    }
    return c;
}

} // namespace s2ta
