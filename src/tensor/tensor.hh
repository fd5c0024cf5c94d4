/**
 * @file
 * Minimal dense N-dimensional tensor used throughout the library.
 *
 * Row-major layout; the last dimension is contiguous. Activation
 * tensors use NHWC so that the channel dimension (the DBB blocking
 * dimension, paper Fig. 5) is contiguous in memory.
 *
 * A tensor carries the digest of its content (digest()), so a plan
 * cache keys a layer visit without re-reading operands it has seen.
 */

#ifndef S2TA_TENSOR_TENSOR_HH
#define S2TA_TENSOR_TENSOR_HH

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "base/hash.hh"
#include "base/logging.hh"

namespace s2ta {

/**
 * Dense row-major tensor of element type T.
 *
 * Deliberately simple: owning storage, no views, no broadcasting.
 * The simulators operate on raw spans of this storage in hot loops.
 *
 * The content digest (hashBytes over the element bytes) is computed
 * on its first read and kept until the content can change: every
 * non-const accessor (data(), flat(), operator(), fill()) forgets
 * it, and an assignment replaces it with the source's. A copy keeps
 * the digest; a move takes it and leaves the source without one.
 */
template <typename T>
class Tensor
{
  public:
    Tensor() = default;

    Tensor(const Tensor &o)
        : shp(o.shp), str(o.str), buf(o.buf),
          dig(o.dig.load(std::memory_order_relaxed))
    {}

    Tensor(Tensor &&o) noexcept
        : shp(std::move(o.shp)), str(std::move(o.str)),
          buf(std::move(o.buf)),
          dig(o.dig.exchange(0, std::memory_order_relaxed))
    {}

    Tensor &
    operator=(const Tensor &o)
    {
        shp = o.shp;
        str = o.str;
        buf = o.buf;
        dig.store(o.dig.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
        return *this;
    }

    Tensor &
    operator=(Tensor &&o) noexcept
    {
        if (this == &o)
            return *this;
        shp = std::move(o.shp);
        str = std::move(o.str);
        buf = std::move(o.buf);
        dig.store(o.dig.exchange(0, std::memory_order_relaxed),
                  std::memory_order_relaxed);
        return *this;
    }

    /** Construct with a shape, filled with @p init. */
    explicit Tensor(std::vector<int> shape_, T init = T{})
        : shp(std::move(shape_))
    {
        int64_t n = 1;
        for (int d : shp) {
            s2ta_assert(d > 0, "non-positive dim %d", d);
            n *= d;
        }
        buf.assign(static_cast<size_t>(n), init);
        computeStrides();
    }

    /** Construct with a shape, taking @p data (row-major, exactly
     *  the shape's element count) as the storage. */
    Tensor(std::vector<int> shape_, std::vector<T> data)
        : shp(std::move(shape_)), buf(std::move(data))
    {
        int64_t n = 1;
        for (int d : shp) {
            s2ta_assert(d > 0, "non-positive dim %d", d);
            n *= d;
        }
        s2ta_assert(n == size(), "%ld elements for a %ld-element shape",
                    size(), n);
        computeStrides();
    }

    /** Number of dimensions. */
    int rank() const { return static_cast<int>(shp.size()); }

    /** Extent of dimension i. */
    int
    dim(int i) const
    {
        s2ta_assert(i >= 0 && i < rank(), "dim %d of rank-%d tensor",
                    i, rank());
        return shp[static_cast<size_t>(i)];
    }

    /** Full shape vector. */
    const std::vector<int> &shape() const { return shp; }

    /** Total element count. */
    int64_t size() const { return static_cast<int64_t>(buf.size()); }

    /**
     * Raw storage access. The call forgets the digest, so write
     * through the returned pointer only before the next digest()
     * read: a write after it would leave that digest stale.
     */
    T *
    data()
    {
        forgetDigest();
        return buf.data();
    }

    const T *data() const { return buf.data(); }

    /** Linear (flat) element access. */
    T &
    flat(int64_t i)
    {
        s2ta_assert(i >= 0 && i < size(), "flat index %ld", i);
        forgetDigest();
        return buf[static_cast<size_t>(i)];
    }

    const T &
    flat(int64_t i) const
    {
        s2ta_assert(i >= 0 && i < size(), "flat index %ld", i);
        return buf[static_cast<size_t>(i)];
    }

    /** Multi-dimensional element access, e.g. t(n, h, w, c). */
    template <typename... Idx>
    T &
    operator()(Idx... idx)
    {
        forgetDigest();
        return buf[static_cast<size_t>(offset(idx...))];
    }

    template <typename... Idx>
    const T &
    operator()(Idx... idx) const
    {
        return buf[static_cast<size_t>(offset(idx...))];
    }

    /** Set every element to @p v. */
    void
    fill(T v)
    {
        forgetDigest();
        std::fill(buf.begin(), buf.end(), v);
    }

    /**
     * hashBytes over the size() * sizeof(T) element bytes (the shape
     * is not hashed). The first read after construction or a write
     * computes it; later reads return it. Threads racing on a first
     * read compute and store the same value. (0 marks "not
     * computed", so content whose hash is 0 is rehashed per read.)
     */
    uint64_t
    digest() const
    {
        uint64_t d = dig.load(std::memory_order_relaxed);
        if (d == 0) {
            d = hashBytes(buf.data(), buf.size() * sizeof(T));
            dig.store(d, std::memory_order_relaxed);
        }
        return d;
    }

    /** Reshape in place; the element count (and the content, so the
     *  digest) is preserved. */
    void
    reshape(std::vector<int> new_shape)
    {
        int64_t n = 1;
        for (int d : new_shape)
            n *= d;
        s2ta_assert(n == size(), "reshape %ld -> %ld elements",
                    size(), n);
        shp = std::move(new_shape);
        computeStrides();
    }

    bool
    operator==(const Tensor &o) const
    {
        return shp == o.shp && buf == o.buf;
    }

  private:
    void forgetDigest() { dig.store(0, std::memory_order_relaxed); }

    /** Recompute row-major strides from the shape. */
    void
    computeStrides()
    {
        str.assign(shp.size(), 1);
        for (int i = rank() - 2; i >= 0; --i) {
            str[static_cast<size_t>(i)] =
                str[static_cast<size_t>(i + 1)] *
                shp[static_cast<size_t>(i + 1)];
        }
    }

    /** Compute the flat offset of a multi-index. */
    template <typename... Idx>
    int64_t
    offset(Idx... idx) const
    {
        s2ta_assert(sizeof...(idx) == shp.size(),
                    "%zu indices for rank-%d tensor",
                    sizeof...(idx), rank());
        const int64_t ii[] = {static_cast<int64_t>(idx)...};
        int64_t off = 0;
        for (size_t i = 0; i < sizeof...(idx); ++i) {
            s2ta_assert(ii[i] >= 0 && ii[i] < shp[i],
                        "index %ld out of bound %d at dim %zu",
                        ii[i], shp[i], i);
            off += ii[i] * str[i];
        }
        return off;
    }

    std::vector<int> shp;
    std::vector<int64_t> str;
    std::vector<T> buf;
    /** Content digest; 0 until computed. */
    mutable std::atomic<uint64_t> dig{0};
};

using Int8Tensor = Tensor<int8_t>;
using Int32Tensor = Tensor<int32_t>;
using FloatTensor = Tensor<float>;

} // namespace s2ta

#endif // S2TA_TENSOR_TENSOR_HH
