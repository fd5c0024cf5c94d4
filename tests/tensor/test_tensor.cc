/** @file Unit tests for the dense Tensor container and its content
 *  digest. */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <utility>

#include "arch/plan_cache.hh"
#include "tensor/tensor.hh"

namespace s2ta {
namespace {

TEST(Tensor, ConstructsWithShapeAndInit)
{
    Int8Tensor t({2, 3, 4}, 7);
    EXPECT_EQ(t.rank(), 3);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(1), 3);
    EXPECT_EQ(t.dim(2), 4);
    EXPECT_EQ(t.size(), 24);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.flat(i), 7);
}

TEST(Tensor, RowMajorLayout)
{
    Int32Tensor t({2, 3, 4});
    int32_t v = 0;
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 4; ++k)
                t(i, j, k) = v++;
    // The innermost index is contiguous.
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.flat(i), static_cast<int32_t>(i));
}

TEST(Tensor, MultiIndexAccessReadsBack)
{
    FloatTensor t({3, 5});
    t(2, 4) = 1.5f;
    t(0, 0) = -2.0f;
    EXPECT_FLOAT_EQ(t(2, 4), 1.5f);
    EXPECT_FLOAT_EQ(t(0, 0), -2.0f);
    EXPECT_FLOAT_EQ(t(1, 3), 0.0f);
}

TEST(Tensor, FillOverwritesAll)
{
    FloatTensor t({4, 4});
    t.fill(3.0f);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(t.flat(i), 3.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Int32Tensor t({2, 6});
    for (int64_t i = 0; i < t.size(); ++i)
        t.flat(i) = static_cast<int32_t>(i * 3);
    t.reshape({3, 4});
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.dim(0), 3);
    EXPECT_EQ(t.dim(1), 4);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.flat(i), static_cast<int32_t>(i * 3));
}

TEST(Tensor, EqualityComparesShapeAndData)
{
    Int8Tensor a({2, 2}, 1);
    Int8Tensor b({2, 2}, 1);
    EXPECT_TRUE(a == b);
    b(1, 1) = 2;
    EXPECT_FALSE(a == b);
    Int8Tensor c({4}, 1);
    EXPECT_FALSE(a == c);
}

/** hashBytes over @p t's size() * sizeof(T) element bytes. */
template <typename T>
uint64_t
contentHash(const Tensor<T> &t)
{
    return PlanCache::hashBytes(t.data(),
                                static_cast<size_t>(t.size()) * sizeof(T));
}

/** A tensor of @p n elements 1, 2, ..., n. */
template <typename T>
Tensor<T>
ramp(int n)
{
    Tensor<T> t({n});
    for (int i = 0; i < n; ++i)
        t.flat(i) = static_cast<T>(i + 1);
    return t;
}

TEST(TensorDigest, EqualsHashBytesOfTheElementBytes)
{
    // Byte lengths on both sides of hashBytes' 8-byte strides.
    for (const int n : {1, 3, 7, 8, 13, 64, 101}) {
        SCOPED_TRACE("n " + std::to_string(n));
        const Int8Tensor i8 = ramp<int8_t>(n);
        const Int32Tensor i32 = ramp<int32_t>(n);
        const FloatTensor f = ramp<float>(n);
        EXPECT_EQ(i8.digest(), contentHash(i8));
        EXPECT_EQ(i32.digest(), contentHash(i32));
        EXPECT_EQ(f.digest(), contentHash(f));
        // A second read returns the same value.
        EXPECT_EQ(i8.digest(), contentHash(i8));
    }
    // The shape is not hashed; the element bytes are.
    const Int8Tensor a({2, 3}, 5), b({3, 2}, 5), c({2, 3}, 6);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.digest(), c.digest());
    EXPECT_EQ(Int8Tensor().digest(), PlanCache::hashBytes(nullptr, 0));
}

TEST(TensorDigest, EveryWriteYieldsTheFreshHash)
{
    using Write = std::function<void(Int32Tensor &)>;
    const std::pair<const char *, Write> writes[] = {
        {"data", [](Int32Tensor &t) { t.data()[5] = -9; }},
        {"flat", [](Int32Tensor &t) { t.flat(6) = -9; }},
        {"operator()", [](Int32Tensor &t) { t(1, 2) = -9; }},
        {"fill", [](Int32Tensor &t) { t.fill(4); }},
        {"copy-assign",
         [](Int32Tensor &t) {
             Int32Tensor other({3, 4}, 7);
             (void)other.digest();
             t = other;
         }},
        {"move-assign",
         [](Int32Tensor &t) {
             Int32Tensor other({3, 4}, 8);
             (void)other.digest();
             t = std::move(other);
         }},
    };
    for (const auto &[name, write] : writes) {
        SCOPED_TRACE(name);
        Int32Tensor t({3, 4});
        for (int64_t i = 0; i < t.size(); ++i)
            t.flat(i) = static_cast<int32_t>(i);
        const uint64_t before = t.digest();
        write(t);
        EXPECT_EQ(t.digest(), contentHash(t));
        EXPECT_NE(t.digest(), before);
    }
}

TEST(TensorDigest, CopiesKeepItAndMovesTakeIt)
{
    // The digest is kept, not recomputed: a write through a pointer
    // taken before the read is not seen (data()'s contract forbids
    // it), and a copy or move carries the kept value along.
    Int8Tensor t = ramp<int8_t>(13);
    int8_t *p = t.data();
    const uint64_t kept = t.digest();
    p[0] = 100;
    EXPECT_EQ(t.digest(), kept);
    EXPECT_NE(contentHash(t), kept);

    const Int8Tensor copy(t);
    EXPECT_EQ(copy.digest(), kept);
    Int8Tensor assigned;
    assigned = t;
    EXPECT_EQ(assigned.digest(), kept);

    Int8Tensor moved(std::move(t));
    EXPECT_EQ(moved.digest(), kept);
    // The moved-from source has no digest left to go stale.
    EXPECT_EQ(t.digest(), contentHash(t));

    Int8Tensor target = ramp<int8_t>(3);
    (void)target.digest();
    target = std::move(moved);
    EXPECT_EQ(target.digest(), kept);
    EXPECT_EQ(moved.digest(), contentHash(moved));

    // A non-const accessor forgets the kept value.
    (void)target.data();
    EXPECT_EQ(target.digest(), contentHash(target));
}

TEST(TensorDigest, RacingFirstReadsAgree)
{
    // Threads read one fresh tensor's digest at the same moment;
    // each either computes it or reads a racing lane's store.
    constexpr int kThreads = 4;
    for (int round = 0; round < 8; ++round) {
        Int8Tensor t({1 << 18});
        for (int64_t i = 0; i < t.size(); ++i)
            t.flat(i) = static_cast<int8_t>(i * 7 + round);
        const Int8Tensor &shared = t;
        std::atomic<int> ready{0};
        uint64_t seen[kThreads] = {};
        std::vector<std::thread> lanes;
        for (int l = 0; l < kThreads; ++l) {
            lanes.emplace_back([&, l] {
                ready.fetch_add(1);
                while (ready.load() < kThreads) {
                }
                seen[l] = shared.digest();
            });
        }
        for (std::thread &th : lanes)
            th.join();
        for (int l = 0; l < kThreads; ++l)
            EXPECT_EQ(seen[l], contentHash(shared)) << "lane " << l;
    }
}

TEST(TensorDeath, OutOfBoundsIndexPanics)
{
    Int8Tensor t({2, 2});
    EXPECT_DEATH(t(2, 0), "out of bound");
    EXPECT_DEATH(t.flat(4), "flat index");
}

TEST(TensorDeath, BadReshapePanics)
{
    Int8Tensor t({2, 2});
    EXPECT_DEATH(t.reshape({3, 2}), "reshape");
}

} // anonymous namespace
} // namespace s2ta
