/**
 * @file
 * U64x4Avx2 against a per-lane scalar reference for the simd.hh vector
 * API. This is the one test translation unit built with -mavx2
 * (mirroring src/predictors/fused_vec_avx2.cc); every intrinsic runs
 * behind a runtime cpuHasAvx2() guard, so the binary still loads and
 * the test skips cleanly on CPUs without AVX2.
 *
 * The claim under test is the simd.hh file comment: each op is the
 * lanewise scalar operation -- in particular the variable shifts zero
 * at counts >= 64 -- which the vector steppers rely on to compute the
 * same bits as the scalar steppers. ("Emulation" in the test names is
 * that per-lane scalar reference.) The steppers themselves, including
 * the masked word ops of predictors/tables.hh on U64x4Avx2, are
 * checked end to end by the EV8_SIMD byte-identity tests.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/simd.hh"

namespace ev8
{
namespace
{

#if defined(__AVX2__)

/** Deterministic xorshift64*; same stream shape as test_simd.cc. */
struct Rng
{
    uint64_t s = 0x853c49e6748fea9bULL;

    uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dULL;
    }
};

/** Lanewise scalar reference: ref[i] = op(a[i], b[i]). */
template <class Op>
void
reference(const uint64_t a[4], const uint64_t b[4], uint64_t out[4], Op op)
{
    for (int i = 0; i < 4; ++i)
        out[i] = op(a[i], b[i]);
}

#define EXPECT_LANES(want, avx_expr, what)                             \
    do {                                                               \
        uint64_t avx_out[4];                                           \
        (avx_expr).store(avx_out);                                     \
        for (int lane_ = 0; lane_ < 4; ++lane_)                        \
            EXPECT_EQ((want)[lane_], avx_out[lane_])                   \
                << what << " lane " << lane_;                          \
    } while (0)

TEST(SimdVector, Avx2MatchesEmulationOnRandomVectors)
{
    if (!simd::cpuHasAvx2())
        GTEST_SKIP() << "CPU does not report AVX2";

    using simd::U64x4Avx2;

    Rng rng;
    for (int round = 0; round < 500; ++round) {
        uint64_t as[4], bs[4], ns[4], want[4];
        for (int i = 0; i < 4; ++i) {
            as[i] = rng.next();
            bs[i] = rng.next();
            // Shift counts straddling the >= 64 zeroing boundary.
            ns[i] = rng.next() % 130;
        }
        const U64x4Avx2 va = U64x4Avx2::load(as);
        const U64x4Avx2 vb = U64x4Avx2::load(bs);
        const U64x4Avx2 vn = U64x4Avx2::load(ns);

        reference(as, bs, want, [](uint64_t a, uint64_t b) { return a & b; });
        EXPECT_LANES(want, va & vb, "and");
        reference(as, bs, want, [](uint64_t a, uint64_t b) { return a | b; });
        EXPECT_LANES(want, va | vb, "or");
        reference(as, bs, want, [](uint64_t a, uint64_t b) { return a ^ b; });
        EXPECT_LANES(want, va ^ vb, "xor");
        reference(as, bs, want, [](uint64_t a, uint64_t) { return ~a; });
        EXPECT_LANES(want, ~va, "not");
        reference(as, bs, want, [](uint64_t a, uint64_t b) { return a + b; });
        EXPECT_LANES(want, U64x4Avx2::add(va, vb), "add");
        reference(as, ns, want, [](uint64_t x, uint64_t n) {
            return n >= 64 ? 0 : x >> n;
        });
        EXPECT_LANES(want, U64x4Avx2::srlv(va, vn), "srlv");
        reference(as, ns, want, [](uint64_t x, uint64_t n) {
            return n >= 64 ? 0 : x << n;
        });
        EXPECT_LANES(want, U64x4Avx2::sllv(va, vn), "sllv");
        // blend(mask = b, yes = a, no = ~a).
        reference(as, bs, want, [](uint64_t a, uint64_t m) {
            return (a & m) | (~a & ~m);
        });
        EXPECT_LANES(want, U64x4Avx2::blend(vb, va, ~va), "blend");

        const unsigned imm = static_cast<unsigned>(rng.next() % 64);
        reference(as, bs, want,
                  [imm](uint64_t a, uint64_t) { return a << imm; });
        EXPECT_LANES(want, va << imm, "shl imm");
        reference(as, bs, want,
                  [imm](uint64_t a, uint64_t) { return a >> imm; });
        EXPECT_LANES(want, va >> imm, "shr imm");

        EXPECT_TRUE((va ^ va).allZero());
        EXPECT_EQ(va.allZero(),
                  (as[0] | as[1] | as[2] | as[3]) == 0);
    }

    // gather reads one uint64_t per lane from absolute byte addresses,
    // so one gather can mix sources and orders.
    uint64_t pool[8];
    Rng pool_rng;
    for (uint64_t &p : pool)
        p = pool_rng.next();
    const auto base = reinterpret_cast<uintptr_t>(&pool[0]);
    uint64_t addrs[4] = {base, base + 8, base + 24, base + 16};
    const uint64_t want[4] = {pool[0], pool[1], pool[3], pool[2]};
    EXPECT_LANES(want, U64x4Avx2::gather(U64x4Avx2::load(addrs)),
                 "gather");
}

TEST(SimdVector, Avx2BroadcastAndZeroMatchEmulation)
{
    if (!simd::cpuHasAvx2())
        GTEST_SKIP() << "CPU does not report AVX2";
    const uint64_t x = 0xdeadbeefcafef00dULL;
    const uint64_t bcast[4] = {x, x, x, x};
    const uint64_t zero[4] = {0, 0, 0, 0};
    EXPECT_LANES(bcast, simd::U64x4Avx2(x), "broadcast");
    EXPECT_LANES(zero, simd::U64x4Avx2::zero(), "zero");
    EXPECT_TRUE(simd::U64x4Avx2::zero().allZero());
    EXPECT_FALSE(simd::U64x4Avx2(1).allZero());
}

#else // !__AVX2__

TEST(SimdVector, Avx2MatchesEmulationOnRandomVectors)
{
    GTEST_SKIP() << "build has no AVX2 translation unit";
}

#endif // __AVX2__

} // namespace
} // namespace ev8
