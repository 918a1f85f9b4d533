/**
 * @file
 * The 4x64-bit AVX2 vector type of the fused simulation kernel, and
 * the runtime choice between the two group-stepper backends: Off (the
 * scalar per-lane steppers) and Avx2 (the fused_vec.hh vector steppers
 * on U64x4Avx2).
 *
 * U64x4Avx2 is a thin veneer over AVX2 intrinsics, compiled only into
 * the translation unit built with -mavx2 (fused_vec_avx2.cc). Which
 * backend runs is a per-walk runtime decision (activeBackend()): cpuid
 * picks AVX2 when both the build and the CPU support it, and the
 * EV8_SIMD environment knob overrides the choice for A/B runs and
 * determinism tests. Both backends compute bit-identical results; the
 * byte-identity gates across EV8_SIMD check it end to end.
 *
 * Variable shifts (srlv/sllv) yield 0 for counts >= 64 (VPSRLVQ /
 * VPSLLVQ); the vector steppers rely on it for padding slots.
 * Immediate-count operator<</>> require counts < 64.
 *
 * Every operation here is wait-free straight-line arithmetic; gather()
 * takes absolute byte addresses (as uint64_t lanes) rather than a
 * base + index pair so one gather can mix reads from different tables.
 */

#ifndef EV8_COMMON_SIMD_HH
#define EV8_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ev8
{
namespace simd
{

/** The runtime-selected vector backend of the fused group steppers. */
enum class Backend
{
    Off,  //!< scalar per-lane stepping
    Avx2, //!< vector path on AVX2 intrinsics
};

/** Lanes one vector op covers; vector staging pads to a multiple. */
constexpr size_t kVectorLanes = 4;

/** True when this build contains the -mavx2 translation unit. */
constexpr bool
builtWithAvx2()
{
#ifdef EV8_HAVE_AVX2
    return true;
#else
    return false;
#endif
}

/** True when the executing CPU reports AVX2 (cached cpuid probe). */
bool cpuHasAvx2();

/**
 * Resolves EV8_SIMD to the backend for this walk: "0" (or the alias
 * "scalar") forces the scalar steppers, "avx2" the intrinsic path (usage error, exit 2,
 * when build or CPU lack it). Unset picks AVX2 when available and
 * otherwise the scalar steppers. Any other value is a usage error
 * (exit 2), matching the strict EV8_* parsing convention of
 * common/env.hh.
 */
Backend activeBackend();

/**
 * The backend a fused group stepper of @p nlanes lanes runs. The vector
 * path packs lanes four to a vector, so a one-lane group would pay for
 * three padding lanes with nothing to share them with: it steps scalar
 * (Off) under any EV8_SIMD value. Wider groups take activeBackend().
 * Both choices compute the same bits, so this is a speed choice only.
 */
Backend groupBackend(size_t nlanes);

/** Stable lowercase name for reports: "off" / "avx2". */
const char *backendName(Backend backend);

/** Lanes one vector op covers: 1 for Off, kVectorLanes for Avx2. */
unsigned backendLanes(Backend backend);

#if defined(__AVX2__)

/** The AVX2 backend: four uint64_t lanes per __m256i. */
struct U64x4Avx2
{
    static constexpr size_t kLanes = kVectorLanes;

    __m256i v;

    U64x4Avx2() = default;
    explicit U64x4Avx2(uint64_t x)
        : v(_mm256_set1_epi64x(static_cast<long long>(x)))
    {}
    explicit U64x4Avx2(__m256i x) : v(x) {}

    static U64x4Avx2
    zero()
    {
        return U64x4Avx2(_mm256_setzero_si256());
    }

    static U64x4Avx2
    load(const uint64_t *p)
    {
        return U64x4Avx2(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)));
    }

    void
    store(uint64_t *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    friend U64x4Avx2
    operator&(const U64x4Avx2 &a, const U64x4Avx2 &b)
    {
        return U64x4Avx2(_mm256_and_si256(a.v, b.v));
    }

    friend U64x4Avx2
    operator|(const U64x4Avx2 &a, const U64x4Avx2 &b)
    {
        return U64x4Avx2(_mm256_or_si256(a.v, b.v));
    }

    friend U64x4Avx2
    operator^(const U64x4Avx2 &a, const U64x4Avx2 &b)
    {
        return U64x4Avx2(_mm256_xor_si256(a.v, b.v));
    }

    U64x4Avx2
    operator~() const
    {
        return U64x4Avx2(_mm256_xor_si256(v, _mm256_set1_epi64x(-1)));
    }

    U64x4Avx2
    operator<<(unsigned s) const
    {
        return U64x4Avx2(
            _mm256_sll_epi64(v, _mm_cvtsi32_si128(static_cast<int>(s))));
    }

    U64x4Avx2
    operator>>(unsigned s) const
    {
        return U64x4Avx2(
            _mm256_srl_epi64(v, _mm_cvtsi32_si128(static_cast<int>(s))));
    }

    static U64x4Avx2
    add(const U64x4Avx2 &a, const U64x4Avx2 &b)
    {
        return U64x4Avx2(_mm256_add_epi64(a.v, b.v));
    }

    static U64x4Avx2
    srlv(const U64x4Avx2 &x, const U64x4Avx2 &n)
    {
        return U64x4Avx2(_mm256_srlv_epi64(x.v, n.v));
    }

    static U64x4Avx2
    sllv(const U64x4Avx2 &x, const U64x4Avx2 &n)
    {
        return U64x4Avx2(_mm256_sllv_epi64(x.v, n.v));
    }

    static U64x4Avx2
    blend(const U64x4Avx2 &mask, const U64x4Avx2 &yes,
          const U64x4Avx2 &no)
    {
        return U64x4Avx2(_mm256_or_si256(
            _mm256_and_si256(yes.v, mask.v),
            _mm256_andnot_si256(mask.v, no.v)));
    }

    static U64x4Avx2
    gather(const U64x4Avx2 &addr)
    {
        return U64x4Avx2(_mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(0), addr.v, 1));
    }

    bool
    allZero() const
    {
        return _mm256_testz_si256(v, v) != 0;
    }
};

#endif // __AVX2__

} // namespace simd
} // namespace ev8

#endif // EV8_COMMON_SIMD_HH
