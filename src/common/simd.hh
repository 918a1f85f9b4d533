/**
 * @file
 * Portable 4x64-bit vector wrapper for the fused simulation kernel.
 *
 * Two interchangeable value types implement the same tiny API: U64x4,
 * a pure-scalar emulation that compiles everywhere, and U64x4Avx2, a
 * thin veneer over AVX2 intrinsics compiled only into the translation
 * unit built with -mavx2 (fused_vec_avx2.cc). Which one runs is a
 * per-walk runtime decision (activeBackend()): cpuid picks AVX2 when
 * both the build and the CPU support it, and the EV8_SIMD environment
 * knob overrides the choice for A/B runs and determinism tests.
 *
 * The emulation is semantics-exact with AVX2 where the instruction
 * sets could differ: variable shifts (srlv/sllv) yield 0 for counts
 * >= 64, matching VPSRLVQ/VPSLLVQ, so the two backends compute
 * bit-identical results by construction, not by luck. Immediate-count
 * operator<</>> require counts < 64 (both backends; VPSLLQ would also
 * zero at >= 64 but no call site shifts that far).
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
    Off,    //!< scalar per-lane stepping (the pre-vector hot path)
    Scalar, //!< vector path on the U64x4 emulation (any CPU)
    Avx2,   //!< vector path on AVX2 intrinsics
};

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
 * Resolves EV8_SIMD to the backend for this walk: "0" forces the
 * scalar steppers, "scalar" the emulated vector path, "avx2" the
 * intrinsic path (usage error, exit 2, when build or CPU lack it).
 * Unset picks AVX2 when available and otherwise falls back to the
 * tuned scalar steppers. Any other value is a usage error (exit 2),
 * matching the strict EV8_* parsing convention of common/env.hh.
 */
Backend activeBackend();

/**
 * The backend a fused group stepper of @p nlanes lanes runs. The vector
 * paths pack lanes four to a vector, so a one-lane group would pay for
 * three padding lanes with nothing to share them with: it steps scalar
 * (Off) under any EV8_SIMD value. Wider groups take activeBackend().
 * Both choices compute the same bits, so this is a speed choice only.
 */
Backend groupBackend(size_t nlanes);

/** Stable lowercase name for reports: "off" / "scalar" / "avx2". */
const char *backendName(Backend backend);

/** Lanes one vector op covers: 1 for Off, 4 for the vector paths. */
unsigned backendLanes(Backend backend);

/**
 * The portable emulation backend: four uint64_t lanes stepped by plain
 * scalar code. Exists so the vector group steppers have exactly one
 * template definition whose arithmetic can be byte-compared against
 * AVX2 on any machine.
 */
struct U64x4
{
    static constexpr size_t kLanes = 4;

    uint64_t l[kLanes];

    U64x4() = default;
    explicit U64x4(uint64_t v) : l{v, v, v, v} {}

    static U64x4
    zero()
    {
        return U64x4(0);
    }

    static U64x4
    load(const uint64_t *p)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = p[i];
        return r;
    }

    void
    store(uint64_t *p) const
    {
        for (size_t i = 0; i < kLanes; ++i)
            p[i] = l[i];
    }

    friend U64x4
    operator&(const U64x4 &a, const U64x4 &b)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] & b.l[i];
        return r;
    }

    friend U64x4
    operator|(const U64x4 &a, const U64x4 &b)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] | b.l[i];
        return r;
    }

    friend U64x4
    operator^(const U64x4 &a, const U64x4 &b)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] ^ b.l[i];
        return r;
    }

    U64x4
    operator~() const
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = ~l[i];
        return r;
    }

    /** Immediate shifts; @p s must be < 64 (see file comment). */
    U64x4
    operator<<(unsigned s) const
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = l[i] << s;
        return r;
    }

    U64x4
    operator>>(unsigned s) const
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = l[i] >> s;
        return r;
    }

    static U64x4
    add(const U64x4 &a, const U64x4 &b)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] + b.l[i];
        return r;
    }

    /** Per-lane variable right shift; counts >= 64 yield 0 (VPSRLVQ). */
    static U64x4
    srlv(const U64x4 &x, const U64x4 &n)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = n.l[i] >= 64 ? 0 : x.l[i] >> n.l[i];
        return r;
    }

    /** Per-lane variable left shift; counts >= 64 yield 0 (VPSLLVQ). */
    static U64x4
    sllv(const U64x4 &x, const U64x4 &n)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = n.l[i] >= 64 ? 0 : x.l[i] << n.l[i];
        return r;
    }

    /** Lanewise select: mask bit set -> yes, clear -> no. */
    static U64x4
    blend(const U64x4 &mask, const U64x4 &yes, const U64x4 &no)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = (yes.l[i] & mask.l[i]) | (no.l[i] & ~mask.l[i]);
        return r;
    }

    /** Loads one uint64_t per lane from an absolute byte address. */
    static U64x4
    gather(const U64x4 &addr)
    {
        U64x4 r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = *reinterpret_cast<const uint64_t *>(
                static_cast<uintptr_t>(addr.l[i]));
        return r;
    }

    bool
    allZero() const
    {
        return (l[0] | l[1] | l[2] | l[3]) == 0;
    }
};

#if defined(__AVX2__)

/** The AVX2 backend; same API and semantics as U64x4. */
struct U64x4Avx2
{
    static constexpr size_t kLanes = 4;

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
