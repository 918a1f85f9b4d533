/**
 * @file
 * Unit tests for the SIMD layer under the vectorized fused kernel:
 *
 *  - the masked bitplane saturating inc/dec on packed 2-bit counter
 *    words, checked exhaustively against the scalar per-counter
 *    transition for all 4 states x mask patterns x slot positions
 *    (the check promised by the doc comments in predictors/tables.hh);
 *  - the strict EV8_SIMD knob parse in simd::activeBackend().
 *
 * The AVX2 vector ops are checked against a per-lane scalar reference
 * in test_simd_avx2.cc, the one test TU built with -mavx2; the masked
 * word ops on them, end to end, by the EV8_SIMD byte-identity tests
 * of test_fused.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "predictors/tables.hh"

#include "scoped_env.hh"

namespace ev8
{
namespace
{

/** Per-counter scalar reference for the masked word operations. */
uint64_t
scalarMaskedStep(uint64_t word, uint64_t sel, bool increment)
{
    uint64_t out = 0;
    for (unsigned slot = 0; slot < TwoBitCounterTable::kPerWord;
         ++slot) {
        uint64_t c = (word >> (2 * slot)) & 3;
        if ((sel >> (2 * slot)) & 1) {
            if (increment && c < 3)
                ++c;
            else if (!increment && c > 0)
                --c;
        }
        out |= c << (2 * slot);
    }
    return out;
}

/** Deterministic xorshift64*; no libc rand in tests. */
struct Rng
{
    uint64_t s = 0x9e3779b97f4a7c15ULL;

    uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dULL;
    }
};

/**
 * Every (state, neighbor state, mask pattern over the pair) for every
 * slot position: saturation behaves per the scalar counter and no
 * carry/borrow ever crosses a 2-bit lane boundary.
 */
TEST(MaskedBitplane, IncDecMatchScalarCounterExhaustively)
{
    constexpr unsigned kPerWord = TwoBitCounterTable::kPerWord;
    for (unsigned slot = 0; slot < kPerWord; ++slot) {
        const unsigned next = (slot + 1) % kPerWord;
        for (uint64_t s0 = 0; s0 < 4; ++s0) {
            for (uint64_t s1 = 0; s1 < 4; ++s1) {
                for (uint64_t pick = 0; pick < 4; ++pick) {
                    // Background alternates 00/11 lanes so stuck bits
                    // in untouched counters would be caught too.
                    uint64_t word = 0xccccccccccccccccULL >> 2;
                    word &= ~((uint64_t{3} << (2 * slot)) |
                              (uint64_t{3} << (2 * next)));
                    word |= (s0 << (2 * slot)) | (s1 << (2 * next));
                    const uint64_t sel =
                        ((pick & 1) ? uint64_t{1} << (2 * slot) : 0) |
                        ((pick & 2) ? uint64_t{1} << (2 * next) : 0);

                    EXPECT_EQ(
                        TwoBitCounterTable::maskedSatIncWord(word, sel),
                        scalarMaskedStep(word, sel, true))
                        << "inc slot=" << slot << " s0=" << s0
                        << " s1=" << s1 << " pick=" << pick;
                    EXPECT_EQ(
                        TwoBitCounterTable::maskedSatDecWord(word, sel),
                        scalarMaskedStep(word, sel, false))
                        << "dec slot=" << slot << " s0=" << s0
                        << " s1=" << s1 << " pick=" << pick;
                }
            }
        }
    }
}

/** Stray odd (bit1) select bits are documented as ignored. */
TEST(MaskedBitplane, StrayOddSelectBitsAreIgnored)
{
    Rng rng;
    for (int i = 0; i < 256; ++i) {
        const uint64_t word = rng.next();
        const uint64_t even_sel = rng.next() & 0x5555555555555555ULL;
        const uint64_t noisy_sel = even_sel | (rng.next() &
                                               0xaaaaaaaaaaaaaaaaULL);
        EXPECT_EQ(TwoBitCounterTable::maskedSatIncWord(word, even_sel),
                  TwoBitCounterTable::maskedSatIncWord(word, noisy_sel));
        EXPECT_EQ(TwoBitCounterTable::maskedSatDecWord(word, even_sel),
                  TwoBitCounterTable::maskedSatDecWord(word, noisy_sel));
    }
}

/**
 * Random words on the uint64_t instantiation; the AVX2 instantiation
 * is covered end to end by the EV8_SIMD byte-identity test of
 * test_fused.cc.
 */
TEST(MaskedBitplane, RandomWordsMatchScalarAndVectorInstantiation)
{
    Rng rng;
    for (int i = 0; i < 4000; ++i) {
        const uint64_t word = rng.next();
        const uint64_t sel = rng.next();
        EXPECT_EQ(TwoBitCounterTable::maskedSatIncWord(word, sel),
                  scalarMaskedStep(word, sel, true));
        EXPECT_EQ(TwoBitCounterTable::maskedSatDecWord(word, sel),
                  scalarMaskedStep(word, sel, false));
    }
}

/** The masked word op agrees with TwoBitCounterTable::update(). */
TEST(MaskedBitplane, MatchesTableUpdateAcrossWholeTable)
{
    constexpr size_t kEntries = 64; // two packed words
    for (const bool taken : {true, false}) {
        TwoBitCounterTable table(kEntries);
        for (size_t i = 0; i < kEntries; ++i)
            table.set(i, static_cast<uint8_t>(i % 4));

        std::vector<uint64_t> words(
            table.wordsData(),
            table.wordsData() + kEntries / TwoBitCounterTable::kPerWord);
        std::vector<uint64_t> sels(words.size(), 0);
        for (size_t i = 0; i < kEntries; i += 3) { // every 3rd counter
            table.update(i, taken);
            sels[i / TwoBitCounterTable::kPerWord] |=
                uint64_t{1}
                << (2 * (i % TwoBitCounterTable::kPerWord));
        }
        for (size_t w = 0; w < words.size(); ++w) {
            const uint64_t stepped =
                taken ? TwoBitCounterTable::maskedSatIncWord(words[w],
                                                             sels[w])
                      : TwoBitCounterTable::maskedSatDecWord(words[w],
                                                             sels[w]);
            EXPECT_EQ(stepped, table.wordsData()[w])
                << "word " << w << " taken=" << taken;
        }
    }
}

/**
 * The strict EV8_SIMD parse: valid values and the cpuid default; a
 * one-lane group steps scalar under any of them. "scalar" is an alias
 * of "0".
 */
TEST(SimdEnv, ActiveBackendParsesKnob)
{
    {
        ScopedEnv simd_env("EV8_SIMD", "0");
        EXPECT_EQ(simd::activeBackend(), simd::Backend::Off);
    }
    {
        ScopedEnv simd_env("EV8_SIMD", "scalar");
        EXPECT_EQ(simd::activeBackend(), simd::Backend::Off);
        EXPECT_EQ(simd::groupBackend(1), simd::Backend::Off);
        EXPECT_EQ(simd::groupBackend(2), simd::Backend::Off);
    }
    {
        ScopedEnv simd_env("EV8_SIMD", nullptr);
        const simd::Backend expect =
            simd::builtWithAvx2() && simd::cpuHasAvx2()
                ? simd::Backend::Avx2
                : simd::Backend::Off;
        EXPECT_EQ(simd::activeBackend(), expect);
    }
    if (simd::builtWithAvx2() && simd::cpuHasAvx2()) {
        ScopedEnv simd_env("EV8_SIMD", "avx2");
        EXPECT_EQ(simd::activeBackend(), simd::Backend::Avx2);
        EXPECT_EQ(simd::groupBackend(1), simd::Backend::Off);
        EXPECT_EQ(simd::groupBackend(2), simd::Backend::Avx2);
    }

    EXPECT_STREQ(simd::backendName(simd::Backend::Off), "off");
    EXPECT_STREQ(simd::backendName(simd::Backend::Avx2), "avx2");
    EXPECT_EQ(simd::backendLanes(simd::Backend::Off), 1u);
    EXPECT_EQ(simd::backendLanes(simd::Backend::Avx2), 4u);
}

/** Invalid EV8_SIMD values are usage errors: exit code 2. */
TEST(SimdEnvDeathTest, InvalidValueExitsWithUsageError)
{
    ScopedEnv simd_env("EV8_SIMD", "bogus");
    EXPECT_EXIT(simd::activeBackend(), ::testing::ExitedWithCode(2),
                "invalid value 'bogus'");
    EXPECT_EXIT(simd::groupBackend(1), ::testing::ExitedWithCode(2),
                "invalid value 'bogus'");
}

TEST(SimdEnvDeathTest, Avx2RequestWithoutSupportExitsWithUsageError)
{
    if (simd::builtWithAvx2() && simd::cpuHasAvx2())
        GTEST_SKIP() << "host runs AVX2; the refusal path is "
                        "unreachable here";
    ScopedEnv simd_env("EV8_SIMD", "avx2");
    EXPECT_EXIT(simd::activeBackend(), ::testing::ExitedWithCode(2),
                "'avx2' requested but");
}

} // namespace
} // namespace ev8
