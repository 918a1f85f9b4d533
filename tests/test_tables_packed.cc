/**
 * @file
 * Property tests for the bit-packed counter tables: every operation of
 * TwoBitCounterTable and SplitCounterArray is driven in lock-step
 * against a transparent byte-per-counter reference model under long
 * random operation sequences, with full state compared after every
 * step. The packed tables must be observationally identical to the
 * reference -- they only change where the bits live.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "predictors/tables.hh"

namespace ev8
{
namespace
{

/** Byte-per-counter model of TwoBitCounterTable. */
class RefTwoBit
{
  public:
    explicit RefTwoBit(size_t entries) : table(entries, 1) {}

    bool taken(size_t i) const { return table[i] >= 2; }
    bool isStrong(size_t i) const { return table[i] == 0 || table[i] == 3; }
    uint8_t raw(size_t i) const { return table[i]; }
    void set(size_t i, uint8_t v) { table[i] = v; }

    void
    update(size_t i, bool t)
    {
        if (t) {
            if (table[i] < 3)
                ++table[i];
        } else {
            if (table[i] > 0)
                --table[i];
        }
    }

    void strengthen(size_t i) { update(i, taken(i)); }

  private:
    std::vector<uint8_t> table;
};

/** Byte-per-bit model of SplitCounterArray. */
class RefSplit
{
  public:
    RefSplit(size_t pred_entries, size_t hyst_entries)
        : pred(pred_entries, 0), hyst(hyst_entries, 1),
          mask(hyst_entries - 1)
    {}

    size_t hi(size_t i) const { return i & mask; }
    bool taken(size_t i) const { return pred[i] != 0; }
    bool isStrong(size_t i) const { return hyst[hi(i)] == pred[i]; }
    uint8_t rawPred(size_t i) const { return pred[i]; }
    uint8_t rawHyst(size_t i) const { return hyst[hi(i)]; }
    void strengthen(size_t i) { hyst[hi(i)] = pred[i]; }

    void
    update(size_t i, bool t)
    {
        const uint8_t p = pred[i];
        uint8_t &h = hyst[hi(i)];
        const uint8_t tv = t ? 1 : 0;
        if (p == tv) {
            h = p;
        } else if (h == p) {
            h = !p;
        } else {
            pred[i] = tv;
            h = !tv;
        }
    }

    void
    setRaw(size_t i, bool p, bool h)
    {
        pred[i] = p;
        hyst[hi(i)] = h;
    }

  private:
    std::vector<uint8_t> pred;
    std::vector<uint8_t> hyst;
    size_t mask;
};

constexpr size_t kEntries = 256; //!< spans several packed words
constexpr unsigned kOps = 20000;

TEST(PackedTables, TwoBitTableMatchesByteReferenceUnderRandomOps)
{
    TwoBitCounterTable packed(kEntries);
    RefTwoBit ref(kEntries);
    Rng rng(0x2b17ab1eULL);

    ASSERT_EQ(packed.size(), kEntries);
    ASSERT_EQ(packed.storageBits(), kEntries * 2);

    for (unsigned op = 0; op < kOps; ++op) {
        const size_t i = rng.next() % kEntries;
        switch (rng.next() % 4) {
        case 0: {
            const bool t = (rng.next() & 1) != 0;
            packed.update(i, t);
            ref.update(i, t);
            break;
        }
        case 1:
            packed.strengthen(i);
            ref.strengthen(i);
            break;
        case 2: {
            const uint8_t v = static_cast<uint8_t>(rng.next() % 4);
            packed.set(i, v);
            ref.set(i, v);
            break;
        }
        default: // pure reads, checked below
            break;
        }
        ASSERT_EQ(packed.raw(i), ref.raw(i)) << "op " << op;
        ASSERT_EQ(packed.taken(i), ref.taken(i)) << "op " << op;
        ASSERT_EQ(packed.isStrong(i), ref.isStrong(i)) << "op " << op;
    }
    // Final sweep: every entry, not just the ones just touched.
    for (size_t i = 0; i < kEntries; ++i)
        ASSERT_EQ(packed.raw(i), ref.raw(i)) << "entry " << i;
}

TEST(PackedTables, SplitArrayMatchesByteReferenceUnderRandomOps)
{
    // Half-size hysteresis: the sharing case of Section 4.4, where a
    // packed-bit indexing slip would corrupt a *different* entry.
    SplitCounterArray packed(kEntries, kEntries / 2);
    RefSplit ref(kEntries, kEntries / 2);
    Rng rng(0x511717ULL);

    ASSERT_EQ(packed.predSize(), kEntries);
    ASSERT_EQ(packed.hystSize(), kEntries / 2);
    ASSERT_EQ(packed.storageBits(), kEntries + kEntries / 2);

    for (unsigned op = 0; op < kOps; ++op) {
        const size_t i = rng.next() % kEntries;
        switch (rng.next() % 4) {
        case 0: {
            const bool t = (rng.next() & 1) != 0;
            packed.update(i, t);
            ref.update(i, t);
            break;
        }
        case 1:
            packed.strengthen(i);
            ref.strengthen(i);
            break;
        case 2: {
            const bool p = (rng.next() & 1) != 0;
            const bool h = (rng.next() & 1) != 0;
            packed.setRaw(i, p, h);
            ref.setRaw(i, p, h);
            break;
        }
        default:
            break;
        }
        ASSERT_EQ(packed.hystIndex(i), ref.hi(i));
        ASSERT_EQ(packed.rawPred(i), ref.rawPred(i)) << "op " << op;
        ASSERT_EQ(packed.rawHyst(i), ref.rawHyst(i)) << "op " << op;
        ASSERT_EQ(packed.taken(i), ref.taken(i)) << "op " << op;
        ASSERT_EQ(packed.isStrong(i), ref.isStrong(i)) << "op " << op;
    }
    for (size_t i = 0; i < kEntries; ++i) {
        ASSERT_EQ(packed.rawPred(i), ref.rawPred(i)) << "entry " << i;
        ASSERT_EQ(packed.rawHyst(i), ref.rawHyst(i)) << "entry " << i;
    }
}

TEST(PackedTables, SplitArrayFullSizeHysteresisIsAPlainTwoBitCounter)
{
    // With equal array sizes the split table must behave as a 2-bit
    // saturating counter: walk one entry through the full state graph.
    SplitCounterArray split(64, 64);
    TwoBitCounterTable two(64);
    Rng rng(7);
    for (unsigned op = 0; op < 2000; ++op) {
        const size_t i = rng.next() % 64;
        const bool t = (rng.next() & 1) != 0;
        split.update(i, t);
        two.update(i, t);
        ASSERT_EQ(split.taken(i), two.taken(i));
        ASSERT_EQ(split.isStrong(i), two.isStrong(i));
    }
}

} // namespace
} // namespace ev8
