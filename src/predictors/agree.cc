#include "predictors/agree.hh"

#include "common/bits.hh"

namespace ev8
{

AgreePredictor::AgreePredictor(unsigned log2_entries,
                               unsigned history_length,
                               unsigned log2_bias_entries)
    : log2Entries(log2_entries), histLen(history_length),
      log2BiasEntries(log2_bias_entries),
      agreeTable(size_t{1} << log2_entries),
      bias(size_t{1} << log2_bias_entries, -1)
{
}

size_t
AgreePredictor::agreeIndex(const BranchSnapshot &snap) const
{
    const uint64_t h = snap.hist.indexHist & mask(histLen);
    const uint64_t folded = histLen == 0 ? 0 : xorFold(h, log2Entries);
    return static_cast<size_t>(((snap.pc >> 2) ^ folded)
                               & mask(log2Entries));
}

size_t
AgreePredictor::biasIndex(uint64_t pc) const
{
    return static_cast<size_t>((pc >> 2) & mask(log2BiasEntries));
}

bool
AgreePredictor::predict(const BranchSnapshot &snap)
{
    const int8_t b = bias[biasIndex(snap.pc)];
    // Unset bias: fall back to not-taken (it will be set on update).
    const bool bias_taken = b == 1;
    const bool agrees = agreeTable.taken(agreeIndex(snap));
    return agrees ? bias_taken : !bias_taken;
}

void
AgreePredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    int8_t &b = bias[biasIndex(snap.pc)];
    if (b < 0)
        b = taken ? 1 : 0; // first-execution bias setting
    const bool bias_taken = b == 1;
    agreeTable.update(agreeIndex(snap), taken == bias_taken);
}

uint64_t
AgreePredictor::storageBits() const
{
    // 2-bit agree counters plus one bias bit per bias entry (the
    // "unset" state rides along with the BTB valid bit in hardware).
    return agreeTable.storageBits() + bias.size();
}

std::string
AgreePredictor::name() const
{
    return "agree-" + std::to_string(size_t{1} << log2Entries) + "-h"
        + std::to_string(histLen);
}

} // namespace ev8
