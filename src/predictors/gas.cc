#include "predictors/gas.hh"

#include <cassert>

#include "common/bits.hh"

namespace ev8
{

GasPredictor::GasPredictor(unsigned log2_entries, unsigned history_length)
    : log2Entries(log2_entries), histLen(history_length),
      table(size_t{1} << log2_entries)
{
    assert(histLen <= log2Entries);
}

size_t
GasPredictor::index(const BranchSnapshot &snap) const
{
    const uint64_t h = snap.hist.indexHist & mask(histLen);
    const uint64_t pc_part = (snap.pc >> 2) & mask(log2Entries - histLen);
    return static_cast<size_t>((pc_part << histLen) | h);
}

bool
GasPredictor::predict(const BranchSnapshot &snap)
{
    return table.taken(index(snap));
}

void
GasPredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    table.update(index(snap), taken);
}

uint64_t
GasPredictor::storageBits() const
{
    return table.storageBits();
}

std::string
GasPredictor::name() const
{
    return "gas-" + std::to_string(size_t{1} << log2Entries) + "-h"
        + std::to_string(histLen);
}

} // namespace ev8
