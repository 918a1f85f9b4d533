#include "predictors/bimode.hh"

#include "common/bits.hh"

namespace ev8
{

BimodePredictor::BimodePredictor(unsigned log2_direction,
                                 unsigned log2_choice,
                                 unsigned history_length)
    : log2Direction(log2_direction), log2Choice(log2_choice),
      histLen(history_length),
      takenTable(size_t{1} << log2_direction),
      notTakenTable(size_t{1} << log2_direction),
      choice(size_t{1} << log2_choice)
{
}

size_t
BimodePredictor::directionIndex(const BranchSnapshot &snap) const
{
    const uint64_t h = snap.hist.indexHist & mask(histLen);
    const uint64_t folded = histLen == 0 ? 0 : xorFold(h, log2Direction);
    return static_cast<size_t>(((snap.pc >> 2) ^ folded)
                               & mask(log2Direction));
}

size_t
BimodePredictor::choiceIndex(uint64_t pc) const
{
    return static_cast<size_t>((pc >> 2) & mask(log2Choice));
}

bool
BimodePredictor::predict(const BranchSnapshot &snap)
{
    const bool choose_taken = choice.taken(choiceIndex(snap.pc));
    const size_t di = directionIndex(snap);
    return choose_taken ? takenTable.taken(di) : notTakenTable.taken(di);
}

void
BimodePredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    const size_t ci = choiceIndex(snap.pc);
    const size_t di = directionIndex(snap);
    const bool choose_taken = choice.taken(ci);
    TwoBitCounterTable &used = choose_taken ? takenTable : notTakenTable;
    const bool used_correct = used.taken(di) == taken;

    // Only the selected direction table trains; the other mode's
    // substream is left untouched (the whole point of the scheme).
    used.update(di, taken);

    // Choice trains toward the outcome, except when it would evict a
    // branch from a mode whose direction table is predicting it
    // correctly despite the "wrong" mode.
    if (!(choose_taken != taken && used_correct))
        choice.update(ci, taken);
}

bool
BimodePredictor::predictAndUpdate(const BranchSnapshot &snap, bool taken)
{
    const size_t ci = choiceIndex(snap.pc);
    const size_t di = directionIndex(snap);
    const bool choose_taken = choice.taken(ci);
    TwoBitCounterTable &used = choose_taken ? takenTable : notTakenTable;
    const bool predicted = used.readAndUpdate(di, taken);
    if (!(choose_taken != taken && predicted == taken))
        choice.update(ci, taken);
    return predicted;
}

uint64_t
BimodePredictor::storageBits() const
{
    return takenTable.storageBits() + notTakenTable.storageBits()
        + choice.storageBits();
}

std::string
BimodePredictor::name() const
{
    return "bimode-2x" + std::to_string(size_t{1} << log2Direction) + "+"
        + std::to_string(size_t{1} << log2Choice) + "-h"
        + std::to_string(histLen);
}

} // namespace ev8
