#include "predictors/local.hh"

#include "common/bits.hh"

namespace ev8
{

LocalPredictor::LocalPredictor(unsigned log2_bht, unsigned local_bits,
                               unsigned log2_pht)
    : log2Bht(log2_bht), localBits(local_bits), log2Pht(log2_pht),
      bht(size_t{1} << log2_bht, 0), pht(size_t{1} << log2_pht)
{
}

size_t
LocalPredictor::bhtIndex(uint64_t pc) const
{
    return static_cast<size_t>((pc >> 2) & mask(log2Bht));
}

size_t
LocalPredictor::phtIndex(uint64_t pc, uint16_t local) const
{
    if (log2Pht > localBits) {
        // Room for PC bits alongside the full local history.
        const uint64_t pc_part = (pc >> 2) & mask(log2Pht - localBits);
        return static_cast<size_t>((pc_part << localBits) | local);
    }
    return static_cast<size_t>(local & mask(log2Pht));
}

bool
LocalPredictor::predict(const BranchSnapshot &snap)
{
    const uint16_t local = bht[bhtIndex(snap.pc)];
    return pht.taken(phtIndex(snap.pc, local));
}

void
LocalPredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    uint16_t &local = bht[bhtIndex(snap.pc)];
    pht.update(phtIndex(snap.pc, local), taken);
    local = static_cast<uint16_t>(((local << 1) | (taken ? 1 : 0))
                                  & mask(localBits));
}

uint64_t
LocalPredictor::storageBits() const
{
    return (uint64_t{1} << log2Bht) * localBits + pht.storageBits();
}

std::string
LocalPredictor::name() const
{
    return "local-" + std::to_string(size_t{1} << log2Bht) + "x"
        + std::to_string(localBits);
}

TournamentPredictor::TournamentPredictor(unsigned log2_local_bht,
                                         unsigned local_bits,
                                         unsigned log2_local_pht,
                                         unsigned log2_global,
                                         unsigned log2_choice)
    : local(log2_local_bht, local_bits, log2_local_pht),
      global(size_t{1} << log2_global),
      choice(size_t{1} << log2_choice),
      log2Global(log2_global), log2Choice(log2_choice)
{
}

bool
TournamentPredictor::predict(const BranchSnapshot &snap)
{
    lastLocalPred = local.predict(snap);
    const uint64_t gh = snap.hist.indexHist;
    lastGlobalPred = global.taken(gh & mask(log2Global));
    const bool use_global = choice.taken(gh & mask(log2Choice));
    return use_global ? lastGlobalPred : lastLocalPred;
}

void
TournamentPredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    const uint64_t gh = snap.hist.indexHist;

    // Chooser trains only when the components disagree.
    if (lastLocalPred != lastGlobalPred)
        choice.update(gh & mask(log2Choice), lastGlobalPred == taken);

    global.update(gh & mask(log2Global), taken);
    local.update(snap, taken, lastLocalPred);
}

uint64_t
TournamentPredictor::storageBits() const
{
    return local.storageBits() + global.storageBits()
        + choice.storageBits();
}

std::string
TournamentPredictor::name() const
{
    return "tournament-21264";
}

} // namespace ev8
