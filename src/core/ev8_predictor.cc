#include "core/ev8_predictor.hh"

#include <cassert>

namespace ev8
{

Ev8Predictor::Ev8Predictor(const Ev8Config &config) : cfg(config)
{
}

Ev8IndexInput
Ev8Predictor::indexInput(const BranchSnapshot &snap)
{
    Ev8IndexInput in;
    in.blockAddr = snap.blockAddr;
    in.hist = snap.hist.indexHist;
    in.zAddr = snap.hist.pathZ;
    in.bank = snap.bank;
    return in;
}

size_t
Ev8Predictor::tableIndex(TableId table, const BranchSnapshot &snap) const
{
    return ev8EntryIndex(table, indexInput(snap), snap.pc, cfg.wordline);
}

bool
Ev8Predictor::predict(const BranchSnapshot &snap)
{
    const Ev8IndexInput in = indexInput(snap);
    for (unsigned t = 0; t < kNumTables; ++t) {
        last.idx[t] = ev8EntryIndex(static_cast<TableId>(t), in, snap.pc,
                                    cfg.wordline);
    }
    computeGskewVotes(FlatBanks{arrays}, last);
    lastKey_ = gskewVoteKey(last);
    return last.overall;
}

void
Ev8Predictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    assert(last.idx[G1] == tableIndex(G1, snap));
    (void)snap;
    if (statsEnabled())
        stats.note(last, taken);
    FlatBanks banks{arrays};
    if (cfg.partialUpdate)
        gskewPartialUpdate(banks, last, taken);
    else
        gskewTotalUpdate(banks, last, taken);
}

bool
Ev8Predictor::predictAndUpdate(const BranchSnapshot &snap, bool taken)
{
    const std::array<size_t, kNumTables> idx =
        ev8EntryIndices(indexInput(snap), snap.pc, cfg.wordline);
    GskewStepBits<uint8_t> bits = arrays.stepBits(idx);
    const GskewStep s =
        gskewStep(bits, gskewOutcomeKey(taken, cfg.partialUpdate));
    lastKey_ = s.key;
    if (statsEnabled()) {
        ++keyHist_[s.key];
        for (unsigned t = 0; t < kNumTables; ++t) {
            arrays.addWordlineReads(static_cast<TableId>(t), idx[t],
                                    s.t.predReadsOf(t));
        }
    }
    return s.t.overall();
}

Ev8BlockPrediction
Ev8Predictor::predictBlock(const Ev8IndexInput &in) const
{
    Ev8BlockPrediction out;
    std::array<uint8_t, kNumTables> words{};
    for (unsigned t = 0; t < kNumTables; ++t) {
        const auto id = static_cast<TableId>(t);
        out.coords[t] = ev8WordCoords(id, in, cfg.wordline);
        words[t] = arrays.readPredWord(id, out.coords[t]);
    }
    for (unsigned offset = 0; offset < Ev8BlockPrediction::kSlots;
         ++offset) {
        // The unshuffle: the instruction at in-block offset o consumes
        // bit (o XOR u_table) of each table's word.
        auto bitOf = [&](TableId t) {
            const unsigned pos = offset ^ (out.coords[t].unshuffle & 7);
            return ((words[t] >> pos) & 1) != 0;
        };
        const bool bim = bitOf(BIM);
        const bool g0 = bitOf(G0);
        const bool g1 = bitOf(G1);
        const bool meta = bitOf(META);
        const bool majority =
            (static_cast<int>(bim) + g0 + g1) >= 2;
        out.takenAtOffset[offset] = meta ? majority : bim;
    }
    return out;
}

uint64_t
Ev8Predictor::storageBits() const
{
    return Ev8PhysicalStorage::storageBits();
}

std::string
Ev8Predictor::name() const
{
    return cfg.label;
}

VoteSnapshot
Ev8Predictor::lastVotes() const
{
    return gskewKeyVotes(lastKey_);
}

GskewVoteStats
Ev8Predictor::voteStats() const
{
    GskewVoteStats votes = stats;
    foldGskewVotes(keyHist_, votes);
    return votes;
}

std::array<GskewAccessStats, kNumTables>
Ev8Predictor::accessStats() const
{
    std::array<GskewAccessStats, kNumTables> access;
    for (unsigned t = 0; t < kNumTables; ++t)
        access[t] = arrays.accessStats(static_cast<TableId>(t));
    foldGskewAccess(keyHist_, access);
    return access;
}

void
Ev8Predictor::publishMetrics(MetricRegistry &registry,
                             const std::string &prefix) const
{
    publishGskewVoteStats(registry, prefix, voteStats());
    arrays.publishMetrics(registry, prefix + ".storage", accessStats());
}

} // namespace ev8
