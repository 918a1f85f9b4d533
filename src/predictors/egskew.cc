#include "predictors/egskew.hh"

#include "common/bits.hh"
#include "obs/metrics.hh"
#include "predictors/skew.hh"

namespace ev8
{

EgskewPredictor::EgskewPredictor(unsigned log2_entries,
                                 unsigned history_length,
                                 bool partial_update)
    : log2Entries(log2_entries), histLen(history_length),
      partialUpdate(partial_update),
      banks{TwoBitCounterTable(size_t{1} << log2_entries),
            TwoBitCounterTable(size_t{1} << log2_entries),
            TwoBitCounterTable(size_t{1} << log2_entries)}
{
}

void
EgskewPredictor::computeIndices(const BranchSnapshot &snap)
{
    // Bank 0 is the bimodal bank: address only.
    idx[0] = static_cast<size_t>(addressIndex(snap.pc, log2Entries));
    idx[1] = static_cast<size_t>(skewIndex(1, snap.pc,
                                           snap.hist.indexHist, histLen,
                                           log2Entries));
    idx[2] = static_cast<size_t>(skewIndex(2, snap.pc,
                                           snap.hist.indexHist, histLen,
                                           log2Entries));
    for (int b = 0; b < 3; ++b)
        vote[b] = banks[b].taken(idx[b]);
}

bool
EgskewPredictor::predict(const BranchSnapshot &snap)
{
    computeIndices(snap);
    return (static_cast<int>(vote[0]) + vote[1] + vote[2]) >= 2;
}

void
EgskewPredictor::update(const BranchSnapshot &snap, bool taken,
                        bool predicted_taken)
{
    computeIndices(snap);
    applyUpdate(taken, predicted_taken);
}

bool
EgskewPredictor::predictAndUpdate(const BranchSnapshot &snap, bool taken)
{
    computeIndices(snap);
    const bool predicted =
        (static_cast<int>(vote[0]) + vote[1] + vote[2]) >= 2;
    applyUpdate(taken, predicted);
    return predicted;
}

void
EgskewPredictor::applyUpdate(bool taken, bool predicted_taken)
{
    if (statsEnabled()) {
        for (int b = 0; b < 3; ++b) {
            ++tallies[b].lookups;
            if (vote[b] != taken)
                ++tallies[b].conflicts;
            if (vote[b] == predicted_taken)
                ++tallies[b].agree;
        }
        if (vote[0] == vote[1] && vote[1] == vote[2])
            ++unanimous;
    }

    if (!partialUpdate) {
        for (int b = 0; b < 3; ++b)
            banks[b].update(idx[b], taken);
        return;
    }

    if (predicted_taken == taken) {
        // Partial update: only strengthen the banks that voted with the
        // (correct) majority; leave losers free to be stolen.
        for (int b = 0; b < 3; ++b) {
            if (vote[b] == taken)
                banks[b].strengthen(idx[b]);
        }
    } else {
        // Mispredict: retrain all banks toward the outcome.
        for (int b = 0; b < 3; ++b)
            banks[b].update(idx[b], taken);
    }
}

uint64_t
EgskewPredictor::storageBits() const
{
    return 3 * banks[0].storageBits();
}

std::string
EgskewPredictor::name() const
{
    return "e-gskew-3x" + std::to_string(size_t{1} << log2Entries) + "-h"
        + std::to_string(histLen);
}

VoteSnapshot
EgskewPredictor::lastVotes() const
{
    VoteSnapshot v;
    v.valid = true;
    v.bim = vote[0];
    v.g0 = vote[1];
    v.g1 = vote[2];
    v.meta = false; // no chooser: the majority always decides
    v.majority = (static_cast<int>(vote[0]) + vote[1] + vote[2]) >= 2;
    return v;
}

void
EgskewPredictor::publishMetrics(MetricRegistry &registry,
                                const std::string &prefix) const
{
    for (int b = 0; b < 3; ++b) {
        const std::string bank = prefix + ".bank" + std::to_string(b);
        registry.counter(bank + ".lookups").inc(tallies[b].lookups);
        registry.counter(bank + ".conflicts").inc(tallies[b].conflicts);
        registry.counter(bank + ".agree").inc(tallies[b].agree);
    }
    registry.counter(prefix + ".unanimous").inc(unanimous);
}

} // namespace ev8
