#include "predictors/predictor.hh"

#include <cstdio>

#include "obs/metrics.hh"
#include "predictors/gskew_policy.hh"

namespace ev8
{

void
publishGskewVoteStats(MetricRegistry &registry, const std::string &prefix,
                      const GskewVoteStats &stats)
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        const std::string bank = prefix + ".bank" + std::to_string(t);
        registry.counter(bank + ".lookups").inc(stats.bank[t].lookups);
        registry.counter(bank + ".conflicts")
            .inc(stats.bank[t].conflicts);
        registry.counter(bank + ".agree").inc(stats.bank[t].agree);
    }
    registry.counter(prefix + ".updates").inc(stats.updates);
    registry.counter(prefix + ".unanimous").inc(stats.unanimous);
    registry.counter(prefix + ".meta_selects_gskew")
        .inc(stats.metaSelectsGskew);
    registry.counter(prefix + ".mispredicts").inc(stats.mispredicts);
}

void
foldGskewVotes(const GskewKeyHistogram &hist, GskewVoteStats &votes)
{
    for (unsigned key = 0; key < kGskewKeys; ++key) {
        if (hist[key] == 0)
            continue;
        votes.note(gskewKeyLookup(key), ((key >> 8) & 1) != 0, hist[key]);
    }
}

void
foldGskewAccess(const GskewKeyHistogram &hist,
                std::array<GskewAccessStats, kNumTables> &access)
{
    for (unsigned key = 0; key < kGskewKeys; ++key) {
        const uint64_t n = hist[key];
        if (n == 0)
            continue;
        const std::array<GskewAccessStats, kNumTables> counts =
            gskewKeyAccess(key);
        for (unsigned t = 0; t < kNumTables; ++t) {
            const GskewAccessStats &c = counts[t];
            access[t].predReads += n * c.predReads;
            access[t].predWrites += n * c.predWrites;
            access[t].hystReads += n * c.hystReads;
            access[t].hystWrites += n * c.hystWrites;
        }
    }
}

std::string
formatKbits(uint64_t bits)
{
    char buf[48];
    const double kbits = static_cast<double>(bits) / 1024.0;
    if (kbits >= 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.1f Mbits", kbits / 1024.0);
    } else {
        std::snprintf(buf, sizeof(buf), "%.0f Kbits", kbits);
    }
    return buf;
}

} // namespace ev8
