#include "core/physical_storage.hh"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/metrics.hh"

namespace ev8
{

static_assert(Ev8PhysicalStorage::storageBits() == 352 * 1024,
              "the EV8 predictor is 352 Kbits (208K pred + 144K hyst)");
static_assert(Ev8PhysicalStorage::predEntries(BIM)
                      == size_t{1} << ev8IndexBits(BIM)
                  && Ev8PhysicalStorage::predEntries(G1)
                      == size_t{1} << ev8IndexBits(G1),
              "a flat entry index addresses its prediction array");

Ev8PhysicalStorage::Ev8PhysicalStorage()
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        const auto id = static_cast<TableId>(t);
        pred[t].assign(predEntries(id), 0);
        hyst[t].assign(hystEntries(id), 1);
    }
}

uint8_t
Ev8PhysicalStorage::readPredWord(TableId table, const Ev8WordCoords &c) const
{
    if (tracking) {
        ++access[table].predReads;
        ++wordlineReads_[table][c.wordline];
    }
    const size_t base = ev8FlatIndex(c, 0);
    assert(base < predEntries(table));
    uint8_t word = 0;
    for (unsigned b = 0; b < 8; ++b)
        word |= static_cast<uint8_t>(pred[table][base | (size_t{b} << 2)]
                                     << b);
    return word;
}

void
Ev8PhysicalStorage::publishMetrics(
    MetricRegistry &registry, const std::string &prefix,
    const std::array<AccessStats, kNumTables> &tallies) const
{
    static const char *const names[kNumTables] = {"bim", "g0", "g1",
                                                  "meta"};
    for (unsigned t = 0; t < kNumTables; ++t) {
        const std::string base = prefix + "." + names[t];
        const AccessStats &a = tallies[t];
        registry.counter(base + ".pred_reads").inc(a.predReads);
        registry.counter(base + ".pred_writes").inc(a.predWrites);
        registry.counter(base + ".hyst_reads").inc(a.hystReads);
        registry.counter(base + ".hyst_writes").inc(a.hystWrites);

        const auto &wl = wordlineReads_[t];
        const uint64_t max =
            *std::max_element(wl.begin(), wl.end());
        const uint64_t total =
            std::accumulate(wl.begin(), wl.end(), uint64_t{0});
        registry.gauge(base + ".wordline_max_reads")
            .set(static_cast<double>(max));
        registry.gauge(base + ".wordline_mean_reads")
            .set(static_cast<double>(total) / kEv8Wordlines);
    }
}

} // namespace ev8
