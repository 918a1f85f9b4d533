#include "sim/phase/features.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/block_stream.hh"
#include "trace/branch_record.hh"

namespace ev8
{

namespace
{

/** splitmix64 finalizer: spreads branch PCs across signature bins. */
uint64_t
mixPc(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Binary entropy of p in [0,1], normalized so h(0.5) == 1. */
double
binaryEntropy(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
}

} // namespace

size_t
WindowFeatureExtractor::home(uint64_t pc) const
{
    return static_cast<size_t>((pc * 0x9e3779b97f4a7c15ULL) >> 32)
        & (slots_.size() - 1);
}

WindowFeatureExtractor::StaticBranch &
WindowFeatureExtractor::lookup(uint64_t pc)
{
    const size_t mask = slots_.size() - 1;
    size_t i = home(pc);
    for (; slots_[i] != 0; i = (i + 1) & mask) {
        if (statics_[slots_[i] - 1].pc == pc)
            return statics_[slots_[i] - 1];
    }
    statics_.push_back({});
    statics_.back().pc = pc;
    slots_[i] = static_cast<uint32_t>(statics_.size());
    // Load factor at most 1/2 keeps probe chains short.
    if (statics_.size() * 2 > slots_.size()) {
        slots_.assign(slots_.size() * 2, 0);
        for (size_t k = 0; k < statics_.size(); ++k) {
            size_t at = home(statics_[k].pc);
            while (slots_[at] != 0)
                at = (at + 1) & (slots_.size() - 1);
            slots_[at] = static_cast<uint32_t>(k + 1);
        }
    }
    return statics_.back();
}

WindowFeatures
WindowFeatureExtractor::extract(const BlockStream &stream,
                                size_t block_begin, size_t block_end)
{
    statics_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);

    uint64_t branches = 0, taken = 0;
    uint32_t j = stream.branchBegin(block_begin);
    for (size_t b = block_begin; b < block_end; ++b) {
        const BlockShape &shape = stream.blockShape(b);
        const uint32_t last = j + shape.numBranches;
        for (; j < last; ++j) {
            const uint8_t raw = stream.branchRaw(j);
            const bool br_taken = (raw & 1) != 0;
            StaticBranch &s = lookup(
                shape.address + uint64_t(raw >> 1) * kInstrBytes);
            if (s.occurrences > 0 && s.lastTaken != br_taken)
                ++s.transitions;
            ++s.occurrences;
            s.taken += br_taken;
            s.lastTaken = br_taken;
            ++branches;
            taken += br_taken;
        }
    }

    WindowFeatures f;
    if (branches == 0)
        return f;
    f.takenRate =
        static_cast<double>(taken) / static_cast<double>(branches);

    // Per-static aggregation runs in PC order: floating-point sums must
    // not depend on table layout. The table is rebuilt next window.
    std::sort(statics_.begin(), statics_.end(),
              [](const StaticBranch &a, const StaticBranch &b) {
                  return a.pc < b.pc;
              });

    uint64_t transitions = 0, transition_chances = 0;
    double entropy = 0.0;
    for (const StaticBranch &s : statics_) {
        transitions += s.transitions;
        transition_chances += s.occurrences - 1;
        const double p = static_cast<double>(s.taken)
            / static_cast<double>(s.occurrences);
        entropy += static_cast<double>(s.occurrences)
            * binaryEntropy(p);
        f.signature[mixPc(s.pc) % kPhaseSignatureBins] +=
            static_cast<double>(s.occurrences);
    }
    if (transition_chances > 0) {
        f.transitionRate = static_cast<double>(transitions)
            / static_cast<double>(transition_chances);
    }
    f.entropy = entropy / static_cast<double>(branches);
    for (double &bin : f.signature)
        bin /= static_cast<double>(branches);
    return f;
}

double
featureDistance(const WindowFeatures &a, const WindowFeatures &b)
{
    double d2 = 0.0;
    auto add = [&](double x, double y) {
        const double d = x - y;
        d2 += d * d;
    };
    add(a.takenRate, b.takenRate);
    add(a.transitionRate, b.transitionRate);
    add(a.entropy, b.entropy);
    for (size_t i = 0; i < kPhaseSignatureBins; ++i)
        add(a.signature[i], b.signature[i]);
    return std::sqrt(d2);
}

} // namespace ev8
