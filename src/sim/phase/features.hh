/**
 * @file
 * Windowed predictability features over a pre-decoded BlockStream.
 *
 * Phase classification ("Workload Characterization for Branch
 * Predictability", PAPERS.md) rests on the observation that a program's
 * branch behaviour over a window of execution is summarized well by a
 * handful of cheap statistics: how often branches are taken, how often
 * individual static branches *change* outcome (a misprediction proxy --
 * a branch that flips constantly is hard for any counter-based scheme),
 * the per-static-branch outcome entropy, and which static branches are
 * live at all (the working set). Two windows with near-identical
 * feature vectors exercise a predictor near-identically, which is what
 * lets the stratified sampler simulate one and extrapolate the other.
 *
 * Everything here is computed from the stream alone -- no predictor is
 * involved -- so the features (and the phase map built from them) are a
 * pure function of the trace content, cacheable alongside it.
 */

#ifndef EV8_SIM_PHASE_FEATURES_HH
#define EV8_SIM_PHASE_FEATURES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ev8
{

class BlockStream; // sim/block_stream.hh

/** Hashed static-branch working-set signature width. */
constexpr size_t kPhaseSignatureBins = 32;

/** The feature vector of one execution window. */
struct WindowFeatures
{
    /** Fraction of dynamic branches taken, in [0,1]. */
    double takenRate = 0.0;

    /**
     * Fraction of per-static-branch outcome *transitions* (successive
     * executions of the same branch disagreeing), in [0,1]. The
     * misprediction proxy: saturating counters mispredict roughly once
     * per transition.
     */
    double transitionRate = 0.0;

    /**
     * Occurrence-weighted mean per-static-branch outcome entropy,
     * normalized to [0,1] (1 = every branch a coin flip).
     */
    double entropy = 0.0;

    /**
     * Static-branch working set, hashed into kPhaseSignatureBins bins
     * by branch PC and weighted by dynamic occurrence, L1-normalized.
     */
    std::array<double, kPhaseSignatureBins> signature{};
};

/**
 * Extracts window feature vectors. The per-static-branch tallies live
 * in a flat open-addressed table that one extractor reuses across
 * windows, so tiling a stream allocates it once rather than per window.
 */
class WindowFeatureExtractor
{
  public:
    /**
     * The feature vector of blocks [block_begin, block_end) of
     * @p stream. Deterministic: aggregation over static branches runs
     * in PC order regardless of table layout.
     */
    WindowFeatures extract(const BlockStream &stream, size_t block_begin,
                           size_t block_end);

  private:
    /** One static branch's tallies within the current window. */
    struct StaticBranch
    {
        uint64_t pc = 0;
        uint64_t occurrences = 0;
        uint64_t taken = 0;
        uint64_t transitions = 0;
        bool lastTaken = false;
    };

    /** @p pc's tallies, inserted zeroed if the window has none yet. */
    StaticBranch &lookup(uint64_t pc);
    size_t home(uint64_t pc) const;

    std::vector<StaticBranch> statics_; //!< this window's, first-seen order
    //! 0 = empty, else index + 1 into statics_
    std::vector<uint32_t> slots_ = std::vector<uint32_t>(1024);
};

/**
 * Euclidean distance between two feature vectors (scalar features and
 * signature bins concatenated). Symmetric, zero iff equal.
 */
double featureDistance(const WindowFeatures &a, const WindowFeatures &b);

} // namespace ev8

#endif // EV8_SIM_PHASE_FEATURES_HH
