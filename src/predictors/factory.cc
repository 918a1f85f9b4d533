#include "predictors/factory.hh"

#include <sstream>
#include <stdexcept>

#include "common/env.hh"
#include "predictors/agree.hh"
#include "predictors/bimodal.hh"
#include "predictors/bimode.hh"
#include "predictors/egskew.hh"
#include "predictors/gas.hh"
#include "predictors/gshare.hh"
#include "predictors/local.hh"
#include "predictors/perceptron.hh"
#include "predictors/twobcgskew.hh"
#include "predictors/yags.hh"

namespace ev8
{

PredictorPtr
make2BcGskew256K()
{
    return std::make_unique<TwoBcGskewPredictor>(
        TwoBcGskewConfig::symmetric(15, 0, 13, 16, 23, "2Bc-gskew-256Kb"));
}

PredictorPtr
make2BcGskew512K()
{
    return std::make_unique<TwoBcGskewPredictor>(
        TwoBcGskewConfig::symmetric(16, 0, 17, 20, 27, "2Bc-gskew-512Kb"));
}

PredictorPtr
makeBimode544K()
{
    return std::make_unique<BimodePredictor>(17, 14, 20);
}

PredictorPtr
makeGshare2M()
{
    return std::make_unique<GsharePredictor>(20, 20);
}

PredictorPtr
makeYags288K()
{
    return std::make_unique<YagsPredictor>(14, 14, 23, 6);
}

PredictorPtr
makeYags576K()
{
    return std::make_unique<YagsPredictor>(15, 15, 25, 6);
}

PredictorPtr
make2BcGskew4M()
{
    // Fig. 10: 4 x 1M 2-bit entries. The paper does not publish its
    // history lengths; these follow the same growth trend as the 256Kb
    // and 512Kb points.
    return std::make_unique<TwoBcGskewPredictor>(
        TwoBcGskewConfig::symmetric(20, 0, 21, 24, 31, "2Bc-gskew-8Mb"));
}

PredictorPtr
make2BcGskewEv8Size()
{
    return std::make_unique<TwoBcGskewPredictor>(
        TwoBcGskewConfig::ev8Size());
}

namespace
{

std::vector<std::string>
splitSpec(const std::string &spec)
{
    std::vector<std::string> parts;
    std::istringstream in(spec);
    std::string part;
    while (std::getline(in, part, ':'))
        parts.push_back(part);
    return parts;
}

/** Bounds of the numeric spec fields every constructor accepts. */
constexpr unsigned kMinLog2 = 1, kMaxLog2 = 30, kMaxHistory = 63;

/** A spec's colon-separated fields, each parsed strictly on demand. */
struct SpecFields
{
    std::string spec;
    std::vector<std::string> parts;

    /**
     * Field @p i, an integer in [lo, hi]; throws std::invalid_argument
     * naming the field and the spec when it is missing or malformed.
     */
    unsigned
    get(size_t i, const char *what, unsigned lo, unsigned hi) const
    {
        if (i >= parts.size()) {
            throw std::invalid_argument("predictor spec '" + spec
                                        + "' missing argument: " + what);
        }
        try {
            return static_cast<unsigned>(parseStrictU64(parts[i], lo, hi));
        } catch (const std::invalid_argument &err) {
            throw std::invalid_argument("predictor spec '" + spec + "': "
                                        + what + ": " + err.what());
        }
    }

    unsigned
    getOr(size_t i, const char *what, unsigned lo, unsigned hi,
          unsigned fallback) const
    {
        return i < parts.size() ? get(i, what, lo, hi) : fallback;
    }

    /** A log2 table size; skew-indexed tables need @p lo = 2. */
    unsigned
    log2(size_t i, const char *what, unsigned lo = kMinLog2) const
    {
        return get(i, what, lo, kMaxLog2);
    }

    unsigned
    history(size_t i, const char *what, unsigned hi = kMaxHistory) const
    {
        return get(i, what, 0, hi);
    }
};

} // namespace

PredictorPtr
makePredictor(const std::string &spec)
{
    const auto parts = splitSpec(spec);
    if (parts.empty())
        throw std::invalid_argument("empty predictor spec");
    const std::string &kind = parts[0];

    if (kind == "fig5-2bcgskew256") return make2BcGskew256K();
    if (kind == "fig5-2bcgskew512") return make2BcGskew512K();
    if (kind == "fig5-bimode544") return makeBimode544K();
    if (kind == "fig5-gshare2M") return makeGshare2M();
    if (kind == "fig5-yags288") return makeYags288K();
    if (kind == "fig5-yags576") return makeYags576K();
    if (kind == "fig10-2bcgskew8M") return make2BcGskew4M();
    if (kind == "ev8size") return make2BcGskewEv8Size();

    const SpecFields f{spec, parts};
    if (kind == "bimodal")
        return std::make_unique<BimodalPredictor>(f.log2(1, "log2 entries"));
    if (kind == "gshare") {
        return std::make_unique<GsharePredictor>(
            f.log2(1, "log2 entries"), f.history(2, "history"));
    }
    if (kind == "gas") {
        // GAs concatenates history onto the index: it must fit.
        const unsigned log2e = f.log2(1, "log2 entries");
        return std::make_unique<GasPredictor>(log2e,
                                              f.history(2, "history", log2e));
    }
    if (kind == "agree") {
        const unsigned log2e = f.log2(1, "log2 entries");
        return std::make_unique<AgreePredictor>(
            log2e, f.history(2, "history"),
            f.getOr(3, "log2 bias entries", kMinLog2, kMaxLog2, log2e));
    }
    if (kind == "egskew") {
        return std::make_unique<EgskewPredictor>(
            f.log2(1, "log2 entries", 2), f.history(2, "history"));
    }
    if (kind == "bimode") {
        return std::make_unique<BimodePredictor>(
            f.log2(1, "log2 direction"), f.log2(2, "log2 choice"),
            f.history(3, "history"));
    }
    if (kind == "yags") {
        // Partial tags are stored in 16 bits.
        return std::make_unique<YagsPredictor>(
            f.log2(1, "log2 choice"), f.log2(2, "log2 cache"),
            f.history(3, "history"), f.getOr(4, "tag bits", 0, 16, 6));
    }
    if (kind == "2bcgskew") {
        // Parsed first: the label below reads parts[1].
        const unsigned log2e = f.log2(1, "log2 entries", 2);
        return std::make_unique<TwoBcGskewPredictor>(
            TwoBcGskewConfig::symmetric(
                log2e, f.history(2, "BIM history"),
                f.history(3, "G0 history"), f.history(4, "Meta history"),
                f.history(5, "G1 history"), "2bcgskew:" + parts[1]));
    }
    if (kind == "perceptron") {
        return std::make_unique<PerceptronPredictor>(
            f.log2(1, "log2 entries"), f.history(2, "history"));
    }
    if (kind == "local") {
        // Local histories are stored in 16 bits.
        return std::make_unique<LocalPredictor>(
            f.log2(1, "log2 bht"), f.get(2, "local bits", 0, 16),
            f.log2(3, "log2 pht"));
    }
    if (kind == "tournament")
        return std::make_unique<TournamentPredictor>();

    throw std::invalid_argument("unknown predictor spec: " + spec);
}

std::vector<std::string>
knownPredictorSpecs()
{
    return {
        "fig5-2bcgskew256", "fig5-2bcgskew512", "fig5-bimode544",
        "fig5-gshare2M", "fig5-yags288", "fig5-yags576",
        "fig10-2bcgskew8M", "ev8size",
        "bimodal:<log2>",
        "gshare:<log2>:<hist>",
        "gas:<log2>:<hist>",
        "agree:<log2>:<hist>[:<log2bias>]",
        "egskew:<log2>:<hist>",
        "bimode:<log2dir>:<log2choice>:<hist>",
        "yags:<log2choice>:<log2cache>:<hist>[:<tagbits>]",
        "2bcgskew:<log2>:<hBIM>:<hG0>:<hMeta>:<hG1>",
        "perceptron:<log2>:<hist>",
        "local:<log2bht>:<bits>:<log2pht>",
        "tournament",
    };
}

} // namespace ev8
