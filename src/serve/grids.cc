#include "serve/grids.hh"

#include <algorithm>

#include "core/ev8_predictor.hh"
#include "predictors/egskew.hh"
#include "predictors/factory.hh"
#include "predictors/hierarchy.hh"
#include "predictors/local.hh"
#include "predictors/perceptron.hh"
#include "predictors/twobcgskew.hh"

namespace ev8
{

namespace
{

/**
 * A fig6 2Bc-gskew predictor at history length @p len: one length
 * scales all three history lengths with the paper's proportions
 * (G0 ~ 0.62 L, Meta ~ 0.74 L, G1 = L; e.g. L=27 gives 17/20/27, the
 * paper's 512Kb lengths). Every sweep lane carries one label, so its
 * metrics fold under one "2bcgskew" prefix.
 */
PredictorPtr
gskewSweep(unsigned log2_entries, unsigned len)
{
    const unsigned g0 = std::max(2u, len * 62 / 100);
    const unsigned meta = std::max(2u, len * 74 / 100);
    return std::make_unique<TwoBcGskewPredictor>(TwoBcGskewConfig::symmetric(
        log2_entries, 0, g0, meta, len, "2bcgskew"));
}

/** One fig6 scheme: its label, log2(size) and predictor at a length. */
struct Fig6Scheme
{
    const char *label;
    unsigned log2Size;
    PredictorPtr (*make)(unsigned len);
};

const Fig6Scheme kFig6Schemes[] = {
    {"2Bc-gskew 256Kb", 15, [](unsigned len) { return gskewSweep(15, len); }},
    {"2Bc-gskew 512Kb", 16, [](unsigned len) { return gskewSweep(16, len); }},
    {"gshare 2Mb", 20,
     [](unsigned len) {
         return makePredictor("gshare:20:" + std::to_string(len));
     }},
    {"YAGS 288Kb", 14,
     [](unsigned len) {
         return makePredictor("yags:14:14:" + std::to_string(len));
     }},
    {"bi-mode 544Kb", 17,
     [](unsigned len) {
         return makePredictor("bimode:17:14:" + std::to_string(len));
     }},
};

/**
 * A fig6 scheme's swept lengths: the candidates, plus the scheme's
 * log2(size) point when they lack it. The log2 point rides in the same
 * batch -- and so in the same fused walk -- as the candidates.
 */
std::vector<unsigned>
fig6Lengths(unsigned log2_size)
{
    std::vector<unsigned> lengths{8, 12, 16, 20, 24, 28};
    if (std::find(lengths.begin(), lengths.end(), log2_size)
        == lengths.end())
        lengths.push_back(log2_size);
    return lengths;
}

/** fig6's rows: per scheme, one row per swept length. */
std::vector<GridRow>
fig6Rows()
{
    std::vector<GridRow> rows;
    for (const Fig6Scheme &scheme : kFig6Schemes) {
        for (unsigned len : fig6Lengths(scheme.log2Size)) {
            rows.push_back({[make = scheme.make, len] { return make(len); },
                            SimConfig::ghist(),
                            std::string(scheme.label) + " L="
                                + std::to_string(len)});
        }
    }
    return rows;
}

/**
 * One fig7 4*64K 2Bc-gskew (Section 8.3 information-vector study):
 * history lengths in the lghist-optimal range, path info only for the
 * full EV8 vector row.
 */
PredictorFactory
fig7Gskew64K(bool use_path, const char *label)
{
    return [use_path, label] {
        TwoBcGskewConfig cfg =
            TwoBcGskewConfig::symmetric(16, 0, 13, 15, 21, label);
        cfg.usePathInfo = use_path;
        return std::make_unique<TwoBcGskewPredictor>(cfg);
    };
}

/**
 * The Fig. 7 information-vector ladder: same predictor, five history
 * vectors from conventional ghist to the full EV8 vector -- the row
 * axis *is* the SimConfig.
 */
std::vector<GridRow>
fig7Rows()
{
    return {
        {fig7Gskew64K(false, "ghist"), SimConfig::ghist(),
         "ghist (conventional)"},
        {fig7Gskew64K(false, "lghist-nopath"),
         {HistoryMode::LghistNoPath, 0, false}, "lghist, no path"},
        {fig7Gskew64K(false, "lghist-path"),
         {HistoryMode::LghistPath, 0, false}, "lghist + path"},
        {fig7Gskew64K(false, "lghist-3old"),
         {HistoryMode::LghistPath, 3, false}, "3-old lghist"},
        {fig7Gskew64K(true, "ev8-vector"), SimConfig::ev8(),
         "EV8 info vector"},
    };
}

/**
 * One fig8 table-size point (Section 8.4): base 512Kb 2Bc-gskew under
 * the EV8 vector, optionally shrunk BIM and halved G0/Meta hysteresis.
 */
PredictorFactory
fig8ConfigOf(unsigned log2_bim, bool half_hysteresis, const char *label)
{
    return [log2_bim, half_hysteresis, label] {
        TwoBcGskewConfig cfg =
            TwoBcGskewConfig::symmetric(16, 4, 13, 15, 21, label);
        cfg.usePathInfo = true; // the EV8 information vector
        cfg.tables[BIM].log2Pred = log2_bim;
        cfg.tables[BIM].log2Hyst = log2_bim;
        if (half_hysteresis) {
            cfg.tables[G0].log2Hyst = 15;
            cfg.tables[META].log2Hyst = 15;
        }
        return std::make_unique<TwoBcGskewPredictor>(cfg);
    };
}

/** The Fig. 8 table-size walk down to the 352Kb hardware budget. */
std::vector<GridRow>
fig8Rows()
{
    return {
        {fig8ConfigOf(16, false, "base-512Kb"), SimConfig::ev8(),
         "4*64K base (512Kb)"},
        {fig8ConfigOf(14, false, "small-BIM"), SimConfig::ev8(),
         "small BIM (16K)"},
        {fig8ConfigOf(14, true, "EV8-size"), SimConfig::ev8(),
         "EV8 size (352Kb)"},
    };
}

/** A hardware EV8 predictor with @p mode wordline bits (Fig. 9). */
PredictorFactory
ev8Wordline(WordlineMode mode, const char *label)
{
    return [mode, label] {
        Ev8Config cfg;
        cfg.wordline = mode;
        cfg.label = label;
        return std::make_unique<Ev8Predictor>(cfg);
    };
}

/**
 * The Fig. 9 wordline / index-constraint study (Section 8.5). "no
 * path" is the EV8 vector without the path bit in lghist: still 3
 * blocks old and banked.
 */
std::vector<GridRow>
fig9Rows()
{
    const SimConfig no_path{HistoryMode::LghistNoPath, 3, true};
    return {
        {ev8Wordline(WordlineMode::AddressOnly, "EV8-addr-wordline"),
         no_path, "address only, no path"},
        {ev8Wordline(WordlineMode::AddressOnly, "EV8-addr-wordline"),
         SimConfig::ev8(), "address only, path"},
        {ev8Wordline(WordlineMode::Ev8, "EV8"), no_path, "no path"},
        {ev8Wordline(WordlineMode::Ev8, "EV8"), SimConfig::ev8(), "EV8"},
        {make2BcGskewEv8Size, SimConfig::ev8(), "complete hash"},
        {make2BcGskew512K, SimConfig::ghist(), "4*64K 2Bc-gskew ghist"},
    };
}

PredictorPtr
makeEv8()
{
    return std::make_unique<Ev8Predictor>();
}

/**
 * The Section 4.2 update-policy ablation. The labels passed to the
 * predictors prefix the exported metric names.
 */
std::vector<GridRow>
updatePolicyRows()
{
    return {
        {makeEv8, SimConfig::ev8(), "EV8, partial update"},
        {[] {
             Ev8Config cfg;
             cfg.partialUpdate = false;
             cfg.label = "EV8-total";
             return std::make_unique<Ev8Predictor>(cfg);
         },
         SimConfig::ev8(), "EV8, total update"},
        {[] {
             return std::make_unique<TwoBcGskewPredictor>(
                 TwoBcGskewConfig::symmetric(16, 0, 13, 15, 21,
                                             "gskew-partial"));
         },
         SimConfig::ghist(), "2Bc-gskew 512Kb, partial"},
        {[] {
             auto cfg = TwoBcGskewConfig::symmetric(16, 0, 13, 15, 21,
                                                    "gskew-total");
             cfg.partialUpdate = false;
             return std::make_unique<TwoBcGskewPredictor>(cfg);
         },
         SimConfig::ghist(), "2Bc-gskew 512Kb, total"},
        {[] { return std::make_unique<EgskewPredictor>(16, 15, true); },
         SimConfig::ghist(), "e-gskew 3*64K, partial"},
        {[] { return std::make_unique<EgskewPredictor>(16, 15, false); },
         SimConfig::ghist(), "e-gskew 3*64K, total"},
    };
}

/**
 * The Section 6 banking ablation as a predictor grid: the banked EV8
 * hardware arrays under the real EV8 information vector, against the
 * same-size unconstrained 2Bc-gskew under the same vector (isolating
 * the array constraints) and under ideal ghist (the full
 * idealization).
 */
std::vector<GridRow>
bankingRows()
{
    return {
        {makeEv8, SimConfig::ev8(), "EV8 4x16K banked, lghist+path"},
        {make2BcGskewEv8Size, SimConfig::ev8(),
         "2Bc-gskew EV8-size, lghist+path"},
        {make2BcGskewEv8Size, SimConfig::ghist(),
         "2Bc-gskew EV8-size, ideal ghist"},
    };
}

/**
 * The Section 9 extension: backup predictors with other information
 * vectors (perceptron, local history) against the EV8, plus the
 * 21264-style tournament hybrid the EV8 moved away from (Section 3).
 */
std::vector<GridRow>
perceptronRows()
{
    return {
        {makeEv8, SimConfig::ev8(), "EV8 (352Kb)"},
        {[] { return std::make_unique<PerceptronPredictor>(10, 32); },
         SimConfig::ghist(), "perceptron 1K x h32 (~264Kb)"},
        {[] { return std::make_unique<PerceptronPredictor>(12, 24); },
         SimConfig::ghist(), "perceptron 4K x h24 (~800Kb)"},
        {[] { return std::make_unique<TournamentPredictor>(); },
         SimConfig::ghist(), "tournament 21264 (~29Kb)"},
        {[] { return std::make_unique<LocalPredictor>(12, 12, 14); },
         SimConfig::ghist(), "local PAg 4K x 12 (~80Kb)"},
        {[] {
             // The Section 9 hierarchy: EV8 primary, perceptron backup
             // with a longer-history information vector, PC-indexed
             // chooser. The backup consumes the same lghist register
             // (its linear dot product reaches deeper than the EV8's
             // table indices).
             return std::make_unique<HierarchyPredictor>(
                 makeEv8(), std::make_unique<PerceptronPredictor>(10, 40),
                 12, "EV8+perceptron-backup");
         },
         SimConfig::ev8(), "EV8 + perceptron backup"},
    };
}

/**
 * Row labels and order are load-bearing: they must match the batch
 * binaries byte for byte (export rows, CellFailure row_label, the
 * checkpoint grid hash all carry them), and must be unique per grid.
 */
const std::vector<GridSpec> &
registry()
{
    static const std::vector<GridSpec> grids = {
        {"fig5", "Fig. 5",
         "Branch prediction accuracy for various global history schemes",
         {
             {make2BcGskew256K, SimConfig::ghist(),
              "2Bc-gskew 4*32K (256Kb)"},
             {make2BcGskew512K, SimConfig::ghist(),
              "2Bc-gskew 4*64K (512Kb)"},
             {makeBimode544K, SimConfig::ghist(),
              "bi-mode 2x128K+16K (544Kb)"},
             {makeGshare2M, SimConfig::ghist(), "gshare 1M (2Mb)"},
             {makeYags288K, SimConfig::ghist(), "YAGS 288Kb"},
             {makeYags576K, SimConfig::ghist(), "YAGS 576Kb"},
         }},
        {"fig6", "Fig. 6 (grid)",
         "History length sweep points behind the fig6 best-vs-log2 "
         "comparison",
         fig6Rows()},
        {"fig7", "Fig. 7",
         "Impact of the information vector on branch prediction "
         "accuracy (4*64K 2Bc-gskew)",
         fig7Rows()},
        {"fig8", "Fig. 8", "Adjusting table sizes in the predictor",
         fig8Rows()},
        {"fig9", "Fig. 9",
         "Effect of wordline indices and index-function constraints",
         fig9Rows()},
        {"fig10", "Fig. 10", "Limits of using global history",
         {
             {makeEv8, SimConfig::ev8(), "EV8 (352Kb, constrained)"},
             {make2BcGskew512K, SimConfig::ghist(),
              "2Bc-gskew 4*64K (512Kb)"},
             {make2BcGskew4M, SimConfig::ghist(), "2Bc-gskew 4*1M (8Mb)"},
         }},
        {"ext-perceptron", "Extension (Section 9)",
         "Perceptron / local-history directions vs. the EV8",
         perceptronRows()},
        {"ablation-update-policy", "Ablation (Section 4.2)",
         "Partial vs. total update policy", updatePolicyRows()},
        {"ablation-banking", "Ablation (Section 6, grid)",
         "Banked EV8 arrays vs. unconstrained tables", bankingRows()},
    };
    return grids;
}

} // namespace

const std::vector<HistorySweep> &
fig6Sweeps()
{
    static const std::vector<HistorySweep> sweeps = [] {
        std::vector<HistorySweep> out;
        for (const Fig6Scheme &scheme : kFig6Schemes) {
            out.push_back({scheme.label, scheme.log2Size,
                           fig6Lengths(scheme.log2Size)});
        }
        return out;
    }();
    return sweeps;
}

const GridSpec *
findGrid(const std::string &id)
{
    for (const GridSpec &g : registry())
        if (g.id == id)
            return &g;
    return nullptr;
}

std::vector<std::string>
knownGrids()
{
    std::vector<std::string> ids;
    for (const GridSpec &g : registry())
        ids.push_back(g.id);
    return ids;
}

SimConfig
baseConfig(const GridSpec &)
{
    return SimConfig{};
}

std::vector<GridRow>
buildGridRows(const GridSpec &grid, const SimConfig &config)
{
    std::vector<GridRow> rows = grid.rows;
    for (GridRow &r : rows) {
        r.config.metrics = config.metrics;
        r.config.events = config.events;
        r.config.forceGenericKernel = config.forceGenericKernel;
    }
    return rows;
}

} // namespace ev8
