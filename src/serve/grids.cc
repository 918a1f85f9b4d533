#include "serve/grids.hh"

#include <algorithm>
#include <stdexcept>

#include "core/ev8_predictor.hh"
#include "predictors/egskew.hh"
#include "predictors/factory.hh"
#include "predictors/twobcgskew.hh"

namespace ev8
{

namespace
{

SimConfig
presetConfig(const std::string &preset)
{
    if (preset == "ghist")
        return SimConfig::ghist();
    if (preset == "ev8")
        return SimConfig::ev8();
    // The fig7 information-vector ladder between those two endpoints.
    if (preset == "lghist-nopath")
        return SimConfig{HistoryMode::LghistNoPath, 0, false};
    if (preset == "lghist-path")
        return SimConfig{HistoryMode::LghistPath, 0, false};
    if (preset == "lghist-3old")
        return SimConfig{HistoryMode::LghistPath, 3, false};
    throw std::invalid_argument("unknown SimConfig preset: " + preset);
}

/**
 * The fig6 sweep rows for one scheme: the candidate history lengths
 * plus the scheme's log2(size) point when the sweep does not already
 * contain it -- the same point set (and order) bench_fig6_history_length
 * walks, served as one labelled row per point.
 */
void
appendSweepRows(std::vector<GridRowSpec> &rows, const std::string &label,
                unsigned log2_size,
                const std::function<std::string(unsigned)> &spec)
{
    std::vector<unsigned> lengths{8, 12, 16, 20, 24, 28};
    if (std::find(lengths.begin(), lengths.end(), log2_size)
        == lengths.end())
        lengths.push_back(log2_size);
    for (unsigned len : lengths) {
        rows.push_back({label + " L=" + std::to_string(len), spec(len),
                        nullptr, ""});
    }
}

/** The fig6 2Bc-gskew length scaling (G0 ~ 0.62 L, Meta ~ 0.74 L). */
std::string
gskewSweepSpec(unsigned log2_entries, unsigned len)
{
    const unsigned g0 = std::max(2u, len * 62 / 100);
    const unsigned meta = std::max(2u, len * 74 / 100);
    return "2bcgskew:" + std::to_string(log2_entries) + ":0:"
        + std::to_string(g0) + ":" + std::to_string(meta) + ":"
        + std::to_string(len);
}

std::vector<GridRowSpec>
fig6Rows()
{
    std::vector<GridRowSpec> rows;
    appendSweepRows(rows, "2Bc-gskew 256Kb", 15, [](unsigned len) {
        return gskewSweepSpec(15, len);
    });
    appendSweepRows(rows, "2Bc-gskew 512Kb", 16, [](unsigned len) {
        return gskewSweepSpec(16, len);
    });
    appendSweepRows(rows, "gshare 2Mb", 20, [](unsigned len) {
        return "gshare:20:" + std::to_string(len);
    });
    appendSweepRows(rows, "YAGS 288Kb", 14, [](unsigned len) {
        return "yags:14:14:" + std::to_string(len);
    });
    appendSweepRows(rows, "bi-mode 544Kb", 17, [](unsigned len) {
        return "bimode:17:14:" + std::to_string(len);
    });
    return rows;
}

/**
 * One fig7 4*64K 2Bc-gskew (Section 8.3 information-vector study).
 * Mirrors bench_fig7_info_vector: history lengths in the
 * lghist-optimal range, path info only for the full EV8 vector row.
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
 * vectors from conventional ghist to the full EV8 vector. Each row
 * carries its own preset -- the row axis *is* the SimConfig.
 */
std::vector<GridRowSpec>
fig7Rows()
{
    return {
        {"ghist (conventional)", "", fig7Gskew64K(false, "ghist"),
         "ghist"},
        {"lghist, no path", "", fig7Gskew64K(false, "lghist-nopath"),
         "lghist-nopath"},
        {"lghist + path", "", fig7Gskew64K(false, "lghist-path"),
         "lghist-path"},
        {"3-old lghist", "", fig7Gskew64K(false, "lghist-3old"),
         "lghist-3old"},
        {"EV8 info vector", "", fig7Gskew64K(true, "ev8-vector"), "ev8"},
    };
}

/**
 * One fig8 table-size point (Section 8.4). Mirrors
 * bench_fig8_table_sizes: base 512Kb 2Bc-gskew under the EV8 vector,
 * optionally shrunk BIM and halved G0/Meta hysteresis.
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
std::vector<GridRowSpec>
fig8Rows()
{
    return {
        {"4*64K base (512Kb)", "", fig8ConfigOf(16, false, "base-512Kb"),
         ""},
        {"small BIM (16K)", "", fig8ConfigOf(14, false, "small-BIM"),
         ""},
        {"EV8 size (352Kb)", "", fig8ConfigOf(14, true, "EV8-size"), ""},
    };
}

/**
 * The Section 4.2 update-policy ablation. The EV8 and non-default
 * policy rows use direct factories (the spec grammar has no
 * partial/total switch); the factories reproduce the historical
 * bench_ablation_update_policy predictors -- labels included, since
 * the labels prefix the exported metric names.
 */
std::vector<GridRowSpec>
updatePolicyRows()
{
    return {
        {"EV8, partial update", "",
         [] { return std::make_unique<Ev8Predictor>(); }, "ev8"},
        {"EV8, total update", "",
         [] {
             Ev8Config cfg;
             cfg.partialUpdate = false;
             cfg.label = "EV8-total";
             return std::make_unique<Ev8Predictor>(cfg);
         },
         "ev8"},
        {"2Bc-gskew 512Kb, partial", "",
         [] {
             return std::make_unique<TwoBcGskewPredictor>(
                 TwoBcGskewConfig::symmetric(16, 0, 13, 15, 21,
                                             "gskew-partial"));
         },
         "ghist"},
        {"2Bc-gskew 512Kb, total", "",
         [] {
             auto cfg = TwoBcGskewConfig::symmetric(16, 0, 13, 15, 21,
                                                    "gskew-total");
             cfg.partialUpdate = false;
             return std::make_unique<TwoBcGskewPredictor>(cfg);
         },
         "ghist"},
        {"e-gskew 3*64K, partial", "",
         [] { return std::make_unique<EgskewPredictor>(16, 15, true); },
         "ghist"},
        {"e-gskew 3*64K, total", "",
         [] { return std::make_unique<EgskewPredictor>(16, 15, false); },
         "ghist"},
    };
}

/**
 * The Section 6 banking ablation as a predictor grid: the banked EV8
 * hardware arrays under the real EV8 information vector, against the
 * same-size unconstrained 2Bc-gskew under the same vector (isolating
 * the array constraints) and under ideal ghist (the full
 * idealization).
 */
std::vector<GridRowSpec>
bankingRows()
{
    return {
        {"EV8 4x16K banked, lghist+path", "",
         [] { return std::make_unique<Ev8Predictor>(); }, "ev8"},
        {"2Bc-gskew EV8-size, lghist+path", "ev8size", nullptr, "ev8"},
        {"2Bc-gskew EV8-size, ideal ghist", "ev8size", nullptr, "ghist"},
    };
}

/**
 * Row labels and order are load-bearing: they must match the batch
 * binaries byte for byte (export rows, CellFailure row_label, the
 * checkpoint grid hash all carry them).
 */
const std::vector<GridSpec> &
registry()
{
    static const std::vector<GridSpec> grids = {
        {"fig5", "Fig. 5",
         "Branch prediction accuracy for various global history schemes",
         {
             {"2Bc-gskew 4*32K (256Kb)", "fig5-2bcgskew256", nullptr, ""},
             {"2Bc-gskew 4*64K (512Kb)", "fig5-2bcgskew512", nullptr, ""},
             {"bi-mode 2x128K+16K (544Kb)", "fig5-bimode544", nullptr,
              ""},
             {"gshare 1M (2Mb)", "fig5-gshare2M", nullptr, ""},
             {"YAGS 288Kb", "fig5-yags288", nullptr, ""},
             {"YAGS 576Kb", "fig5-yags576", nullptr, ""},
         },
         "ghist"},
        {"fig6", "Fig. 6 (grid)",
         "History length sweep points behind the fig6 best-vs-log2 "
         "comparison",
         fig6Rows(), "ghist"},
        {"fig7", "Fig. 7",
         "Impact of the information vector on branch prediction "
         "accuracy (4*64K 2Bc-gskew)",
         fig7Rows(), "ghist"},
        {"fig8", "Fig. 8",
         "Adjusting table sizes in the predictor", fig8Rows(), "ev8"},
        {"ablation-update-policy", "Ablation (Section 4.2)",
         "Partial vs. total update policy", updatePolicyRows(), "ghist"},
        {"ablation-banking", "Ablation (Section 6, grid)",
         "Banked EV8 arrays vs. unconstrained tables", bankingRows(),
         "ev8"},
    };
    return grids;
}

} // namespace

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
baseConfig(const GridSpec &grid)
{
    return presetConfig(grid.preset);
}

SimConfig
rowBaseConfig(const GridSpec &grid, const GridRowSpec &row)
{
    return presetConfig(row.preset.empty() ? grid.preset : row.preset);
}

PredictorPtr
makeRowPredictor(const GridRowSpec &row)
{
    return row.make ? row.make() : makePredictor(row.spec);
}

std::vector<GridRow>
buildGridRows(const GridSpec &grid, const SimConfig &config)
{
    std::vector<GridRow> rows;
    rows.reserve(grid.rows.size());
    for (const GridRowSpec &r : grid.rows) {
        SimConfig rowConfig = rowBaseConfig(grid, r);
        rowConfig.metrics = config.metrics;
        rowConfig.events = config.events;
        rowConfig.forceGenericKernel = config.forceGenericKernel;
        rows.push_back(GridRow{
            [make = r.make, spec = r.spec] {
                return make ? make() : makePredictor(spec);
            },
            rowConfig,
            r.label,
        });
    }
    return rows;
}

std::vector<uint64_t>
gridStorageBits(const GridSpec &grid)
{
    std::vector<uint64_t> bits;
    bits.reserve(grid.rows.size());
    for (const GridRowSpec &r : grid.rows)
        bits.push_back(makeRowPredictor(r)->storageBits());
    return bits;
}

} // namespace ev8
