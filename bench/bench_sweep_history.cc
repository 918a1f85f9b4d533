/**
 * @file
 * The Section 8 methodology artifact: the history-length sweep used to
 * find every scheme's "best history length". Prints the sweep curve for
 * a gshare and for the 2Bc-gskew G1 length, demonstrating that the
 * optimum sits beyond log2(table size) for large predictors as the
 * trace grows (Section 5.3). Both sweeps run as one grid batch.
 */

#include <cstdio>
#include <span>
#include <string>

#include "bench_common.hh"
#include "common/table.hh"
#include "predictors/factory.hh"
#include "predictors/twobcgskew.hh"

using namespace ev8;

namespace
{

/** The swept history lengths, shared by both sweeps. */
const std::vector<unsigned> kLengths{4, 8, 12, 16, 20, 24};

/** One sweep: a predictor built at every length of kLengths. */
struct Sweep
{
    const char *label; //!< export row label
    const char *title; //!< bar chart title
    PredictorPtr (*make)(unsigned len);
};

const Sweep kSweeps[] = {
    {"gshare-64K",
     "gshare 64K entries, suite-average misp/KI by history length:",
     [](unsigned len) {
         return makePredictor("gshare:16:" + std::to_string(len));
     }},
    {"2bcgskew-G1",
     "2Bc-gskew 4*64K, G1 history length sweep (G0=13, Meta=15):",
     [](unsigned len) -> PredictorPtr {
         return std::make_unique<TwoBcGskewPredictor>(
             TwoBcGskewConfig::symmetric(
                 16, 0, 13, 15, len, "2bcgskew-G1h" + std::to_string(len)));
     }},
};

void
printCurve(BenchContext &ctx, const Sweep &sweep,
           std::span<const double> means)
{
    std::vector<std::string> labels;
    std::vector<std::string> columns;
    std::vector<double> values;
    for (size_t i = 0; i < kLengths.size(); ++i) {
        const std::string length = std::to_string(kLengths[i]);
        labels.push_back("h=" + length);
        columns.push_back("h" + length);
        values.push_back(means[i]);
    }
    const size_t best = SuiteRunner::bestMeanIndex(means);
    if (!benchQuiet()) {
        std::printf("%s\n",
                    renderBarChart(sweep.title, labels, values).c_str());
        std::printf("  best length: %u (%.3f misp/KI)\n\n", kLengths[best],
                    means[best]);
    }
    columns.push_back("best_len");
    values.push_back(kLengths[best]);
    ctx.recordRow(sweep.label, 0, std::move(columns), std::move(values));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv,
                     "Methodology (Section 8)", "History-length sweeps");

    const SimConfig ghist = ctx.instrument(SimConfig::ghist());
    std::vector<GridRow> rows;
    for (const Sweep &sweep : kSweeps) {
        for (unsigned len : kLengths) {
            rows.push_back({[make = sweep.make, len] { return make(len); },
                            ghist,
                            std::string(sweep.label) + " h="
                                + std::to_string(len)});
        }
    }
    if (!benchQuiet())
        std::fprintf(stderr, "  sweeping gshare 64K and 2Bc-gskew G1 ...\n");
    std::vector<double> means;
    for (const auto &row : ctx.runner().runGrid(rows).results)
        means.push_back(SuiteRunner::averageMispKI(row));

    for (size_t s = 0; s < std::size(kSweeps); ++s) {
        printCurve(ctx, kSweeps[s],
                   std::span<const double>(means).subspan(
                       s * kLengths.size(), kLengths.size()));
    }

    printShapeNotes({
        "the gshare curve is U-shaped: too little history misses "
        "correlations, too much dilutes training",
        "the 2Bc-gskew G1 optimum sits ABOVE log2(entries)=16 -- "
        "Section 5.3's \"very long history\" observation (the effect "
        "strengthens with longer traces)",
    });
    return ctx.finish();
}
