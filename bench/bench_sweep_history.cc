/**
 * @file
 * The Section 8 methodology artifact: the history-length sweep used to
 * find every scheme's "best history length". Prints the sweep curve for
 * a gshare and for the 2Bc-gskew G1 length, demonstrating that the
 * optimum sits beyond log2(table size) for large predictors as the
 * trace grows (Section 5.3).
 *
 * Lengths can be overridden: EV8_SWEEP_LENGTHS="4,8,12,16" (comma
 * separated, each in [1, 64]; anything else exits 2).
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench_common.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "predictors/factory.hh"
#include "predictors/twobcgskew.hh"
#include "sim/sweep.hh"

using namespace ev8;

namespace
{

std::vector<unsigned>
sweepLengths()
{
    const char *env = std::getenv("EV8_SWEEP_LENGTHS");
    if (env == nullptr)
        return {4, 8, 12, 16, 20, 24};
    // Every comma-separated token must be a history length the 64-bit
    // history register can hold; an empty token is an error too.
    const std::string text = env;
    std::vector<unsigned> lengths;
    try {
        for (size_t pos = 0;;) {
            const size_t comma = text.find(',', pos);
            lengths.push_back(static_cast<unsigned>(
                parseStrictU64(text.substr(pos, comma - pos), 1, 64)));
            if (comma == std::string::npos)
                return lengths;
            pos = comma + 1;
        }
    } catch (const std::invalid_argument &err) {
        std::fprintf(stderr, "EV8_SWEEP_LENGTHS: %s\n", err.what());
        std::exit(2);
    }
}

void
printCurve(BenchContext &ctx, const char *label, const char *title,
           const std::vector<SweepPoint> &points)
{
    std::vector<std::string> labels;
    std::vector<std::string> columns;
    std::vector<double> values;
    for (const auto &p : points) {
        labels.push_back("h=" + std::to_string(p.histLen));
        columns.push_back("h" + std::to_string(p.histLen));
        values.push_back(p.avgMispKI);
    }
    if (!benchQuiet()) {
        std::printf("%s\n",
                    renderBarChart(title, labels, values).c_str());
        std::printf("  best length: %u (%.3f misp/KI)\n\n",
                    bestPoint(points).histLen,
                    bestPoint(points).avgMispKI);
    }
    columns.push_back("best_len");
    values.push_back(bestPoint(points).histLen);
    ctx.recordRow(label, 0, std::move(columns), std::move(values));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv,
                     "Methodology (Section 8)", "History-length sweeps");

    const auto lengths = sweepLengths();
    SuiteRunner &runner = ctx.runner();
    const SimConfig ghist = ctx.instrument(SimConfig::ghist());

    if (!benchQuiet())
        std::fprintf(stderr, "  sweeping gshare 64K ...\n");
    const auto gshare = sweepHistoryLengths(
        runner,
        [](unsigned len) {
            return makePredictor("gshare:16:" + std::to_string(len));
        },
        lengths, ghist);
    printCurve(ctx, "gshare-64K",
               "gshare 64K entries, suite-average misp/KI by history "
               "length:",
               gshare);

    if (!benchQuiet())
        std::fprintf(stderr, "  sweeping 2Bc-gskew G1 length ...\n");
    const auto g1 = sweepHistoryLengths(
        runner,
        [](unsigned len) {
            return std::make_unique<TwoBcGskewPredictor>(
                TwoBcGskewConfig::symmetric(
                    16, 0, 13, 15, len,
                    "2bcgskew-G1h" + std::to_string(len)));
        },
        lengths, ghist);
    printCurve(ctx, "2bcgskew-G1",
               "2Bc-gskew 4*64K, G1 history length sweep (G0=13, "
               "Meta=15):",
               g1);

    printShapeNotes({
        "the gshare curve is U-shaped: too little history misses "
        "correlations, too much dilutes training",
        "the 2Bc-gskew G1 optimum sits ABOVE log2(entries)=16 -- "
        "Section 5.3's \"very long history\" observation (the effect "
        "strengthens with longer traces)",
    });
    return ctx.finish();
}
