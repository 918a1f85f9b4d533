/**
 * @file
 * Table 3 reproduction: the ratio lghist/ghist -- how many conditional
 * branches one block-compressed history bit summarizes on average
 * (Section 5.3; "for vortex the 23 lghist bits represent on average 36
 * branches" is this ratio times the history length).
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"
#include "predictors/bimodal.hh"

using namespace ev8;

namespace
{

/** The paper's Table 3 ratios. */
constexpr double kPaperRatio[] = {1.24, 1.57, 1.12, 1.20,
                                  1.55, 1.53, 1.32, 1.59};

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv,
                     "Table 3", "Ratio lghist/ghist (branches "
                                "represented per history bit)");

    SuiteRunner &runner = ctx.runner();
    runner.prepareStreams();
    TextTable table;
    table.header({"benchmark", "lghist/ghist", "paper", "fetch blocks",
                  "lghist bits"});

    for (size_t i = 0; i < runner.size(); ++i) {
        if (!benchQuiet())
            std::fprintf(stderr, "  running %s ...\n",
                         runner.name(i).c_str());
        BimodalPredictor dummy(10); // the predictor is irrelevant here
        const SimResult r =
            simulateStream(runner.blockStream(i), dummy,
                           ctx.instrument(SimConfig::ev8()));
        table.row({runner.name(i), fmt(r.lghistRatio(), 2),
                   fmt(kPaperRatio[i], 2),
                   std::to_string(r.fetchBlocks),
                   std::to_string(r.lghistBits)});
        ctx.recordRow(runner.name(i), 0,
                      {"lghist_ratio", "paper_ratio", "fetch_blocks",
                       "lghist_bits"},
                      {r.lghistRatio(), kPaperRatio[i],
                       double(r.fetchBlocks), double(r.lghistBits)});
    }
    if (!benchQuiet())
        std::printf("%s\n", table.render().c_str());

    printShapeNotes({
        "every ratio > 1: lghist compresses several branch outcomes "
        "into one bit per fetch block",
        "branch-dense benchmarks (vortex, with its short basic blocks) "
        "show the largest compression",
        "ratios in the paper's 1.1 - 1.6 range",
    });
    return ctx.finish();
}
