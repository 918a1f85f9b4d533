/**
 * @file
 * History-length exploration from the command line -- the Section 8.2
 * "best history length" methodology as a tool.
 *
 * Usage:
 *     history_sweep <spec-template> [lengths] [branches]
 *
 * The spec template must contain an '@' where the history length goes,
 * e.g. "gshare:16:@" or "2bcgskew:16:0:13:15:@". Lengths default to
 * 2,6,10,...,30; branches to 300000 per benchmark.
 *
 * Example:
 *     history_sweep gshare:14:@ 4,8,12,16,20 200000
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "predictors/factory.hh"
#include "sim/suite_runner.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: history_sweep <spec-with-@> [lengths] "
                     "[branches]\n"
                     "e.g.:  history_sweep gshare:16:@ 4,8,12,16,20\n");
        return 2;
    }
    const std::string tmpl = argv[1];
    const size_t at = tmpl.find('@');
    if (at == std::string::npos) {
        std::fprintf(stderr, "spec template needs an '@' placeholder\n");
        return 2;
    }

    std::vector<unsigned> lengths;
    if (argc > 2) {
        std::istringstream in(argv[2]);
        std::string tok;
        while (std::getline(in, tok, ','))
            lengths.push_back(unsigned(std::stoul(tok)));
    } else {
        for (unsigned l = 2; l <= 30; l += 4)
            lengths.push_back(l);
    }
    const uint64_t branches =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 300000;

    SuiteRunner runner(branches);
    std::vector<GridRow> rows;
    for (unsigned len : lengths) {
        std::string spec = tmpl;
        spec.replace(at, 1, std::to_string(len));
        rows.push_back({[spec] { return makePredictor(spec); },
                        SimConfig::ghist(), spec});
    }

    std::fprintf(stderr, "sweeping %zu lengths over the suite ...\n",
                 lengths.size());
    const auto results = runner.runGrid(rows).results;

    TextTable table;
    std::vector<std::string> header{"history"};
    for (size_t i = 0; i < runner.size(); ++i)
        header.push_back(runner.name(i));
    header.push_back("amean");
    table.header(std::move(header));
    std::vector<double> means;
    for (size_t i = 0; i < lengths.size(); ++i) {
        means.push_back(SuiteRunner::averageMispKI(results[i]));
        std::vector<std::string> cells{std::to_string(lengths[i])};
        for (const auto &r : results[i])
            cells.push_back(fmt(r.sim.stats.mispKI(), 2));
        cells.push_back(fmt(means[i], 3));
        table.row(std::move(cells));
    }
    std::printf("%s\n", table.render().c_str());
    const size_t best = SuiteRunner::bestMeanIndex(means);
    std::printf("best history length: %u (%.3f misp/KI average)\n",
                lengths[best], means[best]);
    return 0;
}
