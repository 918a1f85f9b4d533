/**
 * @file
 * SMT example: run several benchmarks as simultaneous threads over one
 * shared EV8 predictor (Section 3), comparing per-thread history
 * registers (the EV8 design) against a naively shared register.
 *
 * Usage: smt_threads [branches] [bench...]
 *        (default: 200000 gcc go)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/ev8_predictor.hh"
#include "sim/smt.hh"
#include "sim/trace_cache.hh"
#include "workloads/suite.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    const uint64_t branches =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
    std::vector<std::string> names;
    for (int i = 2; i < argc; ++i)
        names.push_back(argv[i]);
    if (names.empty())
        names = {"gcc", "go"};

    std::printf("SMT: %zu threads, %llu conditional branches each, one "
                "shared 352 Kbit EV8 predictor\n\n",
                names.size(), static_cast<unsigned long long>(branches));

    TraceCache cache("");
    std::vector<const BlockStream *> threads;
    for (const auto &name : names) {
        std::fprintf(stderr, "  generating %s ...\n", name.c_str());
        threads.push_back(
            &cache.stream(findBenchmark(name).profile, branches));
    }

    TextTable table;
    table.header({"thread", "alone", "SMT per-thread hist",
                  "SMT shared hist"});

    // Baselines: each thread alone on its own predictor.
    std::vector<double> alone;
    for (const BlockStream *t : threads) {
        Ev8Predictor p;
        alone.push_back(
            simulateStream(*t, p, SimConfig::ev8()).stats.mispKI());
    }

    SmtConfig per_thread;
    per_thread.sim = SimConfig::ev8();
    SmtConfig shared = per_thread;
    shared.perThreadHistory = false;

    Ev8Predictor p1, p2;
    const auto good = simulateSmt(threads, p1, per_thread);
    const auto bad = simulateSmt(threads, p2, shared);

    for (size_t i = 0; i < threads.size(); ++i) {
        table.row({good[i].name, fmt(alone[i], 2),
                   fmt(good[i].sim.stats.mispKI(), 2),
                   fmt(bad[i].sim.stats.mispKI(), 2)});
    }
    std::printf("misp/KI per thread:\n\n%s\n", table.render().c_str());
    std::printf("Shared tables degrade gracefully; a shared *history* "
                "register does not (Section 3).\n");
    return 0;
}
