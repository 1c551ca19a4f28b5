/**
 * @file
 * Table 8: breakdown of dynamic dependence predictions into
 * predicted/actual classes (N/N, N/Y, Y/N, Y/Y) for the no-predictor,
 * SYNC and ESYNC variants on SPECint92.
 */

#include <iostream>

#include "bench_common.hh"

using namespace mdp;

namespace
{

const char *
variantName(int v)
{
    switch (v) {
      case 0:
        return "naive";
      case 1:
        return "SYNC";
      default:
        return "ESYNC";
    }
}

} // namespace

TextTable
table8PredBreakdown(ShapeChecks &sc)
{
    TextTable t({"predictor", "P/A", "compress", "espresso", "gcc",
                 "sc", "xlisp"});

    const std::vector<std::string> names = specInt92Names();
    ExperimentRunner<SimResult> runner;
    for (int variant = 0; variant < 3; ++variant)
        for (const auto &name : names)
            runner.add(multiscalarCell(
                name, 8, variant == 2 ? "esync" : "sync",
                [variant](MultiscalarConfig &cfg) {
                    if (variant == 0)
                        cfg.sync.predictor = PredictorKind::AlwaysSync;
                }));
    const std::vector<SimResult> results = runner.runAll();

    size_t idx = 0;
    for (int variant = 0; variant < 3; ++variant) {
        std::vector<PredBreakdown> rows;
        for (size_t w = 0; w < names.size(); ++w)
            rows.push_back(results[idx++].pred);

        auto pct = [](uint64_t part, uint64_t total) {
            return total ? 100.0 * part / total : 0.0;
        };
        const char *labels[4] = {"N/N", "N/Y", "Y/N", "Y/Y"};
        for (int c = 0; c < 4; ++c) {
            t.beginRow();
            t.cell(c == 0 ? variantName(variant) : "");
            t.cell(labels[c]);
            for (auto &b : rows) {
                uint64_t v = c == 0 ? b.nn
                           : c == 1 ? b.ny
                           : c == 2 ? b.yn
                                    : b.yy;
                t.num(pct(v, b.total()), 2);
            }
        }

        for (size_t i = 0; i < rows.size(); ++i) {
            const PredBreakdown &b = rows[i];
            sc.check(pct(b.nn, b.total()) > 55.0,
                     std::string(variantName(variant)) + "/" +
                         names[i] +
                         ": most loads correctly predicted "
                         "independent (N/N)");
            sc.check(pct(b.ny, b.total()) < 5.0,
                     std::string(variantName(variant)) + "/" +
                         names[i] +
                         ": mis-speculations (N/Y) are rare");
        }
    }
    t.print(std::cout);
    std::printf("\n");
    return t;
}
