/**
 * @file
 * mdp_tables -- prints the paper's tables and figures.
 *
 * Usage: mdp_tables <table>... | all | --list
 *
 * Runs the named tables in order (`all`: every table, in the order
 * `--list` prints) and exits 1 when any of them fails a shape check or
 * hits the cycle cap.  Each table prints its banner, rows and shape
 * checks to stdout, and with MDP_JSON_OUT=<dir> writes
 * <dir>/<table>.json.  Cells shared between tables are simulated once
 * per process (harness/experiment.hh); the closing `cells:` lines on
 * stderr count the memoized cells requested and actually run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace mdp;

// The table bodies, one per bench/bench_<name>.cc.
TableFn table1Instcounts, table3WindowDeps, table4StaticDeps,
    table5DdcWindow, table6MsMisspec, table7MsDdc, fig5Policies,
    table8PredBreakdown, table9MisspecRate, fig6Mechanism, fig7Spec95,
    ablationTableSize, ablationPredictor, ablationTagging, ablationOoo,
    ablationDistributed, ablationVsync, ablationWarmstart, ablationZoo,
    manycoreScaling;

namespace
{

/** Every table, in the paper's order; `all` runs them in this order. */
const Table kTables[] = {
    {"table1_instcounts", "Table 1: dynamic instruction counts",
     "Moshovos et al., ISCA'97, Table 1", table1Instcounts},
    {"table3_window_deps",
     "Table 3: mis-speculations vs window size (unrealistic OoO)",
     "Moshovos et al., ISCA'97, Table 3", table3WindowDeps},
    {"table4_static_deps",
     "Table 4: static deps covering 99.9% of mis-speculations",
     "Moshovos et al., ISCA'97, Table 4", table4StaticDeps},
    {"table5_ddc_window",
     "Table 5: DDC miss rate vs window size and DDC size",
     "Moshovos et al., ISCA'97, Table 5", table5DdcWindow},
    {"table6_ms_misspec",
     "Table 6: Multiscalar mis-speculations (blind speculation)",
     "Moshovos et al., ISCA'97, Table 6", table6MsMisspec},
    {"table7_ms_ddc", "Table 7: 8-stage Multiscalar DDC miss rates",
     "Moshovos et al., ISCA'97, Table 7", table7MsDdc},
    {"fig5_policies", "Figure 5: speculation-policy comparison",
     "Moshovos et al., ISCA'97, Figure 5", fig5Policies},
    {"table8_pred_breakdown",
     "Table 8: dependence-prediction breakdown (%)",
     "Moshovos et al., ISCA'97, Table 8", table8PredBreakdown},
    {"table9_misspec_rate", "Table 9: mis-speculations per committed load",
     "Moshovos et al., ISCA'97, Table 9", table9MisspecRate},
    {"fig6_mechanism",
     "Figure 6: mechanism speedup over blind speculation (SPECint92)",
     "Moshovos et al., ISCA'97, Figure 6", fig6Mechanism},
    {"fig7_spec95", "Figure 7: SPEC95 mechanism evaluation (8 stages)",
     "Moshovos et al., ISCA'97, Figure 7", fig7Spec95},
    {"ablation_table_size",
     "Ablation A1: prediction-table capacity sweep (8 stages)",
     "Moshovos et al., ISCA'97, sections 5.5/6 (capacity remedy)",
     ablationTableSize},
    {"ablation_predictor",
     "Ablation A2: predictor update-policy sweep (8 stages)",
     "Moshovos et al., ISCA'97, section 4.4.1", ablationPredictor},
    {"ablation_tagging",
     "Ablation A3: tagging scheme and table organization "
     "(8 stages, SYNC)",
     "Moshovos et al., ISCA'97, sections 3, 4, 5.5", ablationTagging},
    {"ablation_ooo", "Ablation A4: superscalar continuous-window model",
     "Moshovos et al., ISCA'97, section 6 (other models)", ablationOoo},
    {"ablation_distributed",
     "Ablation A5: centralized vs distributed organization "
     "(8 stages, ESYNC)",
     "Moshovos et al., ISCA'97, section 4.4.5", ablationDistributed},
    {"ablation_vsync",
     "Ablation A6: value-prediction hybrid vs synchronization "
     "(8 stages)",
     "Moshovos et al., ISCA'97, section 6 (future work)", ablationVsync},
    {"ablation_warmstart",
     "Ablation A7: compiler-exposed (preloaded) dependences "
     "(8 stages, ESYNC)",
     "Moshovos et al., ISCA'97, section 6 (ISA extensions)",
     ablationWarmstart},
    {"ablation_zoo",
     "Predictor zoo: paper policies vs descendants (8 stages)",
     "Moshovos et al., ISCA'97 policies + store-set/counter/"
     "value descendants",
     ablationZoo},
    {"manycore_scaling", "Manycore scaling: ring vs mesh, 8..1024 PEs",
     "Moshovos et al., ISCA'97, scaled beyond Table 2", manycoreScaling},
};

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args == std::vector<std::string>{"--list"}) {
        for (const Table &t : kTables)
            std::printf("%s\n", t.name);
        return 0;
    }
    std::vector<const Table *> chosen;
    for (const std::string &arg : args) {
        const size_t before = chosen.size();
        for (const Table &t : kTables)
            if (arg == "all" || arg == t.name)
                chosen.push_back(&t);
        if (chosen.size() == before) {
            std::fprintf(stderr, "unknown table '%s'\n", arg.c_str());
            chosen.clear();
            break;
        }
    }
    if (chosen.empty()) {
        std::fprintf(stderr,
                     "usage: mdp_tables <table>... | all | --list\n");
        return 2;
    }

    int status = 0;
    for (const Table *t : chosen)
        status |= runTable(*t);
    std::fprintf(stderr,
                 "cells: %zu queued, %zu simulated (Multiscalar)\n"
                 "cells: %zu queued, %zu simulated (window study)\n",
                 multiscalarMemo().queued.load(),
                 multiscalarMemo().simulated.load(),
                 windowMemo().queued.load(), windowMemo().simulated.load());
    return status;
}
