/**
 * @file
 * mdp_trace: build and audit the persistent trace-artifact cache.
 *
 *   mdp_trace build  [--dir D] [--scale S] [--workloads a,b|all] [--jobs N]
 *   mdp_trace ls     [--dir D]
 *   mdp_trace verify [--dir D]
 *   mdp_trace rm     [--dir D] (--all | workload...)
 *
 * `build` populates the cache with the exact entries experiment runs
 * look up (same key derivation as the harness), so CI can prebuild a
 * cache once and every matrix cell starts warm.  `verify` maps and
 * checksums every entry and replays the full trace validation,
 * exiting nonzero on any damage -- run it before trusting a restored
 * cache.  All commands default the directory to MDP_TRACE_CACHE.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "base/args.hh"
#include "base/env.hh"
#include "base/logging.hh"
#include "harness/experiment.hh"
#include "trace/cache.hh"
#include "workloads/suites.hh"

using namespace mdp;

namespace
{

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::string
humanBytes(uint64_t bytes)
{
    char buf[32];
    if (bytes >= 1024 * 1024)
        std::snprintf(buf, sizeof(buf), "%.1fM",
                      static_cast<double>(bytes) / (1024.0 * 1024.0));
    else
        std::snprintf(buf, sizeof(buf), "%.1fK",
                      static_cast<double>(bytes) / 1024.0);
    return buf;
}

int
cmdBuild(const TraceCache &cache, const std::string &workloads_csv,
         double scale, unsigned jobs)
{
    std::vector<std::string> names = workloads_csv == "all"
        ? allWorkloadNames()
        : splitList(workloads_csv);
    for (const auto &n : names) {
        if (!hasWorkload(n))
            mdp_fatal("unknown workload '%s'", n.c_str());
    }

    // One engine cell per workload: 0 fresh, 1 hit, 2 fail.
    ExperimentRunner<int> runner(jobs);
    for (const auto &name : names) {
        runner.add([&cache, &name, scale] {
            const Workload &w = findWorkload(name);
            const TraceCacheKey key = workloadTraceKey(w, scale);
            if (cache.load(key))
                return 1;
            Trace trace = w.generate(scale);
            return cache.store(key, trace) ? 0 : 2;
        });
    }
    const std::vector<int> outcome = runner.runAll();

    size_t built = 0, reused = 0, failed = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        const char *what = outcome[i] == 0 ? "built"
                         : outcome[i] == 1 ? "cached"
                                           : "FAILED";
        std::printf("%-8s %s\n", what, names[i].c_str());
        (outcome[i] == 0 ? built
         : outcome[i] == 1 ? reused
                           : failed)++;
    }
    std::printf("%zu built, %zu already cached, %zu failed (scale "
                "%.3g) in %s\n",
                built, reused, failed, scale, cache.dir().c_str());
    return failed ? 1 : 0;
}

int
cmdList(const TraceCache &cache, bool deep)
{
    auto entries = cache.list(deep);
    size_t bad = 0;
    uint64_t total_bytes = 0;
    for (const auto &e : entries) {
        if (e.ok) {
            std::printf("%-14s %10llu ops %8s  %s\n",
                        e.workload.c_str(),
                        static_cast<unsigned long long>(e.ops),
                        humanBytes(e.bytes).c_str(), e.path.c_str());
        } else {
            ++bad;
            std::printf("%-14s BAD (%s)  %s\n", e.workload.c_str(),
                        e.error.c_str(), e.path.c_str());
        }
        total_bytes += e.bytes;
    }
    std::printf("%zu entries, %s total%s in %s\n", entries.size(),
                humanBytes(total_bytes).c_str(),
                deep ? (bad ? ", VERIFY FAILED" : ", all verified")
                     : "",
                cache.dir().c_str());
    return bad ? 1 : 0;
}

int
cmdRemove(const TraceCache &cache, bool all,
          const std::vector<std::string> &names)
{
    if (all) {
        size_t n = cache.removeAll();
        std::printf("removed %zu entries from %s\n", n,
                    cache.dir().c_str());
        return 0;
    }
    if (names.empty())
        mdp_fatal("rm: name one or more workloads, or pass --all");
    size_t removed = 0;
    for (const auto &e : cache.list(false)) {
        for (const auto &n : names) {
            if (e.workload != n)
                continue;
            if (std::remove(e.path.c_str()) == 0)
                ++removed;
        }
    }
    std::printf("removed %zu entries from %s\n", removed,
                cache.dir().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("mdp_trace");
    args.addPositional("command", "build | ls | verify | rm");
    args.addPositional("workload...", "workloads to remove (rm)");
    args.addFlag("help", "show this help");
    args.addOption("dir", "", "cache directory (default: "
                              "MDP_TRACE_CACHE)");
    args.addOption("scale", "0.25",
                   "trace scale to prebuild (build)");
    args.addOption("workloads", "all",
                   "comma-separated workload names, or 'all' (build)");
    args.addOption("jobs", "0",
                   "parallel build workers (0 = hardware)");
    args.addFlag("all", "rm: remove every entry");

    if (!args.parse(argc, argv)) {
        std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                     args.usage().c_str());
        return 2;
    }
    if (args.flag("help") || args.positionals().empty()) {
        std::printf("%s", args.usage().c_str());
        return args.flag("help") ? 0 : 2;
    }

    std::string dir = args.get("dir");
    if (dir.empty())
        dir = envString("MDP_TRACE_CACHE", "");
    if (dir.empty())
        mdp_fatal("no cache directory: pass --dir or set "
                  "MDP_TRACE_CACHE");
    TraceCache cache(dir);

    const std::string &cmd = args.positionals()[0];
    std::vector<std::string> rest(args.positionals().begin() + 1,
                                  args.positionals().end());

    if (cmd == "build")
        return cmdBuild(cache, args.get("workloads"),
                        args.getDouble("scale"),
                        static_cast<unsigned>(args.getLong("jobs")));
    if (cmd == "ls")
        return cmdList(cache, false);
    if (cmd == "verify")
        return cmdList(cache, true);
    if (cmd == "rm")
        return cmdRemove(cache, args.flag("all"), rest);

    mdp_fatal("unknown command '%s' (build | ls | verify | rm)",
              cmd.c_str());
}
