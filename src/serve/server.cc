#include "serve/server.hh"

#include <memory>
#include <tuple>
#include <utility>

#include "harness/cycle_stats.hh"
#include "harness/experiment.hh"
#include "harness/phase_timer.hh"
#include "harness/sim_stats.hh"

namespace mdp::serve
{

namespace
{

JsonValue
statsJson(const StatGroup &g)
{
    JsonValue obj = JsonValue::object();
    for (const auto &[k, v] : g.all())
        obj.set(k, JsonValue::number(v));
    return obj;
}

/**
 * A finished request's "done" line.  Its --results-dir report is
 * written first, so a client that has read the line can open the
 * file.  Runs on the worker that finished the run.
 */
std::string
doneLine(const Request &req, const StatGroup &stats,
         const std::string &results_dir)
{
    JsonValue doc = JsonValue::object();
    doc.set("id", JsonValue::string(req.id));
    doc.set("status", JsonValue::string("done"));
    doc.set("model", JsonValue::string(req.model));
    doc.set("stats", statsJson(stats));
    if (!results_dir.empty()) {
        const std::string path = results_dir + "/" + req.id + ".json";
        std::string error;
        if (!writeSimReport(path, req.model, req.scale, stats, error))
            doc.set("write_error", JsonValue::string(error));
    }
    return responseLine(doc);
}

std::vector<Response>
collect(const std::function<void(const Sink &)> &produce)
{
    std::vector<Response> out;
    produce([&out](const Response &r) { out.push_back(r); });
    return out;
}

} // namespace

Server::Server(ServeConfig config) : cfg(std::move(config)) {}

std::vector<Response>
Server::handleLine(uint64_t client, const std::string &line)
{
    return collect([&](const Sink &sink) {
        handleLine(client, line, sink);
    });
}

std::vector<Response>
Server::drain()
{
    return collect([this](const Sink &sink) { drain(sink); });
}

void
Server::handleLine(uint64_t client, const std::string &line,
                   const Sink &sink)
{
    std::lock_guard<std::mutex> lock(mtx);

    Message msg = parseMessage(line);
    switch (msg.kind) {
      case MsgKind::Invalid: {
        ++counters.submitted;
        ++counters.rejectedInvalid;
        JsonValue doc = JsonValue::object();
        if (!msg.req.id.empty())
            doc.set("id", JsonValue::string(msg.req.id));
        doc.set("status", JsonValue::string("rejected"));
        doc.set("error", JsonValue::string(msg.error));
        sink({client, responseLine(doc)});
        break;
      }
      case MsgKind::Submit: {
        ++counters.submitted;
        JsonValue doc = JsonValue::object();
        doc.set("id", JsonValue::string(msg.req.id));
        auto known = idState.find(msg.req.id);
        if (known != idState.end()) {
            ++counters.duplicates;
            doc.set("status", JsonValue::string("duplicate"));
            doc.set("completed", JsonValue::boolean(known->second));
        } else if (queue.size() >= cfg.queueCapacity) {
            ++counters.rejectedFull;
            doc.set("status", JsonValue::string("rejected"));
            doc.set("error", JsonValue::string("queue_full"));
        } else {
            ++counters.accepted;
            idState.emplace(msg.req.id, false);
            queue.push_back({std::move(msg.req), client});
            doc.set("status", JsonValue::string("queued"));
            doc.set("depth",
                    JsonValue::number(
                        static_cast<double>(queue.size())));
        }
        sink({client, responseLine(doc)});
        break;
      }
      case MsgKind::Run:
        runQueuedLocked(client, true, sink);
        break;
      case MsgKind::Status: {
        JsonValue doc = JsonValue::object();
        doc.set("status", JsonValue::string("ok"));
        doc.set("queued",
                JsonValue::number(static_cast<double>(queue.size())));
        doc.set("accepted",
                JsonValue::number(
                    static_cast<double>(counters.accepted)));
        doc.set("completed",
                JsonValue::number(
                    static_cast<double>(counters.completed)));
        doc.set("rejected_queue_full",
                JsonValue::number(
                    static_cast<double>(counters.rejectedFull)));
        sink({client, responseLine(doc)});
        break;
      }
      case MsgKind::Shutdown: {
        runQueuedLocked(client, false, sink);
        stopRequested = true;
        JsonValue doc = JsonValue::object();
        doc.set("status", JsonValue::string("bye"));
        sink({client, responseLine(doc)});
        break;
      }
    }
}

void
Server::drain(const Sink &sink)
{
    std::lock_guard<std::mutex> lock(mtx);
    runQueuedLocked(0, false, sink);
}

void
Server::runQueuedLocked(uint64_t run_client, bool emit_summary,
                        const Sink &sink)
{
    std::vector<Pending> batch(queue.begin(), queue.end());
    queue.clear();

    // Group by (workload, scale, seed): one shared context -- one
    // logical trace pass -- per group, built at its first request.
    // Seed-override contexts live in `owned` until the run ends;
    // default-seed contexts come from the process cache.
    using GroupKey = std::tuple<std::string, double, uint64_t>;
    std::map<GroupKey, const WorkloadContext *> groupContext;
    std::vector<std::unique_ptr<WorkloadContext>> owned;

    // One cell per request; its done line streams to the sink as
    // soon as it and every request before it have finished.
    ExperimentRunner<std::string> runner(cfg.jobs);
    for (const Pending &p : batch) {
        const Request &req = p.req;
        auto [it, fresh] = groupContext.emplace(
            GroupKey{req.workload, req.scale, req.seed}, nullptr);
        if (fresh) {
            owned.emplace_back();
            it->second = &specContext(req, owned.back());
            ++counters.groups;
            ++counters.tracePasses;
        }
        ++counters.configsEvaluated;
        const WorkloadContext &ctx = *it->second;
        runner.add([this, &ctx, &req] {
            return doneLine(req, runSpec(ctx, req), cfg.resultsDir);
        });
    }
    runner.runAll([&](size_t i, const std::string &line) {
        sink({batch[i].client, line});
    });
    counters.lockstepRounds += batch.size();

    for (const Pending &p : batch) {
        idState[p.req.id] = true;
        ++counters.completed;
    }

    if (emit_summary) {
        JsonValue doc = JsonValue::object();
        doc.set("status", JsonValue::string("ran"));
        doc.set("completed",
                JsonValue::number(static_cast<double>(batch.size())));
        doc.set("groups",
                JsonValue::number(
                    static_cast<double>(counters.groups)));
        doc.set("trace_passes",
                JsonValue::number(
                    static_cast<double>(counters.tracePasses)));
        doc.set("configs_evaluated",
                JsonValue::number(
                    static_cast<double>(counters.configsEvaluated)));
        doc.set("amortization_factor",
                JsonValue::number(counters.amortization()));
        sink({run_client, responseLine(doc)});
    }
}

bool
Server::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return stopRequested;
}

BatchStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return counters;
}

JsonValue
Server::batchReport(double wall_seconds) const
{
    BatchStats s = stats();

    BenchReport report("mdp_served_batch",
                       "mdp_served batch-server run");
    report.setJobs(cfg.jobs ? cfg.jobs : experimentJobs());
    for (const auto &[phase, seconds] : phaseSeconds())
        report.addTiming(phase, seconds);
    CycleStats cs = cycleStats();
    report.setCycleCounts(cs.cyclesSimulated, cs.cyclesSkipped,
                          cs.stageVisits, cs.stageSlots);

    JsonValue doc = report.toJson();
    JsonValue batch = JsonValue::object();
    batch.set("submitted",
              JsonValue::number(static_cast<double>(s.submitted)));
    batch.set("accepted",
              JsonValue::number(static_cast<double>(s.accepted)));
    batch.set("completed",
              JsonValue::number(static_cast<double>(s.completed)));
    batch.set("duplicates",
              JsonValue::number(static_cast<double>(s.duplicates)));
    batch.set("rejected_queue_full",
              JsonValue::number(static_cast<double>(s.rejectedFull)));
    batch.set("rejected_invalid",
              JsonValue::number(
                  static_cast<double>(s.rejectedInvalid)));
    batch.set("groups",
              JsonValue::number(static_cast<double>(s.groups)));
    batch.set("trace_passes",
              JsonValue::number(static_cast<double>(s.tracePasses)));
    batch.set("configs_evaluated",
              JsonValue::number(
                  static_cast<double>(s.configsEvaluated)));
    batch.set("amortization_factor",
              JsonValue::number(s.amortization()));
    batch.set("lockstep_rounds",
              JsonValue::number(
                  static_cast<double>(s.lockstepRounds)));
    batch.set("wall_seconds", JsonValue::number(wall_seconds));
    batch.set("requests_per_sec",
              JsonValue::number(
                  wall_seconds > 0.0
                      ? static_cast<double>(s.completed) /
                            wall_seconds
                      : 0.0));
    doc.set("serve_batch", std::move(batch));
    return doc;
}

} // namespace mdp::serve
