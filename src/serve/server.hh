/**
 * @file
 * The mdp_served batch-server core, transport-agnostic: feed it
 * protocol lines (from stdin or from Unix-socket clients), get back
 * response lines routed to the originating client.
 *
 * Request lifecycle and backpressure:
 *
 *   submit -> "queued"            (bounded queue has room)
 *          -> "rejected" queue_full  (explicit backpressure; the
 *                                     client retries after a run)
 *          -> "rejected" <error>  (validation failure)
 *          -> "duplicate"         (id already queued or completed --
 *                                  ids are idempotent: a request is
 *                                  never evaluated twice)
 *   {"op":"run"} / drain() -> one "done" line per queued request, in
 *                             submission order, then a "ran" summary.
 *
 * Evaluation groups the queue by (workload, scale, seed); each group
 * shares one WorkloadContext -- one logical trace pass.  Every
 * request is one cell of the sweep engine (harness/experiment.hh),
 * running runSpec() (harness/sim_stats.hh), the same call mdp_sim
 * makes, on its group's context.  The batch counters therefore report
 * trace_passes == number of groups, and the amortization factor
 * configs_evaluated / trace_passes is the one-pass win the
 * serve-integration CI job gates on.
 *
 * Results stream through the engine's in-order completion callback:
 * a request's "done" line reaches the caller's sink as soon as that
 * request and every request submitted before it in the batch have
 * finished, so the line sequence is the same at any worker count and
 * no request waits for those submitted after it.
 *
 * Thread-safety: every public method is serialized by one mutex, so
 * racing clients can submit concurrently while another thread runs or
 * drains the queue (tests/test_serve.cc exercises exactly that under
 * ASan/TSan).
 */

#ifndef MDP_SERVE_SERVER_HH
#define MDP_SERVE_SERVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace mdp::serve
{

struct ServeConfig
{
    size_t queueCapacity = 256;
    unsigned jobs = 0; ///< worker count; 0 = experimentJobs()
    /** When set, write each run's mdp_sim-format JSON report to
     *  <resultsDir>/<id>.json (byte-identical to mdp_sim --json-out). */
    std::string resultsDir;
};

/** Deterministic per-batch counters (everything but wall seconds). */
struct BatchStats
{
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t rejectedFull = 0;
    uint64_t rejectedInvalid = 0;
    uint64_t duplicates = 0;
    uint64_t completed = 0;
    uint64_t groups = 0;
    uint64_t tracePasses = 0;
    uint64_t configsEvaluated = 0;
    /** Runs evaluated; always equal to configsEvaluated. */
    uint64_t lockstepRounds = 0;

    /** Configs evaluated per trace pass (the one-pass sweep win). */
    double
    amortization() const
    {
        return tracePasses ? static_cast<double>(configsEvaluated) /
                                 static_cast<double>(tracePasses)
                           : 0.0;
    }
};

/** One response line addressed to the client that caused it. */
struct Response
{
    uint64_t client = 0;
    std::string line;
};

/**
 * Receives response lines as they become deliverable.  It may be
 * called from worker threads, but never concurrently and always in
 * the order the collecting overloads return, and it must not call
 * back into the Server.
 */
using Sink = std::function<void(const Response &)>;

class Server
{
  public:
    explicit Server(ServeConfig config);

    /**
     * Handle one protocol line from @p client, handing every response
     * to @p sink.  Submission responses go to @p client; a run op
     * additionally streams each queued request's result line,
     * addressed to its own submitter, then the "ran" summary.
     */
    void handleLine(uint64_t client, const std::string &line,
                    const Sink &sink);

    /** handleLine() collecting the responses instead of streaming. */
    std::vector<Response> handleLine(uint64_t client,
                                     const std::string &line);

    /**
     * Evaluate everything still queued (SIGTERM / EOF drain): every
     * accepted request streams exactly one "done" line to its
     * submitter, never a duplicate.
     */
    void drain(const Sink &sink);

    /** drain() collecting the responses instead of streaming. */
    std::vector<Response> drain();

    /** A client sent {"op":"shutdown"}; the transport should drain
     *  (already done by handleLine), flush, and exit. */
    bool shutdownRequested() const;

    BatchStats stats() const;

    /**
     * The batch-level report: the standard BenchReport envelope
     * (phase_seconds, cycle_stats) plus a "serve_batch" section with
     * the queue/evaluation counters, @p wall_seconds and the derived
     * requests_per_sec.
     */
    JsonValue batchReport(double wall_seconds) const;

  private:
    struct Pending
    {
        Request req;
        uint64_t client = 0;
    };

    void runQueuedLocked(uint64_t run_client, bool emit_summary,
                         const Sink &sink);

    ServeConfig cfg;

    mutable std::mutex mtx;
    std::deque<Pending> queue;
    /** id -> completed?  Present from acceptance on (idempotency). */
    std::map<std::string, bool> idState;
    BatchStats counters;
    bool stopRequested = false;
};

} // namespace mdp::serve

#endif // MDP_SERVE_SERVER_HH
