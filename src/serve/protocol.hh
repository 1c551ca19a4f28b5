/**
 * @file
 * The mdp_served wire protocol: line-delimited JSON, one message per
 * line, identical over stdin and over the Unix-domain socket.
 *
 * Client -> server messages are either an experiment *request*:
 *
 *   {"id": "r1", "workload": "espresso", "scale": 0.1,
 *    "model": "multiscalar", "policy": "sync", "stages": 8,
 *    "entries": 64, "org": "combined", "tags": "distance",
 *    "window": 64, "preload": false, "seed": 0}
 *
 * (id and workload are required, everything else defaults as above)
 * or a *control operation*:
 *
 *   {"op": "run"}       evaluate everything queued, stream results
 *   {"op": "status"}    queue/completion counters
 *   {"op": "shutdown"}  drain (run queued), respond, close
 *
 * Validation here is strict and total: unlike the CLI parsers (which
 * call mdp_fatal), a malformed line must never take the server down.
 * Unknown fields, wrong types, out-of-range values, oversized lines
 * and unregistered workloads all come back as structured errors.
 * Values get mdp_sim's checks (checkRunSpec) plus the serve-only caps
 * scale <= 4, stages <= 64, entries <= 65536 and window <= 4096.
 */

#ifndef MDP_SERVE_PROTOCOL_HH
#define MDP_SERVE_PROTOCOL_HH

#include <cstddef>
#include <string>

#include "harness/report.hh"
#include "harness/sim_stats.hh"

namespace mdp::serve
{

/** Hard cap on one protocol line; longer lines are rejected whole. */
constexpr size_t kMaxRequestBytes = 64 * 1024;

/** Longest accepted request id. */
constexpr size_t kMaxIdBytes = 128;

/** A validated experiment request: an id naming one checked run. */
struct Request : RunSpec
{
    std::string id;
};

/** What one protocol line meant. */
enum class MsgKind
{
    Submit,   ///< a validated Request
    Run,      ///< {"op":"run"}
    Status,   ///< {"op":"status"}
    Shutdown, ///< {"op":"shutdown"}
    Invalid,  ///< rejected; error says why, req.id may be set
};

struct Message
{
    MsgKind kind = MsgKind::Invalid;
    Request req;
    std::string error;
};

/** Parse and validate one protocol line. */
Message parseMessage(const std::string &line);

/** Serialize a response document as one compact protocol line. */
std::string responseLine(const JsonValue &doc);

} // namespace mdp::serve

#endif // MDP_SERVE_PROTOCOL_HH
