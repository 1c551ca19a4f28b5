#include "serve/protocol.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace mdp::serve
{

namespace
{

bool
validIdChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
           c == '_' || c == '-' || c == ':';
}

/** Extract a non-negative integral number; false on any mismatch. */
bool
asUint(const JsonValue &v, uint64_t max, uint64_t &out)
{
    if (v.kind() != JsonValue::Kind::Number)
        return false;
    double d = v.asNumber();
    if (!(d >= 0) || d != std::floor(d) ||
        d > static_cast<double>(max))
        return false;
    out = static_cast<uint64_t>(d);
    return true;
}

Message
invalid(std::string error, std::string id = "")
{
    Message m;
    m.kind = MsgKind::Invalid;
    m.error = std::move(error);
    m.req.id = std::move(id);
    return m;
}

Message
parseControl(const JsonValue &doc)
{
    const JsonValue &op = doc.get("op");
    if (op.kind() != JsonValue::Kind::String)
        return invalid("'op' must be a string");
    for (const auto &[key, value] : doc.members()) {
        if (key != "op")
            return invalid("unknown field '" + key +
                           "' in control message");
    }
    Message m;
    if (op.asString() == "run")
        m.kind = MsgKind::Run;
    else if (op.asString() == "status")
        m.kind = MsgKind::Status;
    else if (op.asString() == "shutdown")
        m.kind = MsgKind::Shutdown;
    else
        return invalid("unknown op '" + op.asString() +
                       "' (run|status|shutdown)");
    return m;
}

} // namespace

Message
parseMessage(const std::string &line)
{
    if (line.size() > kMaxRequestBytes)
        return invalid("oversized_request: line exceeds " +
                       std::to_string(kMaxRequestBytes) + " bytes");

    JsonValue doc;
    std::string error;
    if (!JsonValue::parse(line, doc, error))
        return invalid("malformed_json: " + error);
    if (doc.kind() != JsonValue::Kind::Object)
        return invalid("malformed_json: top level is not an object");

    if (doc.has("op"))
        return parseControl(doc);

    Request req;
    bool have_id = false;
    bool have_workload = false;

    // The id is validated first so later errors can carry it.
    if (doc.has("id")) {
        const JsonValue &v = doc.get("id");
        if (v.kind() != JsonValue::Kind::String)
            return invalid("'id' must be a string");
        req.id = v.asString();
        if (req.id.empty() || req.id.size() > kMaxIdBytes ||
            !std::all_of(req.id.begin(), req.id.end(), validIdChar))
            return invalid(
                "'id' must be 1.." + std::to_string(kMaxIdBytes) +
                " characters from [A-Za-z0-9._:-]");
        have_id = true;
    }

    for (const auto &[key, value] : doc.members()) {
        // Names are checked by checkRunSpec below; here only types.
        std::string *name = key == "workload" ? &req.workload
                            : key == "model"  ? &req.model
                            : key == "policy" ? &req.policy
                            : key == "org"    ? &req.org
                            : key == "tags"   ? &req.tags
                                              : nullptr;
        if (key == "id") {
            continue;
        } else if (name) {
            if (value.kind() != JsonValue::Kind::String)
                return invalid("'" + key + "' must be a string", req.id);
            *name = value.asString();
            have_workload |= key == "workload";
        } else if (key == "scale") {
            if (value.kind() != JsonValue::Kind::Number)
                return invalid("'scale' must be a number", req.id);
            req.scale = value.asNumber();
            if (!(req.scale > 0.0) || req.scale > 4.0)
                return invalid("'scale' must be in (0, 4]", req.id);
        } else if (key == "stages") {
            uint64_t n = 0;
            if (!asUint(value, 64, n) || n == 0)
                return invalid("'stages' must be an integer in 1..64",
                               req.id);
            req.stages = static_cast<unsigned>(n);
        } else if (key == "entries") {
            uint64_t n = 0;
            if (!asUint(value, 65536, n) || n == 0)
                return invalid(
                    "'entries' must be an integer in 1..65536",
                    req.id);
            req.entries = static_cast<size_t>(n);
        } else if (key == "window") {
            uint64_t n = 0;
            if (!asUint(value, 4096, n) || n == 0)
                return invalid(
                    "'window' must be an integer in 1..4096", req.id);
            req.window = static_cast<unsigned>(n);
        } else if (key == "preload") {
            if (value.kind() != JsonValue::Kind::Bool)
                return invalid("'preload' must be a boolean", req.id);
            req.preload = value.asBool();
        } else if (key == "seed") {
            uint64_t n = 0;
            if (!asUint(value, (1ULL << 53), n))
                return invalid("'seed' must be a non-negative integer",
                               req.id);
            req.seed = n;
        } else {
            return invalid("unknown field '" + key + "'", req.id);
        }
    }

    if (!have_id)
        return invalid("missing required field 'id'");
    if (!have_workload)
        return invalid("missing required field 'workload'", req.id);
    if (std::string error = checkRunSpec(req); !error.empty())
        return invalid(error, req.id);

    Message m;
    m.kind = MsgKind::Submit;
    m.req = std::move(req);
    return m;
}

std::string
responseLine(const JsonValue &doc)
{
    return doc.dump(0) + "\n";
}

} // namespace mdp::serve
