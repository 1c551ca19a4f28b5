/**
 * @file
 * The mdp_served protocol and server core, and the byte-identity of
 * its reports to the shared run path.
 *
 * Protocol: every malformed input (bad JSON, wrong shapes, unknown
 * fields, oversized lines, out-of-range values) must come back as a
 * structured rejection, never terminate the process.  Server: bounded
 * queue backpressure, idempotent duplicate ids, submission-order
 * results, drain semantics, and thread-safety under racing writers
 * (this binary runs in the ASan and TSan CI jobs).  Streaming: the
 * sink sees exactly the collecting path's lines, in submission order,
 * each as its run finishes, with its report already on disk.
 * Reports: every --results-dir file is byte-identical to the shared
 * runSpec() + writeSimReport() path mdp_sim takes, across models,
 * organizations, tag schemes, preload and seeds.
 * Lockstep: the specs of one group run back to back over one shared
 * context and are identical to running each configuration alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sim_stats.hh"
#include "mdp/dep_policy.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace mdp
{
namespace
{

using serve::Message;
using serve::MsgKind;
using serve::parseMessage;
using serve::Request;
using serve::Response;
using serve::ServeConfig;
using serve::Server;

// Small but non-trivial shared context for the evaluation tests.
constexpr double kScale = 0.02;

JsonValue
parseLine(const std::string &line)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(line, doc, error)) << error;
    return doc;
}

std::string
submitLine(const std::string &id, const std::string &extra = "")
{
    return "{\"id\":\"" + id +
           "\",\"workload\":\"espresso\",\"scale\":0.02" +
           (extra.empty() ? "" : "," + extra) + "}";
}

/** The request id "<prefix><n>", built by appending. */
std::string
idOf(char prefix, size_t n)
{
    std::string id(1, prefix);
    id += std::to_string(n);
    return id;
}

// ---- protocol --------------------------------------------------------

TEST(Protocol, MalformedJsonRejected)
{
    Message m = parseMessage("{not json");
    EXPECT_EQ(m.kind, MsgKind::Invalid);
    EXPECT_NE(m.error.find("malformed_json"), std::string::npos);
}

TEST(Protocol, NonObjectRejected)
{
    EXPECT_EQ(parseMessage("[1,2,3]").kind, MsgKind::Invalid);
    EXPECT_EQ(parseMessage("42").kind, MsgKind::Invalid);
    EXPECT_EQ(parseMessage("\"hi\"").kind, MsgKind::Invalid);
}

TEST(Protocol, OversizedLineRejected)
{
    std::string big(serve::kMaxRequestBytes + 1, 'x');
    Message m = parseMessage(big);
    EXPECT_EQ(m.kind, MsgKind::Invalid);
    EXPECT_NE(m.error.find("oversized_request"), std::string::npos);
}

TEST(Protocol, UnknownFieldRejected)
{
    Message m = parseMessage(submitLine("r1", "\"bogus\":1"));
    EXPECT_EQ(m.kind, MsgKind::Invalid);
    EXPECT_NE(m.error.find("unknown field 'bogus'"),
              std::string::npos);
    // The validated id still rides along for the error response.
    EXPECT_EQ(m.req.id, "r1");
}

TEST(Protocol, MissingRequiredFields)
{
    EXPECT_EQ(parseMessage("{\"workload\":\"espresso\"}").kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage("{\"id\":\"r1\"}").kind, MsgKind::Invalid);
}

TEST(Protocol, BadValuesRejected)
{
    // Unregistered workload.
    EXPECT_EQ(
        parseMessage("{\"id\":\"x\",\"workload\":\"nonesuch\"}").kind,
        MsgKind::Invalid);
    // Type and range violations on each constrained field.
    EXPECT_EQ(parseMessage(submitLine("x", "\"scale\":0")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"scale\":\"big\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"stages\":0")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"stages\":65")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"stages\":2.5")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"policy\":\"yolo\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"model\":\"window\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"org\":\"huh\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"tags\":\"huh\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"preload\":1")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"seed\":-1")).kind,
              MsgKind::Invalid);
    // Bad ids: empty, over-long, invalid characters.
    EXPECT_EQ(
        parseMessage("{\"id\":\"\",\"workload\":\"espresso\"}").kind,
        MsgKind::Invalid);
    EXPECT_EQ(parseMessage("{\"id\":\"has space\","
                           "\"workload\":\"espresso\"}")
                  .kind,
              MsgKind::Invalid);
    std::string longid(serve::kMaxIdBytes + 1, 'a');
    EXPECT_EQ(parseMessage("{\"id\":\"" + longid +
                           "\",\"workload\":\"espresso\"}")
                  .kind,
              MsgKind::Invalid);
}

TEST(Protocol, ValidSubmitCarriesDefaults)
{
    Message m = parseMessage(submitLine("fig5-8-sync",
                                        "\"policy\":\"sync\","
                                        "\"stages\":4"));
    ASSERT_EQ(m.kind, MsgKind::Submit);
    EXPECT_EQ(m.req.id, "fig5-8-sync");
    EXPECT_EQ(m.req.workload, "espresso");
    EXPECT_DOUBLE_EQ(m.req.scale, 0.02);
    EXPECT_EQ(m.req.policy, "sync");
    EXPECT_EQ(m.req.stages, 4u);
    // Unspecified fields keep mdp_sim's defaults.
    EXPECT_EQ(m.req.model, "multiscalar");
    EXPECT_EQ(m.req.entries, 64u);
    EXPECT_EQ(m.req.org, "combined");
    EXPECT_EQ(m.req.tags, "distance");
    EXPECT_EQ(m.req.seed, 0u);
    EXPECT_FALSE(m.req.preload);
}

TEST(Protocol, ControlOps)
{
    EXPECT_EQ(parseMessage("{\"op\":\"run\"}").kind, MsgKind::Run);
    EXPECT_EQ(parseMessage("{\"op\":\"status\"}").kind,
              MsgKind::Status);
    EXPECT_EQ(parseMessage("{\"op\":\"shutdown\"}").kind,
              MsgKind::Shutdown);
    EXPECT_EQ(parseMessage("{\"op\":\"dance\"}").kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage("{\"op\":\"run\",\"x\":1}").kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage("{\"op\":7}").kind, MsgKind::Invalid);
}

// ---- server ---------------------------------------------------------

ServeConfig
smallConfig(size_t cap = 64)
{
    ServeConfig cfg;
    cfg.queueCapacity = cap;
    cfg.jobs = 2;
    return cfg;
}

TEST(Server, QueueFullBackpressure)
{
    Server server(smallConfig(2));
    auto r1 = server.handleLine(1, submitLine("a"));
    auto r2 = server.handleLine(1, submitLine("b"));
    auto r3 = server.handleLine(1, submitLine("c"));
    ASSERT_EQ(r1.size(), 1u);
    EXPECT_EQ(parseLine(r1[0].line).get("status").asString(),
              "queued");
    EXPECT_EQ(parseLine(r2[0].line).get("status").asString(),
              "queued");
    JsonValue rej = parseLine(r3[0].line);
    EXPECT_EQ(rej.get("status").asString(), "rejected");
    EXPECT_EQ(rej.get("error").asString(), "queue_full");

    // After a run frees the queue, the same id is accepted.
    server.handleLine(1, "{\"op\":\"run\"}");
    auto r4 = server.handleLine(1, submitLine("c"));
    EXPECT_EQ(parseLine(r4[0].line).get("status").asString(),
              "queued");

    serve::BatchStats s = server.stats();
    EXPECT_EQ(s.rejectedFull, 1u);
    EXPECT_EQ(s.accepted, 3u);
}

TEST(Server, DuplicateIdsAreIdempotent)
{
    Server server(smallConfig());
    server.handleLine(1, submitLine("dup"));
    auto queued_again = server.handleLine(1, submitLine("dup"));
    JsonValue d1 = parseLine(queued_again[0].line);
    EXPECT_EQ(d1.get("status").asString(), "duplicate");
    EXPECT_FALSE(d1.get("completed").asBool());

    auto ran = server.handleLine(1, "{\"op\":\"run\"}");
    // One result for the single accepted instance + the summary.
    ASSERT_EQ(ran.size(), 2u);
    EXPECT_EQ(parseLine(ran[0].line).get("id").asString(), "dup");

    auto after = server.handleLine(1, submitLine("dup"));
    JsonValue d2 = parseLine(after[0].line);
    EXPECT_EQ(d2.get("status").asString(), "duplicate");
    EXPECT_TRUE(d2.get("completed").asBool());

    serve::BatchStats s = server.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.duplicates, 2u);
}

TEST(Server, InvalidLinesAreRejectedNotFatal)
{
    Server server(smallConfig());
    for (const char *bad :
         {"", "{", "[1]", "{\"op\":\"nope\"}",
          "{\"id\":\"x\",\"workload\":\"espresso\",\"hm\":3}"}) {
        auto out = server.handleLine(1, bad);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(parseLine(out[0].line).get("status").asString(),
                  "rejected");
    }
    EXPECT_EQ(server.stats().rejectedInvalid, 5u);
}

TEST(Server, RunGroupsIntoOnePassAndPreservesOrder)
{
    Server server(smallConfig());
    std::vector<std::string> ids;
    for (const char *pol : {"never", "always", "wait", "psync"}) {
        for (unsigned stages : {4u, 8u}) {
            std::string id =
                "fig5-" + std::to_string(stages) + "-" + pol;
            ids.push_back(id);
            std::string line = submitLine(
                id, "\"policy\":\"" + std::string(pol) +
                        "\",\"stages\":" + std::to_string(stages));
            auto out = server.handleLine(7, line);
            ASSERT_EQ(parseLine(out[0].line).get("status").asString(),
                      "queued");
        }
    }

    auto out = server.handleLine(9, "{\"op\":\"run\"}");
    ASSERT_EQ(out.size(), ids.size() + 1);
    for (size_t i = 0; i < ids.size(); ++i) {
        JsonValue doc = parseLine(out[i].line);
        EXPECT_EQ(doc.get("id").asString(), ids[i]);
        EXPECT_EQ(doc.get("status").asString(), "done");
        // Results go back to the submitting client, the summary to
        // the client that issued the run.
        EXPECT_EQ(out[i].client, 7u);
        EXPECT_GT(doc.get("stats").get("cycles").asNumber(), 0.0);
    }
    JsonValue summary = parseLine(out.back().line);
    EXPECT_EQ(out.back().client, 9u);
    EXPECT_EQ(summary.get("status").asString(), "ran");
    EXPECT_EQ(summary.get("trace_passes").asNumber(), 1.0);
    EXPECT_EQ(summary.get("configs_evaluated").asNumber(), 8.0);
    EXPECT_EQ(summary.get("amortization_factor").asNumber(), 8.0);

    // Multiscalar runs count stage visits, and the batch report
    // carries them with the cycle counts.
    const JsonValue cycles =
        server.batchReport(1.0).get("cycle_stats");
    for (const char *key :
         {"cycles_simulated", "stage_visits", "stage_slots",
          "stage_occupancy"}) {
        ASSERT_TRUE(cycles.has(key)) << key;
        EXPECT_GT(cycles.get(key).asNumber(), 0.0) << key;
    }
    EXPECT_LE(cycles.get("stage_occupancy").asNumber(), 1.0);
}

TEST(Server, ResultsMatchSharedReportWriter)
{
    // The server's "done" stats must be the shared sim_stats values
    // (what mdp_sim prints and what --results-dir files contain).
    Server server(smallConfig());
    server.handleLine(1, submitLine("check", "\"policy\":\"esync\","
                                             "\"stages\":8"));
    auto out = server.handleLine(1, "{\"op\":\"run\"}");
    ASSERT_EQ(out.size(), 2u);
    JsonValue stats = parseLine(out[0].line).get("stats");

    const WorkloadContext &ctx = cachedContext("espresso", kScale);
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, "esync");
    SimResult ref = runMultiscalar(ctx, cfg);
    StatGroup g = multiscalarStats(ref);
    for (const auto &[name, value] : g.all()) {
        ASSERT_TRUE(stats.has(name)) << name;
        EXPECT_DOUBLE_EQ(stats.get(name).asNumber(), value) << name;
    }
}

namespace fs = std::filesystem;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(Server, ResultsDirMatchesSharedRunForEverySpec)
{
    // Both models, all three organizations, both tag schemes, preload
    // and a non-zero seed: each served report must be the bytes
    // mdp_sim writes for the same spec.
    const std::string dir = testing::TempDir() + "/mdp_serve_specs";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::vector<std::string> extras = {
        "\"org\":\"split\",\"policy\":\"sync\"",
        "\"org\":\"distributed\",\"tags\":\"address\"",
        "\"tags\":\"address\",\"preload\":true,\"stages\":4",
        "\"seed\":7,\"policy\":\"psync\",\"entries\":16",
        "\"model\":\"ooo\",\"org\":\"split\",\"window\":32",
        "\"model\":\"ooo\",\"org\":\"distributed\","
        "\"tags\":\"address\",\"policy\":\"sync\"",
        "\"model\":\"ooo\",\"seed\":7,\"policy\":\"esync\"",
    };
    ServeConfig cfg = smallConfig();
    cfg.resultsDir = dir;
    Server server(cfg);
    std::vector<Request> specs;
    for (size_t i = 0; i < extras.size(); ++i) {
        const std::string line =
            submitLine("s" + std::to_string(i), extras[i]);
        const Message m = parseMessage(line);
        ASSERT_EQ(m.kind, MsgKind::Submit) << m.error;
        specs.push_back(m.req);
        server.handleLine(1, line);
    }
    server.handleLine(1, "{\"op\":\"run\"}");

    for (const Request &spec : specs) {
        std::unique_ptr<WorkloadContext> owned;
        const StatGroup stats =
            runSpec(specContext(spec, owned), spec);
        const std::string want = dir + "/" + spec.id + ".cli.json";
        std::string error;
        ASSERT_TRUE(writeSimReport(want, spec.model, spec.scale, stats,
                                   error))
            << error;
        EXPECT_EQ(readFile(dir + "/" + spec.id + ".json"),
                  readFile(want))
            << spec.id;
    }
    fs::remove_all(dir);
}

// ---- lockstep ---------------------------------------------------------
//
// A run op evaluates every queued spec of one (workload, scale, seed)
// group back to back over one shared context, sharded across the
// pool.  Each result must equal the same configuration run alone.

/** Submit one request per @p extras entry, run them as one batch and
 *  return each request's "done" stats, in submission order. */
std::vector<JsonValue>
runOneBatch(const std::vector<std::string> &extras)
{
    Server server(smallConfig());
    for (size_t i = 0; i < extras.size(); ++i)
        server.handleLine(1, submitLine(idOf('l', i), extras[i]));
    auto out = server.handleLine(1, "{\"op\":\"run\"}");
    EXPECT_EQ(out.size(), extras.size() + 1);
    EXPECT_EQ(parseLine(out.back().line).get("trace_passes").asNumber(),
              1.0);
    std::vector<JsonValue> got;
    for (size_t i = 0; i + 1 < out.size(); ++i) {
        JsonValue doc = parseLine(out[i].line);
        EXPECT_EQ(doc.get("status").asString(), "done");
        got.push_back(doc.get("stats"));
    }
    return got;
}

void
expectSameStats(const JsonValue &got, const StatGroup &solo)
{
    for (const auto &[name, value] : solo.all()) {
        ASSERT_TRUE(got.has(name)) << name;
        EXPECT_DOUBLE_EQ(got.get(name).asNumber(), value) << name;
    }
}

TEST(Lockstep, ByteIdenticalToSequentialRuns)
{
    const WorkloadContext &ctx = cachedContext("espresso", kScale);
    std::vector<std::string> extras;
    std::vector<StatGroup> solo;
    for (unsigned stages : {4u, 8u}) {
        for (const std::string &p : dependencePolicyNames()) {
            extras.push_back("\"policy\":\"" + p +
                             "\",\"stages\":" + std::to_string(stages));
            solo.push_back(multiscalarStats(
                runMultiscalar(ctx, makeMultiscalarConfig(ctx, stages, p))));
        }
    }

    // Runs of one shard follow each other on one context; none may
    // see another's state.
    const std::vector<JsonValue> got = runOneBatch(extras);
    ASSERT_EQ(got.size(), solo.size());
    for (size_t i = 0; i < solo.size(); ++i) {
        SCOPED_TRACE(extras[i]);
        expectSameStats(got[i], solo[i]);
    }
}

TEST(Lockstep, OooLanesMatchSequential)
{
    const WorkloadContext &ctx = cachedContext("espresso", kScale);
    const RunSpec defaults;
    std::vector<std::string> extras;
    std::vector<StatGroup> solo;
    for (const char *p : {"always", "sync", "never"}) {
        extras.push_back("\"model\":\"ooo\",\"policy\":\"" +
                         std::string(p) + "\"");
        OooConfig cfg;
        cfg.windowSize = defaults.window;
        cfg.sync.numEntries = defaults.entries;
        cfg.policyName = p;
        solo.push_back(oooStats(runOoo(ctx, cfg)));
    }
    const std::vector<JsonValue> got = runOneBatch(extras);
    ASSERT_EQ(got.size(), solo.size());
    for (size_t i = 0; i < solo.size(); ++i) {
        SCOPED_TRACE(extras[i]);
        expectSameStats(got[i], solo[i]);
    }
}

TEST(Server, DrainCompletesEverythingExactlyOnce)
{
    Server server(smallConfig());
    server.handleLine(3, submitLine("d1"));
    server.handleLine(4, submitLine("d2", "\"policy\":\"always\""));
    auto out = server.drain();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(parseLine(out[0].line).get("id").asString(), "d1");
    EXPECT_EQ(out[0].client, 3u);
    EXPECT_EQ(parseLine(out[1].line).get("id").asString(), "d2");
    EXPECT_EQ(out[1].client, 4u);
    // A second drain has nothing left -- nothing runs twice.
    EXPECT_TRUE(server.drain().empty());
    EXPECT_EQ(server.stats().completed, 2u);
}

TEST(Server, ShutdownOpDrainsAndSticks)
{
    Server server(smallConfig());
    server.handleLine(1, submitLine("last"));
    EXPECT_FALSE(server.shutdownRequested());
    auto out = server.handleLine(1, "{\"op\":\"shutdown\"}");
    // The queued request's result, then the bye.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(parseLine(out[0].line).get("id").asString(), "last");
    EXPECT_EQ(parseLine(out[1].line).get("status").asString(), "bye");
    EXPECT_TRUE(server.shutdownRequested());
}

TEST(Server, RacingClientsOneServer)
{
    // Multiple writers hammer submissions while a runner repeatedly
    // evaluates; under ASan/TSan this is the data-race probe.  The
    // invariant at the end: every accepted id completed exactly once.
    Server server(smallConfig(1024));
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 24;

    std::vector<std::thread> threads;
    threads.reserve(kWriters + 1);
    std::vector<std::vector<std::string>> accepted(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&server, &accepted, w] {
            for (int i = 0; i < kPerWriter; ++i) {
                std::string id = "race-" + std::to_string(w) + "-" +
                                 std::to_string(i);
                auto out = server.handleLine(
                    static_cast<uint64_t>(w + 1),
                    submitLine(id, "\"policy\":\"sync\","
                                   "\"stages\":4"));
                JsonValue doc;
                std::string error;
                ASSERT_TRUE(
                    JsonValue::parse(out[0].line, doc, error));
                if (doc.get("status").asString() == "queued")
                    accepted[w].push_back(id);
            }
        });
    }
    threads.emplace_back([&server] {
        for (int i = 0; i < 6; ++i)
            server.handleLine(99, "{\"op\":\"run\"}");
    });
    for (auto &t : threads)
        t.join();
    server.drain();

    serve::BatchStats s = server.stats();
    size_t total = 0;
    for (const auto &ids : accepted)
        total += ids.size();
    EXPECT_EQ(total, static_cast<size_t>(kWriters * kPerWriter));
    EXPECT_EQ(s.completed, total);
    EXPECT_EQ(s.duplicates, 0u);
}

// ---- streaming -------------------------------------------------------

/** Submit @p lines, then run; every response as the sink saw it. */
std::vector<Response>
streamBatch(Server &server, const std::vector<std::string> &lines)
{
    std::vector<Response> seen;
    const serve::Sink sink = [&seen](const Response &r) {
        seen.push_back(r);
    };
    for (size_t i = 0; i < lines.size(); ++i)
        server.handleLine(i % 3 + 1, lines[i], sink);
    server.handleLine(9, "{\"op\":\"run\"}", sink);
    return seen;
}

/** A batch spanning three groups (two seeds, two scales) and both
 *  models, with the groups interleaved in submission order. */
std::vector<std::string>
mixedBatch()
{
    std::vector<std::string> lines;
    const char *policies[] = {"always", "sync", "esync", "psync"};
    for (int i = 0; i < 12; ++i) {
        std::string extra =
            "\"policy\":\"" + std::string(policies[i % 4]) + "\"";
        if (i % 3 == 1)
            extra += ",\"seed\":7";
        if (i % 3 == 2)
            extra += ",\"model\":\"ooo\"";
        if (i % 4 == 3)
            extra += ",\"stages\":4";
        std::string line = submitLine(idOf('m', i), extra);
        if (i == 5)
            line = "{\"id\":\"m5\",\"workload\":\"espresso\","
                   "\"scale\":0.01}";
        lines.push_back(line);
    }
    return lines;
}

TEST(ServerStream, SinkMatchesCollectingPathByteForByte)
{
    for (unsigned jobs : {1u, 4u}) {
        ServeConfig cfg = smallConfig();
        cfg.jobs = jobs;
        Server streamed(cfg);
        Server collected(cfg);
        const std::vector<std::string> lines = mixedBatch();

        std::vector<Response> want;
        for (size_t i = 0; i < lines.size(); ++i)
            for (Response &r : collected.handleLine(i % 3 + 1, lines[i]))
                want.push_back(std::move(r));
        for (Response &r : collected.handleLine(9, "{\"op\":\"run\"}"))
            want.push_back(std::move(r));

        const std::vector<Response> got = streamBatch(streamed, lines);
        ASSERT_EQ(got.size(), want.size()) << "jobs " << jobs;
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].line, want[i].line) << "jobs " << jobs;
            EXPECT_EQ(got[i].client, want[i].client) << "jobs " << jobs;
        }
    }
}

TEST(ServerStream, MixedGroupsKeepSubmissionOrderAtFourJobs)
{
    ServeConfig cfg = smallConfig();
    cfg.jobs = 4;
    Server server(cfg);
    const std::vector<std::string> lines = mixedBatch();
    const std::vector<Response> got = streamBatch(server, lines);

    // One "queued" per submission, then the results, then "ran".
    ASSERT_EQ(got.size(), 2 * lines.size() + 1);
    std::vector<std::string> done;
    std::set<std::string> seen;
    bool ran = false;
    for (size_t i = lines.size(); i < got.size(); ++i) {
        JsonValue doc = parseLine(got[i].line);
        const std::string status = doc.get("status").asString();
        if (status == "ran") {
            EXPECT_FALSE(ran) << "a second ran line";
            EXPECT_EQ(got[i].client, 9u);
            ran = true;
            continue;
        }
        EXPECT_FALSE(ran) << "done after ran: " << got[i].line;
        ASSERT_EQ(status, "done") << got[i].line;
        const std::string id = doc.get("id").asString();
        EXPECT_TRUE(seen.insert(id).second) << "twice: " << id;
        EXPECT_EQ(got[i].client, done.size() % 3 + 1) << id;
        done.push_back(id);
    }
    EXPECT_TRUE(ran);
    ASSERT_EQ(done.size(), lines.size());
    for (size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i], "m" + std::to_string(i));
    EXPECT_EQ(server.stats().groups, 3u);
}

TEST(ServerStream, DrainStreamsInSubmissionOrder)
{
    Server streamed(smallConfig());
    Server collected(smallConfig());
    for (Server *s : {&streamed, &collected}) {
        s->handleLine(3, submitLine("d1", "\"seed\":7"));
        s->handleLine(4, submitLine("d2", "\"policy\":\"always\""));
        s->handleLine(3, submitLine("d3", "\"model\":\"ooo\""));
    }
    std::vector<Response> got;
    streamed.drain([&got](const Response &r) { got.push_back(r); });
    const std::vector<Response> want = collected.drain();

    ASSERT_EQ(got.size(), 3u);
    ASSERT_EQ(want.size(), 3u);
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].line, want[i].line);
        EXPECT_EQ(got[i].client, want[i].client);
        EXPECT_EQ(parseLine(got[i].line).get("id").asString(),
                  idOf('d', i + 1));
    }
    // Nothing is left to stream a second time.
    streamed.drain([](const Response &r) {
        ADD_FAILURE() << "drained twice: " << r.line;
    });
}

TEST(ServerStream, ReportIsOnDiskBeforeDoneAndLaterLanesAreNot)
{
    const std::string dir = testing::TempDir() + "/mdp_serve_stream";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // One worker runs the lanes back to back, so a done line that
    // streams as its lane finishes arrives before the next lane has
    // run -- and so before the next lane's report exists.
    ServeConfig cfg = smallConfig();
    cfg.jobs = 1;
    cfg.resultsDir = dir;
    Server server(cfg);
    const char *policies[] = {"always", "sync", "esync", "psync"};
    for (const char *pol : policies)
        server.handleLine(1, submitLine(std::string("r-") + pol,
                                        "\"policy\":\"" +
                                            std::string(pol) + "\""));

    size_t ndone = 0;
    server.handleLine(1, "{\"op\":\"run\"}", [&](const Response &r) {
        JsonValue doc = parseLine(r.line);
        if (doc.get("status").asString() != "done")
            return;
        EXPECT_FALSE(doc.has("write_error")) << r.line;
        const std::string id = doc.get("id").asString();
        std::ifstream in(dir + "/" + id + ".json");
        ASSERT_TRUE(in.good()) << "report missing at done: " << id;
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        parseLine(text); // complete, well-formed JSON
        if (ndone + 1 < std::size(policies)) {
            const std::string next =
                dir + "/r-" + policies[ndone + 1] + ".json";
            EXPECT_FALSE(fs::exists(next))
                << "next lane ran before " << id << " streamed";
        }
        ++ndone;
    });
    EXPECT_EQ(ndone, std::size(policies));
    fs::remove_all(dir);
}

} // namespace
} // namespace mdp
