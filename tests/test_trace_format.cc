/**
 * @file
 * Tests that pin the trace-file bytes and its hostile-input handling:
 * the FNV-1a of writeTrace's output for every registered workload and
 * one manycore trace, the incremental Fnv1aBulk against the one-shot
 * checksum, a forged header whose op count the file cannot hold, and
 * a checksum-valid file whose task PC changes inside a task.
 *
 * The trace-cache key (traceKeyDigest) covers the format version,
 * workload, scale, seed and profile, but not the generator code.  A
 * code change that alters trace bytes must therefore fail the pins
 * here rather than let a local cache serve stale entries; such a
 * change re-captures them and says why.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "base/hash.hh"
#include "trace/builder.hh"
#include "trace/serialize.hh"
#include "workloads/manycore.hh"
#include "workloads/suites.hh"
#include "workloads/workload.hh"

namespace mdp
{
namespace
{

/** hashHex(fnv1a) of writeTrace's whole output for @p trace. */
std::string
fileDigest(const TraceView &trace)
{
    std::ostringstream os;
    EXPECT_TRUE(writeTrace(trace, os));
    const std::string bytes = os.str();
    return hashHex(fnv1a(bytes.data(), bytes.size()));
}

TEST(TraceBytes, EveryWorkloadMatchesItsPin)
{
    // Captured at scale 0.01 with each workload's default seed.
    static const std::vector<std::pair<std::string, std::string>> kPins =
        {
            {"compress", "1c8c51c5ae4cbd00"},
            {"espresso", "57c88a6f811aa1a3"},
            {"gcc", "4ff3d9a9457b8ead"},
            {"sc", "ee5bb849fee6989b"},
            {"xlisp", "21d8d91ed8b9ced6"},
            {"099.go", "5b18bc1263554373"},
            {"124.m88ksim", "4f62a86267b4d752"},
            {"126.gcc", "86e6e6d3a98bcf2e"},
            {"129.compress", "f3e92e4c9defc6eb"},
            {"130.li", "b6bf8e38a2647c02"},
            {"132.ijpeg", "1553bbc6468a4ce6"},
            {"134.perl", "cebb9f21ac06b6b7"},
            {"147.vortex", "20a63727adb52f2d"},
            {"101.tomcatv", "12e27ef93b90fe93"},
            {"102.swim", "8824dcf623ff6a12"},
            {"103.su2cor", "1fe7fbf9e74992fe"},
            {"104.hydro2d", "916ef6565ac25d7a"},
            {"107.mgrid", "76c06b3f78858f3b"},
            {"110.applu", "d0f0c44dd22d79ee"},
            {"125.turb3d", "edf4a0f407776754"},
            {"141.apsi", "54d1c1af74bc4b2c"},
            {"145.fpppp", "75de4d44d6fc6f0b"},
            {"146.wave5", "42b07d835494097d"},
        };
    std::vector<std::string> pinned;
    for (const auto &[name, digest] : kPins) {
        pinned.push_back(name);
        EXPECT_EQ(fileDigest(findWorkload(name).generate(0.01)), digest)
            << name;
    }
    EXPECT_EQ(pinned, allWorkloadNames())
        << "a registered workload has no byte pin";
}

TEST(TraceBytes, BfsFrontierMatchesItsPin)
{
    EXPECT_EQ(fileDigest(makeBfsFrontierTrace(0.01, 7, 64)),
              "27278ffbd6182908");
}

/** 1 KiB of varied bytes. */
std::vector<unsigned char>
sampleBuffer()
{
    std::vector<unsigned char> buf(1024);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (unsigned char &b : buf) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b = static_cast<unsigned char>(x >> 56);
    }
    return buf;
}

TEST(Fnv1aBulkTest, ChunkedUpdatesEqualOneShot)
{
    const auto buf = sampleBuffer();
    const uint64_t want = fnv1aBulk(buf.data(), buf.size());
    for (size_t chunk = 1; chunk <= 64; ++chunk) {
        Fnv1aBulk h;
        for (size_t i = 0; i < buf.size(); i += chunk)
            h.update(buf.data() + i, std::min(chunk, buf.size() - i));
        EXPECT_EQ(h.digest(), want) << "chunk " << chunk;
    }
}

TEST(Fnv1aBulkTest, EverySplitEqualsOneShot)
{
    const auto buf = sampleBuffer();
    for (size_t len : {size_t{0}, size_t{31}, size_t{32}, buf.size()}) {
        const uint64_t want = fnv1aBulk(buf.data(), len);
        for (size_t cut = 0; cut <= len; ++cut) {
            Fnv1aBulk h;
            h.update(buf.data(), cut).update(buf.data() + cut, len - cut);
            EXPECT_EQ(h.digest(), want) << "len " << len << " cut " << cut;
        }
    }
}

/**
 * 108 bytes: a v2 header claiming 4e9 ops with a self-consistent
 * payloadBytes (~152 GB), then 4 name bytes and 64 zero bytes.
 */
std::string
forgedTrace()
{
    trace_format::FileHeader header{};
    std::memcpy(header.magic, trace_format::kMagic, sizeof(header.magic));
    header.version = trace_format::kVersion;
    header.nameLen = 4;
    header.count = 4'000'000'000ull;
    header.payloadBytes =
        trace_format::layoutFor(header.count, header.nameLen).end;
    std::string bytes(reinterpret_cast<const char *>(&header),
                      sizeof(header));
    bytes += "evil";
    bytes.append(64, '\0');
    return bytes;
}

std::string
writeForged(const std::string &tag)
{
    const std::string path = testing::TempDir() + "/forged_" + tag + ".mdpt";
    std::ofstream(path, std::ios::binary) << forgedTrace();
    return path;
}

TEST(ForgedTrace, LoadReportsTheSizeMismatch)
{
    const std::string path = writeForged("load");
    std::string error;
    Trace t = loadTrace(path, error);
    EXPECT_TRUE(t.empty());
    EXPECT_NE(error.find("file size does not match"), std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(ForgedTrace, StreamReadFailsWithoutSizingFromTheHeader)
{
    std::istringstream is(forgedTrace());
    std::string error;
    Trace t = readTrace(is, error);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(error, "truncated payload");
}

/**
 * A two-op, one-task trace file whose second op names another task PC,
 * re-checksummed so that only the task-PC fold can reject it.
 */
std::string
taskPcChangeTrace()
{
    TraceBuilder b("pcs");
    b.beginTask(0x1000);
    b.alu(0x10);
    b.alu(0x14);
    std::ostringstream os;
    EXPECT_TRUE(writeTrace(b.take(), os));
    std::string bytes = os.str();

    trace_format::FileHeader header{};
    std::memcpy(&header, bytes.data(), sizeof(header));
    char *payload = bytes.data() + sizeof(header);
    const uint64_t op1 =
        trace_format::layoutFor(header.count, header.nameLen).taskPc + 8;
    const Addr other = 0x2000;
    std::memcpy(payload + op1, &other, sizeof(other));
    header.payloadChecksum =
        fnv1aBulk(payload, bytes.size() - sizeof(header));
    std::memcpy(bytes.data(), &header, sizeof(header));
    return bytes;
}

TEST(ForgedTrace, LoadRejectsATaskPcChangeInsideATask)
{
    const std::string path = testing::TempDir() + "/forged_taskpc.mdpt";
    std::ofstream(path, std::ios::binary) << taskPcChangeTrace();
    std::string error;
    Trace t = loadTrace(path, error);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(error,
              "loaded trace is invalid: taskPc changes inside task 0 at "
              "seq 1");
    std::remove(path.c_str());
}

TEST(ForgedTrace, MdpSimExitsOneWithAMessage)
{
    const std::string path = writeForged("sim");
    const std::string err = path + ".stderr";
    const std::string cmd = std::string(MDP_SIM_BIN) + " --load-trace " +
                            path + " --model ooo >/dev/null 2>" + err;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 1);
    std::ifstream is(err);
    const std::string msg((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(msg.find("file size does not match"), std::string::npos)
        << msg;
    std::remove(path.c_str());
    std::remove(err.c_str());
}

} // namespace
} // namespace mdp
