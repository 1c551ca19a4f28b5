/**
 * @file
 * Machine-readable experiment results.
 *
 * Every table and micro bench keeps printing its human-readable text
 * tables; in addition, when MDP_JSON_OUT=<dir> is set, it writes a JSON
 * document with the same rows plus the shape-check verdicts to
 * <dir>/<bench>.json.  CI consumes the exit code for gating and
 * archives the JSON as the stable artifact format for bench-trajectory
 * tracking.
 *
 * The JsonValue type is a deliberately small subset of JSON: enough to
 * serialize reports and parse them back (round-trip tested), not a
 * general-purpose library.  Object key order is preserved so emitted
 * documents are deterministic.
 */

#ifndef MDP_HARNESS_REPORT_HH
#define MDP_HARNESS_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mdp
{

class TextTable;

/** A JSON document node: null, bool, number, string, array or object. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;
    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool b);
    static JsonValue number(double v);
    static JsonValue string(std::string s);
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return knd; }
    bool isNull() const { return knd == Kind::Null; }

    bool asBool() const { return boolVal; }
    double asNumber() const { return numVal; }
    const std::string &asString() const { return strVal; }

    /** Array: append an element. */
    void push(JsonValue v);
    /** Array/object: element count. */
    size_t size() const;
    /** Array: element access (fatal when out of range). */
    const JsonValue &at(size_t idx) const;

    /** Object: set a key (replaces, preserves first-set order). */
    void set(const std::string &key, JsonValue v);
    bool has(const std::string &key) const;
    /** Object: member access; returns a shared null for missing keys. */
    const JsonValue &get(const std::string &key) const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return obj;
    }

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 2) const;

    /**
     * Parse a JSON text.  On failure returns false and fills @p error
     * with a message carrying the byte offset.
     */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string &error);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind knd = Kind::Null;
    bool boolVal = false;
    double numVal = 0.0;
    std::string strVal;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;
};

/**
 * The result document of one bench: metadata, one or more
 * tables (header + string rows, mirroring the printed TextTable), and
 * the shape-check verdicts.
 */
class BenchReport
{
  public:
    BenchReport(std::string bench_name, std::string paper_ref);

    void setScale(double scale) { scl = scale; }
    void setJobs(unsigned jobs) { njobs = jobs; }

    /** Attach a printed table under a name ("main" by default). */
    void addTable(const TextTable &t, const std::string &name = "main");

    /** Record one shape-check verdict. */
    void addCheck(bool ok, const std::string &what);

    /**
     * Record accumulated wall-clock seconds of one phase (e.g.
     * trace_generate, trace_cache_load, simulate); emitted under
     * "phase_seconds" so CI can track cold vs. warm startup per PR.
     */
    void addTiming(const std::string &phase, double seconds);

    /**
     * Record the process's aggregate fast-forward counters; emitted
     * under "cycle_stats" (cycles_simulated, cycles_skipped,
     * skip_rate, and -- when stage slots were counted --
     * stage_visits, stage_slots, stage_occupancy).  Unlike
     * phase_seconds these are deterministic -- cold and warm runs of
     * the same bench report identical values.
     */
    void setCycleCounts(uint64_t simulated, uint64_t skipped,
                        uint64_t stage_visits = 0,
                        uint64_t stage_slots = 0);

    bool allChecksOk() const;
    size_t numChecks() const { return checks.size(); }

    JsonValue toJson() const;

    /** Write the JSON document to @p path (false + error on failure). */
    bool writeTo(const std::string &path, std::string &error) const;

    /**
     * Honor MDP_JSON_OUT: no-op (true) when unset, else write
     * <dir>/<bench>.json, creating the directory if need be.  Failures
     * are reported on stderr and return false so callers can turn them
     * into a nonzero exit code.
     */
    bool writeEnv() const;

  private:
    std::string bench;
    std::string paperRef;
    double scl = 1.0;
    unsigned njobs = 1;
    std::vector<std::pair<std::string, JsonValue>> tables;
    std::vector<std::pair<bool, std::string>> checks;
    std::vector<std::pair<std::string, double>> timings;
    uint64_t cyclesSimulated = 0;
    uint64_t cyclesSkipped = 0;
    uint64_t stageVisits = 0;
    uint64_t stageSlots = 0;
    bool haveCycleCounts = false;
};

} // namespace mdp

#endif // MDP_HARNESS_REPORT_HH
