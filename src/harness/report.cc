#include "harness/report.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/table.hh"

namespace mdp
{

// ---------------------------------------------------------------------
// JsonValue construction and access
// ---------------------------------------------------------------------

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.knd = Kind::Bool;
    v.boolVal = b;
    return v;
}

JsonValue
JsonValue::number(double d)
{
    JsonValue v;
    v.knd = Kind::Number;
    v.numVal = d;
    return v;
}

JsonValue
JsonValue::string(std::string s)
{
    JsonValue v;
    v.knd = Kind::String;
    v.strVal = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.knd = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.knd = Kind::Object;
    return v;
}

void
JsonValue::push(JsonValue v)
{
    mdp_assert(knd == Kind::Array, "JsonValue::push on non-array");
    arr.push_back(std::move(v));
}

size_t
JsonValue::size() const
{
    return knd == Kind::Object ? obj.size() : arr.size();
}

const JsonValue &
JsonValue::at(size_t idx) const
{
    mdp_assert(knd == Kind::Array && idx < arr.size(),
               "JsonValue::at out of range");
    return arr[idx];
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    mdp_assert(knd == Kind::Object, "JsonValue::set on non-object");
    for (auto &[k, old] : obj) {
        if (k == key) {
            old = std::move(v);
            return;
        }
    }
    obj.emplace_back(key, std::move(v));
}

bool
JsonValue::has(const std::string &key) const
{
    for (const auto &[k, v] : obj)
        if (k == key)
            return true;
    return false;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    for (const auto &[k, v] : obj)
        if (k == key)
            return v;
    static const JsonValue missing;
    return missing;
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

namespace
{

void
escapeString(const std::string &s, std::string &out)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
formatNumber(double v, std::string &out)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; emit null like most tools do.
        out += "null";
        return;
    }
    // Integral values print without an exponent or trailing ".0" so
    // counters stay readable; everything else uses the shortest
    // round-trippable form.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        out += buf;
        return;
    }
    char buf[40];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    switch (knd) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolVal ? "true" : "false";
        break;
      case Kind::Number:
        formatNumber(numVal, out);
        break;
      case Kind::String:
        escapeString(strVal, out);
        break;
      case Kind::Array:
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += ']';
        break;
      case Kind::Object:
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            escapeString(obj[i].first, out);
            out += indent > 0 ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

namespace
{

/** Single-pass recursive-descent parser over the input text. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &error)
        : src(text), err(error)
    {}

    bool
    parseDocument(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos != src.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        err = what + " at byte " + std::to_string(pos);
        return false;
    }

    void
    skipSpace()
    {
        while (pos < src.size() &&
               std::isspace(static_cast<unsigned char>(src[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < src.size() && src[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (src.compare(pos, len, word) != 0)
            return fail("invalid literal");
        pos += len;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos >= src.size())
            return fail("unexpected end of input");
        char c = src[pos];
        switch (c) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            return parseString(out);
          case 't':
            out = JsonValue::boolean(true);
            return literal("true", 4);
          case 'f':
            out = JsonValue::boolean(false);
            return literal("false", 5);
          case 'n':
            out = JsonValue::null();
            return literal("null", 4);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        ++pos; // '{'
        out = JsonValue::object();
        skipSpace();
        if (consume('}'))
            return true;
        for (;;) {
            skipSpace();
            JsonValue key;
            if (pos >= src.size() || src[pos] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            skipSpace();
            JsonValue val;
            if (!parseValue(val))
                return false;
            out.set(key.asString(), std::move(val));
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        ++pos; // '['
        out = JsonValue::array();
        skipSpace();
        if (consume(']'))
            return true;
        for (;;) {
            skipSpace();
            JsonValue elem;
            if (!parseValue(elem))
                return false;
            out.push(std::move(elem));
            skipSpace();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(JsonValue &out)
    {
        ++pos; // '"'
        std::string s;
        while (pos < src.size()) {
            char c = src[pos++];
            if (c == '"') {
                out = JsonValue::string(std::move(s));
                return true;
            }
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos >= src.size())
                break;
            char e = src[pos++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                s += e;
                break;
              case 'b':
                s += '\b';
                break;
              case 'f':
                s += '\f';
                break;
              case 'n':
                s += '\n';
                break;
              case 'r':
                s += '\r';
                break;
              case 't':
                s += '\t';
                break;
              case 'u': {
                if (pos + 4 > src.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = src[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("invalid \\u escape");
                }
                // Encode the BMP code point as UTF-8 (surrogate pairs
                // are not needed by anything the harness emits).
                if (code < 0x80) {
                    s += static_cast<char>(code);
                } else if (code < 0x800) {
                    s += static_cast<char>(0xc0 | (code >> 6));
                    s += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    s += static_cast<char>(0xe0 | (code >> 12));
                    s += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    s += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("invalid escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos;
        if (consume('-')) {
        }
        while (pos < src.size() &&
               (std::isdigit(static_cast<unsigned char>(src[pos])) ||
                src[pos] == '.' || src[pos] == 'e' || src[pos] == 'E' ||
                src[pos] == '+' || src[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected a value");
        double v = 0.0;
        auto res = std::from_chars(src.data() + start, src.data() + pos, v);
        if (res.ec != std::errc{} || res.ptr != src.data() + pos) {
            pos = start;
            return fail("malformed number");
        }
        out = JsonValue::number(v);
        return true;
    }

    const std::string &src;
    std::string &err;
    size_t pos = 0;
};

} // namespace

bool
JsonValue::parse(const std::string &text, JsonValue &out,
                 std::string &error)
{
    return JsonParser(text, error).parseDocument(out);
}

// ---------------------------------------------------------------------
// BenchReport
// ---------------------------------------------------------------------

BenchReport::BenchReport(std::string bench_name, std::string paper_ref)
    : bench(std::move(bench_name)), paperRef(std::move(paper_ref))
{}

void
BenchReport::addTable(const TextTable &t, const std::string &name)
{
    JsonValue tbl = JsonValue::object();
    JsonValue header = JsonValue::array();
    for (const auto &h : t.headerCells())
        header.push(JsonValue::string(h));
    tbl.set("header", std::move(header));
    JsonValue rows = JsonValue::array();
    for (const auto &r : t.allRows()) {
        JsonValue row = JsonValue::array();
        for (const auto &cell : r)
            row.push(JsonValue::string(cell));
        rows.push(std::move(row));
    }
    tbl.set("rows", std::move(rows));
    tables.emplace_back(name, std::move(tbl));
}

void
BenchReport::addCheck(bool ok, const std::string &what)
{
    checks.emplace_back(ok, what);
}

void
BenchReport::addTiming(const std::string &phase, double seconds)
{
    timings.emplace_back(phase, seconds);
}

void
BenchReport::setCycleCounts(uint64_t simulated, uint64_t skipped,
                            uint64_t stage_visits, uint64_t stage_slots)
{
    cyclesSimulated = simulated;
    cyclesSkipped = skipped;
    stageVisits = stage_visits;
    stageSlots = stage_slots;
    haveCycleCounts = true;
}

bool
BenchReport::allChecksOk() const
{
    for (const auto &[ok, what] : checks)
        if (!ok)
            return false;
    return true;
}

JsonValue
BenchReport::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::string(bench));
    doc.set("reproduces", JsonValue::string(paperRef));
    doc.set("scale", JsonValue::number(scl));
    doc.set("jobs", JsonValue::number(njobs));

    JsonValue tbls = JsonValue::object();
    for (const auto &[name, tbl] : tables)
        tbls.set(name, tbl);
    doc.set("tables", std::move(tbls));

    JsonValue chks = JsonValue::array();
    for (const auto &[ok, what] : checks) {
        JsonValue c = JsonValue::object();
        c.set("ok", JsonValue::boolean(ok));
        c.set("what", JsonValue::string(what));
        chks.push(std::move(c));
    }
    doc.set("shape_checks", std::move(chks));
    doc.set("all_checks_ok", JsonValue::boolean(allChecksOk()));

    if (!timings.empty()) {
        JsonValue phases = JsonValue::object();
        for (const auto &[phase, seconds] : timings)
            phases.set(phase, JsonValue::number(seconds));
        doc.set("phase_seconds", std::move(phases));
    }

    if (haveCycleCounts) {
        uint64_t total = cyclesSimulated + cyclesSkipped;
        JsonValue cs = JsonValue::object();
        cs.set("cycles_simulated",
               JsonValue::number(static_cast<double>(cyclesSimulated)));
        cs.set("cycles_skipped",
               JsonValue::number(static_cast<double>(cyclesSkipped)));
        cs.set("skip_rate",
               JsonValue::number(
                   total ? static_cast<double>(cyclesSkipped) / total
                         : 0.0));
        if (stageSlots) {
            cs.set("stage_visits",
                   JsonValue::number(static_cast<double>(stageVisits)));
            cs.set("stage_slots",
                   JsonValue::number(static_cast<double>(stageSlots)));
            cs.set("stage_occupancy",
                   JsonValue::number(static_cast<double>(stageVisits) /
                                     static_cast<double>(stageSlots)));
        }
        doc.set("cycle_stats", std::move(cs));
    }
    return doc;
}

bool
BenchReport::writeTo(const std::string &path, std::string &error) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    out << toJson().dump();
    out.close();
    if (!out) {
        error = "write to " + path + " failed";
        return false;
    }
    return true;
}

bool
BenchReport::writeEnv() const
{
    const std::string dir = envString("MDP_JSON_OUT", "");
    if (dir.empty())
        return true;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string error;
    if (ec)
        error = "cannot create directory " + dir + ": " + ec.message();
    else
        writeTo(dir + "/" + bench + ".json", error);
    if (!error.empty()) {
        std::fprintf(stderr, "MDP_JSON_OUT: %s\n", error.c_str());
        return false;
    }
    return true;
}

} // namespace mdp
