#include "workload/trace_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/logging.h"
#include "util/table.h"

namespace shiftpar::workload {

namespace {

/** Split one CSV line on commas (the trace format never quotes). */
std::vector<std::string>
split_fields(const std::string& line)
{
    std::vector<std::string> fields;
    std::string field;
    std::istringstream is(line);
    while (std::getline(is, field, ','))
        fields.push_back(field);
    return fields;
}

/** `path:lineno: ` — the prefix of every per-line error. */
std::string
where(const std::string& path, int lineno)
{
    return path + ":" + std::to_string(lineno) + ": ";
}

/**
 * Parse a whole field as a finite number. Surrounding whitespace (a CRLF
 * file's trailing '\r') is allowed; trailing garbage, nan and inf are
 * fatal.
 */
double
parse_number(const std::string& s, const std::string& path, int lineno)
{
    const char* begin = s.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    while (end != begin && std::isspace(static_cast<unsigned char>(*end)))
        ++end;
    if (end == begin || *end != '\0')
        fatal(where(path, lineno) + "bad number '" + s + "'");
    if (!std::isfinite(v))
        fatal(where(path, lineno) + "non-finite number '" + s + "'");
    return v;
}

/**
 * Parse a token count: an integral value in [1, 2^53], so the conversion
 * to int64 is exact and defined.
 */
std::int64_t
parse_tokens(const std::string& s, const std::string& path, int lineno)
{
    constexpr double kMaxTokens = 9007199254740992.0;  // 2^53
    const double v = parse_number(s, path, lineno);
    if (v != std::floor(v))
        fatal(where(path, lineno) + "invalid request: token count '" + s +
              "' is not an integer");
    if (v < 1.0 || v > kMaxTokens)
        fatal(where(path, lineno) + "invalid request: token count '" + s +
              "' out of range [1, 2^53]");
    return static_cast<std::int64_t>(v);
}

} // namespace

std::vector<engine::RequestSpec>
load_trace(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '" + path + "'");

    std::string line;
    int lineno = 0;
    // Header.
    if (!std::getline(in, line))
        fatal(path + ": empty trace file");
    ++lineno;
    if (line.rfind("arrival_s", 0) != 0)
        fatal(path + ": expected header 'arrival_s,prompt_tokens,"
                     "output_tokens', got '" + line + "'");

    std::vector<engine::RequestSpec> reqs;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        const auto fields = split_fields(line);
        if (fields.size() != 3)
            fatal(where(path, lineno) + "expected 3 fields, got " +
                  std::to_string(fields.size()));
        engine::RequestSpec r;
        r.arrival = parse_number(fields[0], path, lineno);
        if (r.arrival < 0.0)
            fatal(where(path, lineno) +
                  "invalid request (arrival >= 0 required)");
        r.prompt_tokens = parse_tokens(fields[1], path, lineno);
        r.output_tokens = parse_tokens(fields[2], path, lineno);
        reqs.push_back(r);
    }
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const engine::RequestSpec& a,
                        const engine::RequestSpec& b) {
                         return a.arrival < b.arrival;
                     });
    return reqs;
}

void
save_trace(const std::string& path,
           const std::vector<engine::RequestSpec>& reqs)
{
    CsvWriter csv(path, {"arrival_s", "prompt_tokens", "output_tokens"});
    if (!csv.ok())
        fatal("cannot write trace file '" + path + "'");
    for (const auto& r : reqs) {
        csv.add_row(std::vector<std::string>{
            Table::fmt(r.arrival, 6), std::to_string(r.prompt_tokens),
            std::to_string(r.output_tokens)});
    }
}

} // namespace shiftpar::workload
