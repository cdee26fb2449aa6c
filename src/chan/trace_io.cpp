#include "chan/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <system_error>

#include "stats/json.h"  // stats::write_text_file

namespace l4span::chan {

namespace {

// Largest microsecond timestamp that survives the *1000 conversion to ticks.
constexpr std::int64_t k_max_timestamp_us = std::int64_t{1} << 52;

[[noreturn]] void fail_line(const std::string& name, std::size_t line,
                            const std::string& what)
{
    throw trace_parse_error("trace \"" + name + "\" line " + std::to_string(line) +
                            ": " + what);
}

// Strict integer field parse: the whole field must be one decimal number.
// After the trim this accepts exactly what strtoll(base 10) consuming the
// whole field did: leading isspace() characters, one optional sign, decimal
// digits, in range. Fields of 32+ characters stay rejected (strtoll ran on a
// fixed buffer).
bool parse_int(std::string_view field, std::int64_t& out)
{
    // Trim ASCII whitespace (CR from CRLF files lands here too).
    while (!field.empty() && (field.front() == ' ' || field.front() == '\t' ||
                              field.front() == '\r'))
        field.remove_prefix(1);
    while (!field.empty() && (field.back() == ' ' || field.back() == '\t' ||
                              field.back() == '\r'))
        field.remove_suffix(1);
    if (field.empty() || field.size() >= 32) return false;
    while (!field.empty() && (field.front() == '\v' || field.front() == '\f' ||
                              field.front() == '\n' || field.front() == ' ' ||
                              field.front() == '\t' || field.front() == '\r'))
        field.remove_prefix(1);
    // from_chars takes '-' but not '+'; "+-1" must stay rejected.
    if (!field.empty() && field.front() == '+') {
        field.remove_prefix(1);
        if (!field.empty() && field.front() == '-') return false;
    }
    const char* const end = field.data() + field.size();
    std::int64_t v = 0;
    const auto [ptr, ec] = std::from_chars(field.data(), end, v);
    if (ec != std::errc{} || ptr != end) return false;
    out = v;
    return true;
}

int clamp_mcs(std::int64_t v)
{
    return static_cast<int>(std::clamp<std::int64_t>(v, -1, k_num_mcs - 1));
}

int clamp_prbs(std::int64_t v)
{
    return static_cast<int>(std::clamp<std::int64_t>(v, 0, k_max_trace_prbs));
}

std::uint32_t clamp_tbs(std::int64_t v)
{
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(v, 0, std::int64_t{0xffffffff}));
}

void require_records(const trace_data& t)
{
    if (t.records.empty())
        throw trace_parse_error("trace \"" + t.name +
                                "\" has no records — a trace needs at least one "
                                "`timestamp_us,mcs,prbs,tbs_bytes` line");
}

}  // namespace

trace_data parse_trace_csv(std::string_view text, const std::string& name)
{
    trace_data t;
    t.name = name;
    std::size_t line_no = 0;
    sim::tick prev_ts = -1;
    while (!text.empty()) {
        ++line_no;
        const std::size_t nl = text.find('\n');
        std::string_view line = text.substr(0, nl);
        text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);

        // Trim and classify.
        while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
            line.remove_suffix(1);
        while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
            line.remove_prefix(1);
        if (line.empty()) continue;
        if (line.front() == '#') {
            const std::string_view directive = "duration_us=";
            const std::size_t at = line.find(directive);
            if (at != std::string_view::npos) {
                std::int64_t us = 0;
                if (!parse_int(line.substr(at + directive.size()), us) || us <= 0 ||
                    us > k_max_timestamp_us)
                    fail_line(name, line_no, "malformed duration_us directive");
                t.duration = us * sim::k_microsecond;
            }
            continue;
        }
        if (line.rfind("timestamp", 0) == 0) continue;  // header line

        std::int64_t field[4];
        std::size_t pos = 0;
        for (int f = 0; f < 4; ++f) {
            const std::size_t comma = line.find(',', pos);
            const bool last = f == 3;
            if (!last && comma == std::string_view::npos)
                fail_line(name, line_no,
                          "expected 4 comma-separated fields "
                          "(timestamp_us,mcs,prbs,tbs_bytes)");
            std::string_view fv = line.substr(
                pos, (last ? line.size() : comma) - pos);
            if (last && fv.find(',') != std::string_view::npos)
                fail_line(name, line_no, "expected 4 fields, got more");
            if (!parse_int(fv, field[f]))
                fail_line(name, line_no,
                          "field " + std::to_string(f + 1) + " is not an integer: \"" +
                              std::string(fv) + "\"");
            pos = comma + 1;
        }
        if (field[0] < 0) fail_line(name, line_no, "negative timestamp");
        if (field[0] > k_max_timestamp_us)
            fail_line(name, line_no, "timestamp_us too large");
        dci_record r;
        r.timestamp = field[0] * sim::k_microsecond;
        if (r.timestamp <= prev_ts)
            fail_line(name, line_no,
                      "timestamps must be strictly increasing (" +
                          std::to_string(field[0]) + " us after " +
                          std::to_string(prev_ts / sim::k_microsecond) + " us)");
        prev_ts = r.timestamp;
        r.mcs = clamp_mcs(field[1]);
        r.prbs = clamp_prbs(field[2]);
        r.tbs = clamp_tbs(field[3]);
        t.records.push_back(r);
    }
    require_records(t);
    if (t.duration > 0 && t.duration <= t.records.back().timestamp)
        throw trace_parse_error("trace \"" + name +
                                "\": duration_us directive must exceed the last "
                                "record timestamp");
    return t;
}

std::string to_trace_csv(const trace_data& t)
{
    std::string out = "# l4span DCI trace: " + t.name + "\n";
    if (t.duration > 0)
        out += "# duration_us=" + std::to_string(t.duration / sim::k_microsecond) + "\n";
    out += "timestamp_us,mcs,prbs,tbs_bytes\n";
    char buf[96];
    for (const auto& r : t.records) {
        std::snprintf(buf, sizeof(buf), "%lld,%d,%d,%lu\n",
                      static_cast<long long>(r.timestamp / sim::k_microsecond), r.mcs,
                      r.prbs, static_cast<unsigned long>(r.tbs));
        out += buf;
    }
    return out;
}

std::shared_ptr<const trace_data> load_trace_file(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw std::invalid_argument(
            "cannot open trace file \"" + path +
            "\" — expected an existing CSV (timestamp_us,mcs,prbs,tbs_bytes) DCI "
            "trace; see traces/ for committed examples and "
            "scripts/gen_traces.py to generate more");
    std::string bytes;
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);

    // Basename without extension names the trace.
    std::string name = path;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);

    return std::make_shared<trace_data>(parse_trace_csv(bytes, name));
}

bool save_trace_csv(const std::string& path, const trace_data& t)
{
    return stats::write_text_file(path, to_trace_csv(t));
}

}  // namespace l4span::chan
