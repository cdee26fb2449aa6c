#include "chan/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <system_error>

#include "stats/json.h"  // stats::write_text_file

namespace l4span::chan {

namespace {

// Largest microsecond timestamp that survives the *1000 conversion to ticks.
constexpr std::int64_t k_max_timestamp_us = std::int64_t{1} << 52;

// Longest integer field once trimmed (strtoll once ran on a 32-byte buffer).
constexpr std::ptrdiff_t k_max_field_chars = 31;

constexpr std::string_view k_directive = "duration_us=";
constexpr std::string_view k_header = "timestamp";

[[noreturn]] void fail_line(const std::string& name, std::size_t line,
                            const std::string& what)
{
    throw trace_parse_error("trace \"" + name + "\" line " + std::to_string(line) +
                            ": " + what);
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_field_trim(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// Lines in `text` (newlines + 1), counted a word at a time: the records
// reservation, without the pass a byte at a time would cost.
std::size_t count_lines(std::string_view text)
{
    constexpr std::uint64_t ones = 0x0101010101010101, low7 = 0x7f7f7f7f7f7f7f7f;
    std::size_t n = 1;
    std::size_t i = 0;
    for (; i + 8 <= text.size(); i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, text.data() + i, 8);
        const std::uint64_t x = w ^ (ones * '\n');                  // newline bytes -> 0
        const std::uint64_t nl = ~(((x & low7) + low7) | x | low7);  // 0x80 per newline
        n += static_cast<std::size_t>(((nl >> 7) * ones) >> 56);
    }
    for (; i < text.size(); ++i) n += text[i] == '\n';
    return n;
}

const char* line_end(const char* p, const char* end)
{
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    return nl ? static_cast<const char*>(nl) : end;
}

// [begin, eol) without its trailing '\r' and ' ' (a line's right trim).
const char* trim_right(const char* begin, const char* eol)
{
    while (eol != begin && (eol[-1] == '\r' || eol[-1] == ' ')) --eol;
    return eol;
}

// One integer field scanned from `p`: `stop` is the first byte that cannot
// continue it (',' or '\n' on a well-formed line, or `end`), and `ok` says
// whether [p, stop) is an integer. Inline, so the record loop keeps its
// fields in registers.
struct int_scan {
    const char* stop;
    bool ok;
    std::int64_t value;
};

inline int_scan scan_int(const char* p, const char* end)
{
    const char* first = p;  // the field's first byte once trimmed
    bool neg = false;
    if (p != end && !is_digit(*p)) {
        while (p != end && is_field_trim(*p)) ++p;
        first = p;
        while (p != end && (is_field_trim(*p) || *p == '\v' || *p == '\f')) ++p;
        if (p != end && (*p == '+' || *p == '-')) {  // "+-1" fails: '-' is no digit
            neg = *p == '-';
            ++p;
        }
    }
    const char* const digits = p;
    std::uint64_t mag = 0;  // exact while at most 19 digits follow the leading zeros
    for (; p != end && is_digit(*p); ++p)
        mag = mag * 10 + static_cast<std::uint64_t>(*p - '0');
    const auto exact = [&] {
        const char* nonzero = digits;
        while (nonzero != p && *nonzero == '0') ++nonzero;
        return p - nonzero <= 19;
    };
    const std::uint64_t limit = (std::uint64_t{1} << 63) - (neg ? 0 : 1);
    const bool ok = p != digits && p - first <= k_max_field_chars &&
                    (p - digits <= 19 || exact()) && mag <= limit;
    while (p != end && is_field_trim(*p)) ++p;
    // 0 - 2^63 converts to INT64_MIN.
    return {p, ok, static_cast<std::int64_t>(neg ? 0 - mag : mag)};
}

// Names what is wrong with field `f` of a record line, which starts at
// `field` and failed to scan at `stop`: a missing or extra comma before a
// malformed value, as a field-by-field split of the line would find them.
[[noreturn]] void fail_field(const std::string& name, std::size_t line_no, int f,
                             const char* field, const char* stop, const char* end)
{
    const bool last = f == 3;
    const char* const eol = line_end(stop, end);
    const char* const comma = std::find(stop, eol, ',');
    if (!last && comma == eol)
        fail_line(name, line_no,
                  "expected 4 comma-separated fields (timestamp_us,mcs,prbs,tbs_bytes)");
    if (last && comma != eol) fail_line(name, line_no, "expected 4 fields, got more");
    fail_line(name, line_no,
              "field " + std::to_string(f + 1) + " is not an integer: \"" +
                  std::string(field, last ? trim_right(field, eol) : comma) + "\"");
}

// Applies a `# ... duration_us=N` directive in the trimmed comment
// [line, eol), if the comment holds one.
void read_directive(trace_data& t, std::size_t line_no, const char* line, const char* eol)
{
    const std::string_view comment(line, static_cast<std::size_t>(eol - line));
    const std::size_t at = comment.find(k_directive);
    if (at == std::string_view::npos) return;
    const int_scan us = scan_int(line + at + k_directive.size(), eol);
    if (!us.ok || us.stop != eol || us.value <= 0 || us.value > k_max_timestamp_us)
        fail_line(t.name, line_no, "malformed duration_us directive");
    t.duration = us.value * sim::k_microsecond;
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

}  // namespace

trace_data parse_trace_csv(std::string_view text, const std::string& name)
{
    trace_data t;
    t.name = name;
    t.records.reserve(count_lines(text));
    const char* p = text.data();
    const char* const end = p + text.size();
    std::size_t line_no = 0;
    sim::tick prev_ts = -1;
    while (p != end) {
        ++line_no;
        if (!is_digit(*p)) {
            // Trim the line's left side, then skip it if it is blank, a
            // comment (after reading its directive) or the header.
            while (p != end && (*p == ' ' || *p == '\t')) ++p;
            const char* blank = p;
            while (blank != end && (*blank == '\r' || *blank == ' ')) ++blank;
            if (blank == end || *blank == '\n') {
                p = blank == end ? end : blank + 1;
                continue;
            }
            if (*p == '#' || std::string_view(p, static_cast<std::size_t>(end - p))
                                 .starts_with(k_header)) {
                const char* const line = p;
                const char* const eol = line_end(line, end);
                p = eol == end ? end : eol + 1;
                if (*line == '#') read_directive(t, line_no, line, trim_right(line, eol));
                continue;
            }
        }

        std::int64_t field[4] = {};
        for (int f = 0; f < 4; ++f) {
            const int_scan s = scan_int(p, end);
            const bool at_eol = s.stop == end || *s.stop == '\n';
            if (!s.ok || (f == 3 ? !at_eol : at_eol || *s.stop != ','))
                fail_field(name, line_no, f, p, s.stop, end);
            field[f] = s.value;
            p = s.stop == end ? end : s.stop + 1;
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
    if (t.records.empty())
        throw trace_parse_error("trace \"" + t.name +
                                "\" has no records — a trace needs at least one "
                                "`timestamp_us,mcs,prbs,tbs_bytes` line");
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
    const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!f)
        throw std::invalid_argument(
            "cannot open trace file \"" + path +
            "\" — expected an existing CSV (timestamp_us,mcs,prbs,tbs_bytes) DCI "
            "trace; see traces/ for committed examples and "
            "scripts/gen_traces.py to generate more");
    // One read of the whole file, sized by seeking to its end. A directory
    // has no such size: the one-byte probe read fails on it first (EISDIR).
    std::FILE* const fp = f.get();
    errno = 0;
    long size = 0;  // an empty file stays at 0
    if (std::fgetc(fp) != EOF) {
        size = std::fseek(fp, 0, SEEK_END) == 0 ? std::ftell(fp) : -1;
        if (size >= 0) std::rewind(fp);
    }
    std::string bytes(static_cast<std::size_t>(std::max(size, 0L)), '\0');
    if (size < 0 || std::ferror(fp) ||
        std::fread(bytes.data(), 1, bytes.size(), fp) != bytes.size()) {
        const int err = errno ? errno : EIO;
        throw std::runtime_error("cannot read trace file \"" + path + "\": " +
                                 std::generic_category().message(err));
    }

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
