// Property/fuzz tests for the DCI trace codec (chan/trace_io): random byte
// soup, truncated inputs, out-of-order timestamps and absurd MCS/PRB
// values must never crash or hang — they either parse with clamping or
// throw a trace_parse_error naming the offending line. Valid traces
// round-trip exactly through the CSV codec, and the one-pass scanner
// accepts, rejects and reports exactly what a line-by-line reference
// parser does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chan/trace_io.h"
#include "stats/json.h"  // stats::read_text_file
#include "sim/rng.h"

using namespace l4span;
using namespace l4span::chan;

namespace {

trace_data random_trace(sim::rng& rng)
{
    trace_data t;
    t.name = "fuzz";
    const int n = static_cast<int>(rng.uniform_int(1, 200));
    sim::tick ts = rng.uniform_int(0, 1000) * sim::k_microsecond;
    for (int i = 0; i < n; ++i) {
        dci_record r;
        r.timestamp = ts;
        ts += rng.uniform_int(1, 5000) * sim::k_microsecond;
        r.mcs = static_cast<int>(rng.uniform_int(-1, k_num_mcs - 1));
        r.prbs = static_cast<int>(rng.uniform_int(0, k_max_trace_prbs));
        r.tbs = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
        t.records.push_back(r);
    }
    if (rng.bernoulli(0.5))
        t.duration = t.records.back().timestamp +
                     rng.uniform_int(1, 1000) * sim::k_microsecond;
    return t;
}

// The invariants the parser guarantees on anything it accepts.
void check_clamped(const trace_data& t)
{
    sim::tick prev = -1;
    for (const auto& r : t.records) {
        EXPECT_GT(r.timestamp, prev);
        prev = r.timestamp;
        EXPECT_GE(r.mcs, -1);
        EXPECT_LT(r.mcs, k_num_mcs);
        EXPECT_GE(r.prbs, 0);
        EXPECT_LE(r.prbs, k_max_trace_prbs);
    }
    EXPECT_FALSE(t.records.empty());
}

// What parse_trace_csv makes of `field` as the timestamp of a one-record
// trace: the value in microseconds, or which check turned it away.
std::string timestamp_outcome(const std::string& field)
{
    try {
        const trace_data t = parse_trace_csv(field + ",5,10,100\n", "field");
        return std::to_string(t.records[0].timestamp / sim::k_microsecond);
    } catch (const trace_parse_error& e) {
        const std::string msg = e.what();
        if (msg.find("is not an integer") != std::string::npos) return "reject";
        if (msg.find("negative timestamp") != std::string::npos) return "negative";
        if (msg.find("too large") != std::string::npos) return "too large";
        return msg;
    }
}

// The same classification from the field parser's original definition:
// trim ' ', '\t', '\r', a field of 32+ characters is rejected, the rest must
// be consumed whole by strtoll(base 10) without ERANGE.
std::string strtoll_outcome(std::string_view field)
{
    while (!field.empty() && (field.front() == ' ' || field.front() == '\t' ||
                              field.front() == '\r'))
        field.remove_prefix(1);
    while (!field.empty() && (field.back() == ' ' || field.back() == '\t' ||
                              field.back() == '\r'))
        field.remove_suffix(1);
    if (field.empty() || field.size() >= 32) return "reject";
    const std::string buf(field);
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(buf.c_str(), &end, 10);
    if (errno != 0 || end != buf.c_str() + buf.size()) return "reject";
    if (v < 0) return "negative";
    if (v > (std::int64_t{1} << 52)) return "too large";
    return std::to_string(v);
}

// --- reference parser --------------------------------------------------------
//
// The line-by-line parser the one-pass scanner replaced, kept verbatim as the
// specification of the accepted format: split on '\n', trim each line, then
// classify it and split data lines on ','.

namespace reference {

constexpr std::int64_t k_max_timestamp_us = std::int64_t{1} << 52;

[[noreturn]] void fail_line(const std::string& name, std::size_t line,
                            const std::string& what)
{
    throw trace_parse_error("trace \"" + name + "\" line " + std::to_string(line) +
                            ": " + what);
}

bool parse_int(std::string_view field, std::int64_t& out)
{
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

trace_data parse(std::string_view text, const std::string& name)
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
        if (line.rfind("timestamp", 0) == 0) continue;

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
        r.mcs = static_cast<int>(std::clamp<std::int64_t>(field[1], -1, k_num_mcs - 1));
        r.prbs =
            static_cast<int>(std::clamp<std::int64_t>(field[2], 0, k_max_trace_prbs));
        r.tbs = static_cast<std::uint32_t>(
            std::clamp<std::int64_t>(field[3], 0, std::int64_t{0xffffffff}));
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

}  // namespace reference

// What a parser makes of `text`: the records and duration it accepted, or
// the text of the error it threw.
struct parse_outcome {
    std::vector<dci_record> records;
    sim::tick duration = 0;
    std::string error;

    bool operator==(const parse_outcome&) const = default;
};

template <class Parse>
parse_outcome outcome_of(Parse&& parse, std::string_view text)
{
    parse_outcome o;
    try {
        trace_data t = parse(text, "doc");
        o.records = std::move(t.records);
        o.duration = t.duration;
    } catch (const trace_parse_error& e) {
        o.error = e.what();
    }
    return o;
}

void expect_same_outcome(std::string_view text, const std::string& label)
{
    const parse_outcome want = outcome_of(reference::parse, text);
    const parse_outcome got = outcome_of(parse_trace_csv, text);
    ASSERT_EQ(got.error, want.error) << label;
    ASSERT_EQ(got.duration, want.duration) << label;
    ASSERT_EQ(got.records, want.records) << label;
}

std::string pick(sim::rng& rng, const std::vector<std::string>& from)
{
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
}

std::string digit_run(sim::rng& rng, int n)
{
    std::string s(static_cast<std::size_t>(n), '0');
    for (auto& c : s) c = static_cast<char>('0' + rng.uniform_int(0, 9));
    return s;
}

// One integer field. A clean field is `value` in whitespace and an optional
// '+' that the rules accept; a rough one mixes in what they reject or treat
// specially: signs, 17-20-digit runs, 31/32-character fields and stray
// vocabulary.
std::string random_field(sim::rng& rng, std::int64_t value, bool rough)
{
    static const std::vector<std::string> lead = {" ", "\t", "\r", "\v", "\f", "\v ",
                                                  "\t\r", ""};
    static const std::vector<std::string> trail = {" ", "\t", "\r", "\t \r", ""};
    static const std::vector<std::string> odd = {
        "+", "-", "+-", "--", "x", "1e3", "0x1", ".", "#", "duration_us=",
        "timestamp", ",", "\r\n", "\n", "\v", "\f"};
    std::string f;
    if (rng.bernoulli(0.3)) f += pick(rng, lead);
    if (rng.bernoulli(0.1)) f += '+';
    if (!rough) {
        f += std::to_string(value);
    } else {
        if (rng.bernoulli(0.2)) f += pick(rng, odd);
        switch (rng.uniform_int(0, 3)) {
        case 0:  // around the int64 and 2^52 limits
            f += digit_run(rng, static_cast<int>(rng.uniform_int(17, 20)));
            break;
        case 1: {  // exactly 31 or 32 characters once trimmed
            const std::string v = std::to_string(value);
            const auto width = static_cast<std::size_t>(rng.uniform_int(31, 32));
            const std::size_t used = f.size() + v.size();
            f += std::string(width > used ? width - used : 0, '0') + v;
            break;
        }
        default:
            f += std::to_string(value);
        }
        if (rng.bernoulli(0.2)) f += pick(rng, odd);
    }
    if (rng.bernoulli(0.3)) f += pick(rng, trail);
    return f;
}

// A document from the format's vocabulary: mostly well-formed records with
// increasing timestamps, so later lines get parsed too, mixed with comments,
// directives, headers, blank lines, CRLF endings and damaged fields.
std::string random_document(sim::rng& rng)
{
    std::string doc;
    std::int64_t ts = rng.uniform_int(0, 3);
    const int lines = static_cast<int>(rng.uniform_int(0, 12));
    for (int l = 0; l < lines; ++l) {
        const std::int64_t kind = rng.uniform_int(0, 19);
        if (kind == 0) {
            doc += pick(rng, {"", " ", "\t", "\r", " \r", "\t \r", "\r\t", "\v"});
        } else if (kind == 1) {
            doc += pick(rng, {"#", " # note", "#duration_us", "\t#x"});
        } else if (kind == 2) {
            doc += pick(rng, {"# duration_us=", "#duration_us=", " # a duration_us="}) +
                   random_field(rng, rng.uniform_int(0, 20000), rng.bernoulli(0.3));
        } else if (kind == 3) {
            doc += pick(rng, {"timestamp_us,mcs,prbs,tbs_bytes", "timestamp",
                              " timestampx", "\ttimestamp_us", "time_us,mcs"});
        } else {
            ts += rng.bernoulli(0.9) ? rng.uniform_int(1, 1000) : -rng.uniform_int(0, 5);
            const std::int64_t values[4] = {ts, rng.uniform_int(-3, 30),
                                            rng.uniform_int(-3, 300),
                                            rng.uniform_int(-3, 5000)};
            const bool rough = rng.bernoulli(0.15);
            const int fields =
                rough && rng.bernoulli(0.3) ? static_cast<int>(rng.uniform_int(1, 6)) : 4;
            for (int f = 0; f < fields; ++f) {
                if (f > 0) doc += ',';
                doc += random_field(rng, values[std::min(f, 3)], rough);
            }
        }
        if (l + 1 < lines || rng.bernoulli(0.7))
            doc += rng.bernoulli(0.2) ? "\r\n" : "\n";
    }
    return doc;
}

}  // namespace

TEST(trace_fuzz, csv_integer_fields_match_strtoll_table)
{
    const std::pair<std::string, std::string> table[] = {
        {"+5", "5"},
        {"-1", "negative"},
        {"+-1", "reject"},
        {"--1", "reject"},
        {"-+1", "reject"},
        {"+", "reject"},
        {"-", "reject"},
        {"\v7", "7"},
        {"\f\v+7", "7"},
        {"\v-3", "negative"},
        {"7\v", "reject"},
        {"007", "7"},
        {"-0", "0"},
        {"4503599627370496", "4503599627370496"},  // 2^52 us: the largest timestamp
        {"4503599627370497", "too large"},
        {"9223372036854775807", "too large"},
        {"9223372036854775808", "reject"},  // ERANGE
        {"-9223372036854775808", "negative"},
        {"-9223372036854775809", "reject"},
        {"0x10", "reject"},
        {"1e3", "reject"},
        {"1.0", "reject"},
        {"5 ", "5"},
        {"\t 5\t", "5"},
        {"- 1", "reject"},
        {"", "reject"},
        {std::string(30, '0') + "5", "5"},       // 31 characters
        {std::string(31, '0') + "5", "reject"},  // 32 characters
    };
    for (const auto& [field, expect] : table) {
        EXPECT_EQ(timestamp_outcome(field), expect) << "field \"" << field << "\"";
        EXPECT_EQ(strtoll_outcome(field), expect) << "field \"" << field << "\"";
    }
}

TEST(trace_fuzz, csv_integer_fields_match_strtoll_random)
{
    sim::rng rng(20261017);
    const std::string alphabet = "0123456789999+-- \t\v\f\rxe.";
    for (int i = 0; i < 20000; ++i) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(0, 24));
        std::string field(n, '0');
        for (auto& c : field)
            c = alphabet[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
        ASSERT_EQ(timestamp_outcome(field), strtoll_outcome(field))
            << "field \"" << field << "\"";
    }
}

TEST(trace_fuzz, csv_roundtrip_is_exact)
{
    sim::rng rng(20260726);
    for (int i = 0; i < 200; ++i) {
        const trace_data t = random_trace(rng);
        const trace_data back = parse_trace_csv(to_trace_csv(t), t.name);
        ASSERT_EQ(back.records, t.records) << "iter " << i;
        EXPECT_EQ(back.duration, t.duration) << "iter " << i;
        EXPECT_EQ(back.name, t.name);
    }
}

TEST(trace_fuzz, random_byte_soup_never_crashes_the_parser)
{
    sim::rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(0, 2000));
        std::string soup(n, '\0');
        for (auto& c : soup) {
            // Bias toward CSV-looking bytes so line parsing gets exercised.
            c = rng.bernoulli(0.7)
                    ? static_cast<char>("0123456789,-\n #"[rng.uniform_int(0, 14)])
                    : static_cast<char>(rng.uniform_int(0, 255));
        }
        try {
            check_clamped(parse_trace_csv(soup, "soup"));
        } catch (const trace_parse_error& e) {
            EXPECT_NE(std::string(e.what()).find("soup"), std::string::npos);
        }
    }
    SUCCEED();
}

TEST(trace_fuzz, truncated_serializations_never_crash)
{
    sim::rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const trace_data t = random_trace(rng);
        const std::string csv = to_trace_csv(t);
        const auto csv_cut = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(csv.size())));
        try {
            check_clamped(parse_trace_csv(csv.substr(0, csv_cut), "cut"));
        } catch (const trace_parse_error&) {
        }
    }
    SUCCEED();
}

TEST(trace_fuzz, out_of_order_timestamps_name_the_offending_line)
{
    const char* csv =
        "timestamp_us,mcs,prbs,tbs_bytes\n"
        "0,10,51,1000\n"
        "1000,11,51,1000\n"
        "500,12,51,1000\n";  // line 4 rewinds
    try {
        parse_trace_csv(csv, "ooo");
        FAIL() << "out-of-order timestamps must throw";
    } catch (const trace_parse_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("strictly increasing"), std::string::npos) << msg;
    }
}

TEST(trace_fuzz, malformed_fields_name_the_offending_line)
{
    try {
        parse_trace_csv("0,10,51,1000\n500,banana,51,1000\n", "bad");
        FAIL() << "non-numeric field must throw";
    } catch (const trace_parse_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("banana"), std::string::npos) << msg;
    }
    EXPECT_THROW(parse_trace_csv("1,2\n", "short"), trace_parse_error);
    EXPECT_THROW(parse_trace_csv("1,2,3,4,5\n", "long"), trace_parse_error);
    EXPECT_THROW(parse_trace_csv("-5,2,3,4\n", "neg"), trace_parse_error);
    EXPECT_THROW(parse_trace_csv("", "empty"), trace_parse_error);
    EXPECT_THROW(parse_trace_csv("# only comments\n", "comments"), trace_parse_error);
}

TEST(trace_fuzz, absurd_mcs_and_prb_values_are_clamped)
{
    const trace_data t = parse_trace_csv(
        "0,999,99999,1000\n"
        "1000,-999,-7,2000\n",
        "absurd");
    ASSERT_EQ(t.records.size(), 2u);
    EXPECT_EQ(t.records[0].mcs, k_num_mcs - 1);
    EXPECT_EQ(t.records[0].prbs, k_max_trace_prbs);
    EXPECT_EQ(t.records[1].mcs, -1);
    EXPECT_EQ(t.records[1].prbs, 0);
}

TEST(trace_fuzz, scanner_matches_reference_on_vocabulary_documents)
{
    sim::rng rng(20261020);
    for (int i = 0; i < 20000; ++i) {
        const std::string doc = random_document(rng);
        expect_same_outcome(doc,
                            "iter " + std::to_string(i) + " document \"" + doc + "\"");
    }
}

TEST(trace_fuzz, scanner_matches_reference_on_mutated_committed_traces)
{
    static const char vocabulary[] = "0123456789+- \t\r\v\f,#\nx=_";
    sim::rng rng(29);
    for (const char* file : {"nr_scope_fdd600_downtown", "nr_scope_tdd2500_driving",
                             "synthetic_squarewave"}) {
        std::string text;
        ASSERT_TRUE(stats::read_text_file(
            std::string(L4SPAN_SOURCE_ROOT) + "/traces/" + file + ".csv", text));
        expect_same_outcome(text, file);
        for (int i = 0; i < 60; ++i) {
            std::string doc = text;
            const int edits = static_cast<int>(rng.uniform_int(1, 4));
            for (int e = 0; e < edits; ++e) {
                // Aim most edits at the head, where the comments, directive
                // and header live, and the rest anywhere.
                const auto span = static_cast<std::int64_t>(doc.size());
                const std::int64_t reach =
                    rng.bernoulli(0.5) ? std::min<std::int64_t>(span, 300) : span;
                const auto at = static_cast<std::size_t>(rng.uniform_int(0, reach));
                const auto pick_at = rng.uniform_int(0, sizeof(vocabulary) - 2);
                const char c = rng.bernoulli(0.8)
                                   ? vocabulary[pick_at]
                                   : static_cast<char>(rng.uniform_int(0, 255));
                switch (rng.uniform_int(0, 3)) {
                case 0:
                    if (at < doc.size()) doc[at] = c;
                    break;
                case 1:
                    doc.insert(at, 1, c);
                    break;
                case 2:
                    if (at < doc.size()) doc.erase(at, 1);
                    break;
                default:
                    doc.resize(at);
                }
            }
            expect_same_outcome(doc,
                                std::string(file) + " mutation " + std::to_string(i));
        }
    }
}
