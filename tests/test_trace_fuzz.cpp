// Property/fuzz tests for the DCI trace codec (chan/trace_io): random byte
// soup, truncated inputs, out-of-order timestamps and absurd MCS/PRB
// values must never crash or hang — they either parse with clamping or
// throw a trace_parse_error naming the offending line. Valid traces
// round-trip exactly through the CSV codec.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "chan/trace_io.h"
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
