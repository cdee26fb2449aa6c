// CSV trace codec for chan::trace_channel (human-editable, what NR-Scope
// post-processing emits):
//   # comment                         — ignored; `# duration_us=N` sets the
//                                       loop period explicitly
//   timestamp_us,mcs,prbs,tbs_bytes   — optional header line, skipped
//   0,15,51,2800
//   500,14,51,2650
//
// Acceptance contract (what parse_trace_csv implements, in one pass):
//   - Lines end at '\n'; line numbers in errors count from 1. A line is
//     trimmed of leading ' ' and '\t' and trailing '\r' and ' '; an empty
//     line is skipped.
//   - A line starting with '#' is a comment. If it holds `duration_us=`,
//     the rest of the line (from the first occurrence) is an integer field
//     in (0, 2^52] microseconds; the last directive wins.
//   - A line starting with `timestamp` is a header and is skipped.
//   - Every other line is a record of exactly 4 comma-separated integer
//     fields. A field is trimmed of ' ', '\t' and '\r' at both ends and
//     must then be 1..31 characters: any run of '\v', '\f' and trim
//     characters, one optional '+' or '-' ("+-" is rejected), then decimal
//     digits to the end, with a value that fits in int64 — what
//     strtoll(base 10) consuming the whole field accepts.
//   - Timestamps are in [0, 2^52] microseconds and strictly increasing;
//     MCS is clamped into [-1, 27], PRBs into [0, 275], TBS into
//     [0, 2^32 - 1].
//   - At least one record; a duration_us directive must exceed the last
//     record's timestamp.
// Anything else — malformed fields, out-of-order timestamps, a truncated
// record — throws trace_parse_error naming the offending line, never
// crashes or hangs.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "chan/trace_channel.h"

namespace l4span::chan {

class trace_parse_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

trace_data parse_trace_csv(std::string_view text, const std::string& name);
std::string to_trace_csv(const trace_data& t);

// Reads the CSV trace at `path` in one sized read and parses it, naming
// it after its basename. Throws std::invalid_argument with the path and
// the expected format when the file cannot be opened, std::runtime_error
// with the path and the OS reason when it cannot be read (a directory, an
// I/O error); parse failures propagate as trace_parse_error.
std::shared_ptr<const trace_data> load_trace_file(const std::string& path);

// False on I/O failure (mirrors stats::write_text_file).
bool save_trace_csv(const std::string& path, const trace_data& t);

}  // namespace l4span::chan
