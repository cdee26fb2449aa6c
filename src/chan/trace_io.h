// CSV trace codec for chan::trace_channel (human-editable, what NR-Scope
// post-processing emits):
//   # comment                         — ignored; `# duration_us=N` sets the
//                                       loop period explicitly
//   timestamp_us,mcs,prbs,tbs_bytes   — optional header line, skipped
//   0,15,51,2800
//   500,14,51,2650
// Timestamps are integer microseconds and must be strictly increasing; MCS
// is clamped into [-1, 27] and PRBs into [0, 275]. Anything else —
// malformed fields, out-of-order timestamps, a truncated record — throws
// trace_parse_error naming the offending line, never crashes or hangs.
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

// Reads and parses the CSV trace at `path`, named after its basename.
// Throws std::invalid_argument with the path and the expected format when
// the file cannot be opened; parse failures propagate as trace_parse_error.
std::shared_ptr<const trace_data> load_trace_file(const std::string& path);

// False on I/O failure (mirrors stats::write_text_file).
bool save_trace_csv(const std::string& path, const trace_data& t);

}  // namespace l4span::chan
