#include "chan/trace_channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "chan/fading.h"
#include "sim/rng.h"

namespace l4span::chan {

sim::tick trace_data::effective_duration() const
{
    if (duration > 0) return duration;
    if (records.empty()) return 0;
    const sim::tick last = records.back().timestamp;
    const sim::tick gap = records.size() > 1
                              ? records[1].timestamp - records.front().timestamp
                              : sim::from_us(500);
    return last + (gap > 0 ? gap : sim::from_us(500));
}

double trace_data::mean_snr_db() const
{
    double mean = mean_snr_.value;
    if (!std::isnan(mean)) return mean;
    double sum = 0.0;
    for (const auto& r : records) sum += min_snr_db(r.mcs);
    mean = sum / static_cast<double>(records.size());
    mean_snr_.value = mean;
    return mean;
}

void validate_trace_config(const trace_config& cfg)
{
    if (!cfg.data)
        throw std::invalid_argument(
            "trace_config.data is null — load a trace with "
            "chan::load_trace_file(path) or generate one with chan::synth_trace()");
    if (cfg.data->records.empty())
        throw std::invalid_argument(
            "zero-length trace \"" + cfg.data->name +
            "\" — a trace needs at least one DCI record (timestamp,mcs,prbs,tbs)");
    if (!(cfg.time_scale > 0.0))
        throw std::invalid_argument(
            "trace_config.time_scale must be > 0 (got " +
            std::to_string(cfg.time_scale) +
            "; 1.0 = real time, 2.0 = twice as fast, 0.5 = half speed)");
    if (cfg.data->duration > 0 &&
        cfg.data->duration <= cfg.data->records.back().timestamp)
        throw std::invalid_argument(
            "trace \"" + cfg.data->name +
            "\" declares duration <= its last record timestamp — the loop "
            "period must extend past every record (or be 0 to derive it)");
}

trace_channel::trace_channel(trace_config cfg) : cfg_(std::move(cfg))
{
    validate_trace_config(cfg_);
    profile_.name = cfg_.data->name;
    profile_.mean_snr_db = cfg_.data->mean_snr_db();
    profile_.sigma_db = 0.0;
    profile_.coherence = 0;
}

const dci_record& trace_channel::record_at(sim::tick t)
{
    const auto& recs = cfg_.data->records;
    if (t <= last_) return recs[cursor_];
    last_ = t;

    sim::tick pos = cfg_.offset +
                    static_cast<sim::tick>(static_cast<double>(t) * cfg_.time_scale);
    if (pos < 0) pos = 0;
    if (cfg_.loop) {
        const sim::tick dur = cfg_.data->effective_duration();
        const std::int64_t lap = pos / dur;
        pos %= dur;
        if (lap != lap_) {  // wrapped: restart the scan from the trace head
            lap_ = lap;
            cursor_ = 0;
        }
    }
    while (cursor_ + 1 < recs.size() && recs[cursor_ + 1].timestamp <= pos) ++cursor_;
    return recs[cursor_];
}

double trace_channel::snr_db(sim::tick t)
{
    return min_snr_db(mcs(t));
}

int trace_channel::mcs(sim::tick t)
{
    return std::clamp(record_at(t).mcs, -1, k_num_mcs - 1);
}

int trace_channel::prb_cap(sim::tick t)
{
    return std::max(0, record_at(t).prbs);
}

trace_data synth_trace(const synth_trace_spec& spec)
{
    channel_profile p;
    p.name = spec.name;
    p.mean_snr_db = spec.mean_snr_db;
    p.sigma_db = spec.sigma_db;
    p.coherence = spec.coherence;
    fading_channel ch(std::move(p), sim::rng(spec.seed));

    trace_data t;
    t.name = spec.name;
    t.records.reserve(spec.slots);
    for (std::size_t i = 0; i < spec.slots; ++i) {
        const sim::tick when = static_cast<sim::tick>(i) * spec.slot;
        const int m = mcs_from_snr(ch.snr_db(when));
        dci_record r;
        r.timestamp = when;
        r.mcs = m;
        r.prbs = spec.prbs;
        r.tbs = tbs_bytes(m, spec.prbs);
        t.records.push_back(r);
    }
    t.duration = static_cast<sim::tick>(spec.slots) * spec.slot;
    return t;
}

}  // namespace l4span::chan
