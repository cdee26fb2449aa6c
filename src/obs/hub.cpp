#include "obs/hub.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "stats/json.h"

namespace l4span::obs {

hub::hub(std::size_t num_shards, config cfg) : cfg_(std::move(cfg))
{
    if (num_shards == 0) num_shards = 1;
    shards_.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
        auto st = std::make_unique<shard_state>();
        st->tr.configure(static_cast<std::uint8_t>(s), cfg_.ring_capacity);
        if (cfg_.lifecycle_flow != ~0ull)
            st->tr.set_lifecycle_flow(cfg_.lifecycle_flow);
        st->tr.set_incident_handler([this, s](sim::tick now, const char* why) {
            record_incident(s, now, why);
        });
        shards_.push_back(std::move(st));
    }
}

void hub::sample(sim::event_loop& loop, std::size_t shard)
{
    shard_state& st = *shards_[shard];
    st.snapshots += st.reg.snapshot_line(loop.now(), st.tr.shard());
    st.snapshots += '\n';
}

void hub::start_sampling(sim::event_loop& loop, std::size_t shard)
{
    loop.schedule_after(cfg_.snapshot_period, [this, &loop, shard] {
        sample(loop, shard);
        start_sampling(loop, shard);
    });
}

std::string hub::event_line(const trace_event& ev)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"t\":%lld,\"p\":\"%s\",\"r\":\"%s\",\"s\":%u,\"a\":%lu,"
                  "\"b\":%llu,\"c\":%llu}",
                  static_cast<long long>(ev.t),
                  point_name(static_cast<point>(ev.pt)),
                  reason_name(static_cast<reason>(ev.rsn)),
                  static_cast<unsigned>(ev.shard),
                  static_cast<unsigned long>(ev.a),
                  static_cast<unsigned long long>(ev.b),
                  static_cast<unsigned long long>(ev.c));
    return buf;
}

void hub::record_incident(std::size_t shard, sim::tick now, const char* why)
{
    shard_state& st = *shards_[shard];
    if (st.inc_names.size() >= cfg_.max_incidents) return;

    std::vector<trace_event> tail;
    tail.reserve(cfg_.flight_last_n);
    st.tr.ring().last_n(cfg_.flight_last_n, tail);

    char name[96];
    std::snprintf(name, sizeof(name), "s%zu-%zu-%s", shard, st.inc_names.size(),
                  why);
    auto head = stats::json::object();
    head.set("incident", why)
        .set("t", static_cast<std::int64_t>(now))
        .set("s", static_cast<std::uint64_t>(shard))
        .set("events", static_cast<std::uint64_t>(tail.size()))
        .set("ring_total", st.tr.ring().total());
    std::string body = head.dump_compact();
    body += '\n';
    for (const trace_event& ev : tail) {
        body += event_line(ev);
        body += '\n';
    }
    st.inc_names.emplace_back(name);
    st.inc_bodies.push_back(std::move(body));
}

void hub::note_invariant(std::size_t shard, const char* name, bool ok, sim::tick now)
{
    shard_state& st = *shards_[shard];
    st.tr.emit(now, point::invariant, reason::none, ok ? 0u : 1u);
    if (!ok) record_incident(shard, now, name);
}

void hub::gather_incidents()
{
    incident_names_.clear();
    incident_bodies_.clear();
    for (const auto& st : shards_) {
        for (std::size_t i = 0; i < st->inc_names.size(); ++i) {
            incident_names_.push_back(st->inc_names[i]);
            incident_bodies_.push_back(st->inc_bodies[i]);
        }
    }
}

const std::vector<std::string>& hub::incident_names()
{
    gather_incidents();
    return incident_names_;
}

std::string hub::incident_text(std::size_t i)
{
    gather_incidents();
    return incident_bodies_.at(i);
}

std::size_t hub::incident_count()
{
    gather_incidents();
    return incident_names_.size();
}

std::string hub::metrics_text() const
{
    std::string out;
    for (const auto& st : shards_) out += st->snapshots;
    return out;
}

std::string hub::merged_trace_text() const
{
    // Each ring is internally (time, seq)-ordered; tag events with their
    // per-shard sequence number and merge across shards by
    // (time, shard, seq) — a total order independent of --jobs.
    struct tagged {
        const trace_event* ev;
        std::uint64_t seq;
    };
    std::vector<tagged> all;
    for (const auto& st : shards_) {
        const trace_ring& ring = st->tr.ring();
        const std::uint64_t first = ring.total() - ring.size();
        for (std::size_t i = 0; i < ring.size(); ++i)
            all.push_back({&ring.at(i), first + i});
    }
    std::sort(all.begin(), all.end(), [](const tagged& x, const tagged& y) {
        if (x.ev->t != y.ev->t) return x.ev->t < y.ev->t;
        if (x.ev->shard != y.ev->shard) return x.ev->shard < y.ev->shard;
        return x.seq < y.seq;
    });
    std::string out;
    for (const tagged& tg : all) {
        out += event_line(*tg.ev);
        out += '\n';
    }
    return out;
}

void hub::finish(sim::tick now)
{
    if (!finished_) {
        finished_ = true;
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            shard_state& st = *shards_[s];
            st.snapshots += st.reg.snapshot_line(now, st.tr.shard());
            st.snapshots += '\n';
        }
    }
    if (cfg_.out_prefix.empty()) return;

    gather_incidents();
    const auto write = [this](const std::string& suffix, const std::string& text) {
        const std::string path = cfg_.out_prefix + suffix;
        if (!stats::write_text_file(path, text))
            throw std::runtime_error("obs: cannot write " + path);
    };
    write(".metrics.jsonl", metrics_text());
    write(".trace.jsonl", merged_trace_text());
    for (std::size_t i = 0; i < incident_names_.size(); ++i)
        write(".incident-" + incident_names_[i] + ".jsonl", incident_bodies_[i]);
}

}  // namespace l4span::obs
