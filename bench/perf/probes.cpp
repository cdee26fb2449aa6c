#include "probes.h"

#include "chan/fading.h"
#include "sim/event_loop.h"
#include "stats/sample_set.h"

using namespace l4span;

namespace perf {

namespace {

double ns_since(steady::time_point t0)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now() - t0).count());
}


class null_hook final : public ran::cu_hook {
public:
    bool on_dl_packet(net::packet&, ran::rnti_t, ran::drb_id_t, ran::pdcp_sn_t,
                      sim::tick) override
    {
        return true;
    }
    bool on_ul_packet(net::packet&, ran::rnti_t, sim::tick) override { return true; }
    void on_delivery_status(const ran::dl_delivery_status&, sim::tick) override {}
};

}  // namespace

void hook_stats::add(const hook_stats& o)
{
    dl_calls += o.dl_calls;
    ul_calls += o.ul_calls;
    fb_calls += o.fb_calls;
    dl_ns += o.dl_ns;
    ul_ns += o.ul_ns;
    fb_ns += o.fb_ns;
}

std::unique_ptr<ran::cu_hook::ue_state> timed_hook::detach_ue(ran::rnti_t ue)
{
    return inner_.detach_ue(ue);
}

void timed_hook::attach_ue(ran::rnti_t ue, std::unique_ptr<ue_state> state)
{
    inner_.attach_ue(ue, std::move(state));
}

bool timed_hook::on_dl_packet(net::packet& pkt, ran::rnti_t ue, ran::drb_id_t drb,
                              ran::pdcp_sn_t sn, sim::tick now)
{
    const auto t0 = steady::now();
    const bool keep = inner_.on_dl_packet(pkt, ue, drb, sn, now);
    stats_.dl_ns += ns_since(t0);
    ++stats_.dl_calls;
    return keep;
}

bool timed_hook::on_ul_packet(net::packet& pkt, ran::rnti_t ue, sim::tick now)
{
    const auto t0 = steady::now();
    const bool keep = inner_.on_ul_packet(pkt, ue, now);
    stats_.ul_ns += ns_since(t0);
    ++stats_.ul_calls;
    return keep;
}

void timed_hook::on_delivery_status(const ran::dl_delivery_status& status, sim::tick now)
{
    const auto t0 = steady::now();
    inner_.on_delivery_status(status, now);
    stats_.fb_ns += ns_since(t0);
    ++stats_.fb_calls;
}

void timed_hook::on_dl_discard(ran::rnti_t ue, ran::drb_id_t drb, ran::pdcp_sn_t sn,
                               sim::tick now)
{
    const auto t0 = steady::now();
    inner_.on_dl_discard(ue, drb, sn, now);
    stats_.fb_ns += ns_since(t0);
    ++stats_.fb_calls;
}

double calibrate_hook_bias_ns()
{
    null_hook stub;
    ran::dl_delivery_status st;
    stats::sample_set batches;
    for (int b = 0; b < 5; ++b) {
        timed_hook timed(stub);
        ran::cu_hook& h = timed;
        for (int i = 0; i < 100'000; ++i) h.on_delivery_status(st, i);
        batches.add(timed.stats().fb_ns / static_cast<double>(timed.stats().fb_calls));
    }
    return batches.median();
}

void link_probe::on_query(ran::rnti_t ue, sim::tick t, int prbs)
{
    ++queries;
    if (sample.size() < cap) sample.push_back({ue, t, prbs > 0});
}

replay_cost replay_link_queries(const link_probe& probe, const scenario::cell_spec& cell)
{
    // Per-UE query streams (times non-decreasing within a UE, as the link
    // models require) and one fresh model per UE, built outside the timing.
    std::vector<std::vector<link_query>> by_ue;
    for (const link_query& q : probe.sample) {
        if (by_ue.size() < q.ue) by_ue.resize(q.ue);
        by_ue[q.ue - 1].push_back(q);
    }
    std::vector<std::unique_ptr<chan::link_model>> links;
    for (std::size_t i = 0; i < by_ue.size(); ++i) {
        auto link = scenario::make_ue_link(cell, i);
        if (!link)
            link = std::make_unique<chan::fading_channel>(
                scenario::channel_by_name(cell.channel, i), sim::rng(cell.seed + i + 1));
        links.push_back(std::move(link));
    }

    int sink = 0;
    const auto t0 = steady::now();
    for (std::size_t i = 0; i < by_ue.size(); ++i) {
        chan::link_model& link = *links[i];
        for (const link_query& q : by_ue[i]) {
            sink += link.mcs(q.t);
            if (q.granted) sink += link.prb_cap(q.t);
        }
    }
    replay_cost c;
    c.ns = ns_since(t0);
    c.queries = probe.sample.size();
    volatile int keep = sink;  // the replayed values must not be optimized away
    (void)keep;
    return c;
}

double schedule_fire_ns()
{
    constexpr int k_per_tick = 50;
    constexpr int k_ticks = 10'000;
    std::uint64_t acc = 0;
    std::uint64_t* p = &acc;
    stats::sample_set batches;
    for (int b = 0; b < 5; ++b) {
        sim::event_loop loop;
        const auto t0 = steady::now();
        for (sim::tick t = 1; t <= k_ticks; ++t) {
            for (int j = 0; j < k_per_tick; ++j)
                loop.schedule_at(t, [p, j] { *p += static_cast<std::uint64_t>(j); });
            for (int j = 0; j < k_per_tick; ++j) loop.run_one();
        }
        batches.add(ns_since(t0) / (k_ticks * k_per_tick));
    }
    volatile std::uint64_t keep = acc;
    (void)keep;
    return batches.median();
}

}  // namespace perf
