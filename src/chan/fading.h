// Per-UE wireless channel: a Gauss-Markov shadowed SNR process whose
// correlation time equals the channel coherence time. Implements
// chan::link_model (the channel_profile knobs live in link_model.h).
#pragma once

#include "chan/link_model.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace l4span::chan {

class fading_channel final : public link_model {
public:
    fading_channel(channel_profile profile, sim::rng rng)
        : profile_(std::move(profile)), rng_(std::move(rng)), snr_db_(profile_.mean_snr_db)
    {
    }

    // SNR at time `t`; advances the process (t must be non-decreasing).
    double snr_db(sim::tick t) override;

    int mcs(sim::tick t) override { return mcs_ = mcs_from_snr(snr_db(t), mcs_); }

    const channel_profile& profile() const override { return profile_; }

private:
    channel_profile profile_;
    sim::rng rng_;
    double snr_db_;
    sim::tick last_ = 0;
    int mcs_ = -1;  // last mcs() result: the next query's first guess
    // Memoized OU step coefficients for the two most recent distinct dt, so
    // the exp/sqrt run once per dt, not once per sample. Two because a
    // backlogged UE under DDDSU is queried 1, 1, 1, then 2 slots apart.
    struct ou_step {
        sim::tick dt = -1;
        double rho = 0.0;
        double sigma = 0.0;
    };
    ou_step memo_[2];
};

}  // namespace l4span::chan
