#include "chan/fading.h"

#include <cmath>
#include <utility>

namespace l4span::chan {

// Mean SNRs are calibrated so the 51-PRB / DDDSU cell delivers the paper's
// ~40 Mbit/s aggregate downlink capacity on a static channel (MCS ~15).
channel_profile channel_profile::static_channel(double mean_snr_db)
{
    return {"static", mean_snr_db, 0.8, sim::from_ms(500)};
}

channel_profile channel_profile::pedestrian(double mean_snr_db)
{
    // 3 km/h: coherence ~ 24.9 ms * 70/3.
    return {"pedestrian", mean_snr_db, 3.0, sim::from_ms(24.9 * 70.0 / 3.0)};
}

channel_profile channel_profile::vehicular(double mean_snr_db)
{
    return {"vehicular", mean_snr_db, 4.5, k_vehicular_coherence};
}

channel_profile channel_profile::mobile(double mean_snr_db)
{
    // Mixture of pedestrian and vehicular speeds: intermediate coherence,
    // wide swings.
    return {"mobile", mean_snr_db, 4.0, sim::from_ms(24.9 * 70.0 / 30.0)};
}

double fading_channel::snr_db(sim::tick t)
{
    if (t <= last_) return snr_db_;
    if (profile_.coherence <= 0 || profile_.sigma_db <= 0.0) {
        last_ = t;
        snr_db_ = profile_.mean_snr_db;
        return snr_db_;
    }
    // Ornstein-Uhlenbeck (Gauss-Markov) update with correlation
    // rho = exp(-dt / coherence). A backlogged UE is sampled in DL slots, so
    // dt is one or two slot periods on almost every call: memoize
    // (rho, noise_sigma) for the last two dt — identical inputs give
    // identical doubles, so the memo changes nothing observable, it only
    // skips the exp/sqrt.
    const sim::tick dt_ticks = t - last_;
    if (memo_[0].dt != dt_ticks) {
        if (memo_[1].dt == dt_ticks) {
            std::swap(memo_[0], memo_[1]);
        } else {
            memo_[1] = memo_[0];
            const double dt = static_cast<double>(dt_ticks);
            const double rho = std::exp(-dt / static_cast<double>(profile_.coherence));
            memo_[0] = {dt_ticks, rho, profile_.sigma_db * std::sqrt(1.0 - rho * rho)};
        }
    }
    const double rho = memo_[0].rho;
    const double noise_sigma = memo_[0].sigma;
    snr_db_ = profile_.mean_snr_db + rho * (snr_db_ - profile_.mean_snr_db) +
              rng_.normal(0.0, noise_sigma);
    last_ = t;
    return snr_db_;
}

}  // namespace l4span::chan
