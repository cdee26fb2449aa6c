#include "chan/mcs.h"

#include <array>

namespace l4span::chan {

namespace {

// TS 38.214 Table 5.1.3.1-2 (MCS index table 2, 256-QAM), Qm x R/1024.
// SNR thresholds: AWGN BLER-10% operating points (approx.), ~1 dB apart
// near the bottom and ~1.1 dB near the top.
constexpr std::array<mcs_entry, k_num_mcs> k_table{{
    {0, 0.2344, -6.0},  {1, 0.3770, -4.5},  {2, 0.6016, -3.0},  {3, 0.8770, -1.5},
    {4, 1.1758, 0.0},   {5, 1.4766, 1.5},   {6, 1.6953, 2.7},   {7, 1.9141, 3.8},
    {8, 2.1602, 4.9},   {9, 2.4063, 6.0},   {10, 2.5703, 6.9},  {11, 2.7305, 7.8},
    {12, 3.0293, 9.0},  {13, 3.3223, 10.1}, {14, 3.6094, 11.2}, {15, 3.9023, 12.3},
    {16, 4.2129, 13.4}, {17, 4.5234, 14.5}, {18, 4.8164, 15.6}, {19, 5.1152, 16.7},
    {20, 5.3320, 17.6}, {21, 5.5547, 18.5}, {22, 5.8906, 19.7}, {23, 6.2266, 20.9},
    {24, 6.5703, 22.1}, {25, 6.9141, 23.3}, {26, 7.1602, 24.3}, {27, 7.4063, 25.5},
}};

}  // namespace

int mcs_from_snr(double snr_db)
{
    int best = -1;
    for (const auto& e : k_table) {
        if (snr_db >= e.min_snr_db)
            best = e.index;
        else
            break;
    }
    return best;
}

int mcs_from_snr(double snr_db, int hint)
{
    // Inside [threshold(hint), threshold(hint + 1)) the scan would stop at
    // hint. A NaN fails every comparison and takes the scan, as before.
    if (hint >= -1 && hint < k_num_mcs &&
        (hint < 0 || snr_db >= k_table[static_cast<std::size_t>(hint)].min_snr_db) &&
        (hint + 1 == k_num_mcs ||
         snr_db < k_table[static_cast<std::size_t>(hint + 1)].min_snr_db))
        return hint;
    return mcs_from_snr(snr_db);
}

double spectral_efficiency(int mcs)
{
    if (mcs < 0) return 0.0;
    if (mcs >= k_num_mcs) mcs = k_num_mcs - 1;
    return k_table[static_cast<std::size_t>(mcs)].spectral_efficiency;
}

double min_snr_db(int mcs)
{
    if (mcs < 0) return k_table[0].min_snr_db - 1.5;  // below MCS0: no tx
    if (mcs >= k_num_mcs) mcs = k_num_mcs - 1;
    return k_table[static_cast<std::size_t>(mcs)].min_snr_db;
}

std::uint32_t tbs_bytes(int mcs, int n_prb, double overhead)
{
    if (mcs < 0 || n_prb <= 0) return 0;
    const double res = 168.0 * (1.0 - overhead) * n_prb;
    const double bits = res * spectral_efficiency(mcs);
    return static_cast<std::uint32_t>(bits / 8.0);
}

}  // namespace l4span::chan
