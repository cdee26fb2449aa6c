// 5G NR link adaptation: SNR -> MCS -> transport block size.
//
// Spectral efficiencies follow 3GPP TS 38.214 Table 5.1.3.1-2 (256-QAM).
// SNR thresholds are the standard AWGN switching points with a small
// implementation margin; transport block sizing uses the resource-element
// budget of a PRB-slot with typical control/DMRS overhead.
#pragma once

#include <cstdint>

namespace l4span::chan {

inline constexpr int k_num_mcs = 28;

struct mcs_entry {
    int index;
    double spectral_efficiency;  // information bits per resource element
    double min_snr_db;           // lowest SNR at which this MCS meets ~10% BLER
};

// Highest MCS whose SNR threshold is satisfied; -1 when below MCS0 (no tx).
int mcs_from_snr(double snr_db);

// The same value, testing `hint`'s threshold bracket before the table scan:
// a slowly moving SNR usually keeps the previous slot's MCS.
int mcs_from_snr(double snr_db, int hint);

double spectral_efficiency(int mcs);

// Lowest SNR at which `mcs` is selected (the table threshold); for -1 (no
// transmission) a value strictly below the MCS0 threshold. Inverse of
// mcs_from_snr in the sense that mcs_from_snr(min_snr_db(m)) == m.
double min_snr_db(int mcs);

// Bytes carried by `n_prb` PRBs in one slot at `mcs`.
// 12 subcarriers x 14 symbols = 168 REs per PRB-slot, with `overhead`
// (DMRS + control) removed.
std::uint32_t tbs_bytes(int mcs, int n_prb, double overhead = 0.14);

}  // namespace l4span::chan
