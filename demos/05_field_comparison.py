"""
Comparing field trials from modem signal-quality logs
=====================================================

Two receivers log +CSQ signal-quality responses while driving the same
route.  This script parses both logs, converts the 0-31 index to dBm,
checks a couple of claimed readings against the standard mapping, and
asks Welch's t-test whether the difference in means is real.
"""

from slcap import (
    check_dbm_mapping,
    compare_datasets,
    dbm_to_rssi,
    format_p_value,
    parse_at_csq_log,
    rssi_to_dbm,
    welch_t_test,
)

# ----------------------------------------------------------------------
# Logs are timestamped +CSQ responses; 99 means "not known or not
# detectable" and is kept in the dataset but excluded from statistics.

NOVEL_LOG = """\
# chip antenna, rooftop drive
2025-11-04T09:00:00Z +CSQ: 10,0
2025-11-04T09:05:00Z +CSQ: 11,0
2025-11-04T09:10:00Z +CSQ: 12,0
2025-11-04T09:15:00Z +CSQ: 11,0
2025-11-04T09:20:00Z +CSQ: 99,99
2025-11-04T09:25:00Z +CSQ: 11,0
2025-11-04T09:30:00Z +CSQ: 11,0
"""

BASELINE_LOG = """\
# quarter-wave whip, same route
2025-11-04T09:00:00Z +CSQ: 15,0
2025-11-04T09:05:00Z +CSQ: 14,0
2025-11-04T09:10:00Z +CSQ: 16,0
2025-11-04T09:15:00Z +CSQ: 15,0
2025-11-04T09:20:00Z +CSQ: 15,0
2025-11-04T09:25:00Z +CSQ: 16,0
2025-11-04T09:30:00Z +CSQ: 14,0
"""

novel = parse_at_csq_log(NOVEL_LOG, environment="rooftop", antenna="chip")
baseline = parse_at_csq_log(BASELINE_LOG, environment="rooftop", antenna="whip")
print(f"novel:    {novel.n_samples} samples, {novel.n_known} known")
print(f"baseline: {baseline.n_samples} samples, {baseline.n_known} known")

# ----------------------------------------------------------------------
# The index maps to dBm by an affine rule: -113 dBm at 0, two dBm per
# step.  The converter inverts, too, and flags claims that fit no line.

print(f"rssi 15 -> {rssi_to_dbm(15):.0f} dBm; -73 dBm -> rssi {dbm_to_rssi(-73.0)}")
for flag in check_dbm_mapping([(11, -89.0), (13, -89.0)]):
    print("claim check:", flag)

# ----------------------------------------------------------------------
# Welch's t-test on the known readings: unequal variances allowed, so
# it is safe for small, scrappy field samples.

res = welch_t_test(novel.known_rssi(), baseline.known_rssi())
print(f"t = {res.t:.3f}, df = {res.df:.2f}, p = {format_p_value(res.p_value)}")

# ----------------------------------------------------------------------
# The full comparison bundles the means, the baseline-relative percent
# difference, the performance ratio, the statistics, and -- given the
# physical sizes -- how much board area the novel part saves.

report = compare_datasets(
    novel,
    baseline,
    novel_area_mm2=0.3969,
    baseline_area_mm2=245.0,
    claimed_dbm=[(11, -89.0), (13, -89.0)],
)
print()
print(report.to_text(), end="")
