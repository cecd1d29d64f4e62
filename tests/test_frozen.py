"""The frozen result types keep their arrays read-only through a copy and through pickle.

Each copy must have the bits of its original (``readers.bits``): every attribute,
and each array's dtype, shape, bytes and write flag.
"""
import copy
import pickle
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import cases
from readers import bits
from slcap import (
    ArrayLayout,
    RssiDataset,
    design_series_resistive_match,
    evaluate_pattern,
    impedance_profile,
    make_grid,
    metrics_report,
    parse_at_csq_log,
    power_split_report,
    vswr_profile,
)


def results():
    """One of each frozen result type, by name; a dataset also with its tuples read."""
    f = cases.rlc_sweep(40)
    net = cases.series_through_network(f, cases.RLC.impedance(f))
    profile = impedance_profile(net)
    matched = vswr_profile(profile)
    network = design_series_resistive_match(profile, cases.RLC_F0_HZ)
    layout = ArrayLayout(positions_m=[[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0.05]],
                         weights=[1, 1j, -0.5], frequency_hz=1e9)
    start = datetime(2025, 11, 4, 9, tzinfo=timezone.utc)
    read = parse_at_csq_log("# log\n2025-11-04T09:00:00Z +CSQ: 17,0\n"
                            "2025-11-04T09:00:05+02:00 +CSQ: 99,99\n", environment="lab")
    assert len(read.timestamps) == len(read.iso_timestamps) == 2  # both tuples cached
    return {
        "NetworkData": net,
        "ImpedanceProfile": profile,
        "CapacitorMetrics": metrics_report(profile).pointwise,
        "VswrProfile": matched,
        "PowerSplit": power_split_report(profile, network, matched),
        "ArrayLayout": layout,
        "RadiationPattern": evaluate_pattern(layout, *make_grid(30.0, 45.0)),
        "RssiDataset": parse_at_csq_log("2025-11-04T09:00:00Z +CSQ: 17,0\n"),
        "RssiDataset built": RssiDataset([start, start + timedelta(seconds=1)], [3, 99], [0, 7],
                                         antenna="novel"),
        "RssiDataset read": read,
    }


RESULTS = results()
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle {protocol}": lambda obj, p=protocol: pickle.loads(pickle.dumps(obj, p))
       for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", RESULTS)
def test_copy_keeps_the_bits_and_the_read_only_arrays(name, how):
    original = RESULTS[name]
    arrays = [v for v in vars(original).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    got = COPIES[how](original)
    assert type(got) is type(original) and got is not original
    assert bits(got) == bits(original)
