# simlint-fixture-path: repro/core/router.py
"""Known-good fixture: the half-up helper for counts (np.floor(x + 0.5)
on arrays); rounding to decimal places is for display formatting only and
stays legal."""

import numpy as np

from ..query.records import half_up


def route_count(load_factor, n):
    return half_up(load_factor * n)


def route_counts(load_factors, incoming_records):
    return np.floor(load_factors * incoming_records + 0.5).astype(np.int64)


def display(value):
    return round(value, 2)


def display_array(values):
    return np.round(values, 3), np.around(values, decimals=2), values.round(1)
