# simlint-fixture-path: repro/core/router.py
"""Known-bad fixture: banker's rounding on a record count (the PR 5
ControlProxy.route bug class), through builtin round() and numpy's
half-to-even forms."""

import numpy as np
from numpy import rint


def route_count(load_factor, n):
    return round(load_factor * n)  # expect: SL004


def scaled_records(records_per_epoch, factor):
    return max(1, int(round(records_per_epoch * factor)))  # expect: SL004


def route_counts(load_factors, incoming_records):
    return np.round(load_factors * incoming_records).astype(np.int64)  # expect: SL004


def route_counts_around(load_factors, incoming_records):
    return np.around(load_factors * incoming_records, decimals=0)  # expect: SL004


def route_counts_rint(load_factors, incoming_records):
    return np.rint(load_factors * incoming_records)  # expect: SL004


def route_counts_imported(load_factors, incoming_records):
    return rint(load_factors * incoming_records)  # expect: SL004


def route_counts_method(load_factors, incoming_records):
    return (load_factors * incoming_records).round()  # expect: SL004
