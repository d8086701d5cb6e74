# simlint-fixture-path: repro/simulation/executor.py
"""Known-bad fixture: accounting arithmetic leaking out of engine.py.

Each flagged line carries a trailing expect-marker comment; the test asserts
the exact (line, rule) pairs simlint reports.
"""


def finish_epoch(metrics, epoch_duration_s, backlog_s, states):
    snapshot = metrics.EpochMetrics(goodput_mbps=1.0)  # expect: SL001
    observation = EpochObservation(state="stable")  # expect: SL001
    query_state = classify_query_state(states)  # expect: SL001
    latency = 0.5 * epoch_duration_s + backlog_s  # expect: SL001
    return snapshot, observation, query_state, latency


def rebuild(metrics: object, rows: list, plan_cls: type) -> tuple:
    # The records are named tuples: _make and _replace build them as well.
    copied = EpochMetrics._make(rows)  # expect: SL001
    observed = metrics.EpochObservation._make(rows)  # expect: SL001
    bumped = copied._replace(goodput_bytes=0.0)  # expect: SL001
    reset = finish_epoch(metrics, 1.0, 0.0, [])[0]._replace(epoch=0)  # expect: SL001
    # _make on any other name builds no accounting record.
    plan = plan_cls._make(rows)
    return copied, observed, bumped, reset, plan


def goodput_bytes(input_bytes, debits):  # expect: SL001
    return input_bytes - sum(debits)


def latency_s(epoch_duration_s):  # expect: SL001
    return epoch_duration_s
