# simlint-fixture-path: repro/simulation/engine.py
"""Known-good fixture: the same accounting arithmetic is legal in engine.py
(the single home), and reading metrics elsewhere never fires SL001."""


class EpochAccountant:
    @staticmethod
    def goodput_bytes(input_bytes, debits):
        return max(0.0, input_bytes - sum(debits))

    @staticmethod
    def latency_s(epoch_duration_s, backlog_seconds):
        return 0.5 * epoch_duration_s + backlog_seconds


def summarize(metrics_cls, states):
    snapshot = metrics_cls.EpochMetrics(goodput_mbps=1.0)
    return snapshot, classify_query_state(states)


def rebuild(rows: list) -> object:
    # The named-tuple builders are legal here too.
    copied = EpochMetrics._make(rows)
    return copied._replace(goodput_bytes=0.0)
