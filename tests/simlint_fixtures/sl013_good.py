# simlint-fixture-path: repro/simulation/arena_usage.py
"""Known-good fixture: arena views used within the epoch or materialized
through own() before escaping (the PR 8 contract, followed)."""


class StageState:
    def __init__(self):
        self.queue = None
        self.batches = []

    def adopt_view(self, arena, arena_id):
        self.queue = arena.own(arena.view(arena_id))

    def adopt_slice(self, arena, arena_id, n_rows):
        batch = arena.view(arena_id)
        self.batches.append(arena.own(batch[:n_rows]))


def fill(arena, states):
    # Same-epoch handoff through a local container is the engine's
    # sanctioned pattern: the dict dies with the epoch.
    fetched = {}
    for state in states:
        fetched[state.name] = arena.view(state.arena_id)
    return fetched


def fill_rows(arena, source_id, values):
    # Writing into reserved slices within the call is the fill contract.
    out = arena.reserve(source_id, len(values), object, {"event_time": float}, 16)
    if out is None:
        return False
    out["event_time"][:] = values
    return True


def drain_now(arena, arena_id, sink):
    batch = arena.view(arena_id)
    for record in batch:
        sink(record)
    return len(batch)


def fill_chunk(out: ArenaColumns, units: int, count: int, values: object) -> int:
    # Writing a kernel's chunk views within the call is the fill contract.
    rows = {name: column.reshape(units, count) for name, column in out.items()}
    rows["rtt_us"][:] = values
    return units * count
