# simlint-fixture-path: repro/simulation/arena_usage.py
"""Known-bad fixture: zero-copy arena views escaping the epoch boundary
without own() (the PR 8 escape contract)."""


class StageState:
    def __init__(self):
        self.queue = None
        self.batches = []
        self.by_name = {}

    def stash_view(self, arena, arena_id):
        self.queue = arena.view(arena_id)  # expect: SL013

    def push_view(self, arena, arena_id):
        batch = arena.view(arena_id)
        self.batches.append(batch)  # expect: SL013

    def index_view(self, arena, arena_id, name):
        self.by_name[name] = arena.view(arena_id)  # expect: SL013


class Generator:
    def __init__(self):
        self.columns = None

    def fill_arena(self, epoch, arena, source_id):
        out = arena.reserve(source_id, 4, object, {"event_time": float}, 16)
        if out is None:
            return False
        self.columns = out  # expect: SL013
        return True


def reserve_rows(arena, source_id, dtypes):
    return arena.reserve(source_id, 4, object, dtypes, 16)  # expect: SL013


def leak_view(arena, arena_id):
    return arena.view(arena_id)  # expect: SL013


def leak_slice(arena, arena_id, n_rows):
    batch = arena.view(arena_id)
    head = batch[:n_rows]
    return head  # expect: SL013


def leak_tuple(arena, arena_id, name):
    batch = arena.view(arena_id)
    return (name, batch)  # expect: SL013


class Kernel:
    def __init__(self) -> None:
        self.rows = None

    def keep_chunk(self, out: ArenaColumns, units: int, count: int) -> None:
        # A parameter of type ArenaColumns holds reserved slices.
        rows = {name: column.reshape(units, count) for name, column in out.items()}
        self.rows = rows["rtt_us"]  # expect: SL013

    def keep_span(self, arena: object, start: int, stop: int) -> None:
        self.rows = arena.rows(start, stop)  # expect: SL013
