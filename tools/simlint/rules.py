"""The simlint rule catalogue (SL001-SL011).

Each rule encodes an invariant of this reproduction that has a concrete
motivating bug in ``CHANGES.md``; see ``tools/simlint/README.md`` for the
full story behind every rule.  Rules operate on the :class:`~simlint.core`
``FileContext`` and report via ``ctx.report`` (which applies suppressions).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core import FileContext, Rule


def _last_segment(dotted: Optional[str]) -> str:
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def _call_name(node: ast.Call, ctx: FileContext) -> str:
    """Resolved dotted name of a call's target ('' when unresolvable)."""
    return ctx.resolver.resolve(node.func) or ""


class AccountingSingleHomeRule(Rule):
    """SL001: goodput/latency accounting lives only in ``simulation/engine.py``.

    Replaces the grep-based test: no other ``simulation/`` module may construct
    :class:`EpochMetrics`/:class:`EpochObservation`, call
    ``classify_query_state``, re-derive the half-epoch batching-delay term
    (``0.5 * ...``), or redefine the accountant's arithmetic helpers.
    """

    id = "SL001"
    summary = (
        "EpochMetrics construction and goodput/latency arithmetic are only "
        "allowed in simulation/engine.py"
    )

    BANNED_CONSTRUCTIONS = {"EpochMetrics", "EpochObservation", "classify_query_state"}
    BANNED_HELPER_DEFS = {
        "goodput_bytes",
        "latency_s",
        "backlog_drain_seconds",
        "finish_source_epoch",
    }

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro/simulation/") and not ctx.module_path.endswith(
            "/engine.py"
        )

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _last_segment(_call_name(node, ctx))
                if name in self.BANNED_CONSTRUCTIONS:
                    ctx.report(
                        node,
                        self.id,
                        f"{name}() may only be used in simulation/engine.py "
                        "(accounting single-home)",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                for side in (node.left, node.right):
                    if isinstance(side, ast.Constant) and side.value == 0.5:
                        ctx.report(
                            node,
                            self.id,
                            "half-epoch batching-delay arithmetic (0.5 * ...) "
                            "belongs to EpochAccountant in simulation/engine.py",
                        )
                        break
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in self.BANNED_HELPER_DEFS:
                    ctx.report(
                        node,
                        self.id,
                        f"redefinition of accountant helper {node.name}(); the "
                        "single implementation lives in simulation/engine.py",
                    )


class ConservationCounterRule(Rule):
    """SL002: conservation counters are mutated only by the epoch engine,
    the per-epoch stage accounting in ``pipeline.py``, and the migration
    handoff in ``multisource.py``."""

    id = "SL002"
    summary = (
        "record-conservation counters may only be mutated by the engine, the "
        "per-epoch stage accounting, and the migration handoff"
    )

    COUNTERS = {
        "records_injected",
        "records_rejected",
        "forwarded_per_stage",
        "processed_per_stage",
        "queue_drained_per_stage",
        "rejected_per_stage",
        "drained_records",
        "sp_processed_records",
    }
    ALLOWED_FILES = {
        "repro/simulation/engine.py",
        "repro/simulation/pipeline.py",
        "repro/simulation/multisource.py",
    }
    MUTATING_METHODS = {"append", "extend", "insert", "clear", "pop"}

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro/") and ctx.module_path not in self.ALLOWED_FILES

    def _counter_attr(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in self.COUNTERS:
            return node.attr
        return None

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            targets: List[Tuple[ast.AST, str]] = []
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    counter = self._counter_attr(target)
                    if counter:
                        targets.append((target, counter))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                counter = self._counter_attr(node.target)
                if counter:
                    targets.append((node.target, counter))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self.MUTATING_METHODS
                ):
                    counter = self._counter_attr(func.value)
                    if counter:
                        targets.append((node, counter))
            for target, counter in targets:
                ctx.report(
                    target,
                    self.id,
                    f"conservation counter '{counter}' may only be mutated "
                    "inside the epoch engine or the migration handoff",
                )


class DeterminismRule(Rule):
    """SL003: simulations must be reproducible — no unseeded RNGs, no global
    RNG state, no wall-clock reads in ``src/repro``."""

    id = "SL003"
    summary = (
        "no unseeded random.Random(), module-level random.*/np.random.* state, "
        "or wall-clock reads (time.time / datetime.now)"
    )

    MODULE_RANDOM_FNS = {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "normalvariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
    }
    SEEDED_NUMPY_FACTORIES = {
        "Generator",
        "MT19937",
        "PCG64",
        "Philox",
        "SeedSequence",
        "default_rng",
    }
    WALL_CLOCK = {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, ctx)
            if not name:
                continue
            if name == "random.Random" and not node.args and not node.keywords:
                ctx.report(
                    node,
                    self.id,
                    "random.Random() without a seed is nondeterministic; pass "
                    "an explicit seed",
                )
            elif name == "random.SystemRandom":
                ctx.report(
                    node,
                    self.id,
                    "random.SystemRandom is nondeterministic by design; use a "
                    "seeded random.Random instead",
                )
            elif (
                name.startswith("random.")
                and _last_segment(name) in self.MODULE_RANDOM_FNS
            ):
                ctx.report(
                    node,
                    self.id,
                    f"{name}() uses the shared module-level RNG; use a seeded "
                    "random.Random instance",
                )
            elif name.startswith("numpy.random."):
                tail = _last_segment(name)
                seeded = tail in self.SEEDED_NUMPY_FACTORIES and (
                    node.args or node.keywords
                )
                if not seeded:
                    ctx.report(
                        node,
                        self.id,
                        f"{name}() draws from global/unseeded numpy RNG state; "
                        "use np.random.default_rng(seed)",
                    )
            elif name in self.WALL_CLOCK:
                ctx.report(
                    node,
                    self.id,
                    f"{name}() reads the wall clock; simulations must derive "
                    "time from epochs (time.perf_counter is fine for "
                    "self-instrumentation)",
                )


class BannedRoundingRule(Rule):
    """SL004: builtin ``round()`` rounds half to even, which silently skews
    record/byte counts (the PR 5 ``ControlProxy.route`` bug).  Use the
    half-up helper ``repro.query.records.half_up`` instead."""

    id = "SL004"
    summary = (
        "no single-argument builtin round() on record/byte quantities; use "
        "repro.query.records.half_up"
    )

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "round"
                and len(node.args) == 1
                and not node.keywords
            ):
                ctx.report(
                    node,
                    self.id,
                    "builtin round() uses banker's rounding (half-to-even); "
                    "use repro.query.records.half_up for record/byte counts",
                )


class FloatEqualityRule(Rule):
    """SL005: ``==``/``!=`` between float-typed accounting expressions is
    almost always a bug (accumulated rounding); compare with a tolerance."""

    id = "SL005"
    summary = "no ==/!= comparisons against float expressions in src/repro"

    FLOAT_ATTRS = {"math.inf", "math.nan", "math.pi", "math.e", "math.tau"}

    def _is_floaty(self, node: ast.AST, ctx: FileContext, depth: int = 0) -> bool:
        if depth > 4:
            return False
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return self._is_floaty(node.operand, ctx, depth + 1)
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id == "float"
        if isinstance(node, ast.Attribute):
            return (ctx.resolver.resolve(node) or "") in self.FLOAT_ATTRS
        if isinstance(node, ast.BinOp):
            return self._is_floaty(node.left, ctx, depth + 1) or self._is_floaty(
                node.right, ctx, depth + 1
            )
        return False

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, sides, sides[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_floaty(left, ctx) or self._is_floaty(right, ctx):
                    ctx.report(
                        node,
                        self.id,
                        "exact ==/!= against a float expression; accounting "
                        "quantities accumulate rounding — compare with "
                        "math.isclose or an explicit tolerance",
                    )
                    break


class RecordModeParityRule(Rule):
    """SL006: the object and arena execution modes must stay in lockstep —
    every operator class that defines ``process`` must either define
    ``process_batch`` or explicitly opt out with
    ``process_batch_fallback = True`` (inheriting the materializing default
    silently would hide missing columnar coverage)."""

    id = "SL006"
    summary = (
        "operator classes defining process() must define process_batch() or "
        "set process_batch_fallback = True"
    )

    OPT_OUT_MARKER = "process_batch_fallback"

    def _is_operator_class(self, node: ast.ClassDef) -> bool:
        if node.name.endswith("Operator"):
            return True
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else getattr(
                base, "id", ""
            )
            if isinstance(name, str) and name.endswith("Operator"):
                return True
        return False

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not self._is_operator_class(node):
                continue
            defined: Set[str] = set()
            has_marker = False
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == self.OPT_OUT_MARKER
                            and isinstance(stmt.value, ast.Constant)
                            and stmt.value.value is True
                        ):
                            has_marker = True
                elif isinstance(stmt, ast.AnnAssign):
                    if (
                        isinstance(stmt.target, ast.Name)
                        and stmt.target.id == self.OPT_OUT_MARKER
                        and isinstance(stmt.value, ast.Constant)
                        and stmt.value.value is True
                    ):
                        has_marker = True
            if "process" in defined and "process_batch" not in defined and not has_marker:
                ctx.report(
                    node,
                    self.id,
                    f"operator {node.name} defines process() without "
                    "process_batch(); add a columnar implementation or opt out "
                    "explicitly with 'process_batch_fallback = True'",
                )


class ErrorDisciplineRule(Rule):
    """SL007: raise the project error hierarchy (``repro.errors``), not bare
    builtins — callers distinguish configuration mistakes from simulation
    invariant violations by exception type."""

    id = "SL007"
    summary = (
        "raise repro.errors subclasses (ConfigurationError/SimulationError/...), "
        "not bare ValueError/RuntimeError/Exception"
    )

    BANNED = {"ValueError", "RuntimeError", "Exception"}

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in self.BANNED:
                ctx.report(
                    node,
                    self.id,
                    f"raise of bare {exc.id}; use the repro.errors hierarchy "
                    "(ConfigurationError for bad inputs, SimulationError for "
                    "broken runtime invariants)",
                )


class FiniteGuardRule(Rule):
    """SL008: public config/constructor float parameters must go through a
    recognized finiteness guard — non-finite rates silently corrupted
    placement decisions in the PR 3/PR 5 bug class."""

    id = "SL008"
    summary = (
        "float config/constructor parameters must be validated via "
        "require_finite (or the config.py guard helpers)"
    )

    #: module path -> class names whose float parameters must be guarded.
    TARGETS: Dict[str, Set[str]] = {
        "repro/config.py": {
            "AdaptationConfig",
            "EpochConfig",
            "NetworkConfig",
            "ProxyThresholds",
        },
        "repro/simulation/executor.py": {"ExecutorConfig"},
        "repro/simulation/multiquery.py": {"QuerySpec"},
        "repro/simulation/multisource.py": {"MultiSourceConfig"},
        "repro/simulation/network.py": {"NetworkLink"},
        "repro/simulation/node.py": {"StreamProcessorNode"},
        "repro/workloads/dynamics.py": {"BurstSpec"},
        "repro/workloads/loganalytics.py": {"LogAnalyticsConfig"},
        "repro/workloads/pingmesh.py": {"PingmeshConfig"},
    }
    GUARDS = {
        "require_finite",
        "_require_positive",
        "_require_fraction",
    }

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_path in self.TARGETS

    def _annotation_is_float(self, annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name) and sub.id == "float":
                return True
            if isinstance(sub, ast.Constant) and sub.value == "float":
                return True
        return False

    def _float_params(self, node: ast.ClassDef) -> List[Tuple[str, ast.AST]]:
        params: List[Tuple[str, ast.AST]] = []
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and self._annotation_is_float(stmt.annotation)
            ):
                params.append((stmt.target.id, stmt))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name != "__init__":
                    continue
                args = stmt.args
                for arg in list(args.posonlyargs) + list(args.args) + list(
                    args.kwonlyargs
                ):
                    if arg.arg != "self" and self._annotation_is_float(
                        arg.annotation
                    ):
                        params.append((arg.arg, arg))
        return params

    def _guarded_names(self, node: ast.ClassDef, ctx: FileContext) -> Set[str]:
        guarded: Set[str] = set()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if _last_segment(_call_name(call, ctx)) not in self.GUARDS:
                continue
            values: List[ast.AST] = list(call.args) + [
                kw.value for kw in call.keywords
            ]
            for value in values:
                if isinstance(value, ast.Name):
                    guarded.add(value.id)
                elif isinstance(value, ast.Attribute):
                    guarded.add(value.attr)
                elif isinstance(value, ast.Constant) and isinstance(value.value, str):
                    guarded.add(value.value)
        return guarded

    def check(self, ctx: FileContext) -> None:
        wanted = self.TARGETS[ctx.module_path]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in wanted:
                continue
            guarded = self._guarded_names(node, ctx)
            for name, site in self._float_params(node):
                if name not in guarded:
                    ctx.report(
                        site,
                        self.id,
                        f"float parameter '{name}' of {node.name} is not "
                        "validated for finiteness; route it through "
                        "repro.errors.require_finite (non-finite rates "
                        "corrupt placement and accounting)",
                    )


class EnvKnobRule(Rule):
    """SL009: process-environment reads live only in the scenario config
    layer.  Benchmarks historically grew 16 ad-hoc ``FIG10_*``/``FIG11_*``/
    ``RECMODE_*`` env knobs; scenario configs replaced them with ``--set``
    overrides, and ``repro/scenarios/knobs.py`` is the single module allowed
    to translate deprecated env aliases.  Everywhere else — including the
    benchmark shims, which this rule covers unlike the ``repro/``-scoped
    rest of the catalogue — env access is banned so knob sprawl cannot
    regrow."""

    id = "SL009"
    summary = (
        "os.environ/os.getenv only in repro/scenarios/knobs.py (the scenario "
        "config layer); pass --set overrides instead"
    )

    BANNED = {"os.environ", "os.environb", "os.getenv", "os.getenvb"}
    ALLOWED_FILES = {"repro/scenarios/knobs.py"}

    def applies_to(self, ctx: FileContext) -> bool:
        # Wider scope than the default: benchmark and tooling files (module
        # paths outside repro/) are exactly where env knobs used to sprawl.
        return ctx.module_path not in self.ALLOWED_FILES

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            name = ctx.resolver.resolve(node)
            if name in self.BANNED:
                ctx.report(
                    node,
                    self.id,
                    f"{name} read outside the scenario config layer; declare "
                    "the knob in a scenario config (configs/*.toml) or a "
                    "--set override, and keep env aliases in "
                    "repro/scenarios/knobs.py",
                )


class DeepcopyHotPathRule(Rule):
    """SL010: ``copy.deepcopy`` is banned from the epoch hot path.

    Deep-copying aggregate state at window boundaries once dominated
    window-flush cost (O(groups) Python object churn per window per source);
    the operators now hand partial state off by ownership transfer or
    shallow copy, relying on every ``flush`` implementation replacing — not
    mutating — the shipped accumulator.  The fleet arena raises the stakes:
    its recycled buffers make aliasing explicit (``FleetArena.own`` copies
    exactly the columns that escape an epoch), and a stray ``deepcopy``
    both re-introduces the cost and papers over aliasing bugs that contract
    is designed to surface.  Applies to all of ``simulation/`` and to the
    operator hot loop in ``query/operators.py``.
    """

    id = "SL010"
    summary = (
        "copy.deepcopy is banned in simulation/ and query/operators.py (the "
        "epoch hot path); transfer ownership or shallow-copy explicitly"
    )

    BANNED = {"copy.deepcopy"}

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro/simulation/") or ctx.module_path == (
            "repro/query/operators.py"
        )

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node, ctx) in self.BANNED:
                ctx.report(
                    node,
                    self.id,
                    "copy.deepcopy() on the epoch hot path; flush "
                    "implementations replace (never mutate) shipped state, "
                    "so transfer ownership or use copy.copy — see "
                    "Operator.take_partial_state",
                )


class ProcessParallelismSingleHomeRule(Rule):
    """SL011: process-level parallelism lives only in ``simulation/parallel.py``.

    The worker-pool controller is the single place that may fork, own
    process pools, or attach shared memory: its correctness argument (fork
    snapshots of unstepped blocks, main-owned shm segments, child-side
    attach without resource-tracker unregistration, pool teardown on error
    paths) only holds if nothing else in the tree spawns processes behind
    its back.  A stray ``multiprocessing`` import elsewhere reintroduces
    exactly the leak/teardown bug class the controller centralizes, so the
    ban covers imports of ``multiprocessing`` and ``concurrent.futures``
    (and any of their submodules) plus ``os.fork``/``os.forkpty`` calls.
    Like SL009 this rule spans benchmarks and tooling, not just ``repro/``.
    """

    id = "SL011"
    summary = (
        "multiprocessing / concurrent.futures / os.fork only in "
        "repro/simulation/parallel.py (the worker-pool controller)"
    )

    BANNED_MODULES = ("multiprocessing", "concurrent.futures")
    BANNED_CALLS = {"os.fork", "os.forkpty"}
    ALLOWED_FILES = {"repro/simulation/parallel.py"}

    def applies_to(self, ctx: FileContext) -> bool:
        # Wider scope than the default: a benchmark shim spawning its own
        # pool would dodge the controller's teardown guarantees just as
        # thoroughly as library code would.
        return ctx.module_path not in self.ALLOWED_FILES

    def _banned_module(self, dotted: str) -> Optional[str]:
        for banned in self.BANNED_MODULES:
            if dotted == banned or dotted.startswith(banned + "."):
                return banned
        return None

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    banned = self._banned_module(alias.name)
                    if banned:
                        ctx.report(
                            node,
                            self.id,
                            f"import of {alias.name}; process-level "
                            "parallelism is single-homed in "
                            "simulation/parallel.py (use "
                            "ParallelBlockController)",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = {alias.name for alias in node.names}
                banned = self._banned_module(module)
                if banned is None and module == "concurrent" and "futures" in names:
                    banned = "concurrent.futures"
                if banned:
                    ctx.report(
                        node,
                        self.id,
                        f"import from {banned}; process-level parallelism is "
                        "single-homed in simulation/parallel.py (use "
                        "ParallelBlockController)",
                    )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                name = ctx.resolver.resolve(node)
                if name in self.BANNED_CALLS:
                    ctx.report(
                        node,
                        self.id,
                        f"{name} outside simulation/parallel.py; forked "
                        "children inherit arbitrary interpreter state — go "
                        "through ParallelBlockController",
                    )


class UnusedSuppressionRule(Rule):
    """SL015: ``# simlint: disable[...]`` comments must suppress something.

    Mirrors mypy's ``warn_unused_ignores``: a suppression that absorbs no
    violation is dead weight that silently keeps masking the rule when the
    code around it changes.  Runs as a :meth:`post_check` so every other
    rule has already had the chance to consume the suppression.  Entries for
    rules outside the active ``--select`` set are skipped (they may well
    fire on a full run), except unknown rule ids, which are always wrong.
    """

    id = "SL015"
    summary = (
        "suppression comments that suppress nothing (or name unknown rules) "
        "are findings, like mypy's warn_unused_ignores"
    )

    def check(self, ctx: FileContext) -> None:
        """All the work happens in :meth:`post_check`."""

    def post_check(
        self, ctx: FileContext, active_ids: Set[str], known_ids: Set[str]
    ) -> None:
        # Evaluate own-rule entries last: a `disable=SL015` comment must see
        # the SL015 findings on its line before being judged unused itself.
        entries = sorted(
            ctx.suppressions.entries, key=lambda e: (e.rule == self.id, e.line)
        )
        for entry in entries:
            if entry.rule != "ALL" and entry.rule not in known_ids:
                ctx.report(
                    _Position(entry.line),
                    self.id,
                    f"suppression names unknown rule '{entry.rule}'",
                )
                continue
            if entry.rule == "ALL" and active_ids < known_ids:
                continue  # judging a blanket suppression needs the full set
            if entry.rule != "ALL" and entry.rule not in active_ids:
                continue
            if entry in ctx.suppressions.used:
                continue
            scope = (
                "file-wide" if entry.kind == "disable-file" else f"line {entry.line}"
            )
            ctx.report(
                _Position(entry.line),
                self.id,
                f"unused suppression: {entry.rule} never fires ({scope}); "
                "delete the comment",
            )


class _Position:
    """Minimal node stand-in so ``ctx.report`` can place comment findings."""

    def __init__(self, line: int, col: int = 0) -> None:
        self.lineno = line
        self.col_offset = col


def _flow_rules() -> Tuple[Rule, ...]:
    from .flow_rules import FLOW_RULES

    return FLOW_RULES


ALL_RULES: Sequence[Rule] = (
    AccountingSingleHomeRule(),
    ConservationCounterRule(),
    DeterminismRule(),
    BannedRoundingRule(),
    FloatEqualityRule(),
    RecordModeParityRule(),
    ErrorDisciplineRule(),
    FiniteGuardRule(),
    EnvKnobRule(),
    DeepcopyHotPathRule(),
    ProcessParallelismSingleHomeRule(),
) + _flow_rules() + (UnusedSuppressionRule(),)


def rules_by_id(ids: Iterable[str]) -> List[Rule]:
    """Subset of :data:`ALL_RULES` matching ``ids`` (case-insensitive).

    Empty segments (a trailing comma in ``--select SL001,``) are ignored;
    unknown ids raise ``KeyError``.
    """
    wanted = {
        rule_id.strip().upper() for rule_id in ids if rule_id.strip()
    }
    unknown = wanted - {rule.id for rule in ALL_RULES}
    if unknown:
        raise KeyError(f"unknown simlint rule ids: {sorted(unknown)}")
    return [rule for rule in ALL_RULES if rule.id in wanted]
