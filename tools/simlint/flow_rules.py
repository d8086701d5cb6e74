"""Flow-aware rules SL012-SL014, built on :mod:`simlint.flow`.

These rules check *contracts over values*, not syntactic patterns:

* **SL012 (unit inference)** propagates physical units through assignments
  and arithmetic in the accounting core and flags mixed-unit ``+``/``-``/
  comparisons, scale mismatches (megabits added to bytes), and values whose
  inferred unit contradicts a suffix-declared name, keyword, parameter, or
  return convention.  Escape hatch: ``# simlint: unit[bytes]`` on the
  assignment line asserts the unit of the bound value.
* **SL013 (arena escape)** taints values aliasing :class:`FleetArena`
  buffers (``arena.view(...)`` and ``arena.reserve(...)`` results and
  slices of them) and flags stores into attribute-reachable state, pushes
  into attribute-rooted containers, and returns of directly tainted values
  — the places a zero-copy view can outlive the epoch whose buffers it
  aliases.  ``own()`` (and any materializing copy) sanitizes.  Stores into
  *local* containers stay legal: same-epoch handoff through a local dict
  is the engine's sanctioned pattern.  An executor queue may also hold a
  drained view until ``MultiSourceExecutor._finish_epoch``, which owns
  what remains; those views arrive as pipeline results, not as
  ``view()``/``reserve()`` values, so the record-conservation check, not
  this rule, guards that sweep.
* **SL014 (worker purity)** walks the call graph reachable from the
  worker-side entry points of ``simulation/parallel.py`` (module-level
  ``_worker_*`` tasks and functions submitted to a pool by name) and flags
  writes to module state other than the sanctioned worker-owned globals,
  shared-memory segment creation or unlinking, and resource-tracker
  unregistration — each one a violation of the fork/shm ownership protocol.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import FileContext, Rule
from .flow import (
    COUNT,
    Env,
    ForwardAnalysis,
    UNIT_SPELLINGS,
    Unit,
    conversion_constant,
    unit_of_name,
)
from .project import ProjectIndex

UNIT_CAST_RE = re.compile(r"#\s*simlint:\s*unit\[(?P<unit>[A-Za-z_/]+)\]")


def _terminal_name(node: ast.AST) -> str:
    """Last identifier of a Name/Attribute chain ('' otherwise)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _literal_value(node: ast.AST) -> Optional[float]:
    sign = 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return sign * float(node.value)
    return None


def parse_unit_casts(source: str) -> Dict[int, Optional[Unit]]:
    """``{line: unit}`` for every ``# simlint: unit[...]`` cast comment."""
    casts: Dict[int, Optional[Unit]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = UNIT_CAST_RE.search(tok.string)
            if match:
                spelling = match.group("unit").lower()
                if spelling in UNIT_SPELLINGS:
                    casts[tok.start[0]] = UNIT_SPELLINGS[spelling]
    except tokenize.TokenError:
        pass
    return casts


# ---------------------------------------------------------------------------
# SL012: physical-unit inference.
# ---------------------------------------------------------------------------

#: Calls that return their first argument's unit unchanged.
_UNIT_PRESERVING_CALLS = {
    "float",
    "int",
    "abs",
    "floor",
    "ceil",
    "fabs",
    "half_up",
    "float64",
    "sorted",
}
#: min/max-style calls: a comparison across their arguments.
_EXTREMUM_CALLS = {"min", "max", "maximum", "minimum", "fmax", "fmin", "clip"}
_UNITLESS_CALLS = {"len", "range", "sum", "isclose", "isfinite", "isnan", "zip", "enumerate"}


class UnitAnalysis(ForwardAnalysis):
    """Forward unit propagation over one function."""

    def __init__(self, rule: "UnitInferenceRule", ctx: FileContext,
                 casts: Dict[int, Optional[Unit]], function_unit: Optional[Unit],
                 project: ProjectIndex) -> None:
        super().__init__()
        self.rule = rule
        self.ctx = ctx
        self.casts = casts
        self.function_unit = function_unit
        self.project = project

    # -- reporting ----------------------------------------------------------------

    def flag(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in self.casts:
            return  # an explicit unit-cast on the line overrides inference
        self.emit(
            (line, getattr(node, "col_offset", 0), message),
            lambda: self.ctx.report(node, self.rule.id, message),
        )

    # -- parameter/binding hooks --------------------------------------------------

    def value_of_parameter(self, arg: ast.arg) -> Optional[Unit]:
        return unit_of_name(arg.arg)

    def bind_value(self, target: ast.Name, value: Optional[Unit]) -> Optional[Unit]:
        if value is not None:
            return value
        return unit_of_name(target.id)

    def on_assign(
        self, target: ast.AST, value_node: ast.AST, value: Optional[Unit], env: Env
    ) -> None:
        cast = self.casts.get(getattr(value_node, "lineno", 0), Ellipsis)
        if cast is not Ellipsis:
            return  # cast comment takes over; mismatch checking waived
        declared = unit_of_name(_terminal_name(target))
        if declared is not None and value is not None and not declared.compatible(value):
            self.flag(
                target,
                f"assigning a {value.describe()} value to "
                f"'{_terminal_name(target)}' (suffix declares "
                f"{declared.describe()})",
            )

    def _bind(self, target: ast.AST, value_node: ast.AST, value, env: Env) -> None:
        cast = self.casts.get(getattr(value_node, "lineno", 0), Ellipsis)
        if cast is not Ellipsis and isinstance(target, ast.Name):
            if cast is None:
                env.pop(target.id, None)
            else:
                env[target.id] = cast
            return
        super()._bind(target, value_node, value, env)

    def on_aug_assign(self, node: ast.AugAssign, env: Env) -> None:
        target_unit: Optional[Unit]
        if isinstance(node.target, ast.Name):
            target_unit = env.get(node.target.id) or unit_of_name(node.target.id)
        else:
            target_unit = unit_of_name(_terminal_name(node.target))
        value_unit = self.eval_expr(node.value, env)
        result = self._binop_unit(node, node.op, node.target, target_unit,
                                  node.value, value_unit)
        if isinstance(node.target, ast.Name):
            if result is None:
                env.pop(node.target.id, None)
            else:
                env[node.target.id] = result

    def on_return(self, node: ast.Return, value: Optional[Unit], env: Env) -> None:
        if (
            self.function_unit is not None
            and value is not None
            and not self.function_unit.compatible(value)
        ):
            self.flag(
                node,
                f"returning a {value.describe()} value from a function whose "
                f"name declares {self.function_unit.describe()}",
            )

    # -- expression evaluation ----------------------------------------------------

    def eval_expr(self, node: ast.AST, env: Env) -> Optional[Unit]:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id) or unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            self.eval_expr(node.value, env)
            return unit_of_name(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self.eval_expr(node.operand, env)
        if isinstance(node, ast.BinOp):
            left = self.eval_expr(node.left, env)
            right = self.eval_expr(node.right, env)
            return self._binop_unit(node, node.op, node.left, left, node.right, right)
        if isinstance(node, ast.Compare):
            self._check_compare(node, env)
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval_expr(value, env)
            return None
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test, env)
            body = self.eval_expr(node.body, env)
            orelse = self.eval_expr(node.orelse, env)
            return self.join(body, orelse)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Subscript):
            # An element (or slice) of a uniformly-united container carries
            # the container's unit: shipped_bytes[i] is still bytes.
            return self.eval_expr(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.eval_expr(element, env)
            return None
        if isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    self.eval_expr(value, env)
            return None
        if isinstance(node, ast.Starred):
            return self.eval_expr(node.value, env)
        if isinstance(node, ast.Await):
            return self.eval_expr(node.value, env)
        return None

    def join(self, a: Optional[Unit], b: Optional[Unit]) -> Optional[Unit]:
        if a is not None and b is not None and a.compatible(b):
            return a
        return None

    def _binop_unit(
        self,
        node: ast.AST,
        op: ast.operator,
        left_node: ast.AST,
        left: Optional[Unit],
        right_node: ast.AST,
        right: Optional[Unit],
    ) -> Optional[Unit]:
        if isinstance(op, (ast.Add, ast.Sub)):
            if _is_numeric_literal(left_node):
                return right
            if _is_numeric_literal(right_node):
                return left
            if left is not None and right is not None and not left.compatible(right):
                operator = "+" if isinstance(op, ast.Add) else "-"
                self.flag(
                    node,
                    f"unit mismatch: {left.describe()} {operator} "
                    f"{right.describe()}",
                )
                return None
            return left if left is not None and right is not None else None
        if isinstance(op, ast.Mult):
            return self._scaled(left_node, left, right_node, right, divide=False)
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return self._scaled(left_node, left, right_node, right, divide=True)
        return None

    def _scaled(
        self,
        left_node: ast.AST,
        left: Optional[Unit],
        right_node: ast.AST,
        right: Optional[Unit],
        divide: bool,
    ) -> Optional[Unit]:
        from .flow import _div_units, _mul_units

        left_literal = _literal_value(left_node)
        right_literal = _literal_value(right_node)
        if right_literal is not None:
            if left is None or left.tag:
                return left
            factor = conversion_constant(right_literal)
            if factor is None:
                return left  # neutral scalar: * 0.5 halves bytes, keeps bytes
            scale = left.scale * factor if divide else left.scale / factor
            return Unit(data=left.data, time=left.time, scale=scale)
        if left_literal is not None:
            if divide:
                return None  # 1 / x: reciprocal units are not tracked
            if right is None or right.tag:
                return right
            factor = conversion_constant(left_literal)
            if factor is None:
                return right
            return Unit(data=right.data, time=right.time, scale=right.scale / factor)
        if left is None or right is None:
            return None
        return _div_units(left, right) if divide else _mul_units(left, right)

    def _check_compare(self, node: ast.Compare, env: Env) -> None:
        sides = [node.left] + list(node.comparators)
        units = [self.eval_expr(side, env) for side in sides]
        for op, (left_node, left), (right_node, right) in zip(
            node.ops, zip(sides, units), zip(sides[1:], units[1:])
        ):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                continue
            if _is_numeric_literal(left_node) or _is_numeric_literal(right_node):
                continue
            if left is not None and right is not None and not left.compatible(right):
                self.flag(
                    node,
                    f"comparing {left.describe()} against {right.describe()}; "
                    "convert to a common unit first",
                )

    def _eval_call(self, node: ast.Call, env: Env) -> Optional[Unit]:
        for keyword in node.keywords:
            value_unit = self.eval_expr(keyword.value, env)
            if keyword.arg is None:
                continue
            declared = unit_of_name(keyword.arg)
            if (
                declared is not None
                and value_unit is not None
                and not declared.compatible(value_unit)
                and not _is_numeric_literal(keyword.value)
            ):
                self.flag(
                    keyword.value,
                    f"keyword argument '{keyword.arg}' (declares "
                    f"{declared.describe()}) receives a "
                    f"{value_unit.describe()} value",
                )
        arg_units = [self.eval_expr(arg, env) for arg in node.args]
        name = _terminal_name(node.func)
        if name in _UNITLESS_CALLS:
            return COUNT if name == "len" else None
        if name in _UNIT_PRESERVING_CALLS:
            return arg_units[0] if arg_units else None
        if name in _EXTREMUM_CALLS:
            known = [
                unit
                for arg, unit in zip(node.args, arg_units)
                if unit is not None and not _is_numeric_literal(arg)
            ]
            if len(known) >= 2 and not known[0].compatible(known[1]):
                self.flag(
                    node,
                    f"{name}() compares {known[0].describe()} against "
                    f"{known[1].describe()}",
                )
                return None
            literals = sum(1 for arg in node.args if _is_numeric_literal(arg))
            if known and len(known) + literals == len(node.args):
                return known[0]
            return None
        self._check_positional_args(node, arg_units)
        inferred = unit_of_name(name)
        # Only dimensioned units transfer from a callee's name to its result:
        # `record_size_bytes(...)` returns bytes, but a tag-only hit like
        # `_run_sources(...)` ("run the sources") says nothing about units.
        if inferred is not None and (inferred.data or inferred.time):
            return inferred
        return None

    def _check_positional_args(
        self, node: ast.Call, arg_units: Sequence[Optional[Unit]]
    ) -> None:
        """Check positional argument units against the callee's parameter
        suffixes when the callee resolves to a known project function."""
        if not isinstance(node.func, ast.Name):
            return
        target = self.project.resolve_function(self.ctx.module_path, node.func.id)
        if target is None:
            return
        for arg, unit, param in zip(node.args, arg_units, target.param_names):
            if isinstance(arg, ast.Starred) or _is_numeric_literal(arg):
                continue
            declared = unit_of_name(param)
            if declared is not None and unit is not None and not declared.compatible(unit):
                self.flag(
                    arg,
                    f"argument for parameter '{param}' of {target.name}() "
                    f"(declares {declared.describe()}) is a "
                    f"{unit.describe()} value",
                )


class UnitInferenceRule(Rule):
    """SL012: suffix-declared physical units must stay consistent through
    assignment, arithmetic, comparisons, and call boundaries."""

    id = "SL012"
    summary = (
        "physical-unit inference over the accounting core: no mixed-unit "
        "+/-/comparisons, no unconverted rate/byte arithmetic"
    )

    TARGETS = {
        "repro/simulation/engine.py",
        "repro/simulation/multisource.py",
        "repro/simulation/network.py",
        "repro/simulation/pipeline.py",
        "repro/simulation/cost_model.py",
        "repro/simulation/metrics.py",
    }

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_path in self.TARGETS

    def check(self, ctx: FileContext) -> None:
        casts = parse_unit_casts(ctx.source)
        project = ctx.project_index()
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Return conventions are only enforced for dimensioned name
            # units: `fair_share(...)` returning bytes is idiomatic, while
            # `goodput_mbps(...)` returning seconds is a bug.
            function_unit = unit_of_name(func.name)
            if function_unit is not None and not (
                function_unit.data or function_unit.time
            ):
                function_unit = None
            analysis = UnitAnalysis(
                rule=self,
                ctx=ctx,
                casts=casts,
                function_unit=function_unit,
                project=project,
            )
            analysis.analyze_function(func)


# ---------------------------------------------------------------------------
# SL013: arena escape analysis.
# ---------------------------------------------------------------------------

_SANITIZING_CALLS = {
    "own",
    "copy",
    "deepcopy",
    "list",
    "tuple",
    "from_records",
    "asarray",
    "array",
    "materialize",
}
#: Arena methods whose results alias the live buffers: zero-copy views and
#: the writable column slices a reservation hands out.
_ALIASING_ARENA_METHODS = {"view", "reserve"}
_CONTAINER_PUSH_METHODS = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "insert",
    "add",
    "push",
    "update",
}


class TaintAnalysis(ForwardAnalysis):
    """Tracks values aliasing live arena buffers through one function."""

    TAINTED = "tainted"

    def __init__(self, rule: "ArenaEscapeRule", ctx: FileContext) -> None:
        super().__init__()
        self.rule = rule
        self.ctx = ctx

    def flag(self, node: ast.AST, message: str) -> None:
        self.emit(
            (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), message),
            lambda: self.ctx.report(node, self.rule.id, message),
        )

    def _is_arena_receiver(self, node: ast.AST) -> bool:
        return _terminal_name(node).endswith("arena")

    def eval_expr(self, node: ast.AST, env: Env):
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in _ALIASING_ARENA_METHODS and self._is_arena_receiver(
                    node.func.value
                ):
                    for arg in node.args:
                        self.eval_expr(arg, env)
                    return self.TAINTED
                if method in _SANITIZING_CALLS:
                    return None
                self._check_container_push(node, env)
            elif isinstance(node.func, ast.Name) and node.func.id in _SANITIZING_CALLS:
                for arg in node.args:
                    self.eval_expr(arg, env)
                return None
            for arg in node.args:
                self.eval_expr(arg, env)
            for keyword in node.keywords:
                self.eval_expr(keyword.value, env)
            return None
        if isinstance(node, ast.Subscript):
            # RecordBatch slicing returns an aliasing view of the same
            # columns, so a slice of a tainted batch is itself tainted.
            return self.eval_expr(node.value, env)
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test, env)
            body = self.eval_expr(node.body, env)
            orelse = self.eval_expr(node.orelse, env)
            return body or orelse
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            tainted = None
            for element in node.elts:
                tainted = self.eval_expr(element, env) or tainted
            return tainted
        if isinstance(node, ast.Dict):
            tainted = None
            for value in node.values:
                if value is not None:
                    tainted = self.eval_expr(value, env) or tainted
            return tainted
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            inner = dict(env)
            for generator in node.generators:
                self.eval_expr(generator.iter, env)
                for name in ast.walk(generator.target):
                    if isinstance(name, ast.Name):
                        inner.pop(name.id, None)
            return self.eval_expr(node.elt, inner)
        if isinstance(node, ast.DictComp):
            inner = dict(env)
            for generator in node.generators:
                self.eval_expr(generator.iter, env)
                for name in ast.walk(generator.target):
                    if isinstance(name, ast.Name):
                        inner.pop(name.id, None)
            return self.eval_expr(node.value, inner)
        if isinstance(node, ast.Starred):
            return self.eval_expr(node.value, env)
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.Compare, ast.UnaryOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval_expr(child, env)
            return None
        if isinstance(node, ast.Attribute):
            self.eval_expr(node.value, env)
            return None
        return None

    def join(self, a, b):
        return a if a == b else (a or b or None)

    def on_assign(self, target: ast.AST, value_node: ast.AST, value, env: Env) -> None:
        if value != self.TAINTED:
            return
        if isinstance(target, ast.Attribute):
            self.flag(
                target,
                "value aliasing live arena buffers stored into attribute "
                f"'{target.attr}'; the arena recycles its buffers next epoch "
                "— pass the batch through FleetArena.own() first",
            )
        elif isinstance(target, ast.Subscript):
            root = target.value
            while isinstance(root, ast.Subscript):
                root = root.value
            if isinstance(root, ast.Attribute):
                self.flag(
                    target,
                    "value aliasing live arena buffers stored into the "
                    f"attribute-reachable container '{root.attr}'; pass it "
                    "through FleetArena.own() first (local containers that "
                    "die with the epoch are exempt)",
                )

    def on_return(self, node: ast.Return, value, env: Env) -> None:
        if value == self.TAINTED:
            self.flag(
                node,
                "returning a value that aliases live arena buffers; callers "
                "outlive the epoch boundary — return FleetArena.own(batch) "
                "instead",
            )

    def _check_container_push(self, node: ast.Call, env: Env) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _CONTAINER_PUSH_METHODS:
            return
        receiver = func.value
        while isinstance(receiver, ast.Subscript):
            receiver = receiver.value
        if not isinstance(receiver, ast.Attribute):
            return  # pushes into local containers are the same-epoch pattern
        for arg in node.args:
            if self.eval_expr(arg, env) == self.TAINTED:
                self.flag(
                    node,
                    "pushing a value that aliases live arena buffers into "
                    f"attribute-reachable container '{receiver.attr}'; pass "
                    "it through FleetArena.own() first",
                )
                return


class ArenaEscapeRule(Rule):
    """SL013: zero-copy arena views must not escape the epoch boundary
    without passing through ``FleetArena.own()`` (the PR 8 contract)."""

    id = "SL013"
    summary = (
        "FleetArena.view()/reserve() results and RecordBatch slice aliases "
        "may not be stored into attributes/containers or returned without own()"
    )

    #: The arena implementation itself manages its buffers by contract.
    EXEMPT_FILES = {"repro/query/records.py"}
    #: The arena's readers (simulation, query) and its only writer, the
    #: workloads' ``fill_arena``.
    PACKAGES = ("repro/simulation/", "repro/query/", "repro/workloads/")

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module_path in self.EXEMPT_FILES:
            return False
        return any(ctx.in_package(package) for package in self.PACKAGES)

    def check(self, ctx: FileContext) -> None:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            TaintAnalysis(rule=self, ctx=ctx).analyze_function(func)


# ---------------------------------------------------------------------------
# SL014: worker purity.
# ---------------------------------------------------------------------------


class WorkerPurityRule(Rule):
    """SL014: code reachable from worker-side entry points must not mutate
    module state or touch main-owned shm bookkeeping (the PR 9 contract)."""

    id = "SL014"
    summary = (
        "worker-reachable code in simulation/parallel.py may not write "
        "module globals (beyond the worker-owned slots) or create/unlink "
        "shared memory"
    )

    TARGET = "repro/simulation/parallel.py"
    #: Globals the worker side legitimately owns: the adopted harness, and
    #: the fork snapshot the first worker task consumes.
    ALLOWED_GLOBALS = {"_WORKER", "_FORK_CONTEXT"}
    MUTATING_METHODS = {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "clear",
        "pop",
        "popleft",
        "remove",
        "setdefault",
    }

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_path == self.TARGET

    def _entry_points(self, ctx: FileContext, module) -> Set[str]:
        entries = {
            name for name in module.functions if name.startswith("_worker_")
        }
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in module.functions
            ):
                entries.add(node.args[0].id)
        return entries

    def check(self, ctx: FileContext) -> None:
        project = ctx.project_index()
        module = project.module(ctx.module_path)
        if module is None:
            return
        entry_points = self._entry_points(ctx, module)
        reachable = project.reachable_functions(ctx.module_path, entry_points)
        module_state = module.module_level_names - self.ALLOWED_GLOBALS
        for name in sorted(reachable):
            self._check_function(ctx, module.functions[name].node, module_state)

    def _check_function(
        self, ctx: FileContext, func: ast.AST, module_state: Set[str]
    ) -> None:
        assigned: Set[str] = set()
        for node in ast.walk(func):
            for target in getattr(node, "targets", []) or (
                [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            ):
                if isinstance(target, ast.Name):
                    assigned.add(target.id)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name in self.ALLOWED_GLOBALS:
                        continue
                    if name in assigned:
                        ctx.report(
                            node,
                            self.id,
                            f"worker-reachable function '{func.name}' writes "
                            f"module global '{name}'; workers may only own "
                            f"{sorted(self.ALLOWED_GLOBALS)} — route state "
                            "through the harness or return values",
                        )
            elif isinstance(node, ast.Call):
                self._check_call(ctx, func, node, module_state)

    def _check_call(
        self, ctx: FileContext, func: ast.AST, node: ast.Call, module_state: Set[str]
    ) -> None:
        name = ctx.resolver.resolve(node.func) or ""
        terminal = _terminal_name(node.func)
        if terminal == "SharedMemory":
            for keyword in node.keywords:
                if (
                    keyword.arg == "create"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value
                ):
                    ctx.report(
                        node,
                        self.id,
                        f"worker-reachable function '{func.name}' creates a "
                        "shared-memory segment; segments are created (and "
                        "unlinked) only by the main process so a crashed "
                        "worker cannot leak /dev/shm blocks",
                    )
        elif terminal == "unlink" and isinstance(node.func, ast.Attribute):
            ctx.report(
                node,
                self.id,
                f"worker-reachable function '{func.name}' unlinks a "
                "shared-memory segment; unlink is the owning main process's "
                "job (workers only close their attachments)",
            )
        elif terminal == "unregister" or name.endswith("resource_tracker.unregister"):
            ctx.report(
                node,
                self.id,
                f"worker-reachable function '{func.name}' unregisters from "
                "the resource tracker; the tracker cache is fork-shared and "
                "set-backed — unregistering here cancels the owner's "
                "registration and turns unlink() into tracker noise",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self.MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in module_state
        ):
            ctx.report(
                node,
                self.id,
                f"worker-reachable function '{func.name}' mutates module-"
                f"level state '{node.func.value.id}'; worker results must "
                "travel through return values, not module globals",
            )


FLOW_RULES: Tuple[Rule, ...] = (
    UnitInferenceRule(),
    ArenaEscapeRule(),
    WorkerPurityRule(),
)
