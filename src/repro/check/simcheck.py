"""simcheck: an AST lint pass for simulation determinism and precision.

The simulator's contract is bit-identical, digest-checked results.  The
properties that guarantee that are easy to break silently, so this module
enforces them statically (stdlib ``ast`` only, no third-party deps):

* **SIM101** — wall-clock / entropy reads (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid.uuid1/4`` …) outside the
  allowlisted ``repro/runner/`` harness layer, where real-world timing is
  the point.
* **SIM102** — module-level ``random.*`` / ``numpy.random.*`` calls: the
  global RNGs are process-wide mutable state seeded outside the scenario,
  so results stop being a function of the scenario seed.
* **SIM103** — ``id(...)`` inside a sort/min/max key: CPython ``id`` is
  an address, so the order varies run to run.
* **SIM201** — iterating an unordered set expression (set literal,
  set comprehension, ``set(...)``/``frozenset(...)``,
  ``.intersection(...)`` …) directly in a ``for``/comprehension: the
  iteration order depends on hash seeding and insertion history, and in
  an event-driven simulator any such order leaks into event order (the
  ``BackpressureController`` bug class).  Wrap in ``sorted(...)``.
* **SIM301** — float contamination of integer-nanosecond state in
  ``repro/sim``, ``repro/sched``, ``repro/platform``: a float literal
  assigned to / compared with / multiplied into a ``*_ns`` variable, or a
  ``float(...)`` cast of one, silently caps precision at 2^53 ns (~104
  days) and rounds event times (the PR 4 bug class).  Declaring a
  quantity fractional takes an *explicit* ``float`` annotation at its
  definition; implicit contamination is flagged.  True division is
  exempt (ratios and unit conversions are legitimately float).
* **SIM401** — RNG construction (``random.Random``,
  ``np.random.default_rng`` …) outside ``repro/sim/rng.py``: every
  stream must come from the seeded :class:`~repro.sim.rng.RngFactory`.
* **SIM501** — direct ``heapq`` use outside ``repro/sim/engine.py``: the
  EventLoop's heap owns every priority queue on the hot path, and
  ad-hoc heaps re-introduce the O(log n)-per-event cost (and subtle
  tie-ordering hazards) the engine exists to centralise.  Schedule
  through the EventLoop instead.
* **SIM502** — a member of a hot-path enum (``TaskState``,
  ``ExecOutcome``, ``BackpressureState``) loaded inside a function body
  in ``repro/sim``, ``sched``, ``platform``, ``core``, ``nfs``,
  ``cluster``, ``traffic`` or ``faults``.  On CPython 3.11 such a load
  goes through the Enum metaclass's Python-level attribute lookup on
  every execution (~150 ns, against ~20 ns for a global), and the event
  path makes several per event.  Bind the member once at module level
  (``BLOCKED = TaskState.BLOCKED``, as ``repro.sched.base`` does) and
  load that name; module-level and class-body loads are allowed.

Suppression: append ``# simcheck: ignore[CODE]`` (comma-separate several
codes) to the offending line.  Suppressions are counted and reported —
CI runs with zero.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import sys
import textwrap
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = ["Finding", "FileReport", "check_file", "check_paths",
           "iter_rules", "main", "run_deep", "RULES_VERSION",
           "render_sarif", "finding_fingerprint"]

#: Bump when any rule's behaviour changes — reported as the SARIF tool
#: version.
RULES_VERSION = "4"


# ----------------------------------------------------------------------
# Framework
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``chain`` is the call-chain witness for cross-module findings
    (root-to-site function qualnames); empty for file-local rules.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    chain: Tuple[str, ...] = ()

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.chain:
            text += "\n    witness: " + " -> ".join(self.chain)
        return text

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
        if self.chain:
            out["chain"] = list(self.chain)
        return out


@dataclass
class FileReport:
    """Findings for one file plus suppression bookkeeping."""

    path: str
    findings: List[Finding]
    suppressed: int = 0
    error: Optional[str] = None


class FileContext:
    """Parsed source plus the import-alias map the rules resolve against."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: Path relative to the package root ("repro/...") for allowlists,
        #: or the basename when the file is outside the package.
        self.rel = package_rel(path)
        #: local name -> fully qualified dotted module/function name.
        self.aliases = collect_aliases(
            self.tree, module_name_for_rel(self.rel),
            is_package=self.rel.endswith("__init__.py"))
        #: line -> rule codes an inline ``# simcheck: ignore[...]`` waives.
        self.suppress = _suppressions(source)

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        """Dotted name a call target resolves to, or None.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``numpy.random.default_rng``; ``monotonic`` after ``from time
        import monotonic`` resolves to ``time.monotonic``.
        """
        parts = dotted_parts(func)
        if parts is None:
            return None
        head = self.aliases.get(parts[0])
        if head is None:
            # Unimported bare name: only builtins resolve (id, float, ...).
            return parts[0] if len(parts) == 1 else None
        return ".".join([head] + parts[1:])


def package_rel(path: str) -> str:
    """Path relative to the package root (``repro/...``), or basename."""
    norm = path.replace(os.sep, "/")
    marker = "repro/"
    idx = norm.rfind("/" + marker)
    if idx >= 0:
        return norm[idx + 1:]
    if norm.startswith(marker):
        return norm
    return norm.rsplit("/", 1)[-1]


def module_name_for_rel(rel: str) -> str:
    """Dotted module name for a package-relative path."""
    name = rel[:-3] if rel.endswith(".py") else rel
    parts = [p for p in name.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else name


def dotted_parts(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``, or None for other shapes."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    parts.reverse()
    return parts


def collect_aliases(tree: ast.Module, module: str,
                    is_package: bool) -> Dict[str, str]:
    """local name -> fully qualified dotted name, relative imports
    resolved against ``module``."""
    aliases: Dict[str, str] = {}
    pkg_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    aliases[a.name.split(".")[0]] = a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # For module "a.b.c": level 1 anchors at "a.b", level 2
                # at "a".  A package __init__ IS its own anchor at
                # level 1 (module_name_for_rel already stripped
                # "__init__"), so drop one fewer component.
                drop = node.level - 1 if is_package else node.level
                anchor = pkg_parts[:len(pkg_parts) - drop]
                base = ".".join(
                    anchor + ([node.module] if node.module else []))
            if not base:
                continue
            for a in node.names:
                aliases[a.asname or a.name] = f"{base}.{a.name}"
    return aliases


_RULES: List["Rule"] = []


def register(cls: Type["Rule"]) -> Type["Rule"]:
    _RULES.append(cls())
    return cls


def iter_rules() -> Iterator["Rule"]:
    return iter(_RULES)


class Rule:
    """One lint rule: a code, a summary, and a ``check`` pass."""

    code = "SIM000"
    summary = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(ctx.path, getattr(node, "lineno", 0),
                       getattr(node, "col_offset", 0), self.code, message)


# ----------------------------------------------------------------------
# SIM1xx — nondeterminism sources
# ----------------------------------------------------------------------
#: Functions whose return value depends on the host rather than the seed.
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbelow",
}

#: Layers where real wall-clock time is the measured quantity, not a
#: simulation input: the campaign harness times worker processes.
_WALL_CLOCK_ALLOWED_PREFIXES = ("repro/runner/",)


@register
class WallClockRule(Rule):
    code = "SIM101"
    summary = ("wall-clock/entropy read in simulation code "
               "(time.*, datetime.now, os.urandom, uuid1/4, secrets)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel.startswith(_WALL_CLOCK_ALLOWED_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target in _WALL_CLOCK:
                yield self.finding(
                    ctx, node,
                    f"call to {target}() is host-dependent; simulation "
                    f"code must take time from the EventLoop and "
                    f"randomness from repro.sim.rng")
            elif (target is None and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("now", "utcnow")
                  and _mentions_datetime(ctx, node.func.value)):
                yield self.finding(
                    ctx, node,
                    "datetime now()/utcnow() is host-dependent; simulation "
                    "code must take time from the EventLoop")


def _mentions_datetime(ctx: FileContext, node: ast.expr) -> bool:
    """Does this expression resolve to the datetime module/class?"""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return False
    head = ctx.aliases.get(cur.id)
    return head is not None and head.split(".")[0] == "datetime"


_GLOBAL_RNG_EXEMPT = {
    # Constructors/types: SIM401's territory, not global-state use.
    "random.Random", "random.SystemRandom",
    "numpy.random.Generator", "numpy.random.default_rng",
    "numpy.random.RandomState", "numpy.random.SeedSequence",
    "numpy.random.PCG64", "numpy.random.Philox", "numpy.random.MT19937",
    "numpy.random.BitGenerator",
}


@register
class GlobalRandomRule(Rule):
    code = "SIM102"
    summary = ("module-level random.*/numpy.random.* call "
               "(global RNG state is not seeded by the scenario)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target is None or target in _GLOBAL_RNG_EXEMPT:
                continue
            if (target.startswith("random.")
                    and target.count(".") == 1) or \
                    target.startswith("numpy.random."):
                yield self.finding(
                    ctx, node,
                    f"{target}() uses the process-global RNG; draw from a "
                    f"repro.sim.rng.RngFactory stream instead")


_SORT_CALLS = {"sorted", "min", "max"}


@register
class IdInSortKeyRule(Rule):
    code = "SIM103"
    summary = "id() inside a sort/min/max key (address-dependent order)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            is_sort = (
                (isinstance(node.func, ast.Name)
                 and node.func.id in _SORT_CALLS)
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort")
            )
            if not is_sort:
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                # key=id passes the builtin itself; key=lambda t: id(t)
                # calls it — both order by memory address.
                if (isinstance(kw.value, ast.Name)
                        and ctx.resolve_call(kw.value) == "id"):
                    yield self.finding(
                        ctx, kw.value,
                        "id as a sort key orders by memory address, "
                        "which varies across runs; key on a stable "
                        "field (name, index) instead")
                    continue
                for sub in ast.walk(kw.value):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id == "id"
                            and ctx.resolve_call(sub.func) == "id"):
                        yield self.finding(
                            ctx, sub,
                            "id() in a sort key orders by memory address, "
                            "which varies across runs; key on a stable "
                            "field (name, index) instead")


# ----------------------------------------------------------------------
# SIM2xx — unordered iteration
# ----------------------------------------------------------------------
_SET_METHODS = {"intersection", "union", "difference", "symmetric_difference"}


def _is_set_expr(ctx: FileContext, node: ast.expr) -> Optional[str]:
    """Describe ``node`` if it is statically known to be an unordered set."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        target = ctx.resolve_call(node.func)
        if target in ("set", "frozenset"):
            return f"{target}(...)"
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS):
            return f".{node.func.attr}(...)"
    return None


@register
class SetIterationRule(Rule):
    code = "SIM201"
    summary = ("iteration over an unordered set expression "
               "(order leaks into event order; wrap in sorted())")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                desc = _is_set_expr(ctx, it)
                if desc is not None:
                    yield self.finding(
                        ctx, it,
                        f"iterating {desc} directly: set order depends on "
                        f"hash seeding/insertion history; wrap in sorted()")


# ----------------------------------------------------------------------
# SIM3xx — float contamination of integer-nanosecond state
# ----------------------------------------------------------------------
#: Only the hot simulation layers carry the integer-ns invariant; the
#: analysis/metrics layers legitimately convert to float seconds.
_NS_SCOPED_PREFIXES = ("repro/sim/", "repro/sched/", "repro/platform/")


def _ns_name(node: ast.expr) -> Optional[str]:
    """The ``*_ns`` identifier an expression names, if any."""
    if isinstance(node, ast.Name) and node.id.endswith("_ns"):
        return node.id
    if isinstance(node, ast.Attribute) and node.attr.endswith("_ns"):
        return node.attr
    return None


def _mentions_ns(node: ast.expr) -> Optional[str]:
    for sub in ast.walk(node):
        name = _ns_name(sub)
        if name is not None:
            return name
    return None


def _is_float_const(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_const(node.operand)
    return False


#: Arithmetic that must stay in the integer domain (Div is exempt: a
#: ratio or unit conversion is legitimately float).
_INT_DOMAIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.FloorDiv)


@register
class FloatNsRule(Rule):
    code = "SIM301"
    summary = ("implicit float contamination of a *_ns quantity in "
               "sim/sched/platform (2^53 precision hazard)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.rel.startswith(_NS_SCOPED_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            yield from self._check_node(ctx, node)

    def _check_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        # x_ns = 1.5  /  self.x_ns = 0.0   (implicit float declaration)
        if isinstance(node, ast.Assign) and _is_float_const(node.value):
            for tgt in node.targets:
                name = _ns_name(tgt)
                if name is not None:
                    yield self.finding(
                        ctx, node,
                        f"float literal assigned to {name}: nanosecond "
                        f"state is integer; use an int literal (annotate "
                        f"': float' at the declaration if fractional is "
                        f"intended)")
        # x_ns: int = 0.0 — float default contradicting a non-float
        # annotation; x_ns: float = ... is an explicit opt-in and passes.
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            name = _ns_name(node.target)
            if (name is not None and _is_float_const(node.value)
                    and not _is_float_annotation(node.annotation)):
                yield self.finding(
                    ctx, node,
                    f"float default for {name} without an explicit float "
                    f"annotation; nanosecond state is integer")
        # x_ns += 0.5
        elif isinstance(node, ast.AugAssign):
            name = _ns_name(node.target)
            if name is not None and _is_float_const(node.value) \
                    and isinstance(node.op, _INT_DOMAIN_OPS):
                yield self.finding(
                    ctx, node,
                    f"float literal folded into {name} with an integer-"
                    f"domain operator")
        # x_ns + 1.5, 2.5 * x_ns (Div exempt)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _INT_DOMAIN_OPS):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                name = _ns_name(a)
                if name is not None and _is_float_const(b):
                    yield self.finding(
                        ctx, node,
                        f"float literal combined with {name} via an "
                        f"integer-domain operator")
                    break
        # x_ns == 1.5, x_ns < 0.0
        elif isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            if any(_ns_name(o) for o in operands) \
                    and any(_is_float_const(o) for o in operands):
                yield self.finding(
                    ctx, node,
                    "comparison between a *_ns quantity and a float "
                    "literal; compare against an int")
        # float(x_ns) — explicit down-conversion of an integer counter.
        elif isinstance(node, ast.Call) and ctx.resolve_call(node.func) == "float" \
                and len(node.args) == 1:
            name = _mentions_ns(node.args[0])
            if name is not None:
                yield self.finding(
                    ctx, node,
                    f"float({name}) caps precision at 2^53; keep "
                    f"nanosecond state integer (divide for ratios instead)")
        # def f(x_ns=1.5) — float default without a float annotation.
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            all_args = args.posonlyargs + args.args + args.kwonlyargs
            defaults = ([None] * (len(args.posonlyargs) + len(args.args)
                                  - len(args.defaults))
                        + list(args.defaults) + list(args.kw_defaults))
            for arg, default in zip(all_args, defaults):
                if (default is not None and arg.arg.endswith("_ns")
                        and _is_float_const(default)
                        and not (arg.annotation is not None
                                 and _is_float_annotation(arg.annotation))):
                    yield self.finding(
                        ctx, default,
                        f"float default for parameter {arg.arg} without an "
                        f"explicit float annotation")


def _is_float_annotation(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "float"


# ----------------------------------------------------------------------
# SIM4xx — RNG construction
# ----------------------------------------------------------------------
_RNG_CONSTRUCTORS = {
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator",
}

#: The one module allowed to construct generators: the seeded factory.
_RNG_ALLOWED = ("repro/sim/rng.py",)


@register
class RngConstructionRule(Rule):
    code = "SIM401"
    summary = ("RNG constructed outside repro/sim/rng.py "
               "(all streams come from the seeded RngFactory)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel in _RNG_ALLOWED:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target in _RNG_CONSTRUCTORS:
                yield self.finding(
                    ctx, node,
                    f"{target}() constructed outside repro/sim/rng.py; "
                    f"request a named stream from RngFactory so seeding "
                    f"stays centralised")


# ----------------------------------------------------------------------
# SIM5xx — hot-path structure
# ----------------------------------------------------------------------
#: The one module allowed to touch heapq: the event-loop engines.
_HEAPQ_ALLOWED = ("repro/sim/engine.py",)


@register
class HeapqOutsideEngineRule(Rule):
    code = "SIM501"
    summary = ("direct heapq use outside repro/sim/engine.py "
               "(hot paths must schedule through the EventLoop)")

    _MSG = ("direct heapq use outside repro/sim/engine.py; priority "
            "queues on the hot path belong to the EventLoop engines "
            "(call_at/call_after/call_every), which centralise "
            "tie-ordering and amortise dispatch cost")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel in _HEAPQ_ALLOWED:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "heapq" or a.name.startswith("heapq."):
                        yield self.finding(ctx, node, self._MSG)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "heapq" and not node.level:
                    yield self.finding(ctx, node, self._MSG)
            elif isinstance(node, ast.Call):
                target = ctx.resolve_call(node.func)
                if target is not None and target.startswith("heapq."):
                    yield self.finding(ctx, node, self._MSG)


#: Enums whose members the event path tests and sets on nearly every
#: event, under every dotted name they are importable by.
_HOT_ENUMS = frozenset({
    "repro.sched.base.TaskState", "repro.sched.TaskState",
    "repro.sched.base.ExecOutcome", "repro.sched.ExecOutcome",
    "repro.core.backpressure.BackpressureState",
    "repro.core.BackpressureState",
})

#: The layers that run per simulated event.
_HOT_ENUM_SCOPED_PREFIXES = (
    "repro/sim/", "repro/sched/", "repro/platform/", "repro/core/",
    "repro/nfs/", "repro/cluster/", "repro/traffic/", "repro/faults/",
)


def _per_call_code(tree: ast.AST) -> Iterator[ast.AST]:
    """The outermost function and lambda bodies: code that runs per call.

    Decorators, defaults and annotations are evaluated once, where the
    function is defined, so they stay with the enclosing scope; nested
    functions are inside their outer body already.
    """
    stack: List[ast.AST] = [tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from child.body
            elif isinstance(child, ast.Lambda):
                yield child.body
            else:
                stack.append(child)


@register
class EnumMemberInFunctionRule(Rule):
    code = "SIM502"
    summary = ("hot-path enum member (TaskState/ExecOutcome/"
               "BackpressureState) loaded inside a function in the "
               "simulation layers (bind it at module level)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.rel.startswith(_HOT_ENUM_SCOPED_PREFIXES):
            return
        module = module_name_for_rel(ctx.rel)
        for code in _per_call_code(ctx.tree):
            for node in ast.walk(code):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    continue
                target = ctx.resolve_call(node.value)
                if target is not None and "." not in target:
                    target = f"{module}.{target}"  # defined in this file
                if target in _HOT_ENUMS:
                    enum_name = target.rsplit(".", 1)[1]
                    yield self.finding(
                        ctx, node,
                        f"{enum_name}.{node.attr} loaded inside a "
                        f"function pays an Enum metaclass lookup per "
                        f"execution on CPython 3.11; bind it once at "
                        f"module level and load that name")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
_SUPPRESS_RE = re.compile(r"#\s*simcheck:\s*ignore\[([A-Z0-9,\s]+)\]")


def _suppressions(source: str) -> Dict[int, set]:
    out: Dict[int, set] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            out[i] = {c.strip() for c in m.group(1).split(",") if c.strip()}
    return out


def _lint(path: str) -> Tuple[FileReport, Optional[FileContext]]:
    """File-local findings for one file plus its parsed context.

    The context is ``None`` when the file could not be read or parsed;
    the report then carries the error instead of raising it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        ctx = FileContext(path, source)
    except (OSError, SyntaxError, ValueError, RecursionError) as exc:
        return FileReport(path, [], error=str(exc)), None
    findings: List[Finding] = []
    suppressed = 0
    for rule in _RULES:
        for finding in rule.check(ctx):
            codes = ctx.suppress.get(finding.line)
            if codes is not None and finding.code in codes:
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return FileReport(path, findings, suppressed=suppressed), ctx


def check_file(path: str) -> FileReport:
    """Lint one file; parse errors are reported, not raised."""
    return _lint(path)[0]


def _iter_py_files(paths: Sequence[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git", ".hypothesis"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def check_paths(paths: Sequence[str]) -> Tuple[List[FileReport], int]:
    """Lint files/directories; returns (reports, total suppressed)."""
    reports = []
    suppressed = 0
    for path in _iter_py_files(paths):
        report = check_file(path)
        reports.append(report)
        suppressed += report.suppressed
    return reports, suppressed


# ----------------------------------------------------------------------
# Deep mode: file-local rules plus whole-program flow passes
# ----------------------------------------------------------------------
@dataclass
class DeepResult:
    """Everything one ``repro check --deep`` run produced."""

    reports: List[FileReport]
    deep_findings: List[Finding]
    suppressed: int


def run_deep(paths: Sequence[str]) -> DeepResult:
    """File-local rules plus whole-program flow passes.

    Each file is read and parsed once: the file-local rules and the
    graph summary share its tree.  Parse errors stay per-file
    (``FileReport.error``) — the graph is built from the parseable
    subset.
    """
    from repro.check.flow import run_flow_passes
    from repro.check.graph import ProjectGraph, extract_summary

    reports: List[FileReport] = []
    suppressed = 0
    summaries: Dict[str, Dict[str, Any]] = {}
    suppress_by_path: Dict[str, Dict[int, set]] = {}
    for path in _iter_py_files(paths):
        report, ctx = _lint(path)
        reports.append(report)
        suppressed += report.suppressed
        if ctx is None:
            continue
        suppress_by_path[path] = ctx.suppress
        try:
            summaries[path] = extract_summary(path, ctx.tree)
        except RecursionError as exc:
            report.error = str(exc)

    graph = ProjectGraph(summaries)
    deep_findings: List[Finding] = []
    for finding in run_flow_passes(graph):
        codes = suppress_by_path.get(finding.path, {}).get(finding.line)
        if codes is not None and finding.code in codes:
            suppressed += 1
        else:
            deep_findings.append(finding)
    return DeepResult(reports, deep_findings, suppressed)


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------
def _all_rule_docs(deep: bool) -> Dict[str, str]:
    docs = {r.code: r.summary for r in _RULES}
    if deep:
        from repro.check.flow import DEEP_RULES
        docs.update(DEEP_RULES)
    return docs


def finding_fingerprint(finding: Finding) -> str:
    """Stable identity for SARIF ``partialFingerprints``: path
    (package-relative), code and message — deliberately line-number
    independent so unrelated edits don't churn code-scanning alerts."""
    rel = package_rel(finding.path)
    raw = f"{rel}|{finding.code}|{finding.message}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def render_sarif(findings: Sequence[Finding], deep: bool) -> Dict[str, Any]:
    """Minimal SARIF 2.1.0 document for GitHub code scanning."""
    docs = _all_rule_docs(deep)
    results = []
    for f in findings:
        message = f.message
        if f.chain:
            message += " [witness: " + " -> ".join(f.chain) + "]"
        results.append({
            "ruleId": f.code,
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace(os.sep, "/")},
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": f.col + 1,
                    },
                },
            }],
            "partialFingerprints": {
                "simcheck/v1": finding_fingerprint(f)},
        })
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "simcheck",
                "version": RULES_VERSION,
                "informationUri": "docs/static-analysis.md",
                "rules": [
                    {"id": code,
                     "shortDescription": {"text": summary}}
                    for code, summary in sorted(docs.items())],
            }},
            "results": results,
        }],
    }


def explain(code: str, out: Any) -> int:
    """``repro check --explain CODE``: print the rule's documentation."""
    from repro.check.flow import EXPLAIN
    text = EXPLAIN.get(code.upper())
    if text is None:
        known = ", ".join(sorted(EXPLAIN))
        print(f"simcheck: unknown rule code {code!r} (known: {known})",
              file=out)
        return 2
    print(f"{code.upper()} — {_all_rule_docs(True).get(code.upper(), '')}",
          file=out)
    print(file=out)
    print(textwrap.fill(text, width=78), file=out)
    return 0


def main(paths: Sequence[str], as_json: bool = False,
         out: Optional[Any] = None, deep: bool = False,
         fmt: Optional[str] = None,
         explain_code: Optional[str] = None) -> int:
    """Entry point for ``repro check``.

    Exit codes: 0 clean, 1 findings, 2 a file could not be parsed (or
    usage error).  ``--deep`` adds the whole-program flow passes on top
    of the file-local rules.
    """
    out = out if out is not None else sys.stdout
    if explain_code is not None:
        return explain(explain_code, out)
    fmt = fmt or ("json" if as_json else "text")

    if deep:
        result = run_deep(paths)
        reports = result.reports
        suppressed = result.suppressed
        findings = [f for r in reports for f in r.findings]
        findings += result.deep_findings
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    else:
        reports, suppressed = check_paths(paths)
        findings = [f for r in reports for f in r.findings]
    errors = [(r.path, r.error) for r in reports if r.error]

    if fmt == "sarif":
        print(json.dumps(render_sarif(findings, deep), indent=2,
                         sort_keys=True), file=out)
    elif fmt == "json":
        payload: Dict[str, Any] = {
            "files": len(reports),
            "findings": [f.to_dict() for f in findings],
            "suppressed": suppressed,
            "errors": [{"path": p, "error": e} for p, e in errors],
            "rules": _all_rule_docs(deep),
        }
        if deep:
            payload["deep"] = True
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for f in findings:
            print(f.render(), file=out)
        for path, err in errors:
            print(f"{path}: ERROR {err}", file=out)
        tail = f", {len(errors)} error(s)" if errors else ""
        print(f"simcheck: {len(reports)} files, {len(findings)} "
              f"finding(s), {suppressed} suppression(s)" + tail, file=out)
    if errors:
        return 2
    return 1 if findings else 0
