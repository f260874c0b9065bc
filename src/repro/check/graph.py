"""Whole-program import/call graph over the repro source tree.

Stdlib-``ast`` only, like the rest of simcheck.  Two layers:

* :func:`extract_summary` — one pass over a single file producing a
  plain-dict **module summary**: functions with their outgoing calls
  (alias-resolved where possible), module-level mutable globals,
  class-level mutables, digest-safety facts (invisible-field reads,
  invisible-producer calls, ``ScenarioResult(...)`` construction sites),
  ``global`` rebinds and mutation sites.  Summaries are plain
  JSON-compatible dicts, so they print and compare as data.

* :class:`ProjectGraph` — links the summaries of every parseable file
  into a call graph: function table, caller→callee edges (same-module
  defs, ``self.method``, import-alias targets, class instantiation,
  nested defs), and BFS reachability with parent pointers so the flow
  passes (:mod:`repro.check.flow`) can render call-chain witnesses.

Resolution is deliberately an under-approximation: a call through a
duck-typed object (``obj.run()``) creates no edge.  The flow rules that
consume the graph are therefore *sound for what they claim* — every
rendered witness chain is a real chain of statically resolvable calls —
rather than exhaustive.
"""

from __future__ import annotations

import ast
import os
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.check import registry

__all__ = ["extract_summary", "ProjectGraph", "module_name_for_rel",
           "package_rel"]

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"

#: Container methods that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "add", "update", "pop", "popitem", "clear", "extend",
    "insert", "remove", "discard", "setdefault", "appendleft",
    "extendleft", "sort", "reverse",
})

#: Constructor names whose result is a mutable container.
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "deque", "defaultdict", "OrderedDict",
    "Counter",
})


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


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CTORS
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        # collections.deque(...), collections.defaultdict(...)
        return node.func.attr in _MUTABLE_CTORS
    return False


def _dotted_parts(node: ast.expr) -> Optional[List[str]]:
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


def _collect_aliases(tree: ast.Module, module: str,
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


class _FuncRecord:
    """Mutable accumulator for one function's summary."""

    def __init__(self, lineno: int):
        self.lineno = lineno
        self.calls: List[Dict[str, Any]] = []
        self.nested: List[str] = []
        self.producer_calls: List[Dict[str, Any]] = []
        self.invisible_reads: List[Dict[str, Any]] = []
        self.sr_calls: List[Dict[str, Any]] = []
        self.mutations: List[Dict[str, Any]] = []
        self.rebinds: List[Dict[str, Any]] = []
        self.locals: Set[str] = set()
        self.globals_declared: Set[str] = set()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lineno": self.lineno,
            "calls": self.calls,
            "nested": self.nested,
            "producer_calls": self.producer_calls,
            "invisible_reads": self.invisible_reads,
            "sr_calls": self.sr_calls,
            "mutations": self.mutations,
            "rebinds": self.rebinds,
            "locals": sorted(self.locals),
        }


class _Extractor:
    """One pass over a parsed module producing the summary dict."""

    def __init__(self, rel: str, tree: ast.Module):
        self.rel = rel
        self.module = module_name_for_rel(rel)
        self.tree = tree
        self.aliases = _collect_aliases(
            tree, self.module, is_package=rel.endswith("__init__.py"))
        self.functions: Dict[str, _FuncRecord] = {}
        self.top_funcs: Set[str] = set()
        self.classes: Dict[str, List[str]] = {}
        self.module_globals: Dict[str, int] = {}
        self.mutable_globals: Dict[str, int] = {}
        self.class_mutables: List[Dict[str, Any]] = []
        self.marker: Optional[str] = None
        self.scenario_fields: Optional[List[Dict[str, Any]]] = None

    # -- entry ----------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        mod_rec = _FuncRecord(1)
        self.functions[MODULE_BODY] = mod_rec
        for stmt in self.tree.body:
            self._module_stmt(stmt, mod_rec)
        return {
            "rel": self.rel,
            "module": self.module,
            "top_funcs": sorted(self.top_funcs),
            "classes": {c: sorted(m) for c, m in self.classes.items()},
            "module_globals": self.module_globals,
            "mutable_globals": self.mutable_globals,
            "class_mutables": self.class_mutables,
            "marker": self.marker,
            "scenario_fields": self.scenario_fields,
            "functions": {q: r.to_dict() for q, r in self.functions.items()},
        }

    # -- module / class level -------------------------------------------
    def _module_stmt(self, stmt: ast.stmt, mod_rec: _FuncRecord) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.top_funcs.add(stmt.name)
            self._function(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            self._class(stmt)
        else:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._record_module_assign(stmt)
            self._stmt(stmt, mod_rec, guards=(), cls=None)

    def _record_module_assign(self, stmt: ast.stmt) -> None:
        targets: List[ast.expr]
        value: Optional[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:  # pragma: no cover - guarded by caller
            return
        for tgt in targets:
            if not isinstance(tgt, ast.Name):
                continue
            self.module_globals.setdefault(tgt.id, stmt.lineno)
            if tgt.id == "__digest_safety__" and value is not None \
                    and isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                self.marker = value.value
            if value is not None and _is_mutable_value(value):
                self.mutable_globals.setdefault(tgt.id, stmt.lineno)

    def _class(self, node: ast.ClassDef) -> None:
        methods: List[str] = []
        rebound: Set[str] = set()
        mutables: List[Tuple[str, int, int]] = []
        fields: List[Dict[str, Any]] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                rebound |= _self_assigned_names(stmt)
                self._function(stmt, f"{node.name}.{stmt.name}", node.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                tgts = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                value = stmt.value
                for tgt in tgts:
                    if not isinstance(tgt, ast.Name):
                        continue
                    if isinstance(stmt, ast.AnnAssign):
                        fields.append({"name": tgt.id,
                                       "lineno": stmt.lineno,
                                       "col": stmt.col_offset})
                    if value is not None and _is_mutable_value(value):
                        mutables.append((tgt.id, stmt.lineno,
                                         stmt.col_offset))
        self.classes[node.name] = methods
        for attr, lineno, col in mutables:
            self.class_mutables.append({
                "cls": node.name, "attr": attr, "lineno": lineno,
                "col": col, "rebound": attr in rebound,
            })
        if node.name == "ScenarioResult":
            self.scenario_fields = fields

    # -- functions ------------------------------------------------------
    def _function(self, node: ast.stmt, qual: str,
                  cls: Optional[str]) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        rec = _FuncRecord(node.lineno)
        self.functions[qual] = rec
        args = node.args
        for a in (args.posonlyargs + args.args + args.kwonlyargs
                  + ([args.vararg] if args.vararg else [])
                  + ([args.kwarg] if args.kwarg else [])):
            rec.locals.add(a.arg)
        # Pre-pass: locally bound names (so a shadowing local never
        # resolves to a module global).
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                rec.globals_declared.update(sub.names)
            elif isinstance(sub, ast.Assign):
                for tgt in sub.targets:
                    for n in ast.walk(tgt):
                        # Only Store-context names bind (``d[k] = v``
                        # leaves ``d`` and ``k`` in Load context).
                        if isinstance(n, ast.Name) \
                                and isinstance(n.ctx, ast.Store):
                            rec.locals.add(n.id)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(sub.target, ast.Name):
                    rec.locals.add(sub.target.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for n in ast.walk(sub.target):
                    if isinstance(n, ast.Name):
                        rec.locals.add(n.id)
            elif isinstance(sub, ast.comprehension):
                for n in ast.walk(sub.target):
                    if isinstance(n, ast.Name):
                        rec.locals.add(n.id)
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    if item.optional_vars is not None:
                        for n in ast.walk(item.optional_vars):
                            if isinstance(n, ast.Name):
                                rec.locals.add(n.id)
        rec.locals -= rec.globals_declared
        for stmt in node.body:
            self._stmt(stmt, rec, guards=(), cls=cls, func_qual=qual)

    # -- statement walk -------------------------------------------------
    def _stmt(self, stmt: ast.stmt, rec: _FuncRecord,
              guards: Tuple[str, ...], cls: Optional[str],
              func_qual: Optional[str] = None) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: its own record, conservatively reachable from
            # the parent (closures are almost always invoked by it).
            parent = func_qual or MODULE_BODY
            nested_qual = (f"{func_qual}.{stmt.name}" if func_qual
                           else stmt.name)
            if func_qual is None:
                self.top_funcs.add(stmt.name)
            self._function(stmt, nested_qual, cls)
            self.functions[parent].nested.append(nested_qual)
            return
        if isinstance(stmt, ast.ClassDef):
            self._class(stmt)
            return
        if isinstance(stmt, ast.Global):
            rec.globals_declared.update(stmt.names)
            return
        if isinstance(stmt, ast.If):
            test_names = tuple(sorted({
                n.id for n in ast.walk(stmt.test)
                if isinstance(n, ast.Name)}))
            self._expr(stmt.test, rec, guards, in_test=True, key=None)
            inner = tuple(sorted(set(guards) | set(test_names)))
            for s in stmt.body:
                self._stmt(s, rec, inner, cls, func_qual)
            for s in stmt.orelse:
                self._stmt(s, rec, guards, cls, func_qual)
            return
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                self._mutation_target(tgt, rec, "subscript-assign")
            key = _assign_key(stmt.targets)
            if key is None and stmt.targets \
                    and isinstance(stmt.targets[0], ast.Attribute):
                # Writing INTO a field (result.flow_latency = ...) is a
                # store, not a digest read; name the slot after the attr
                # so invisible->invisible stores stay exempt.
                key = stmt.targets[0].attr
            self._expr(stmt.value, rec, guards, in_test=False, key=key)
            if rec.globals_declared:
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name) \
                            and tgt.id in rec.globals_declared:
                        rec.rebinds.append({
                            "name": tgt.id, "lineno": stmt.lineno,
                            "col": stmt.col_offset})
            return
        if isinstance(stmt, ast.AugAssign):
            self._mutation_target(stmt.target, rec, "aug-assign")
            if isinstance(stmt.target, ast.Name) \
                    and stmt.target.id in rec.globals_declared:
                rec.rebinds.append({
                    "name": stmt.target.id, "lineno": stmt.lineno,
                    "col": stmt.col_offset})
            self._expr(stmt.value, rec, guards, in_test=False, key=None)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value, rec, guards, in_test=False,
                           key=None)
            if isinstance(stmt.target, ast.Name) \
                    and stmt.target.id in rec.globals_declared:
                rec.rebinds.append({
                    "name": stmt.target.id, "lineno": stmt.lineno,
                    "col": stmt.col_offset})
            return
        if isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                self._mutation_target(tgt, rec, "delete")
            return
        # Generic recursion: child statements keep the guard context;
        # child expressions are scanned without a slot.
        for field_name, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                self._expr(value, rec, guards, in_test=False, key=None)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        self._stmt(item, rec, guards, cls, func_qual)
                    elif isinstance(item, ast.expr):
                        self._expr(item, rec, guards, in_test=False,
                                   key=None)
                    elif isinstance(item, ast.excepthandler):
                        for s in item.body:
                            self._stmt(s, rec, guards, cls, func_qual)
                    elif isinstance(item, ast.withitem):
                        self._expr(item.context_expr, rec, guards,
                                   in_test=False, key=None)

    def _mutation_target(self, tgt: ast.expr, rec: _FuncRecord,
                         op: str) -> None:
        if isinstance(tgt, ast.Subscript) \
                and isinstance(tgt.value, ast.Name):
            self._record_mutation(tgt.value.id, op, tgt, rec)

    def _record_mutation(self, name: str, op: str, node: ast.AST,
                         rec: _FuncRecord) -> None:
        rec.mutations.append({
            "name": name,
            "resolved": self.aliases.get(name),
            "op": op,
            "lineno": getattr(node, "lineno", 0),
            "col": getattr(node, "col_offset", 0),
        })

    # -- expression walk ------------------------------------------------
    def _expr(self, node: ast.expr, rec: _FuncRecord,
              guards: Tuple[str, ...], in_test: bool,
              key: Optional[str]) -> None:
        if isinstance(node, ast.Call):
            self._call(node, rec, guards, in_test, key)
            return
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and node.attr in registry.DIGEST_INVISIBLE_FIELDS:
            rec.invisible_reads.append({
                "attr": node.attr, "lineno": node.lineno,
                "col": node.col_offset, "in_test": in_test,
                "key": key, "guards": list(guards),
            })
            self._expr(node.value, rec, guards, in_test, key)
            return
        if isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if k is not None:
                    self._expr(k, rec, guards, in_test, None)
                child_key = k.value if (isinstance(k, ast.Constant)
                                        and isinstance(k.value, str)) \
                    else key
                self._expr(v, rec, guards, in_test, child_key)
            return
        if isinstance(node, (ast.BoolOp,)) and in_test:
            for v in node.values:
                self._expr(v, rec, guards, in_test, key)
            return
        if isinstance(node, ast.IfExp):
            self._expr(node.test, rec, guards, True, None)
            self._expr(node.body, rec, guards, in_test, key)
            self._expr(node.orelse, rec, guards, in_test, key)
            return
        if isinstance(node, ast.Lambda):
            self._expr(node.body, rec, guards, in_test, None)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, rec, guards, in_test, key)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter, rec, guards, in_test, None)
                for cond in child.ifs:
                    self._expr(cond, rec, guards, True, None)

    def _call(self, node: ast.Call, rec: _FuncRecord,
              guards: Tuple[str, ...], in_test: bool,
              key: Optional[str]) -> None:
        parts = _dotted_parts(node.func)
        raw = ".".join(parts) if parts else None
        resolved: Optional[str] = None
        if parts:
            head = self.aliases.get(parts[0])
            if head is not None:
                resolved = ".".join([head] + parts[1:])
            rec.calls.append({
                "raw": raw, "resolved": resolved,
                "lineno": node.lineno, "col": node.col_offset,
            })
            # In-place mutation through a method call: X.append(...)
            if isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.attr in _MUTATORS:
                self._record_mutation(node.func.value.id,
                                      f".{node.func.attr}()", node, rec)
            # Digest-invisible producer signature.
            if parts and len(parts) >= 1:
                method = parts[-1]
                recv = parts[-2] if len(parts) >= 2 else None
                for want_recv, want_method in registry.INVISIBLE_PRODUCERS:
                    if method != want_method:
                        continue
                    if want_recv is not None and recv != want_recv:
                        continue
                    rec.producer_calls.append({
                        "recv": recv, "method": method,
                        "lineno": node.lineno, "col": node.col_offset,
                        "in_test": in_test, "key": key,
                        "guards": list(guards),
                    })
                    break
            # ScenarioResult construction site: capture per-kwarg taint.
            if raw is not None and (raw == "ScenarioResult"
                                    or raw.endswith(".ScenarioResult")
                                    or (resolved is not None and resolved
                                        .endswith(".ScenarioResult"))):
                self._scenario_result_call(node, rec)
        else:
            self._expr(node.func, rec, guards, in_test, None)
        for arg in node.args:
            self._expr(arg, rec, guards, in_test, None)
        for kw in node.keywords:
            self._expr(kw.value, rec, guards, in_test, kw.arg)

    def _scenario_result_call(self, node: ast.Call,
                              rec: _FuncRecord) -> None:
        kwargs: List[Dict[str, Any]] = []
        for kw in node.keywords:
            if kw.arg is None:
                continue
            producers: List[List[Optional[str]]] = []
            reads: List[str] = []
            for sub in ast.walk(kw.value):
                if isinstance(sub, ast.Call):
                    p = _dotted_parts(sub.func)
                    if p:
                        method = p[-1]
                        recv = p[-2] if len(p) >= 2 else None
                        for want_recv, want_method in \
                                registry.INVISIBLE_PRODUCERS:
                            if method == want_method and (
                                    want_recv is None
                                    or recv == want_recv):
                                producers.append([recv, method])
                                break
                elif isinstance(sub, ast.Attribute) \
                        and isinstance(sub.ctx, ast.Load) \
                        and sub.attr in registry.DIGEST_INVISIBLE_FIELDS:
                    reads.append(sub.attr)
            kwargs.append({
                "name": kw.arg,
                "lineno": kw.value.lineno,
                "col": kw.value.col_offset,
                "producers": producers,
                "reads": reads,
            })
        rec.sr_calls.append({
            "lineno": node.lineno, "col": node.col_offset,
            "kwargs": kwargs,
        })


def _self_assigned_names(func: ast.stmt) -> Set[str]:
    """Attribute names assigned on ``self`` anywhere in a method."""
    out: Set[str] = set()
    for sub in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            targets = [sub.target]
        for tgt in targets:
            if isinstance(tgt, ast.Attribute) \
                    and isinstance(tgt.value, ast.Name) \
                    and tgt.value.id == "self":
                out.add(tgt.attr)
    return out


def _assign_key(targets: Sequence[ast.expr]) -> Optional[str]:
    """Literal string key for ``out["key"] = ...`` target shapes."""
    for tgt in targets:
        if isinstance(tgt, ast.Subscript):
            sl = tgt.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                return sl.value
    return None


def extract_summary(path: str, tree: ast.AST) -> Dict[str, Any]:
    """The JSON-compatible module summary of one parsed file."""
    return _Extractor(package_rel(path), tree).run()


# ----------------------------------------------------------------------
# Linking
# ----------------------------------------------------------------------
class ProjectGraph:
    """Call graph linked from per-file module summaries."""

    def __init__(self, summaries: Dict[str, Dict[str, Any]]):
        #: path -> summary
        self.summaries = summaries
        #: module dotted name -> summary
        self.by_module: Dict[str, Dict[str, Any]] = {}
        #: full qualname -> (path, rel, suffix)
        self.functions: Dict[str, Tuple[str, str, str]] = {}
        #: module -> set of class names
        self.classes: Dict[str, Set[str]] = {}
        for path in sorted(summaries):
            s = summaries[path]
            self.by_module[s["module"]] = s
            self.classes[s["module"]] = set(s["classes"])
            for suffix in s["functions"]:
                self.functions[f"{s['module']}.{suffix}"] = (
                    path, s["rel"], suffix)
        self.edges: Dict[str, List[str]] = {}
        self._build_edges()

    # -- lookups --------------------------------------------------------
    def func_summary(self, qual: str) -> Dict[str, Any]:
        path, _rel, suffix = self.functions[qual]
        summary: Dict[str, Any] = \
            self.summaries[path]["functions"][suffix]
        return summary

    def func_rel(self, qual: str) -> str:
        return self.functions[qual][1]

    def func_line(self, qual: str) -> int:
        lineno: int = self.func_summary(qual)["lineno"]
        return lineno

    def func_path(self, qual: str) -> str:
        return self.functions[qual][0]

    # -- linking --------------------------------------------------------
    def _build_edges(self) -> None:
        for qual in sorted(self.functions):
            self.edges[qual] = self._callees(qual)

    def _callees(self, qual: str) -> List[str]:
        path, _rel, suffix = self.functions[qual]
        s = self.summaries[path]
        module = s["module"]
        rec = s["functions"][suffix]
        cls = None
        head = suffix.split(".")[0]
        if head in s["classes"] and "." in suffix:
            cls = head
        out: List[str] = []
        seen: Set[str] = set()

        def add(target: str) -> None:
            if target not in seen and target in self.functions:
                seen.add(target)
                out.append(target)

        for nested in rec["nested"]:
            add(f"{module}.{nested}")
        for call in rec["calls"]:
            raw = call["raw"]
            if raw is None:
                continue
            parts = raw.split(".")
            # self.method() within a class
            if parts[0] == "self" and cls is not None and len(parts) == 2:
                add(f"{module}.{cls}.{parts[1]}")
                continue
            # Same-module top-level function or class
            if len(parts) == 1 and parts[0] in s["top_funcs"]:
                add(f"{module}.{parts[0]}")
                continue
            if parts[0] in s["classes"]:
                if len(parts) == 1:
                    add(f"{module}.{parts[0]}.__init__")
                else:
                    add(f"{module}.{'.'.join(parts)}")
                continue
            resolved = call["resolved"]
            if resolved is None:
                continue
            # Project function / method / class referenced via imports
            add(resolved)
            rparts = resolved.split(".")
            if len(rparts) >= 2:
                mod = ".".join(rparts[:-1])
                name = rparts[-1]
                if mod in self.by_module \
                        and name in self.classes.get(mod, set()):
                    add(f"{resolved}.__init__")
        return out

    # -- reachability ---------------------------------------------------
    def reachable_from(self, roots: Sequence[str]) \
            -> Dict[str, Optional[str]]:
        """BFS closure; maps reached qualname -> parent (None for a
        root).  Iteration order is deterministic (sorted roots, FIFO)."""
        parents: Dict[str, Optional[str]] = {}
        queue: "deque[str]" = deque()
        for root in sorted(set(roots)):
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            cur = queue.popleft()
            for nxt in self.edges.get(cur, ()):
                if nxt not in parents:
                    parents[nxt] = cur
                    queue.append(nxt)
        return parents

    def chain_to(self, parents: Dict[str, Optional[str]],
                 qual: str) -> List[str]:
        """Root-to-target call chain for a reached function."""
        chain: List[str] = []
        cur: Optional[str] = qual
        while cur is not None:
            chain.append(cur)
            cur = parents.get(cur)
        chain.reverse()
        return chain

    def render_chain(self, chain: Sequence[str]) -> str:
        parts = []
        for qual in chain:
            _path, rel, suffix = self.functions[qual]
            parts.append(f"{rel}:{self.func_line(qual)}:{suffix}")
        return " -> ".join(parts)
