"""The reprolint rule catalogue.

Three families of project invariants, mirroring the reproduction's
guarantees (README "Static analysis"):

Determinism — the paper's numbers are only reproducible if every random
draw flows from an explicit seeded :class:`numpy.random.Generator` and no
deterministic path reads the wall clock:

* ``D001`` — no module-level ``np.random.*`` calls (import-order would
  become part of the random stream).
* ``D002`` — no unseeded ``np.random.default_rng()`` fallback inside
  library code; thread a seeded Generator from the caller instead
  (``repro.nn.init`` is the model: every scheme *requires* one).
* ``D003`` — no ``time.time()`` / ``datetime.now()`` outside the
  allowlisted timestamp sites (tracer spans, run-registry records);
  durations belong to ``time.perf_counter``.  Inside *event-clock
  zones* (``repro.streaming``) even the monotonic clocks and
  ``time.sleep`` are forbidden: replayed streams must take their time
  from an injected ``EventClock`` so runs are deterministic and tests
  can fast-forward simulated hours.

API hygiene:

* ``H002`` — no bare ``except:`` (autofixable to ``except Exception:``).
* ``H003`` — no mutable default arguments.

Numerics:

* ``N001`` — float dtype discipline per zone: the SGNS/walk hot paths
  are float32 (PR 3's vectorised engine), the nn/core stack is float64;
  explicit casts against the zone's convention are flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from .engine import LintContext, Rule

__all__ = ["ALL_RULES", "rule_by_id",
           "D001ModuleLevelRandom", "D002UnseededDefaultRng",
           "D003WallClock", "H002BareExcept",
           "H003MutableDefault", "N001DtypeDiscipline"]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``np.random.default_rng`` -> that string; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class D001ModuleLevelRandom(Rule):
    """No ``np.random.*`` calls at module (or class-body) scope."""

    id = "D001"
    title = "module-level np.random call"

    def __init__(self, ctx: LintContext) -> None:
        super().__init__(ctx)
        self._depth = 0

    def _enter_scope(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _enter_scope
    visit_AsyncFunctionDef = _enter_scope
    visit_Lambda = _enter_scope

    def visit_Call(self, node: ast.Call) -> None:
        if self._depth == 0:
            dotted = _dotted_name(node.func)
            if dotted and (dotted.startswith("np.random.")
                           or dotted.startswith("numpy.random.")):
                self.report(node, f"module-level call to {dotted}() makes "
                                  "import order part of the random stream; "
                                  "draw inside a function from a seeded "
                                  "Generator")
        self.generic_visit(node)


class D002UnseededDefaultRng(Rule):
    """No unseeded ``default_rng()`` fallback inside library code."""

    id = "D002"
    title = "unseeded default_rng() in library code"

    @classmethod
    def applies_to(cls, ctx: LintContext) -> bool:
        return ctx.config.is_library(ctx.module)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted and dotted.split(".")[-1] == "default_rng" \
                and not node.args and not node.keywords:
            self.report(node, "unseeded np.random.default_rng() in library "
                              "code breaks run-to-run determinism; require "
                              "a seeded Generator from the caller (as "
                              "repro.nn.init does)")
        self.generic_visit(node)


class D003WallClock(Rule):
    """Wall-clock reads only in the allowlisted timestamp modules."""

    id = "D003"
    title = "wall-clock read outside obs/registry"

    _FORBIDDEN = {
        "time.time", "datetime.now", "datetime.datetime.now",
        "datetime.utcnow", "datetime.datetime.utcnow",
        "date.today", "datetime.date.today",
    }
    # In event-clock zones real time must not leak in at all: no
    # monotonic reads (pacing must come from the injected clock) and no
    # sleeping (replays fast-forward instead of waiting).
    _EVENTCLOCK_EXTRA = {
        "time.monotonic", "time.perf_counter", "time.sleep",
    }

    @classmethod
    def applies_to(cls, ctx: LintContext) -> bool:
        return (ctx.config.is_library(ctx.module)
                and not any(ctx.module == allowed
                            or ctx.module.startswith(allowed + ".")
                            for allowed in ctx.config.wallclock_allowlist))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted in self._FORBIDDEN:
            self.report(node, f"{dotted}() reads the wall clock in a "
                              "deterministic path; use time.perf_counter "
                              "for durations, or add the module to the "
                              "lint config's wallclock_allowlist if it "
                              "records genuine timestamps")
        elif dotted in self._EVENTCLOCK_EXTRA and \
                self.ctx.config.eventclock_zone(self.ctx.module):
            self.report(node, f"{dotted}() reads real time inside the "
                              f"event-clock zone {self.ctx.module}; "
                              "streaming code must take time from the "
                              "injected EventClock so replays stay "
                              "deterministic")
        self.generic_visit(node)


class H002BareExcept(Rule):
    """No bare ``except:`` — it swallows KeyboardInterrupt/SystemExit."""

    id = "H002"
    title = "bare except"
    autofixable = True

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare 'except:' catches SystemExit and "
                              "KeyboardInterrupt; catch Exception (or "
                              "narrower) instead")
        self.generic_visit(node)


class H003MutableDefault(Rule):
    """No mutable default arguments."""

    id = "H003"
    title = "mutable default argument"

    def _check_defaults(self, node) -> None:
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                kind = type(default).__name__.lower()
                self.report(default, f"mutable default ({kind} literal) is "
                                     "shared across calls; default to None "
                                     "and create it in the body")
            elif isinstance(default, ast.Call):
                dotted = _dotted_name(default.func)
                if dotted in ("list", "dict", "set", "collections.deque"):
                    self.report(default, f"mutable default ({dotted}()) is "
                                         "shared across calls; default to "
                                         "None and create it in the body")
        self.generic_visit(node)

    visit_FunctionDef = _check_defaults
    visit_AsyncFunctionDef = _check_defaults
    visit_Lambda = _check_defaults


class N001DtypeDiscipline(Rule):
    """Float dtype discipline inside declared dtype zones."""

    id = "N001"
    title = "float dtype against the zone convention"

    def __init__(self, ctx: LintContext) -> None:
        super().__init__(ctx)
        expected = ctx.config.dtype_zone(ctx.module)
        self._expected = expected
        self._wrong = ({"float32", "float64"} - {expected}).pop() \
            if expected else ""

    @classmethod
    def applies_to(cls, ctx: LintContext) -> bool:
        return ctx.config.dtype_zone(ctx.module) is not None

    def _is_wrong_dtype(self, node: ast.AST) -> bool:
        dotted = _dotted_name(node)
        if dotted and dotted.split(".")[-1] == self._wrong:
            return True
        return (isinstance(node, ast.Constant)
                and node.value == self._wrong)

    def _flag(self, node: ast.AST, usage: str) -> None:
        self.report(node, f"{usage} uses {self._wrong} in a "
                          f"{self._expected} zone "
                          f"({self.ctx.module}); keep the zone's dtype or "
                          f"justify with a pragma")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            for arg in node.args:
                if self._is_wrong_dtype(arg):
                    self._flag(node, "astype()")
        dotted = _dotted_name(func)
        if dotted and dotted.split(".")[-1] == self._wrong \
                and dotted != self._wrong:
            # np.float64(x) style scalar/array cast.
            self._flag(node, f"{dotted}() cast")
        for keyword in node.keywords:
            if keyword.arg == "dtype" and \
                    self._is_wrong_dtype(keyword.value):
                self._flag(keyword.value, "dtype= argument")
        self.generic_visit(node)


ALL_RULES: Tuple[type, ...] = (
    D001ModuleLevelRandom, D002UnseededDefaultRng, D003WallClock,
    H002BareExcept, H003MutableDefault,
    N001DtypeDiscipline,
)


def rule_by_id(rule_id: str) -> type:
    # Lazy import: rules_arch imports this module for _dotted_name.
    from .rules_arch import ALL_ARCH_FILE_RULES, ALL_PROJECT_RULES
    catalogue = ALL_RULES + ALL_ARCH_FILE_RULES + ALL_PROJECT_RULES
    for rule in catalogue:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown lint rule {rule_id!r}; known: "
                   f"{', '.join(r.id for r in catalogue)}")
