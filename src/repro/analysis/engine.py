"""reprolint — the rule engine.

Static analysis over the repository's own source, enforcing the project
invariants that keep the reproduction deterministic and its API honest
(see ``repro.analysis.rules`` for the per-file rule catalogue and
``repro.analysis.rules_arch`` for the whole-program A/F/R families).
The engine is pure stdlib: files are parsed with :mod:`ast`, each
per-file rule is a :class:`NodeVisitor`, and findings can be suppressed
line-by-line with a justified pragma::

    rng = np.random.default_rng()  # repro: allow[D002] fixture only

Pragmas must name the rule id — there is no blanket ``allow[*]`` — and
may sit either on the offending line or alone on the line above it.
For findings reported on a decorated ``def``/``class`` line, a pragma
above the *first decorator* also counts (pragma resolution skips
decorator lines).  Fixture snippets can pin the module identity the
engine should assume with a header comment (``# repro: module
repro.nn.fixture``), which is how library-scoped rules are exercised
from ``tests/analysis/fixtures``.

Whole-program analysis happens in :func:`lint_project`: every file is
parsed **once**, yielding both the per-file rule findings and a
:class:`~repro.analysis.graph.ModuleRecord`; the records form a
:class:`~repro.analysis.graph.ProjectIndex` over which the
:class:`ProjectRule` subclasses (layering contracts, import cycles)
run.  Per-file outcomes are memoised in a content-hash cache
(:mod:`repro.analysis.cache`), so a warm re-lint of an unchanged repo
re-parses nothing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .cache import LintCache, config_key, content_hash
from .graph import ModuleRecord, ProjectIndex, collect_record

__all__ = [
    "Finding", "LintConfig", "LintContext", "LintResult", "Rule",
    "ProjectRule", "ProjectResult", "lint_source", "lint_file",
    "lint_paths", "lint_project", "analyze_source", "module_name_for",
    "apply_fixes",
]

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)\]")
_MODULE_PRAGMA_RE = re.compile(
    r"^#\s*repro:\s*module\s+([A-Za-z_][\w.]*)\s*$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    autofixable: bool = False

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule} {self.message}")

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message,
                "autofixable": self.autofixable}

    @classmethod
    def from_dict(cls, d: dict) -> "Finding":
        return cls(rule=d["rule"], path=d["path"], line=int(d["line"]),
                   col=int(d["col"]), message=d["message"],
                   autofixable=bool(d["autofixable"]))


@dataclass(frozen=True)
class LintConfig:
    """Project invariants the rules check against.

    ``wallclock_allowlist`` names the modules allowed to read wall-clock
    time (timestamp fields in the tracer and the run registry);
    ``eventclock_zones`` names module prefixes where time may only come
    from an injected ``EventClock`` — there even the monotonic clock is
    off-limits (replays must be deterministic and fast-forwardable);
    ``dtype_zones`` pins the float dtype convention per
    module prefix (longest prefix wins).

    ``layers`` is the declared subsystem DAG: for every top-level
    package (or module) under ``repro``, the other subsystems it may
    import.  ``("*",)`` means unconstrained (the CLI facade).  The
    A-series architecture rules enforce it: A001 flags an import edge
    the DAG does not allow, A002 flags module-level import cycles, A003
    flags a top-level package missing from this declaration entirely.
    """

    library_prefixes: Tuple[str, ...] = ("repro",)
    wallclock_allowlist: Tuple[str, ...] = (
        "repro.obs.tracing", "repro.experiments.registry")
    eventclock_zones: Tuple[str, ...] = ("repro.streaming",)
    dtype_zones: Tuple[Tuple[str, str], ...] = (
        ("repro.embedding.skipgram", "float32"),
        ("repro.embedding.walks", "float32"),
        ("repro.nn", "float64"),
        ("repro.core", "float64"),
    )
    # The subsystem layering DAG (leaves first).  ``obs``/``analysis``
    # import only the ``atomic`` leaf; ``serving`` must never reach up
    # into ``experiments`` or ``streaming``; only the CLI facade is
    # unconstrained.
    layers: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
        ("atomic", ()),
        ("roadnet", ()),
        ("obs", ("atomic",)),
        ("analysis", ("atomic",)),
        ("trajectory", ("roadnet",)),
        ("nn", ("analysis", "atomic")),
        ("embedding", ("obs", "roadnet")),
        ("temporal", ("embedding", "roadnet")),
        ("mapmatching", ("obs", "roadnet", "trajectory")),
        ("datagen", ("atomic", "mapmatching", "nn", "obs", "roadnet",
                     "temporal", "trajectory")),
        ("core", ("analysis", "datagen", "embedding", "nn", "obs",
                  "roadnet", "temporal", "trajectory")),
        ("baselines", ("core", "datagen", "embedding", "nn", "roadnet",
                       "trajectory")),
        ("eval", ("atomic", "baselines", "datagen", "trajectory")),
        ("serving", ("atomic", "baselines", "core", "datagen", "nn", "obs",
                     "roadnet", "trajectory")),
        ("pathtte", ("datagen", "roadnet", "temporal", "trajectory")),
        ("experiments", ("atomic", "core", "datagen", "eval", "nn", "obs",
                         "serving")),
        ("streaming", ("core", "datagen", "experiments", "obs",
                       "roadnet", "serving", "trajectory")),
        ("cli", ("*",)),
    )
    exclude: Tuple[str, ...] = ("tests/analysis/fixtures",)

    def is_library(self, module: str) -> bool:
        return any(_prefix_match(module, p) for p in self.library_prefixes)

    def eventclock_zone(self, module: str) -> bool:
        return any(_prefix_match(module, p) for p in self.eventclock_zones)

    def dtype_zone(self, module: str) -> Optional[str]:
        best: Optional[Tuple[str, str]] = None
        for prefix, expected in self.dtype_zones:
            if _prefix_match(module, prefix):
                if best is None or len(prefix) > len(best[0]):
                    best = (prefix, expected)
        return best[1] if best else None

    def layer_allows(self, package: str, target: str) -> bool:
        """Whether the declared DAG lets ``package`` import ``target``."""
        allowed = dict(self.layers).get(package)
        if allowed is None:
            # Undeclared packages are A003's business, not A001's.
            return True
        return "*" in allowed or target in allowed


def _prefix_match(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@dataclass
class LintContext:
    """Everything a per-file rule may consult about the file under
    analysis.  ``record`` is the module's entry in the project graph
    (imports, top-level defs, resource globals) — built from the same
    parse, available to every rule."""

    path: str
    module: str
    source_lines: Sequence[str]
    config: LintConfig
    record: Optional[ModuleRecord] = None


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)


class Rule(ast.NodeVisitor):
    """Base class: one invariant, one id, one visitor pass.

    Subclasses set ``id``/``title``/``autofixable`` and implement the
    ``visit_*`` methods, reporting via :meth:`report`.
    """

    id: str = ""
    title: str = ""
    autofixable: bool = False

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []

    @classmethod
    def applies_to(cls, ctx: LintContext) -> bool:
        """Whether this rule runs on the given module at all."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=self.id, path=self.ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message, autofixable=self.autofixable))

    def run(self, tree: ast.AST) -> List[Finding]:
        self.visit(tree)
        return self.findings


class ProjectRule:
    """Base class for whole-program rules.

    Unlike :class:`Rule`, a project rule sees the complete
    :class:`ProjectIndex` — every module's imports and defs — and may
    report findings against any file.  Pragma suppression still applies
    per reported line, from the per-file pragma tables."""

    id: str = ""
    title: str = ""
    autofixable: bool = False

    def __init__(self, index: ProjectIndex, config: LintConfig) -> None:
        self.index = index
        self.config = config
        self.findings: List[Finding] = []

    def report(self, path: str, line: int, col: int,
               message: str) -> None:
        self.findings.append(Finding(rule=self.id, path=path, line=line,
                                     col=col, message=message))

    def run(self) -> List[Finding]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Pragmas and module identity.

def _pragma_index(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map line number -> rule ids allowed on that line.

    A pragma covers its own line; when the line holds nothing but the
    pragma comment, it also covers the line below (so a long offending
    statement can carry the pragma just above it).
    """
    allowed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",")}
        allowed.setdefault(lineno, set()).update(ids)
        if text.lstrip().startswith("#"):
            allowed.setdefault(lineno + 1, set()).update(ids)
    return allowed


def _decorator_alias(tree: ast.AST) -> Dict[int, int]:
    """Map each decorated def/class line to its first decorator's line.

    Findings land on the ``def`` line, but a pragma naturally sits
    above the decorator stack; this table lets suppression look through
    the decorators instead of demanding the pragma squeeze between the
    last decorator and the ``def``.
    """
    alias: Dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.decorator_list:
            first = min(d.lineno for d in node.decorator_list)
            # The decorator line itself starts one above the '@'-line
            # captured by the expression node on some versions; use the
            # expression's lineno (the '@' shares it).
            alias[node.lineno] = first
    return alias


def _declared_module(source_lines: Sequence[str]) -> Optional[str]:
    for text in source_lines[:10]:
        match = _MODULE_PRAGMA_RE.match(text.strip())
        if match:
            return match.group(1)
    return None


def module_name_for(path: Path) -> str:
    """Infer the dotted module name from a repository-relative path.

    ``src/repro/nn/gru.py`` -> ``repro.nn.gru``; files outside a
    recognised package root fall back to their path-derived dotted name
    (e.g. ``tests.analysis.test_rules``).
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("repro", "tests", "benchmarks", "examples"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    return ".".join(parts) if parts else path.stem


def _is_suppressed(finding: Finding, pragmas: Dict[int, Set[str]],
                   alias: Dict[int, int]) -> bool:
    if finding.rule in pragmas.get(finding.line, ()):
        return True
    covering = alias.get(finding.line)
    return (covering is not None
            and finding.rule in pragmas.get(covering, ()))


# ---------------------------------------------------------------------------
# Per-file analysis.

@dataclass
class FileOutcome:
    """Complete, cacheable result of analysing one file."""

    path: str
    module: str
    findings: List[Finding]
    suppressed: List[Finding]
    pragmas: Dict[int, Set[str]]
    alias: Dict[int, int]
    record: ModuleRecord

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "pragmas": {str(line): sorted(ids)
                        for line, ids in self.pragmas.items()},
            "alias": {str(k): v for k, v in self.alias.items()},
            "record": self.record.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FileOutcome":
        return cls(
            path=d["path"], module=d["module"],
            findings=[Finding.from_dict(f) for f in d["findings"]],
            suppressed=[Finding.from_dict(f) for f in d["suppressed"]],
            pragmas={int(line): set(ids)
                     for line, ids in d["pragmas"].items()},
            alias={int(k): int(v) for k, v in d["alias"].items()},
            record=ModuleRecord.from_dict(d["record"]),
        )


def _file_rules(rules: Optional[Sequence[type]]) -> Sequence[type]:
    if rules is None:
        from .rules import ALL_RULES
        from .rules_arch import ALL_ARCH_FILE_RULES
        return ALL_RULES + ALL_ARCH_FILE_RULES
    return [r for r in rules if issubclass(r, Rule)]


def _project_rules(rules: Optional[Sequence[type]]) -> Sequence[type]:
    from .rules_arch import ALL_PROJECT_RULES
    if rules is None:
        return ALL_PROJECT_RULES
    return [r for r in rules if issubclass(r, ProjectRule)]


def analyze_file_outcome(source: str, path: str = "<string>",
                         module: Optional[str] = None,
                         config: Optional[LintConfig] = None,
                         rules: Optional[Sequence[type]] = None
                         ) -> FileOutcome:
    """One parse, all per-file rules, pragma resolution, graph record."""
    config = config or LintConfig()
    source_lines = source.splitlines()
    if module is None:
        module = (_declared_module(source_lines)
                  or module_name_for(Path(path)))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding(rule="E000", path=path, line=exc.lineno or 1,
                          col=(exc.offset or 1) - 1,
                          message=f"syntax error: {exc.msg}")
        return FileOutcome(path=path, module=module, findings=[finding],
                           suppressed=[], pragmas={}, alias={},
                           record=ModuleRecord(module=module, path=path))
    record = collect_record(tree, module, path,
                            internal_prefixes=config.library_prefixes)
    ctx = LintContext(path=path, module=module,
                      source_lines=source_lines, config=config,
                      record=record)
    pragmas = _pragma_index(source_lines)
    alias = _decorator_alias(tree)
    outcome = FileOutcome(path=path, module=module, findings=[],
                          suppressed=[], pragmas=pragmas, alias=alias,
                          record=record)
    for rule_cls in _file_rules(rules):
        if not rule_cls.applies_to(ctx):
            continue
        for finding in rule_cls(ctx).run(tree):
            if _is_suppressed(finding, pragmas, alias):
                outcome.suppressed.append(finding)
            else:
                outcome.findings.append(finding)
    outcome.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return outcome


# ---------------------------------------------------------------------------
# Entry points.

def analyze_source(source: str, path: str = "<string>",
                   module: Optional[str] = None,
                   config: Optional[LintConfig] = None,
                   rules: Optional[Sequence[type]] = None) -> LintResult:
    """Lint one source blob with the per-file rules; returns kept and
    pragma-suppressed findings.  (Project rules need
    :func:`lint_project`.)"""
    outcome = analyze_file_outcome(source, path, module, config, rules)
    return LintResult(findings=outcome.findings,
                      suppressed=outcome.suppressed)


def lint_source(source: str, path: str = "<string>",
                module: Optional[str] = None,
                config: Optional[LintConfig] = None,
                rules: Optional[Sequence[type]] = None) -> List[Finding]:
    return analyze_source(source, path, module, config, rules).findings


def lint_file(path, config: Optional[LintConfig] = None,
              rules: Optional[Sequence[type]] = None) -> List[Finding]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path),
                       config=config, rules=rules)


def _iter_python_files(roots: Iterable, config: LintConfig
                       ) -> List[Path]:
    files: List[Path] = []
    seen: Set[str] = set()
    for root in roots:
        root = Path(root)
        if root.is_file():
            candidates = [root]
            # An explicitly named file is always linted, even when it
            # lives under an excluded directory (the fixture self-tests
            # rely on this).
            excluded: Tuple[str, ...] = ()
        elif root.is_dir():
            candidates = sorted(root.rglob("*.py"))
            # Walking into an excluded directory on purpose lints it.
            excluded = tuple(part for part in config.exclude
                             if part not in str(root).replace("\\", "/"))
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")
        for candidate in candidates:
            posix = str(candidate).replace("\\", "/")
            if any(part in posix for part in excluded):
                continue
            if posix not in seen:
                seen.add(posix)
                files.append(candidate)
    return files


@dataclass
class ProjectResult:
    """Whole-program lint result: combined findings plus the graph."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    index: Optional[ProjectIndex] = None
    stats: Dict[str, int] = field(default_factory=dict)


def lint_project(paths: Sequence, config: Optional[LintConfig] = None,
                 rules: Optional[Sequence[type]] = None,
                 cache_path: Optional[str] = None) -> ProjectResult:
    """Lint files and directories with per-file AND project rules.

    The whole-program pass: every file is parsed once (or served from
    the content-hash cache at ``cache_path``), the per-file findings
    collected, and the A-series architecture rules run over the
    resulting project import graph.
    """
    config = config or LintConfig()
    files = _iter_python_files(paths, config)

    active_ids = [r.id for r in _file_rules(rules)] + \
                 [r.id for r in _project_rules(rules)]
    cache = None
    if cache_path:
        cache = LintCache(cache_path)
        cache.load(config_key(config, active_ids))

    outcomes: List[FileOutcome] = []
    for file_path in files:
        data = file_path.read_bytes()
        sha = content_hash(data)
        key = str(file_path)
        cached = cache.get(key, sha) if cache is not None else None
        if cached is not None:
            try:
                outcome = FileOutcome.from_dict(cached)
            except (KeyError, TypeError, ValueError):
                outcome = None  # corrupt entry: re-analyse
        else:
            outcome = None
        if outcome is None:
            outcome = analyze_file_outcome(
                data.decode("utf-8"), key, config=config, rules=rules)
            if cache is not None:
                cache.put(key, sha, outcome.to_dict())
        outcomes.append(outcome)

    result = ProjectResult(index=ProjectIndex(
        [o.record for o in outcomes],
        root=config.library_prefixes[0]))
    by_path: Dict[str, FileOutcome] = {o.path: o for o in outcomes}
    for outcome in outcomes:
        result.findings.extend(outcome.findings)
        result.suppressed.extend(outcome.suppressed)

    for rule_cls in _project_rules(rules):
        for finding in rule_cls(result.index, config).run():
            outcome = by_path.get(finding.path)
            if outcome is not None and _is_suppressed(
                    finding, outcome.pragmas, outcome.alias):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.stats = {
        "files": len(files),
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else len(files),
    }
    if cache is not None:
        cache.save()
    return result


def lint_paths(paths: Sequence, config: Optional[LintConfig] = None,
               rules: Optional[Sequence[type]] = None,
               cache_path: Optional[str] = None) -> List[Finding]:
    """Lint files and directories (recursively); returns all findings —
    per-file rules plus the whole-program architecture rules."""
    return lint_project(paths, config=config, rules=rules,
                        cache_path=cache_path).findings


# ---------------------------------------------------------------------------
# Autofixes.

_FIXERS = {
    # H002: a bare handler keeps its body; only the clause widens.
    "H002": ("except:", "except Exception:"),
}


def apply_fixes(findings: Sequence[Finding]) -> List[Finding]:
    """Rewrite autofixable findings in place; returns the ones fixed."""
    fixed: List[Finding] = []
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        if finding.autofixable and finding.rule in _FIXERS:
            by_path.setdefault(finding.path, []).append(finding)
    for path, file_findings in by_path.items():
        lines = Path(path).read_text(encoding="utf-8").splitlines(
            keepends=True)
        changed = False
        for finding in file_findings:
            old, new = _FIXERS[finding.rule]
            index = finding.line - 1
            if 0 <= index < len(lines) and old in lines[index]:
                lines[index] = lines[index].replace(old, new, 1)
                fixed.append(finding)
                changed = True
        if changed:
            Path(path).write_text("".join(lines), encoding="utf-8")
    return fixed
