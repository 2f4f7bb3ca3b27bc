"""Core machinery of ``repro lint`` — the project's AST invariant checker.

Nine PRs of serving infrastructure rest on contracts that used to be
enforced only by reviewer vigilance: routing and cache keys must go
through :meth:`SolveOptions.stable_digest` and never the
PYTHONHASHSEED-salted ``hash()``, no wire carries pickles (every one is
plain JSON), the asyncio loop thread never blocks, long-lived serving
state is bounded, transport failures speak the typed taxonomy, RNGs are
seeded, and nothing bit-identical reads the wall clock.  Each rule here
encodes one of those contracts as a mechanical check so the lesson of
the incident that produced it cannot regress silently.

The moving parts:

``Finding``
    One violation: rule id, severity, message, and a location.  Findings
    sort by ``(path, line, col, rule_id)`` so reports are stable.

``Rule``
    The checker protocol — an ``id`` like ``RPR001``, a ``severity``, a
    one-line ``description``, an optional path ``scope``, and
    ``visit(tree, source, path) -> list[Finding]``.  Rules are pure
    functions of one parsed file; cross-file state is deliberately out
    of scope to keep every rule independently testable from a fixture
    pair.

``Registry``
    Maps rule ids to instances, supports ``--select`` / ``--ignore``.

Suppressions
    ``# repro-lint: disable=RPR003`` on (or immediately above) a line
    silences that rule there.  A suppression that silences nothing is
    itself reported (``RPR000``) so stale annotations cannot accumulate.

Path scoping
    Rules declare package-relative prefixes (``repro/serving/``); the
    engine canonicalises filesystem paths so the same rule file works on
    ``src/repro/...`` checkouts, installed trees, and test fixtures that
    fake a path to exercise policy routing.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "Finding",
    "Rule",
    "Registry",
    "LintResult",
    "canonical_path",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "default_registry",
    "HYGIENE_RULE_ID",
]

# Framework-level findings (unused suppressions, unparsable files) are
# reported under this id so they survive --select filtering of the
# domain rules: hygiene of the lint annotations themselves is always on.
HYGIENE_RULE_ID = "RPR000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<ids>RPR\d{3}(?:\s*,\s*RPR\d{3})*)",
)

# Fixture corpus: deliberately-bad sources that every rule must fire on.
# They live inside the package so --explain can quote them, which means
# the runner must never lint them as project code.
_FIXTURE_MARKER = "analysis/fixtures"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Field order defines sort order: findings group by file, then flow
    top-to-bottom, then break ties on rule id — the stable ordering the
    reporters promise.
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class for checkers.  Subclasses set the class attributes and
    implement :meth:`visit`.

    ``scope`` is a tuple of canonical path prefixes (or exact files)
    the rule applies to; empty means every linted file.  Scoping lives
    on the rule, not the caller, so policy (``no bare RuntimeError in
    the sharded router and the serving layer``) is versioned next to the
    check.
    """

    id: str = ""
    severity: str = "error"
    description: str = ""
    # Canonical ("repro/...") path prefixes this rule applies to.
    scope: tuple[str, ...] = ()
    # Canonical paths exempt even inside the scope.
    allow: tuple[str, ...] = ()
    # Rationale shown by ``repro lint --explain`` — the incident or
    # contract that motivated the rule.
    rationale: str = ""

    def applies_to(self, path: str) -> bool:
        if any(path == okay or path.startswith(okay) for okay in self.allow):
            return False
        if not self.scope:
            return True
        return any(
            path == prefix or path.startswith(prefix) for prefix in self.scope
        )

    def visit(
        self, tree: ast.AST, source: str, path: str
    ) -> list[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(
        self, path: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            severity=self.severity,
            message=message,
        )


class Registry:
    """Rule registry with enable/disable by id."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: dict[str, Rule] = {}
        for rule in rules:
            self.register(rule)

    def register(self, rule: Rule) -> None:
        if not rule.id:
            raise ValueError(f"rule {rule!r} has no id")
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id}")
        self._rules[rule.id] = rule

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown rule id {rule_id!r}") from None

    def ids(self) -> list[str]:
        return sorted(self._rules)

    def select(
        self,
        select: Sequence[str] | None = None,
        ignore: Sequence[str] | None = None,
    ) -> list[Rule]:
        """The enabled rules, sorted by id.

        ``select`` narrows to exactly those ids; ``ignore`` drops ids
        from whatever ``select`` produced.  Unknown ids raise so a typo
        in CI config fails loudly instead of silently linting nothing.
        """
        chosen = set(self._rules)
        if select:
            for rule_id in select:
                if rule_id != HYGIENE_RULE_ID:
                    self.get(rule_id)  # raise on unknown
            chosen = {r for r in select if r in self._rules}
        if ignore:
            for rule_id in ignore:
                if rule_id != HYGIENE_RULE_ID:
                    self.get(rule_id)
            chosen -= set(ignore)
        return [self._rules[rule_id] for rule_id in sorted(chosen)]


def default_registry() -> Registry:
    """The registry with every built-in rule (imported lazily to keep
    ``repro.analysis.engine`` import-light for rule unit tests)."""
    from repro.analysis.rules import BUILTIN_RULES

    return Registry(rule() for rule in BUILTIN_RULES)


def canonical_path(path: str | Path) -> str:
    """Project-relative form used for rule scoping.

    Files inside the package are addressed from the package root
    (``repro/core/sharded.py``) regardless of checkout layout —
    ``src/repro/...``, an installed ``site-packages/repro/...``, or a
    bare ``repro/...``.  Anything outside the package (tests, scripts)
    keeps its given form with separators normalised, which is exactly
    what lets ``repro/``-scoped rules skip ``tests/``.
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return "/".join(parts)


def _suppressions(source: str) -> dict[int, set[str]]:
    """Map line -> rule ids suppressed there.

    A ``# repro-lint: disable=...`` comment applies to its own line.  A
    comment alone on a line (nothing but the comment) also covers the
    next line, so annotations can sit above a long statement.
    """
    suppress: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppress
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if not match:
            continue
        ids = {part.strip() for part in match.group("ids").split(",")}
        line = tok.start[0]
        suppress.setdefault(line, set()).update(ids)
        # A standalone comment line shields the statement below it.
        prefix = source.splitlines()[line - 1][: tok.start[1]]
        if not prefix.strip():
            suppress.setdefault(line + 1, set()).update(ids)
    return suppress


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def lint_source(
    source: str,
    path: str | Path,
    rules: Sequence[Rule],
) -> list[Finding]:
    """Lint one source string as if it lived at ``path``.

    The explicit path is the test seam: fixtures can claim to be
    ``repro/serving/protocol.py`` to exercise path-scoped policy without
    touching the real tree.
    """
    cpath = canonical_path(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=cpath,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule_id=HYGIENE_RULE_ID,
                severity="error",
                message=f"file does not parse: {exc.msg}",
            )
        ]

    suppress = _suppressions(source)
    used_suppressions: set[tuple[int, str]] = set()
    findings: list[Finding] = []
    enabled_ids = {rule.id for rule in rules}

    for rule in rules:
        if not rule.applies_to(cpath):
            continue
        for finding in rule.visit(tree, source, cpath):
            line_ids = suppress.get(finding.line, set())
            if finding.rule_id in line_ids:
                used_suppressions.add((finding.line, finding.rule_id))
                continue
            findings.append(finding)

    # Unused suppressions: every (line, id) pair that silenced nothing.
    # Only ids enabled in this run count — a --select RPR003 run must not
    # call an RPR006 annotation stale just because RPR006 didn't run.
    for line, ids in sorted(suppress.items()):
        for rule_id in sorted(ids):
            if rule_id not in enabled_ids:
                continue
            if (line, rule_id) in used_suppressions:
                continue
            # The standalone-comment convention registers the same
            # suppression on two lines; if either use fired, both are live.
            if (line - 1, rule_id) in used_suppressions and line - 1 in suppress:
                continue
            if (line + 1, rule_id) in used_suppressions and line + 1 in suppress:
                continue
            findings.append(
                Finding(
                    path=cpath,
                    line=line,
                    col=0,
                    rule_id=HYGIENE_RULE_ID,
                    severity="warning",
                    message=(
                        f"unused suppression: {rule_id} reports nothing on "
                        f"this line"
                    ),
                )
            )

    return sorted(findings)


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into the .py files to lint, skipping the
    fixture corpus (deliberately-bad sources) wherever it appears."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            candidates = [root]
        else:
            candidates = []
        for candidate in candidates:
            normal = candidate.resolve()
            if normal in seen:
                continue
            if _FIXTURE_MARKER in normal.as_posix():
                continue
            seen.add(normal)
            out.append(candidate)
    return out


def lint_paths(
    paths: Sequence[str | Path],
    registry: Registry | None = None,
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Lint every python file under ``paths`` with the enabled rules."""
    registry = registry or default_registry()
    rules = registry.select(select, ignore)
    result = LintResult()
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.findings.append(
                Finding(
                    path=canonical_path(file_path),
                    line=0,
                    col=0,
                    rule_id=HYGIENE_RULE_ID,
                    severity="error",
                    message=f"unreadable file: {exc}",
                )
            )
            continue
        result.files += 1
        result.findings.extend(lint_source(source, file_path, rules))
    result.findings.sort()
    return result
