"""The ``repro lint`` rule engine: findings, pragmas, file/tree dispatch.

Everything the reproduction guarantees — byte-identical rows across
engines, worker counts, shards, resume, and fault planes — reduces to a
handful of code-level disciplines: seeded draws only, no global RNG or
wall-clock in measured paths, sorted iteration wherever order can reach a
row or a digest, JSON-safe axis values, and the Algorithm/driver contracts
of :mod:`repro.sim`.  This engine makes those disciplines checkable: each
rule is a small :class:`ast.NodeVisitor` subclass (see
:mod:`repro.lint.rules`) with an id, severity, message, and fixture
examples; the engine parses a file once, runs every selected rule over the
tree, applies inline suppression pragmas, and returns a sorted list of
:class:`Finding` records.

Suppression pragma
------------------
``# repro: lint-ok[D105] <reason>`` suppresses the named rule(s) on its
own line — or, when the pragma stands on a comment-only line, on the line
directly below it.  Any line of a multi-line simple statement covers the
whole statement, and any decorator or signature line of a ``def`` covers
the ``def`` header (see :func:`_pragma_cover`).  The reason string is
**required**: a pragma without one is itself a finding
(:data:`PRAGMA_RULE_ID`), because an unexplained suppression is exactly
the undocumented reviewer-memory this linter exists to replace.  Several
ids may share one pragma: ``# repro: lint-ok[D103,D107] reason...``.

Meta findings
-------------
Two engine-level pseudo-rules ride alongside the real rule set and are
always active (``--ignore`` can still drop them explicitly):

* ``X000 syntax-error`` — the file does not parse; nothing else can run.
* ``X100 invalid-pragma`` — a lint-ok pragma without a reason, or naming
  a rule id that does not exist.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "lint_source",
    "lint_file",
    "lint_paths",
    "resolve_rule_selection",
    "SYNTAX_RULE_ID",
    "PRAGMA_RULE_ID",
]

#: Pseudo-rule id for files that fail to parse.
SYNTAX_RULE_ID = "X000"
#: Pseudo-rule id for malformed suppression pragmas.
PRAGMA_RULE_ID = "X100"

_PRAGMA = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<ids>[^\]]*)\]\s*(?P<reason>.*?)\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One lint violation, anchored to a source location.

    ``rule`` is the stable id (``"D101"``), ``name`` its slug
    (``"unseeded-random"``); ``severity`` is ``"error"`` or ``"warning"``
    — both fail the CLI, the tag records how certain the rule is that the
    construct is a bug rather than a hazard.  ``line`` is 1-based,
    ``col`` 0-based (ast conventions).
    """

    rule: str
    name: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(**data)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.name}] {self.message}"


class FileContext:
    """Everything a rule may consult about the file under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree

    def path_matches(self, suffixes: tuple) -> bool:
        """Whether the file path ends with any of the posix suffixes."""
        normalized = Path(self.path).as_posix()
        return any(normalized.endswith(suffix) for suffix in suffixes)


class Rule(ast.NodeVisitor):
    """Base class for one lint rule: a visitor that collects findings.

    Subclasses set the class attributes and implement ``visit_*`` methods
    that call :meth:`report`.  ``exempt_paths`` names posix path suffixes
    the rule does not apply to (e.g. the environ-read rule exempts
    ``repro/api/algorithms.py`` — reading ``REPRO_PLUGINS`` is plugin
    discovery's whole job).
    ``example_bad`` / ``example_good`` are the rule's fixture snippets:
    the bad one marks each expected finding line with a trailing
    ``# expect: <id>`` comment, and the test suite pins both against the
    checked-in fixture files under ``tests/lint_fixtures/``.
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    summary: str = ""
    exempt_paths: tuple = ()
    example_bad: str = ""
    example_good: str = ""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=self.id,
                name=self.name,
                severity=self.severity,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def run(self) -> list[Finding]:
        self.visit(self.ctx.tree)
        return self.findings


def _registered_rules() -> list[type]:
    from .rules import RULES

    return RULES


def resolve_rule_selection(
    select: tuple | None, ignore: tuple | None
) -> list[type]:
    """The active rule classes for a ``--select`` / ``--ignore`` pair.

    Entries are exact rule ids (``"D101"``) or family prefixes (``"D"``,
    ``"P"``).  Unknown entries raise :class:`ValueError` — the CLI turns
    that into a usage error — so a typo can never silently lint nothing.
    """
    rules = _registered_rules()
    known = {rule.id for rule in rules}
    families = {rule.id[0] for rule in rules} | {"X"}

    def expand(entries: tuple, what: str) -> set:
        chosen: set[str] = set()
        for entry in entries:
            token = entry.strip().upper()
            if token in known or token in (SYNTAX_RULE_ID, PRAGMA_RULE_ID):
                chosen.add(token)
            elif token in families:
                chosen.update(rule.id for rule in rules if rule.id.startswith(token))
                chosen.update(
                    meta for meta in (SYNTAX_RULE_ID, PRAGMA_RULE_ID)
                    if meta.startswith(token)
                )
            else:
                raise ValueError(
                    f"{what}: unknown rule {entry!r} "
                    f"(rules: {sorted(known)}; families: {sorted(families)})"
                )
        return chosen

    active = list(rules)
    if select:
        selected = expand(tuple(select), "--select")
        active = [rule for rule in active if rule.id in selected]
    if ignore:
        ignored = expand(tuple(ignore), "--ignore")
        active = [rule for rule in active if rule.id not in ignored]
    return active


def _meta_active(meta_id: str, select: tuple | None, ignore: tuple | None) -> bool:
    """Whether a pseudo-rule reports under this selection.

    Meta rules are on by default even under ``--select`` (a syntax error
    always matters) and are dropped only by naming them (or their family)
    in ``--ignore``.
    """
    if not ignore:
        return True
    tokens = {entry.strip().upper() for entry in ignore}
    return meta_id not in tokens and meta_id[0] not in tokens


def _collect_pragmas(
    source: str, path: str, known_ids: set
) -> tuple[dict, list[Finding]]:
    """Parse lint-ok pragmas; return ``{line: ids}`` plus meta findings.

    A pragma on a code line suppresses that line; a pragma on a
    comment-only line suppresses the line below it.  A missing reason or
    an unknown rule id makes the pragma invalid: it suppresses nothing and
    is reported as :data:`PRAGMA_RULE_ID`.
    """
    suppressed: dict[int, set] = {}
    problems: list[Finding] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        ids = tuple(
            token.strip().upper() for token in match.group("ids").split(",")
            if token.strip()
        )
        reason = match.group("reason").strip()
        unknown = [rule_id for rule_id in ids if rule_id not in known_ids]
        bad = None
        if not ids:
            bad = "pragma names no rule ids (use lint-ok[RULE] reason)"
        elif unknown:
            bad = f"pragma names unknown rule id(s) {unknown}"
        elif not reason:
            bad = (
                f"pragma suppressing {list(ids)} has no reason — say why the "
                f"construct is safe"
            )
        if bad is not None:
            problems.append(
                Finding(
                    rule=PRAGMA_RULE_ID,
                    name="invalid-pragma",
                    severity="error",
                    path=path,
                    line=lineno,
                    col=match.start(),
                    message=bad,
                )
            )
            continue
        target = lineno
        if text[: match.start()].strip() == "":
            target = lineno + 1  # comment-only line: covers the next line
        suppressed.setdefault(target, set()).update(ids)
        suppressed.setdefault(lineno, set()).update(ids)
    return suppressed, problems


_SIMPLE_STATEMENTS = (
    ast.Expr,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
)


def _pragma_cover(tree: ast.Module) -> dict:
    """Line-equivalence groups for pragma placement on multi-line code.

    A finding anchors at one line, but the statement it lives in may span
    several — and a pragma is naturally written on the line the author is
    looking at: the closing line of a multi-line call, or above the
    decorator of a decorated def.  This map makes every line of a
    *simple* (non-compound) statement suppress every other line of the
    same statement, and maps a decorated ``def``'s decorator and
    signature lines onto the ``def`` line where its findings anchor.
    Compound statements (``for``/``if``/``with``) are deliberately
    excluded: their span covers their whole body, and a pragma must never
    silently blanket a block.
    """
    cover: dict[int, set] = {}

    def group(span: set) -> None:
        if len(span) < 2:
            return
        for line in span:
            cover.setdefault(line, set()).update(span)

    for node in ast.walk(tree):
        if isinstance(node, _SIMPLE_STATEMENTS):
            end = getattr(node, "end_lineno", None) or node.lineno
            group(set(range(node.lineno, end + 1)))
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            start = node.lineno
            if node.decorator_list:
                start = min(
                    decorator.lineno for decorator in node.decorator_list
                )
            signature_end = node.lineno
            args_node = getattr(node, "args", None)
            if args_node is not None:
                for part in ast.walk(args_node):
                    end = getattr(part, "end_lineno", None)
                    if end is not None:
                        signature_end = max(signature_end, end)
            returns = getattr(node, "returns", None)
            end = getattr(returns, "end_lineno", None)
            if end is not None:
                signature_end = max(signature_end, end)
            if node.body:
                # The closing-paren/colon line: everything up to (not
                # including) the first body statement is still header.
                signature_end = max(signature_end, node.body[0].lineno - 1)
            group(set(range(start, signature_end + 1)))
    return cover


def _suppressed_rules(suppressed: dict, cover: dict, line: int) -> set:
    """All rule ids a pragma suppresses at ``line``, through its group."""
    ids = set(suppressed.get(line, ()))
    for covered in cover.get(line, ()):
        ids.update(suppressed.get(covered, ()))
    return ids


def lint_source(
    source: str,
    path: str = "<source>",
    *,
    select: tuple | None = None,
    ignore: tuple | None = None,
) -> list[Finding]:
    """Lint one source string; return findings sorted by location then id."""
    active = resolve_rule_selection(select, ignore)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        if not _meta_active(SYNTAX_RULE_ID, select, ignore):
            return []
        return [
            Finding(
                rule=SYNTAX_RULE_ID,
                name="syntax-error",
                severity="error",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    known_ids = {rule.id for rule in _registered_rules()}
    suppressed, pragma_findings = _collect_pragmas(source, path, known_ids)
    cover = _pragma_cover(tree)
    ctx = FileContext(path, source, tree)
    findings: list[Finding] = []
    if _meta_active(PRAGMA_RULE_ID, select, ignore):
        findings.extend(pragma_findings)
    for rule_cls in active:
        if rule_cls.exempt_paths and ctx.path_matches(rule_cls.exempt_paths):
            continue
        for finding in rule_cls(ctx).run():
            if finding.rule in _suppressed_rules(suppressed, cover, finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(
    path: "str | Path",
    *,
    select: tuple | None = None,
    ignore: tuple | None = None,
) -> list[Finding]:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path), select=select, ignore=ignore)


def _python_files(path: Path) -> list[Path]:
    if path.is_file():
        return [path]
    return sorted(
        candidate
        for candidate in path.rglob("*.py")
        if not any(part.startswith(".") for part in candidate.parts)
    )


def lint_paths(
    paths,
    *,
    select: tuple | None = None,
    ignore: tuple | None = None,
) -> tuple[list[Finding], list[str]]:
    """Lint files and directory trees; return ``(findings, files_checked)``.

    Directories are walked recursively for ``*.py`` (hidden components
    skipped) in sorted order, so output order — and therefore the CLI's
    text and JSON output — is deterministic for a given tree.  A path that
    does not exist raises :class:`FileNotFoundError`; the CLI reports it
    as a usage error.
    """
    findings: list[Finding] = []
    checked: list[str] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for file_path in _python_files(path):
            checked.append(str(file_path))
            findings.extend(lint_file(file_path, select=select, ignore=ignore))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, checked
