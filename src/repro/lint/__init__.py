"""Static analysis for the reproduction's determinism and protocol contracts.

``repro.lint`` checks, before any sweep runs, the code-level disciplines
that every byte-identity guarantee rests on: seeded draws only, no global
RNG or wall-clock in measured paths, sorted iteration wherever order can
reach a row or digest, JSON-safe scenario params, and the Algorithm/driver
contracts of :mod:`repro.sim`.  Every rule is per-file: the D family
(determinism) and the P family (protocol contracts).  Whether a driver's
seed really reaches its output is a whole-program property, so it is
checked by running the drivers, not by static analysis: see
``tests/test_driver_catalog.py::TestSeedVariation``.  See
:mod:`repro.lint.engine` for the rule engine and pragma syntax,
:mod:`repro.lint.rules` for the rule set, :mod:`repro.lint.sarif` for
``--output sarif``, and ``repro lint --list-rules`` for the live catalog.
"""

from .engine import (
    Finding,
    PRAGMA_RULE_ID,
    Rule,
    SYNTAX_RULE_ID,
    lint_file,
    lint_paths,
    lint_source,
    resolve_rule_selection,
)
from .plugins import RESOLVE_RULE_ID, lint_plugins
from .rules import RULES
from .sarif import render_sarif

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_plugins",
    "render_sarif",
    "resolve_rule_selection",
    "SYNTAX_RULE_ID",
    "PRAGMA_RULE_ID",
    "RESOLVE_RULE_ID",
]
