"""SARIF 2.1.0 output for ``repro lint --output sarif``.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
backends ingest — GitHub's ``upload-sarif`` action turns the document
into inline PR annotations, so a D/P finding lands on the exact diff
line instead of in a buried CI log.  The emitter maps:

* the full rule registry (D/P rules + pseudo rules) to
  ``tool.driver.rules``, so every ``ruleId`` in a result resolves to a
  description even for rules that produced no findings this run;
* ``severity`` to SARIF ``level`` (both ``error`` and ``warning`` fail
  the CLI; the level records rule confidence, matching the text output);
* the 1-based line / 0-based column convention of findings to SARIF's
  1-based ``startLine``/``startColumn`` region.

Pseudo-findings without a real file location (``<registry:...>`` from
``--plugins`` resolution failures) keep their synthetic URI — SARIF
consumers display them as tool-level results rather than dropping them.
"""

from __future__ import annotations

import json

__all__ = ["sarif_document", "render_sarif"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Pseudo-rule descriptions for findings no registry Rule class emits.
_PSEUDO_RULES = {
    "X000": ("syntax-error", "error", "file does not parse; nothing was checked"),
    "X100": ("invalid-pragma", "error",
             "lint-ok pragma without a reason or naming unknown rule ids"),
    "X200": ("unresolvable-spec", "error",
             "registered algorithm spec whose driver source cannot be resolved"),
}


def _level(severity: str) -> str:
    return severity if severity in ("error", "warning", "note") else "warning"


def _rule_index(rules: list) -> tuple[list, dict]:
    """SARIF rule descriptors + ``{rule_id: index}`` over the registry."""
    descriptors = []
    index: dict[str, int] = {}
    for rule in rules:
        index[rule.id] = len(descriptors)
        descriptors.append({
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {"level": _level(rule.severity)},
        })
    for rule_id, (name, severity, summary) in sorted(_PSEUDO_RULES.items()):
        index[rule_id] = len(descriptors)
        descriptors.append({
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": _level(severity)},
        })
    return descriptors, index


def sarif_document(findings: list, rules: list, version: str) -> dict:
    """The SARIF 2.1.0 log for one lint run, as a plain dict."""
    descriptors, index = _rule_index(rules)
    results = []
    for finding in findings:
        message = finding.message
        if finding.rule not in ("X000", "X100", "X200"):
            # Concatenated so this source line is not itself a pragma.
            hint = "# repro: " + f"lint-ok[{finding.rule}] <reason>"
            message += f" (suppress a reviewed instance with {hint!r})"
        result = {
            "ruleId": finding.rule,
            "level": _level(finding.severity),
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        }
        if finding.rule in index:
            result["ruleIndex"] = index[finding.rule]
        results.append(result)
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "version": version,
                    "rules": descriptors,
                },
            },
            "results": results,
        }],
    }


def render_sarif(findings: list, rules: list, version: str) -> str:
    return json.dumps(sarif_document(findings, rules, version), indent=2)
