"""SARIF 2.1.0 export for lint reports (``repro lint --sarif``).

One :class:`~repro.static.lint.LintReport` becomes one SARIF run whose
driver is ``repro-lint``: the full :data:`~repro.static.diagnostics.RULES`
catalog lands in ``tool.driver.rules`` (so viewers can show rule help
even for codes with no results), every active diagnostic becomes a
result, and diagnostics silenced by ``# repro: ignore`` comments are
emitted with an ``inSource`` suppression rather than dropped -- exactly
how code-scanning UIs expect suppressed findings to arrive.

Only the stable subset of SARIF is produced: ruleId / level / message /
one physical location per result.  Sites of the AST front end
(``file:line``) map to ``physicalLocation``; spec-front-end sites (spec
paths like ``task.0:access``) carry no usable file, so they land in the
message-bearing ``logicalLocations`` instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.static.diagnostics import ERROR, INFO, RULES, WARNING, Diagnostic

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Diagnostic severity -> SARIF result level.
_LEVELS = {ERROR: "error", WARNING: "warning", INFO: "note"}


def _rules() -> List[Dict[str, Any]]:
    rules = []
    for code in sorted(RULES):
        severity, summary = RULES[code]
        rules.append(
            {
                "id": code,
                "shortDescription": {"text": summary},
                "defaultConfiguration": {
                    "level": _LEVELS.get(severity, "warning")
                },
            }
        )
    return rules


def _split_site(site: Optional[str]) -> Tuple[Optional[str], Optional[int]]:
    """``file.py:12`` -> (``file.py``, 12); anything else -> (None, None)."""
    if not site or ":" not in site:
        return None, None
    path, _, line = site.rpartition(":")
    if not path or not line.isdigit():
        return None, None
    return path, int(line)


def _result(diagnostic: Diagnostic, suppressed: bool) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": diagnostic.code,
        "level": _LEVELS.get(diagnostic.severity, "warning"),
        "message": {"text": diagnostic.message},
    }
    path, line = _split_site(diagnostic.site)
    if path is not None:
        result["locations"] = [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": path},
                    "region": {"startLine": line},
                }
            }
        ]
    elif diagnostic.site:
        result["locations"] = [
            {
                "logicalLocations": [
                    {"fullyQualifiedName": diagnostic.site}
                ]
            }
        ]
    if diagnostic.location is not None:
        result.setdefault("properties", {})["location"] = repr(
            diagnostic.location
        )
    if diagnostic.pattern:
        result.setdefault("properties", {})["pattern"] = diagnostic.pattern
    if suppressed:
        result["suppressions"] = [{"kind": "inSource"}]
    return result


def report_to_sarif(report: Any) -> Dict[str, Any]:
    """Render one :class:`~repro.static.lint.LintReport` as a SARIF log."""
    results = [_result(d, suppressed=False) for d in report.diagnostics]
    results += [_result(d, suppressed=True) for d in report.suppressed]
    run: Dict[str, Any] = {
        "tool": {
            "driver": {
                "name": "repro-lint",
                "informationUri": "https://example.invalid/repro",
                "rules": _rules(),
            }
        },
        "results": results,
        "properties": {"target": report.target},
    }
    stats = report.callgraph_stats()
    if stats is not None:
        run["properties"]["callgraph"] = stats
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def reports_to_sarif(reports: List[Any]) -> Dict[str, Any]:
    """Many lint reports -> one SARIF log with one run per report."""
    logs = [report_to_sarif(report) for report in reports]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [log["runs"][0] for log in logs],
    }
