"""Static analysis + runtime sanitizer guarding reproducibility invariants.

Two complementary layers (see ``docs/static_analysis.md``):

* the **determinism linter** — an AST rule engine
  (:func:`~repro.analysis.engine.run_analysis`,
  ``python -m repro.analysis``) with a project-wide call graph
  (:class:`~repro.analysis.callgraph.CallGraph`) scoping the rules:
  DET001/DET002/PURE001/CFG001 plus the RACE001/RACE002 backend task
  contract and the NOQA001 unused-suppression audit, with per-line
  ``# repro: noqa[RULE]`` suppressions;
* the **barrier sanitizer** — ``--sanitize`` runtime checks
  (:class:`~repro.analysis.sanitizer.BarrierSanitizer`) that freeze
  broadcast model arrays at superstep boundaries and digest-check that
  replicas stay bit-identical.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the submodule that defines it.  Resolved on first
#: access (PEP 562), so importing the sanitizer — as every trainer and
#: collective does — never loads the linter's call graph, rules, engine
#: and reporters.
_EXPORTS = {
    "callgraph": ("CallGraph", "FunctionInfo", "SubmitSite",
                  "module_name_for"),
    "engine": ("AnalysisResult", "SourceFile", "collect_files",
               "load_source", "parse_noqa", "run_analysis"),
    "reporters": ("render_json", "render_sarif", "render_text"),
    "rules": ("ALL_RULES", "AmbientNondeterminism", "CallGraphRule",
              "ConfigReachability", "ImpureCostModel", "ProjectRule",
              "Rule", "UnorderedIteration", "UnusedSuppression",
              "rule_registry"),
    "rules_race": ("SharedStateMutation", "UnpicklableTask"),
    "sanitizer": ("BarrierSanitizer", "ReplicaDivergenceError",
                  "SanitizerError", "check_replicas", "freeze_array",
                  "model_digest"),
    "violations": ("PARSE_RULE_ID", "Violation"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
