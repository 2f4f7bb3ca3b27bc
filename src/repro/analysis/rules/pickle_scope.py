"""RPR003 — no pickle anywhere in ``src/repro``.

Every wire of the tower (gateway, shard sweep, mutate, catch-up) speaks
plain JSON lines, and ``pickle.loads`` on a peer's bytes is arbitrary
code execution.  The rule flags pickle-family imports and
``pickle.loads``/``dumps`` attribute use in every file of the package;
nothing is exempt.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Rule

__all__ = ["PickleScopeRule"]

PICKLE_MODULES = {
    "pickle",
    "cPickle",
    "_pickle",
    "dill",
    "cloudpickle",
    "shelve",
    "marshal",
}


class PickleScopeRule(Rule):
    id = "RPR003"
    severity = "error"
    description = "no pickle-family import or call anywhere in src/repro"
    scope = ("repro/",)
    rationale = (
        "Every wire of the tower speaks plain JSON: the client gateway, "
        "and since the shard sweep op carries vertex indices, the shard "
        "links too.  Unpickling a peer's bytes executes arbitrary code, "
        "so importing a pickle-family module or calling one anywhere in "
        "src/repro is a protocol-boundary violation, with no allowlist."
    )

    def visit(self, tree: ast.AST, source: str, path: str) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in PICKLE_MODULES:
                        findings.append(
                            self.finding(
                                path,
                                node,
                                f"import of pickle-family module "
                                f"{alias.name!r} in src/repro",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in PICKLE_MODULES:
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"import from pickle-family module "
                            f"{node.module!r} in src/repro",
                        )
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in PICKLE_MODULES
                ):
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"{func.value.id}.{func.attr}(); every wire "
                            "of the tower is plain JSON",
                        )
                    )
        return findings
