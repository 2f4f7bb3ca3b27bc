"""RPR006 — every RNG in package code is explicitly seeded.

The tower's headline guarantee is bit-identity: sharded, warm,
replayed, or mutated, the same request yields byte-equal answers.  One
call into the process-global ``random`` module (or an unseeded
``random.Random()``) breaks that reproducibility silently — generators,
workloads, and jitter all take a seed or an injected ``Random``
instance for exactly this reason.  The rule flags module-level
``random.*`` / ``numpy.random.*`` / ``np.random.*`` calls and no-arg
``Random()`` construction.  The documented caller-opt-in idiom
``rng = rng or random.Random()`` is exempt: there the *caller* chose
nondeterminism explicitly by passing None.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Rule

__all__ = ["UnseededRandomRule"]

# Global-RNG functions on the random module.
GLOBAL_RANDOM_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "gammavariate",
    "lognormvariate",
    "paretovariate",
    "weibullvariate",
    "triangular",
    "vonmisesvariate",
    "getrandbits",
    "randbytes",
    "seed",
}


def _is_opt_in_fallback(call: ast.Call, parents: dict[ast.AST, ast.AST]) -> bool:
    """True for the ``NAME or random.Random()`` caller-opt-in idiom."""
    parent = parents.get(call)
    return (
        isinstance(parent, ast.BoolOp)
        and isinstance(parent.op, ast.Or)
        and parent.values
        and parent.values[-1] is call
    )


class UnseededRandomRule(Rule):
    id = "RPR006"
    severity = "error"
    description = (
        "unseeded randomness (global random module / no-arg Random()) "
        "breaks bit-identity"
    )
    scope = ("repro/",)
    rationale = (
        "The whole tower is gated on bit-identity: sharded equals "
        "single-service equals warm equals replayed, byte for byte.  "
        "Any call into the process-global random module (or an "
        "unseeded random.Random()) silently forfeits that — a "
        "generator that cannot be replayed cannot be debugged.  Every "
        "generator/workload/jitter site takes seed= or an injected "
        "Random.  The one sanctioned escape is the explicit caller "
        "opt-in `rng = rng or random.Random()`, where passing rng=None "
        "is the caller choosing nondeterminism."
    )

    def visit(self, tree: ast.AST, source: str, path: str) -> list[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node

        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # random.random(), random.choice(...), ...
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr in GLOBAL_RANDOM_FUNCS
            ):
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"global random.{func.attr}() is unseeded process "
                        "state; use an injected random.Random(seed)",
                    )
                )
                continue
            # numpy.random.* / np.random.*
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in {"numpy", "np"}
                and func.value.attr == "random"
            ):
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"global {func.value.value.id}.random.{func.attr}() "
                        "is unseeded; use numpy.random.Generator with an "
                        "explicit seed",
                    )
                )
                continue
            # Random() / random.Random() / SystemRandom() with no seed.
            ctor = None
            if isinstance(func, ast.Name):
                ctor = func.id
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                if func.value.id in {"random", "numpy", "np"}:
                    ctor = func.attr
            if ctor in {"Random", "SystemRandom", "default_rng"} and not (
                node.args or node.keywords
            ):
                if ctor == "Random" and _is_opt_in_fallback(node, parents):
                    continue
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"no-arg {ctor}() is seeded from the OS; pass an "
                        "explicit seed (or use the `rng or Random()` "
                        "caller-opt-in idiom)",
                    )
                )
        return findings
