"""The invariant checker's own gate: ``repro.analysis`` + ``repro lint``.

Pyflakes-style fixture discipline: every registered rule ships a
``fixtures/rpr0xx_bad.py`` that must fire and a ``rpr0xx_good.py`` twin
that must stay silent — parametrized over the registry so adding a rule
without its pair fails here, not in review.  On top of that: suppression
and unused-suppression behavior, path-scoped policy routing (the
unseeded-random ban knows src from tests), the ``--json`` report shape,
``--explain`` self-documentation, the acceptance scenarios from the PR
(the resurrected PR 3 salted-``hash()`` routing bug and the PR 4
unbounded gateway stats list are both caught), and the meta-test: the
linter runs clean on the repo's own ``src/repro`` tree.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Registry,
    default_registry,
    lint_paths,
    lint_source,
)
from repro.analysis.engine import HYGIENE_RULE_ID, canonical_path
from repro.analysis.report import render_json, render_text
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
FIXTURES = SRC_TREE / "analysis" / "fixtures"

# Each fixture is linted as if it lived at a path squarely inside the
# rule's scope, so scoping never masks a broken checker.
SCOPED_PATHS = {
    "RPR001": "repro/core/sharded.py",
    "RPR002": "repro/core/gateway.py",
    "RPR003": "repro/serving/protocol.py",
    "RPR004": "repro/core/gateway.py",
    "RPR005": "repro/core/sharded.py",
    "RPR006": "repro/graphs/generators.py",
    "RPR007": "repro/core/sharded.py",
    "RPR008": "repro/loadgen/trace.py",
}


def one_rule(rule_id: str):
    return [default_registry().get(rule_id)]


def lint_fixture(name: str, rule_id: str) -> list[Finding]:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, SCOPED_PATHS[rule_id], one_rule(rule_id))


# ---------------------------------------------------------------------------
# Fixture corpus: every rule fires on bad, stays silent on good
# ---------------------------------------------------------------------------


def test_registry_has_at_least_eight_rules():
    assert len(default_registry().ids()) >= 8


@pytest.mark.parametrize("rule_id", sorted(SCOPED_PATHS))
def test_bad_fixture_fires(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_bad.py", rule_id)
    assert findings, f"{rule_id} must fire on its bad fixture"
    assert all(f.rule_id == rule_id for f in findings)


@pytest.mark.parametrize("rule_id", sorted(SCOPED_PATHS))
def test_good_fixture_silent(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_good.py", rule_id)
    assert findings == [], f"{rule_id} must stay silent on its good twin"


def test_every_registered_rule_has_a_fixture_pair():
    for rule_id in default_registry().ids():
        stem = rule_id.lower()
        assert (FIXTURES / f"{stem}_bad.py").is_file(), rule_id
        assert (FIXTURES / f"{stem}_good.py").is_file(), rule_id
        assert rule_id in SCOPED_PATHS, f"add {rule_id} to SCOPED_PATHS"


def test_every_rule_documents_itself():
    registry = default_registry()
    for rule_id in registry.ids():
        rule = registry.get(rule_id)
        assert rule.description
        assert rule.rationale, f"{rule_id} needs an --explain rationale"


# ---------------------------------------------------------------------------
# Acceptance scenarios: the shipped bugs stay dead
# ---------------------------------------------------------------------------


def test_pr3_salted_hash_routing_bug_is_caught():
    # The exact shape PR 3 fixed: ring placement keyed on builtin hash().
    source = (
        "def placement(self, query, options):\n"
        "    return hash((tuple(query), options.stable_repr())) % self.slots\n"
    )
    findings = lint_source(source, "repro/core/sharded.py", one_rule("RPR001"))
    assert [f.rule_id for f in findings] == ["RPR001"]


def test_pr4_unbounded_gateway_stats_list_is_caught():
    # The exact shape PR 4 fixed: per-batch telemetry into a plain list.
    source = (
        "class AsyncGateway:\n"
        "    def __init__(self):\n"
        "        self._window_sizes = []\n"
        "    def _dispatch(self, window):\n"
        "        self._window_sizes.append(len(window))\n"
    )
    findings = lint_source(source, "repro/core/gateway.py", one_rule("RPR004"))
    assert [f.rule_id for f in findings] == ["RPR004"]
    assert "_window_sizes" in findings[0].message


def test_deque_maxlen_is_the_sanctioned_fix():
    source = (
        "from collections import deque\n"
        "class AsyncGateway:\n"
        "    def __init__(self):\n"
        "        self._window_sizes = deque(maxlen=256)\n"
        "    def _dispatch(self, window):\n"
        "        self._window_sizes.append(len(window))\n"
    )
    assert not lint_source(
        source, "repro/core/gateway.py", one_rule("RPR004")
    )


def test_done_callback_discard_counts_as_draining():
    # The asyncio bookkeeping idiom: membership drained by done-callback.
    source = (
        "class Server:\n"
        "    def __init__(self):\n"
        "        self._tasks = set()\n"
        "    def track(self, task):\n"
        "        self._tasks.add(task)\n"
        "        task.add_done_callback(self._tasks.discard)\n"
    )
    assert not lint_source(source, "repro/serving/server.py", one_rule("RPR004"))


def test_transport_tuple_alias_is_resolved():
    source = (
        "_FAILURES = (EOFError, OSError, ShardTransportError)\n"
        "def call(link):\n"
        "    try:\n"
        "        return link.request()\n"
        "    except _FAILURES:\n"
        "        return None\n"
    )
    findings = lint_source(source, "repro/core/sharded.py", one_rule("RPR007"))
    assert [f.rule_id for f in findings] == ["RPR007"]


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

SUPPRESSED = (
    "def placement(query, slots):\n"
    "    return hash(tuple(query)) % slots  # repro-lint: disable=RPR001\n"
)


def test_suppression_silences_the_finding():
    assert not lint_source(SUPPRESSED, "repro/core/x.py", one_rule("RPR001"))


def test_suppression_on_preceding_comment_line():
    source = (
        "def placement(query, slots):\n"
        "    # repro-lint: disable=RPR001\n"
        "    return hash(tuple(query)) % slots\n"
    )
    assert not lint_source(source, "repro/core/x.py", one_rule("RPR001"))


def test_unused_suppression_is_itself_a_finding():
    source = "def fine():\n    return 1  # repro-lint: disable=RPR001\n"
    findings = lint_source(source, "repro/core/x.py", one_rule("RPR001"))
    assert [f.rule_id for f in findings] == [HYGIENE_RULE_ID]
    assert "unused suppression" in findings[0].message


def test_unused_suppression_not_reported_for_disabled_rules():
    # A --select RPR003 run must not call an RPR001 annotation stale.
    source = "def fine():\n    return 1  # repro-lint: disable=RPR001\n"
    assert not lint_source(source, "repro/core/x.py", one_rule("RPR003"))


def test_suppression_is_per_line_not_per_file():
    source = SUPPRESSED + "def other(query, slots):\n    return hash(query)\n"
    findings = lint_source(source, "repro/core/x.py", one_rule("RPR001"))
    assert [f.rule_id for f in findings] == ["RPR001"]
    assert findings[0].line == 4


def test_syntax_error_reports_instead_of_crashing():
    findings = lint_source("def broken(:\n", "repro/core/x.py", one_rule("RPR001"))
    assert [f.rule_id for f in findings] == [HYGIENE_RULE_ID]
    assert "does not parse" in findings[0].message


# ---------------------------------------------------------------------------
# Path-scoped policies
# ---------------------------------------------------------------------------

PICKLE_SOURCE = "import pickle\n\ndef enc(v):\n    return pickle.dumps(v)\n"


def test_pickle_banned_on_the_protocol_and_gateway():
    for path in ("repro/serving/protocol.py", "repro/core/gateway.py"):
        findings = lint_source(PICKLE_SOURCE, path, one_rule("RPR003"))
        assert findings, f"pickle must be flagged at {path}"


def test_pickle_banned_on_the_shard_wire():
    """A plain ban: the shard wire is JSON too, so no file is exempt."""
    assert not one_rule("RPR003")[0].allow
    findings = lint_source(
        PICKLE_SOURCE, "repro/serving/remote.py", one_rule("RPR003")
    )
    assert findings, "pickle must be flagged at repro/serving/remote.py"


def test_unseeded_random_banned_in_src_not_tests():
    source = "import random\n\ndef jitter():\n    return random.random()\n"
    assert lint_source(source, "repro/loadgen/trace.py", one_rule("RPR006"))
    assert not lint_source(source, "tests/test_trace.py", one_rule("RPR006"))


def test_rng_caller_opt_in_idiom_is_exempt():
    source = (
        "import random\n"
        "def synthesize(rng=None):\n"
        "    rng = rng or random.Random()\n"
        "    return rng.random()\n"
    )
    assert not lint_source(source, "repro/loadgen/trace.py", one_rule("RPR006"))


def test_canonical_path_strips_checkout_layout():
    assert canonical_path("src/repro/core/sharded.py") == "repro/core/sharded.py"
    assert canonical_path("repro/core/sharded.py") == "repro/core/sharded.py"
    assert canonical_path("tests/test_lint.py") == "tests/test_lint.py"


def test_registry_select_and_ignore():
    registry = default_registry()
    assert [r.id for r in registry.select(["RPR003"])] == ["RPR003"]
    remaining = [r.id for r in registry.select(None, ["RPR003"])]
    assert "RPR003" not in remaining and len(remaining) >= 7
    with pytest.raises(KeyError, match="RPR999"):
        registry.select(["RPR999"])


def test_registry_rejects_duplicate_ids():
    registry = Registry()
    rule = default_registry().get("RPR001")
    registry.register(rule)
    with pytest.raises(ValueError, match="duplicate"):
        registry.register(rule)


# ---------------------------------------------------------------------------
# Reports + CLI
# ---------------------------------------------------------------------------


def test_json_report_shape(tmp_path):
    bad = tmp_path / "repro" / "core"
    bad.mkdir(parents=True)
    (bad / "router.py").write_text(
        "def place(q, n):\n    return hash(q) % n\n", encoding="utf-8"
    )
    result = lint_paths([tmp_path], select=["RPR001"])
    payload = json.loads(render_json(result))
    assert set(payload) == {"files", "findings", "count", "ok"}
    assert payload["count"] == 1 and payload["ok"] is False
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}
    assert finding["rule"] == "RPR001"
    assert finding["path"].endswith("repro/core/router.py")
    assert finding["line"] == 2


def test_findings_order_is_stable():
    source = (
        "import time\n"
        "async def h(svc):\n"
        "    time.sleep(1)\n"
        "    svc.solve_many([], None)\n"
    )
    rules = default_registry().select(["RPR002"])
    findings = lint_source(source, "repro/core/gateway.py", rules)
    assert [f.line for f in findings] == [3, 4]
    assert render_text(
        type("R", (), {"findings": findings, "files": 1})()
    ).startswith("repro/core/gateway.py:3:")


def test_cli_lint_clean_tree_exits_zero(capsys):
    assert cli_main(["lint", str(SRC_TREE)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_finding_exits_one(tmp_path, capsys):
    target = tmp_path / "repro" / "core" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(q):\n    return hash(q)\n", encoding="utf-8")
    assert cli_main(["lint", str(tmp_path), "--select", "RPR001"]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out


def test_cli_lint_json_flag(tmp_path, capsys):
    target = tmp_path / "repro" / "core" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(q):\n    return hash(q)\n", encoding="utf-8")
    assert cli_main(["lint", str(tmp_path), "--select", "RPR001", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "RPR001"


def test_cli_lint_unknown_rule_exits_two(capsys):
    assert cli_main(["lint", str(SRC_TREE), "--select", "RPR999"]) == 2
    assert "unknown rule" in capsys.readouterr().out


def test_cli_lint_missing_path_exits_two(capsys):
    assert cli_main(["lint", "no/such/dir"]) == 2
    assert "no such path" in capsys.readouterr().out


def test_cli_explain_prints_rationale_and_examples(capsys):
    assert cli_main(["lint", "--explain", "RPR003"]) == 0
    out = capsys.readouterr().out
    assert "RPR003" in out
    assert "Fires on:" in out and "Stays silent on:" in out
    assert "pickle" in out


def test_cli_explain_unknown_rule_exits_two(capsys):
    assert cli_main(["lint", "--explain", "RPR999"]) == 2


# ---------------------------------------------------------------------------
# Meta: the repo itself is clean, and the fixture corpus is excluded
# ---------------------------------------------------------------------------


def test_repo_src_tree_is_clean():
    result = lint_paths([SRC_TREE])
    assert result.findings == [], render_text(result)
    assert result.files > 50  # the whole package was actually walked


def test_fixture_corpus_is_never_linted_as_project_code():
    result = lint_paths([FIXTURES])
    assert result.files == 0 and result.findings == []


# ---------------------------------------------------------------------------
# Satellite: the typed lifecycle taxonomy keeps its string contracts
# ---------------------------------------------------------------------------


def test_lifecycle_errors_are_runtimeerror_subclasses():
    from repro.errors import ReproError, ServerStateError, ServiceClosedError

    for cls in (ServiceClosedError, ServerStateError):
        assert issubclass(cls, RuntimeError)
        assert issubclass(cls, ReproError)


def test_server_lifecycle_raises_typed_state_error():
    from repro.errors import ServerStateError
    from repro.serving.server import GatewayServer

    server = GatewayServer.__new__(GatewayServer)
    server._server = None
    with pytest.raises(ServerStateError, match="server is not started"):
        _ = server.port
    # The old `except RuntimeError` call sites keep working untouched.
    with pytest.raises(RuntimeError, match="server is not started"):
        _ = server.addresses
