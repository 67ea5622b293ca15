"""``repro.lint``: rule engine, rule set, pragmas, CLI, and ``--plugins``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.lint import (
    PRAGMA_RULE_ID,
    RULES,
    SYNTAX_RULE_ID,
    Finding,
    lint_file,
    lint_paths,
    lint_source,
    resolve_rule_selection,
)
from repro.lint.plugins import RESOLVE_RULE_ID
from repro.lint.rules import ROW_FIELDS_SNAPSHOT
from repro.lint.sarif import sarif_document
from repro.testing import subprocess_env

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"
SUBPROCESS_ENV = subprocess_env()

RULE_IDS = [rule.id for rule in RULES]


def expected_lines(source: str, rule_id: str) -> list:
    """The 1-based lines a bad fixture marks with ``# expect: <id>``."""
    return sorted(
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if f"# expect: {rule_id}" in line
    )


# ----------------------------------------------------------------------
# golden fixtures: one violating and one clean snippet per rule
# ----------------------------------------------------------------------
class TestGoldenFixtures:
    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_fixture_files_pin_the_rule_examples(self, rule):
        # The checked-in fixture *is* the rule's example attribute, so the
        # two can never drift: editing one without the other fails here.
        bad_file = FIXTURES / f"{rule.id.lower()}_bad.py"
        good_file = FIXTURES / f"{rule.id.lower()}_good.py"
        assert bad_file.read_text() == rule.example_bad
        assert good_file.read_text() == rule.example_good

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_bad_fixture_reports_the_marked_lines(self, rule):
        marked = expected_lines(rule.example_bad, rule.id)
        assert marked, f"{rule.id}: bad fixture carries no # expect markers"
        findings = lint_source(rule.example_bad, path=f"{rule.id.lower()}_bad.py")
        assert sorted(f.line for f in findings if f.rule == rule.id) == marked
        # ... and nothing *else* fires: each fixture isolates its rule.
        assert [f for f in findings if f.rule != rule.id] == []
        for finding in findings:
            assert finding.name == rule.name
            assert finding.severity == rule.severity
            assert finding.message

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_good_fixture_is_clean_under_every_rule(self, rule):
        assert lint_source(rule.example_good) == []

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_cli_exits_1_on_each_bad_fixture(self, rule, capsys):
        bad_file = FIXTURES / f"{rule.id.lower()}_bad.py"
        assert main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert rule.id in out
        assert rule.name in out

    def test_cli_exits_0_on_the_good_fixtures(self, capsys):
        good = [str(FIXTURES / f"{rule.id.lower()}_good.py") for rule in RULES]
        assert main(["lint", *good]) == 0
        assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# engine: pragmas, selection, meta rules
# ----------------------------------------------------------------------
BAD_SNIPPET = "import random\n\n\ndef f():\n    return random.random()\n"


class TestPragmas:
    def test_same_line_pragma_suppresses_with_reason(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    return random.random()  # repro: lint-ok[D101] demo of the pragma\n"
        )
        assert lint_source(source) == []

    def test_comment_line_pragma_covers_the_next_line(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    # repro: lint-ok[D101] demo of the pragma\n"
            "    return random.random()\n"
        )
        assert lint_source(source) == []

    def test_pragma_without_reason_is_itself_a_finding(self):
        source = BAD_SNIPPET.replace(
            "random.random()", "random.random()  # repro: lint-ok[D101]"
        )
        findings = lint_source(source)
        rules = {f.rule for f in findings}
        # The bare pragma suppresses nothing and is reported itself.
        assert rules == {PRAGMA_RULE_ID, "D101"}

    def test_pragma_with_unknown_rule_id_is_a_finding(self):
        source = BAD_SNIPPET.replace(
            "random.random()",
            "random.random()  # repro: lint-ok[D999] not a rule",
        )
        rules = {f.rule for f in lint_source(source)}
        assert rules == {PRAGMA_RULE_ID, "D101"}

    def test_pragma_suppresses_only_the_named_rules(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    random.seed(0)  # repro: lint-ok[D101] wrong id on purpose\n"
        )
        assert {f.rule for f in lint_source(source)} == {"D102"}

    def test_one_pragma_can_name_several_rules(self):
        source = (
            "import os\n"
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    # repro: lint-ok[D101,D107] fixture exercising a shared pragma\n"
            "    return random.random(), os.getenv('HOME')\n"
        )
        assert lint_source(source) == []

    def test_pragma_ids_are_case_insensitive(self):
        source = BAD_SNIPPET.replace(
            "random.random()", "random.random()  # repro: lint-ok[d101] lower-case id"
        )
        assert lint_source(source) == []

    def test_pragma_naming_no_rule_is_a_finding(self):
        source = BAD_SNIPPET.replace(
            "random.random()", "random.random()  # repro: lint-ok[] no ids at all"
        )
        assert {f.rule for f in lint_source(source)} == {PRAGMA_RULE_ID, "D101"}

    def test_pragma_naming_a_family_is_a_finding(self):
        # --select takes family prefixes; a pragma must name exact ids, so
        # one suppression can never blanket a whole family.
        source = BAD_SNIPPET.replace(
            "random.random()", "random.random()  # repro: lint-ok[D] whole family"
        )
        findings = lint_source(source)
        assert {f.rule for f in findings} == {PRAGMA_RULE_ID, "D101"}
        pragma = next(f for f in findings if f.rule == PRAGMA_RULE_ID)
        assert "['D']" in pragma.message

    def test_invalid_pragma_anchors_at_the_pragma(self):
        source = BAD_SNIPPET.replace(
            "random.random()", "random.random()  # repro: lint-ok[D101]"
        )
        pragma = next(f for f in lint_source(source) if f.rule == PRAGMA_RULE_ID)
        line = source.splitlines()[pragma.line - 1]
        assert pragma.line == 5
        assert line[pragma.col:].startswith("# repro: lint-ok[D101]")

    def test_comment_line_pragma_does_not_reach_two_lines_down(self):
        source = (
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    # repro: lint-ok[D101] covers only the blank line below\n"
            "\n"
            "    return random.random()\n"
        )
        assert [(f.rule, f.line) for f in lint_source(source)] == [("D101", 7)]


class TestSelection:
    def test_select_runs_only_named_rules(self):
        source = BAD_SNIPPET.replace(
            "return random.random()", "random.seed(0)\n    return random.random()"
        )
        assert {f.rule for f in lint_source(source)} == {"D101", "D102"}
        assert {f.rule for f in lint_source(source, select=("D102",))} == {"D102"}

    def test_ignore_drops_named_rules(self):
        assert lint_source(BAD_SNIPPET, ignore=("D101",)) == []

    def test_family_prefix_selects_the_whole_family(self):
        assert {f.rule for f in lint_source(BAD_SNIPPET, select=("P",))} == set()
        assert {f.rule for f in lint_source(BAD_SNIPPET, select=("D",))} == {"D101"}

    def test_unknown_rule_raises_value_error(self):
        with pytest.raises(ValueError, match="BOGUS"):
            resolve_rule_selection(("BOGUS",), None)
        with pytest.raises(ValueError, match="--ignore"):
            resolve_rule_selection(None, ("D999",))

    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == [SYNTAX_RULE_ID]
        assert findings[0].line == 1

    def test_exempt_paths_skip_the_rule(self):
        timed = "import time\n\n\ndef f():\n    return time.time()\n"
        assert {f.rule for f in lint_source(timed)} == {"D105"}
        assert lint_source(timed, path="src/repro/bench.py") == []

    def test_exempt_paths_match_whole_file_names_only(self):
        timed = "import time\n\n\ndef f():\n    return time.time()\n"
        assert {f.rule for f in lint_source(timed, path="src/repro/bench_tools.py")} == {
            "D105"
        }

    def test_select_and_ignore_compose(self):
        source = BAD_SNIPPET.replace(
            "return random.random()", "random.seed(0)\n    return random.random()"
        )
        findings = lint_source(source, select=("D",), ignore=("D101",))
        assert {f.rule for f in findings} == {"D102"}

    def test_selection_entries_are_trimmed_and_case_folded(self):
        assert [rule.id for rule in resolve_rule_selection((" d101 ",), None)] == ["D101"]
        active = resolve_rule_selection(None, ("p",))
        assert {rule.id[0] for rule in active} == {"D"}

    def test_flow_family_is_unknown(self):
        with pytest.raises(ValueError, match="--select"):
            resolve_rule_selection(("F",), None)
        with pytest.raises(ValueError, match="--ignore"):
            resolve_rule_selection(None, ("F",))

    def test_meta_rules_report_under_any_select(self):
        assert [f.rule for f in lint_source("def broken(:\n", select=("P",))] == [
            SYNTAX_RULE_ID
        ]
        source = BAD_SNIPPET.replace(
            "random.random()", "random.random()  # repro: lint-ok[D101]"
        )
        assert {f.rule for f in lint_source(source, select=("D102",))} == {
            PRAGMA_RULE_ID
        }

    def test_ignore_drops_meta_rules_by_id_or_family(self):
        source = BAD_SNIPPET.replace(
            "random.random()", "random.random()  # repro: lint-ok[D101]"
        )
        assert {f.rule for f in lint_source(source, ignore=(PRAGMA_RULE_ID,))} == {"D101"}
        assert lint_source("def broken(:\n", ignore=("X",)) == []
        assert lint_source("def broken(:\n", ignore=(SYNTAX_RULE_ID,)) == []


# ----------------------------------------------------------------------
# files and trees
# ----------------------------------------------------------------------
class TestLintPaths:
    def test_directories_walk_sorted_and_skip_hidden_parts(self, tmp_path):
        for rel in ("b.py", "a.py", "sub/c.py", ".hidden/d.py", "sub/.e/f.py", "notes.txt"):
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("X = 1\n")
        findings, checked = lint_paths([str(tmp_path)])
        assert findings == []
        assert checked == [str(tmp_path / rel) for rel in ("a.py", "b.py", "sub/c.py")]

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no-such"):
            lint_paths([str(tmp_path / "no-such")])

    def test_findings_sort_by_path_then_line(self, tmp_path):
        (tmp_path / "z.py").write_text(BAD_SNIPPET)
        (tmp_path / "a.py").write_text("import random\n" + BAD_SNIPPET)
        findings, _ = lint_paths([str(tmp_path / "z.py"), str(tmp_path / "a.py")])
        assert [(Path(f.path).name, f.line) for f in findings] == [("a.py", 6), ("z.py", 5)]

    def test_lint_file_is_lint_source_on_the_file_text(self):
        path = FIXTURES / "d106_bad.py"
        assert lint_file(path) == lint_source(path.read_text(), str(path))
        assert lint_file(path, select=("P",)) == []


# ----------------------------------------------------------------------
# CLI: exits, filtering, JSON schema
# ----------------------------------------------------------------------
class TestLintCLI:
    def test_usage_errors_exit_2(self, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", "--select", "BOGUS", str(FIXTURES)]) == 2
        assert main(["lint", "/no/such/path"]) == 2
        capsys.readouterr()

    def test_select_filters_findings(self, capsys):
        bad = str(FIXTURES / "d101_bad.py")
        assert main(["lint", bad, "--select", "P"]) == 0
        capsys.readouterr()
        assert main(["lint", bad, "--ignore", "D101"]) == 0
        capsys.readouterr()
        assert main(["lint", bad, "--select", "D"]) == 1
        capsys.readouterr()

    def test_list_rules_prints_the_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out
            assert rule.name in out

    def test_list_rules_lists_exactly_the_d_and_p_families(self, capsys):
        assert main(["lint", "--list-rules", "--json"]) == 0
        ids = [entry["id"] for entry in json.loads(capsys.readouterr().out)]
        assert ids == [f"D{n}" for n in range(101, 108)] + [f"P{n}" for n in range(201, 206)]

    def test_cache_flag_is_a_usage_error(self, capsys):
        good = str(FIXTURES / "d101_good.py")
        assert main(["lint", good, "--cache", "lint-cache.json"]) == 2
        capsys.readouterr()

    def test_text_output_renders_each_finding_and_a_count(self, capsys):
        bad = FIXTURES / "d102_bad.py"
        assert main(["lint", str(bad)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [finding.render() for finding in lint_file(bad)]
        assert lines[-1] == f"{len(lines) - 1} finding(s) in 1 file checked"

    def test_output_flag_overrides_json_flag(self, capsys):
        bad = str(FIXTURES / "d102_bad.py")
        assert main(["lint", bad, "--json", "--output", "text"]) == 1
        assert "finding(s) in 1 file checked" in capsys.readouterr().out
        assert main(["lint", bad, "--output", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["findings"]

    def test_list_rules_json(self, capsys):
        assert main(["lint", "--list-rules", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in catalog] == RULE_IDS
        assert all(entry["summary"] for entry in catalog)

    def test_json_schema_round_trips(self, capsys):
        bad = str(FIXTURES / "d104_bad.py")
        assert main(["lint", bad, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == 1
        assert data["files_checked"] == [bad]
        assert data["findings"]
        for raw in data["findings"]:
            finding = Finding.from_dict(raw)
            assert finding.to_dict() == raw
            assert finding.rule == "D104"

    def test_self_lint_src_repro_is_clean(self):
        # The acceptance gate CI enforces, kept honest in-process too.
        findings, checked = lint_paths([str(SRC_REPRO)])
        assert findings == []
        assert len(checked) > 40

    def test_cli_subprocess_end_to_end(self):
        # One real process: the CI job invokes the same entry point.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(FIXTURES / "p203_bad.py")],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert result.returncode == 1
        assert "P203" in result.stdout


# ----------------------------------------------------------------------
# pragma placement regressions: multi-line statements, decorated defs
# ----------------------------------------------------------------------
class TestPragmaPlacement:
    def test_pragma_on_the_closing_line_of_a_multiline_call(self):
        source = (
            "import random\n"
            "\n\n"
            "def f(options):\n"
            "    return random.choice(\n"
            "        sorted(options),\n"
            "    )  # repro: lint-ok[D101] demo fixture for span pragmas\n"
        )
        assert lint_source(source) == []

    def test_pragma_on_an_inner_line_of_a_multiline_call(self):
        source = (
            "import random\n"
            "\n\n"
            "def f(options):\n"
            "    return random.choice(\n"
            "        sorted(options),  # repro: lint-ok[D101] span pragma demo\n"
            "    )\n"
        )
        assert lint_source(source) == []

    def test_pragma_above_a_decorated_def_covers_the_def_line(self):
        source = (
            "import random\n"
            "\n\n"
            "def trace(fn):\n"
            "    return fn\n"
            "\n\n"
            "# repro: lint-ok[D101] fixture: decorated driver, reviewed\n"
            "@trace\n"
            "def drive_demo(graph, metrics, jitter=random.random()):\n"
            "    return {}\n"
        )
        assert lint_source(source) == []

    def test_pragma_on_the_signature_line_of_a_decorated_def(self):
        source = (
            "import random\n"
            "\n\n"
            "def trace(fn):\n"
            "    return fn\n"
            "\n\n"
            "@trace\n"
            "def drive_demo(\n"
            "    graph,\n"
            "    metrics,\n"
            "    jitter=random.random(),\n"
            "):  # repro: lint-ok[D101] fixture: split signature, reviewed\n"
            "    return {}\n"
        )
        assert lint_source(source) == []

    def test_checked_in_pragma_fixtures_lint_clean(self):
        findings, checked = lint_paths([
            str(FIXTURES / "pragma_multiline.py"),
            str(FIXTURES / "pragma_decorated.py"),
        ])
        assert findings == []
        assert len(checked) == 2

    def test_compound_statement_bodies_are_not_blanket_covered(self):
        # A pragma on a `def` line must not suppress findings deep in the
        # body — only simple statements group their physical lines.
        source = (
            "import random\n"
            "\n\n"
            "def f():  # repro: lint-ok[D101] must not reach the body\n"
            "    return random.random()\n"
        )
        assert [f.rule for f in lint_source(source)] == ["D101"]


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
class TestSarif:
    def test_document_shape_rules_and_result_anchors(self):
        findings, _ = lint_paths([str(FIXTURES)])
        doc = sarif_document(findings, RULES, "0.0-test")
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert [rule.id for rule in RULES] == ids[: len(RULES)]
        assert {"X000", "X100", "X200"} <= set(ids)
        assert len(run["results"]) == len(findings)
        for result, finding in zip(run["results"], findings):
            assert result["ruleId"] == finding.rule
            assert driver["rules"][result["ruleIndex"]]["id"] == finding.rule
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] == finding.line
            assert region["startColumn"] == finding.col + 1
            assert "lint-ok" in result["message"]["text"]

    def test_cli_output_sarif_exit_and_parse(self, capsys):
        assert main(["lint", str(FIXTURES), "--output", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"]

    def test_cli_output_sarif_clean_run(self, capsys):
        good = str(FIXTURES / "p203_good.py")
        assert main(["lint", good, "--output", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []

    def test_pseudo_findings_keep_their_uri_and_carry_no_pragma_hint(self):
        finding = Finding(
            rule=RESOLVE_RULE_ID, name="unresolvable-spec", severity="error",
            path="<registry:broken>", line=1, col=0, message="failed to resolve",
        )
        result = sarif_document([finding], RULES, "0.0-test")["runs"][0]["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "<registry:broken>"
        assert result["message"]["text"] == "failed to resolve"
        assert result["ruleIndex"] == len(RULES) + 2

    def test_rule_severity_maps_to_sarif_level(self):
        findings = lint_file(FIXTURES / "d103_bad.py")
        doc = sarif_document(findings, RULES, "0.0-test")
        run = doc["runs"][0]
        levels = {
            rule["id"]: rule["defaultConfiguration"]["level"]
            for rule in run["tool"]["driver"]["rules"]
        }
        assert levels == {
            **{rule.id: rule.severity for rule in RULES},
            "X000": "error", "X100": "error", "X200": "error",
        }
        assert [result["level"] for result in run["results"]] == ["warning"] * len(findings)


# ----------------------------------------------------------------------
# --plugins: the registry gate
# ----------------------------------------------------------------------
ROGUE_PLUGIN = '''\
import random

from repro.api import AlgorithmSpec, register_algorithm_spec


def drive_rogue(graph, seed, metrics):
    return {"rogue_pick": random.random()}


def register():
    register_algorithm_spec(
        AlgorithmSpec("rogue", "lint_rogue_plugin:drive_rogue",
                      description="deliberately unseeded test plugin")
    )
'''


BROKEN_PLUGIN = '''\
from repro.api import AlgorithmSpec, register_algorithm_spec


def register():
    register_algorithm_spec(
        AlgorithmSpec("broken", "lint_no_such_module:drive",
                      description="entry point that does not import")
    )
'''


def plugin_env(path: Path, plugin: str) -> dict:
    """The subprocess environment with ``plugin`` importable from ``path``."""
    env = dict(SUBPROCESS_ENV)
    env["PYTHONPATH"] = str(path) + os.pathsep + env["PYTHONPATH"]
    env["REPRO_PLUGINS"] = plugin
    return env


class TestPluginsMode:
    def test_builtin_registry_lints_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--plugins"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_unseeded_plugin_driver_is_caught(self, tmp_path):
        (tmp_path / "lint_rogue_plugin.py").write_text(ROGUE_PLUGIN)
        env = plugin_env(tmp_path, "lint_rogue_plugin:register")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--plugins", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        data = json.loads(result.stdout)
        rogue = [f for f in data["findings"] if f["rule"] == "D101"]
        assert rogue, data["findings"]
        assert rogue[0]["path"].endswith("lint_rogue_plugin.py")
        # The checked-file listing names which algorithms each file backs.
        assert any("rogue" in entry for entry in data["files_checked"])

    def test_plugin_under_a_linted_path_reports_once(self, tmp_path):
        (tmp_path / "lint_rogue_plugin.py").write_text(ROGUE_PLUGIN)
        env = plugin_env(tmp_path, "lint_rogue_plugin:register")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(tmp_path), "--plugins", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        findings = json.loads(result.stdout)["findings"]
        assert [f["rule"] for f in findings] == ["D101"]

    def test_unresolvable_spec_is_an_x200_finding(self, tmp_path):
        (tmp_path / "lint_broken_plugin.py").write_text(BROKEN_PLUGIN)
        env = plugin_env(tmp_path, "lint_broken_plugin:register")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--plugins", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        findings = json.loads(result.stdout)["findings"]
        assert [(f["rule"], f["path"]) for f in findings] == [
            (RESOLVE_RULE_ID, "<registry:broken>")
        ]
        assert "lint_no_such_module:drive" in findings[0]["message"]

    def test_builtin_registry_sarif_is_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--plugins", "--output", "sarif"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        doc = json.loads(result.stdout)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# cross-pins against the live system
# ----------------------------------------------------------------------
class TestCrossPins:
    def test_row_fields_snapshot_matches_experiments(self):
        from repro.sim.experiments import ROW_FIELDS

        assert ROW_FIELDS_SNAPSHOT == ROW_FIELDS

    def test_d103_summary_states_when_set_order_varies(self):
        # D103 says set order depends on insertion history, and on the
        # per-process hash seed for str/bytes elements or containers of
        # them; pin each half of that against the interpreter.
        summary = next(rule.summary for rule in RULES if rule.id == "D103")
        assert "insertion history" in summary
        assert "str/bytes" in summary
        first, second = {1}, {9}
        first.add(9)
        second.add(1)
        assert first == second and list(first) != list(second)
        probe = (
            "print(list({(3, 1), (0, 2), (5, 7)}), "
            "list({'alpha', 'beta', 'gamma', 'delta'}), "
            "list({('alpha', 1), ('beta', 2), ('gamma', 3)}))"
        )
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(SUBPROCESS_ENV, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                env=env, check=True,
            )
            runs.append(result.stdout.split("] "))
        ints, strs, str_tuples = zip(*runs)
        assert ints[0] == ints[1]
        assert strs[0] != strs[1]
        assert str_tuples[0] != str_tuples[1]

    def test_rule_ids_are_unique_and_well_formed(self):
        assert len(RULE_IDS) == len(set(RULE_IDS))
        for rule in RULES:
            assert rule.id[0] in ("D", "P")
            assert rule.id[1:].isdigit()
            assert rule.name and rule.summary
            assert rule.severity in ("error", "warning")
