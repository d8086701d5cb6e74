"""Self-tests for the simlint static checker (``tools/simlint``).

Fixture files under ``tests/simlint_fixtures/`` mark every expected violation
with a trailing ``# expect: RULE`` comment; the tests assert that simlint
reports exactly those (line, rule) pairs — no more, no fewer — and that the
known-good twin of each fixture is completely clean.  A separate test runs
the real CLI over ``src/`` and requires a clean exit, so the repository can
never drift out of compliance with its own rules.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from simlint import ALL_RULES, lint_source, rules_by_id
from simlint.core import Violation, derive_module_path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = Path(__file__).resolve().parent / "simlint_fixtures"
EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>[A-Z0-9, ]+)")

BAD_FIXTURES = sorted(FIXTURE_DIR.glob("*_bad.py"))
GOOD_FIXTURES = sorted(FIXTURE_DIR.glob("*_good.py"))


def expected_pairs(source: str) -> set:
    """(line, rule) pairs declared by ``# expect:`` markers in a fixture."""
    pairs = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = EXPECT_RE.search(line)
        if not match:
            continue
        for rule_id in match.group("rules").split(","):
            pairs.add((lineno, rule_id.strip()))
    return pairs


def reported_pairs(violations) -> set:
    return {(v.line, v.rule_id) for v in violations}


class TestFixtures:
    def test_fixture_suite_is_present(self):
        assert len(BAD_FIXTURES) == 15
        assert len(GOOD_FIXTURES) == 15

    @pytest.mark.parametrize("path", BAD_FIXTURES, ids=lambda p: p.stem)
    def test_bad_fixture_reports_exact_lines(self, path):
        source = path.read_text()
        expected = expected_pairs(source)
        assert expected, f"{path.name} declares no expected violations"
        violations = lint_source(source, display_path=str(path))
        assert reported_pairs(violations) == expected

    @pytest.mark.parametrize("path", GOOD_FIXTURES, ids=lambda p: p.stem)
    def test_good_fixture_is_clean(self, path):
        source = path.read_text()
        assert expected_pairs(source) == set()
        assert lint_source(source, display_path=str(path)) == []

    def test_every_rule_has_a_firing_fixture(self):
        covered = set()
        for path in BAD_FIXTURES:
            covered |= {rule for _, rule in expected_pairs(path.read_text())}
        assert covered == {rule.id for rule in ALL_RULES}


class TestSuppression:
    BAD_LINE = "def f(n):\n    return round(n * 0.5)\n"

    def test_line_suppression(self):
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "def f(n):\n"
            "    return round(n * 0.5)  # simlint: disable=SL004\n"
        )
        assert lint_source(source, "x.py") == []

    def test_file_suppression(self):
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "# simlint: disable-file=SL004\n" + self.BAD_LINE
        )
        assert lint_source(source, "x.py") == []

    def test_suppressing_one_rule_keeps_others(self):
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "# simlint: disable-file=SL007\n"
            "def f(n):\n"
            "    if n < 0:\n"
            "        raise ValueError('n')\n"
            "    return round(n * 0.5)\n"
        )
        assert [v.rule_id for v in lint_source(source, "x.py")] == ["SL004"]

    def test_unsuppressed_fires(self):
        source = "# simlint-fixture-path: repro/x.py\n" + self.BAD_LINE
        violations = lint_source(source, "x.py")
        assert [v.rule_id for v in violations] == ["SL004"]
        assert violations[0].line == 3


class TestUnusedSuppression:
    """SL015: suppressions that absorb nothing are findings themselves."""

    def test_unused_line_suppression_fires(self):
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "def f(a, b):\n"
            "    return a + b  # simlint: disable=SL004\n"
        )
        violations = lint_source(source, "x.py")
        assert [(v.line, v.rule_id) for v in violations] == [(3, "SL015")]

    def test_unused_file_suppression_fires(self):
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "# simlint: disable-file=SL009\n"
            "def f(a, b):\n"
            "    return a + b\n"
        )
        violations = lint_source(source, "x.py")
        assert [(v.line, v.rule_id) for v in violations] == [(2, "SL015")]

    def test_unknown_rule_in_suppression_fires(self):
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "def f(a, b):\n"
            "    return a + b  # simlint: disable=SL999\n"
        )
        violations = lint_source(source, "x.py")
        assert [v.rule_id for v in violations] == ["SL015"]
        assert "SL999" in violations[0].message

    def test_used_suppression_is_silent(self):
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "def f(n):\n"
            "    return round(n * 0.5)  # simlint: disable=SL004\n"
        )
        assert lint_source(source, "x.py") == []

    def test_partial_select_does_not_flag_inactive_rules(self):
        # Under --select SL004 an unused SL007 suppression may still be
        # legitimate on a full run, so SL015 must leave it alone.
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "def f(n):\n"
            "    return n  # simlint: disable=SL007\n"
        )
        rules = rules_by_id(["SL004", "SL015"])
        assert lint_source(source, "x.py", rules=rules) == []

    def test_sl015_suppression_can_be_suppressed(self):
        source = (
            "# simlint-fixture-path: repro/x.py\n"
            "def f(a, b):\n"
            "    return a + b  # simlint: disable=SL004,SL015\n"
        )
        assert lint_source(source, "x.py") == []


class TestUnitLattice:
    """The SL012 unit algebra on which the flow rule rests."""

    def test_suffix_parsing(self):
        from simlint.flow import BYTES, COUNT, MBPS, SECONDS, unit_of_name

        assert unit_of_name("total_bytes") == BYTES
        assert unit_of_name("epoch_s") == SECONDS
        assert unit_of_name("bandwidth_mbps") == MBPS
        assert unit_of_name("n_records") == COUNT
        # The suffix wins over the counting prefix: num_bytes is bytes.
        assert unit_of_name("num_bytes") == BYTES
        assert unit_of_name("link_rate_bytes_per_s").time == -1
        assert unit_of_name("plain_name") is None

    def test_conversion_chain_mbps_to_bytes(self):
        # bandwidth_mbps * 1e6 / 8.0 * epoch_s is exactly bytes.
        source = (
            "# simlint-fixture-path: repro/simulation/metrics.py\n"
            "def cap(bandwidth_mbps, epoch_s):\n"
            "    capacity_bytes = bandwidth_mbps * 1e6 / 8.0 * epoch_s\n"
            "    return capacity_bytes\n"
        )
        assert lint_source(source, "m.py") == []

    def test_unconverted_rate_times_time_flags(self):
        source = (
            "# simlint-fixture-path: repro/simulation/metrics.py\n"
            "def cap(bandwidth_mbps, epoch_s):\n"
            "    capacity_bytes = bandwidth_mbps * epoch_s\n"
            "    return capacity_bytes\n"
        )
        violations = lint_source(source, "m.py")
        assert [(v.line, v.rule_id) for v in violations] == [(3, "SL012")]

    def test_cast_comment_overrides_inference(self):
        source = (
            "# simlint-fixture-path: repro/simulation/metrics.py\n"
            "def f(raw):\n"
            "    total_bytes = raw  # simlint: unit[bytes]\n"
            "    return total_bytes + 1.0\n"
        )
        assert lint_source(source, "m.py") == []

    def test_branch_join_keeps_agreeing_units(self):
        source = (
            "# simlint-fixture-path: repro/simulation/metrics.py\n"
            "def f(flag, sent_bytes, queued_bytes, epoch_s):\n"
            "    x = sent_bytes if flag else queued_bytes\n"
            "    return x + epoch_s\n"
        )
        violations = lint_source(source, "m.py")
        assert [(v.line, v.rule_id) for v in violations] == [(4, "SL012")]


class TestProjectIndex:
    def test_relative_import_resolution(self):
        import ast

        from simlint.project import ProjectIndex

        callee = ast.parse("def plan_transfer(budget_bytes):\n    return budget_bytes\n")
        caller = ast.parse(
            "from .network import plan_transfer\n"
            "def go(n_records):\n"
            "    return plan_transfer(n_records)\n"
        )
        index = ProjectIndex.build(
            {
                "repro/simulation/network.py": callee,
                "repro/simulation/multisource.py": caller,
            }
        )
        resolved = index.resolve_function(
            "repro/simulation/multisource.py", "plan_transfer"
        )
        assert resolved is not None
        assert resolved.module_path == "repro/simulation/network.py"
        assert resolved.param_names == ["budget_bytes"]

    def test_reachability_follows_bare_calls_not_methods(self):
        import ast

        from simlint.project import ProjectIndex

        tree = ast.parse(
            "def _worker_run():\n"
            "    helper()\n"
            "    obj.method()\n"
            "def helper():\n"
            "    pass\n"
            "def unrelated():\n"
            "    pass\n"
        )
        index = ProjectIndex.single_file("repro/simulation/parallel.py", tree)
        reachable = index.reachable_functions(
            "repro/simulation/parallel.py", {"_worker_run"}
        )
        assert reachable == {"_worker_run", "helper"}


class TestEngine:
    def test_module_path_derivation(self):
        assert (
            derive_module_path(Path("src/repro/simulation/engine.py"))
            == "repro/simulation/engine.py"
        )
        assert derive_module_path(Path("/tmp/scratch.py")) == "scratch.py"

    def test_render_format(self):
        violation = Violation("src/x.py", 3, 7, "SL004", "message text")
        assert violation.render() == "src/x.py:3:7 SL004 message text"

    def test_rules_by_id_selects_subset(self):
        rules = rules_by_id(["sl004", "SL007"])
        assert [rule.id for rule in rules] == ["SL004", "SL007"]

    def test_rules_by_id_rejects_unknown(self):
        with pytest.raises(KeyError):
            rules_by_id(["SL999"])

    def test_syntax_error_is_reported_not_raised(self):
        violations = lint_source("def f(:\n", "broken.py")
        assert [v.rule_id for v in violations] == ["SL000"]

    def test_rule_scoping_tests_are_exempt(self):
        # A file outside the repro package (e.g. a test) is never linted.
        assert lint_source("raise ValueError('x')\n", "tests/test_x.py") == []


class TestCli:
    def run_cli(self, *args, cwd=REPO_ROOT):
        env_path = str(REPO_ROOT / "tools")
        return subprocess.run(
            [sys.executable, "-m", "simlint", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        )

    def test_repo_src_is_clean(self):
        result = self.run_cli("src/", "benchmarks/")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_violations_set_exit_code_and_format(self, tmp_path):
        bad = tmp_path / "repro" / "routing.py"
        bad.parent.mkdir()
        bad.write_text("def f(n):\n    return round(n * 0.5)\n")
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert re.match(
            rf"{re.escape(str(bad))}:2:11 SL004 ", result.stdout.splitlines()[0]
        )

    def test_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "repro" / "routing.py"
        bad.parent.mkdir()
        bad.write_text(
            "def f(n):\n"
            "    if n <= 0:\n"
            "        raise ValueError('n')\n"
            "    return round(n * 0.5)\n"
        )
        result = self.run_cli("--select", "SL007", str(bad))
        assert result.returncode == 1
        assert "SL007" in result.stdout
        assert "SL004" not in result.stdout

    def test_list_rules(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for rule in ALL_RULES:
            assert rule.id in result.stdout

    def test_missing_path_is_usage_error(self):
        result = self.run_cli("no/such/dir")
        assert result.returncode == 2

    def test_unknown_select_is_usage_error(self):
        result = self.run_cli("--select", "SL999", "src/")
        assert result.returncode == 2
        assert "SL999" in result.stderr

    def test_list_rules_validates_select_first(self):
        # Regression: --list-rules used to short-circuit before --select
        # validation, so a typo'd rule id exited 0 in CI.
        result = self.run_cli("--list-rules", "--select", "SL999")
        assert result.returncode == 2
        assert "SL999" in result.stderr

    def test_list_rules_respects_select(self):
        result = self.run_cli("--list-rules", "--select", "SL004,SL012")
        assert result.returncode == 0
        listed = [line.split()[0] for line in result.stdout.splitlines()]
        assert listed == ["SL004", "SL012"]

    def test_select_tolerates_trailing_comma(self):
        result = self.run_cli("--list-rules", "--select", "SL004,")
        assert result.returncode == 0
        assert result.stdout.startswith("SL004")

    def test_json_format(self, tmp_path):
        import json

        bad = tmp_path / "repro" / "routing.py"
        bad.parent.mkdir()
        bad.write_text("def f(n):\n    return round(n * 0.5)\n")
        result = self.run_cli("--format", "json", str(bad))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload[0]["rule"] == "SL004"
        assert payload[0]["line"] == 2

    def test_sarif_format_validates(self, tmp_path):
        import json

        bad = tmp_path / "repro" / "routing.py"
        bad.parent.mkdir()
        bad.write_text("def f(n):\n    return round(n * 0.5)\n")
        result = self.run_cli("--format", "sarif", str(bad))
        assert result.returncode == 1
        sarif = json.loads(result.stdout)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {r.id for r in ALL_RULES} <= rule_ids
        result_ids = {res["ruleId"] for res in run["results"]}
        assert result_ids == {"SL004"}
        region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2

    def test_sarif_clean_run_has_empty_results(self, tmp_path):
        import json

        good = tmp_path / "repro" / "clean.py"
        good.parent.mkdir()
        good.write_text("def f(n):\n    return n\n")
        result = self.run_cli("--format", "sarif", str(good))
        assert result.returncode == 0
        assert json.loads(result.stdout)["runs"][0]["results"] == []

    def test_summary_prints_per_rule_counts(self, tmp_path):
        bad = tmp_path / "repro" / "routing.py"
        bad.parent.mkdir()
        bad.write_text("def f(n):\n    return round(n * 0.5)\n")
        result = self.run_cli("--summary", str(bad))
        assert "SL004: 1" in result.stderr

    def test_baseline_ratchet(self, tmp_path):
        bad = tmp_path / "repro" / "routing.py"
        bad.parent.mkdir()
        bad.write_text("def f(n):\n    return round(n * 0.5)\n")
        baseline = tmp_path / "baseline.json"
        # --update records the current counts; the same tree then passes.
        update = self.run_cli("--baseline", str(baseline), "--update", str(bad))
        assert update.returncode == 0
        check = self.run_cli("--baseline", str(baseline), str(bad))
        assert check.returncode == 0, check.stderr
        # A new finding exceeds the allowance and fails.
        bad.write_text(
            "def f(n):\n    return round(n * 0.5)\n"
            "def g(n):\n    return round(n * 0.25)\n"
        )
        regressed = self.run_cli("--baseline", str(baseline), str(bad))
        assert regressed.returncode == 1
        assert "baseline allows 1" in regressed.stderr

    def test_baseline_reports_tightening_opportunity(self, tmp_path):
        good = tmp_path / "repro" / "clean.py"
        good.parent.mkdir()
        good.write_text("def f(n):\n    return n\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"SL004": 3}\n')
        result = self.run_cli("--baseline", str(baseline), str(good))
        assert result.returncode == 0
        assert "tighten" in result.stderr

    def test_repo_baseline_is_current(self):
        result = self.run_cli(
            "src/",
            "benchmarks/",
            "--baseline",
            str(REPO_ROOT / "tools" / "simlint_baseline.json"),
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestHistoricalBugClasses:
    """Reverting a historical fix must re-fire the matching rule."""

    def test_banker_round_in_route_fires_sl004(self):
        source = (REPO_ROOT / "src/repro/core/control_proxy.py").read_text()
        reverted = source.replace(
            "np.floor(load_factors * incoming_records + 0.5)",
            "np.round(load_factors * incoming_records)",
        )
        assert reverted != source
        violations = lint_source(reverted, "src/repro/core/control_proxy.py")
        assert "SL004" in {v.rule_id for v in violations}

    def test_unguarded_network_link_fires_sl008(self):
        source = (REPO_ROOT / "src/repro/simulation/network.py").read_text()
        reverted = source.replace(
            '        require_finite("bandwidth_mbps", bandwidth_mbps, positive=True)\n',
            "",
        )
        assert reverted != source
        violations = lint_source(reverted, "src/repro/simulation/network.py")
        assert "SL008" in {v.rule_id for v in violations}

    def test_bare_valueerror_in_records_fires_sl007(self):
        source = (REPO_ROOT / "src/repro/query/records.py").read_text()
        reverted = source.replace(
            'raise ConfigurationError(\n                f"servers_per_tor must',
            'raise ValueError(\n                f"servers_per_tor must',
        )
        assert reverted != source
        violations = lint_source(reverted, "src/repro/query/records.py")
        assert "SL007" in {v.rule_id for v in violations}

    def test_env_knob_in_benchmark_fires_sl009(self):
        # The record-modes benchmark once read RECMODE_* from the environment
        # directly; knobs now arrive through the scenario config alone.
        source = (REPO_ROOT / "benchmarks/bench_record_modes.py").read_text()
        reverted = source.replace(
            'load_scenario(CONFIG_DIR / "record_modes.toml")',
            'load_scenario(CONFIG_DIR / "record_modes.toml", overrides=['
            'f"run.min_speedup={os.environ.get(\'RECMODE_MIN_SPEEDUP\', 5.0)}"])',
        )
        assert reverted != source
        violations = lint_source(reverted, "benchmarks/bench_record_modes.py")
        assert "SL009" in {v.rule_id for v in violations}

    def test_deepcopy_in_take_partial_state_fires_sl010(self):
        # The window-boundary handoff once deep-copied the whole group dict;
        # reverting the shallow-copy fix must re-fire the hot-path ban.
        source = (REPO_ROOT / "src/repro/query/operators.py").read_text()
        reverted = source.replace(
            "return copy.copy(state) if state else None",
            "return copy.deepcopy(state) if state else None",
        )
        assert reverted != source
        violations = lint_source(reverted, "src/repro/query/operators.py")
        assert "SL010" in {v.rule_id for v in violations}

    def test_count_into_bytes_accumulator_fires_sl012(self):
        # PR 2 bug class: a record *count* folded into a byte accumulator
        # (the partial-bytes double count was exactly this conflation).
        source = (REPO_ROOT / "src/repro/simulation/multisource.py").read_text()
        reverted = source.replace(
            "completed_bytes += plan.completed_bytes",
            "completed_bytes += plan.completed_records",
        )
        assert reverted != source
        violations = lint_source(
            reverted, "src/repro/simulation/multisource.py"
        )
        assert "SL012" in {v.rule_id for v in violations}

    def test_view_without_own_fires_sl013(self):
        # PR 8 bug class: a zero-copy arena view stored into stage state
        # without own(), corrupted when the arena recycled its buffers.
        source = (REPO_ROOT / "src/repro/simulation/engine.py").read_text()
        reverted = source.replace(
            "stage.queue = arena.own(stage.queue)",
            "stage.queue = arena.view(state.arena_id)",
        )
        assert reverted != source
        violations = lint_source(reverted, "src/repro/simulation/engine.py")
        assert "SL013" in {v.rule_id for v in violations}

    def test_reserved_slices_kept_by_a_workload_fire_sl013(self):
        # fill_arena's reserved slices alias the recycled block buffers; a
        # generator keeping them would write into another epoch's rows.
        source = (REPO_ROOT / "src/repro/workloads/pingmesh.py").read_text()
        reverted = source.replace(
            "        self._generate(epoch, out)\n",
            "        self._columns = out\n        self._generate(epoch, out)\n",
        )
        assert reverted != source
        assert lint_source(source, "src/repro/workloads/pingmesh.py") == []
        violations = lint_source(reverted, "src/repro/workloads/pingmesh.py")
        assert "SL013" in {v.rule_id for v in violations}

    def test_worker_side_shm_create_fires_sl014(self):
        # PR 9 contract: only the main process creates (and unlinks) shm
        # segments; a worker re-creating one leaks /dev/shm blocks on crash.
        source = (REPO_ROOT / "src/repro/simulation/parallel.py").read_text()
        reverted = source.replace(
            "shared_memory.SharedMemory(name=name)",
            "shared_memory.SharedMemory(name=name, create=True, size=1024)",
        )
        assert reverted != source
        violations = lint_source(reverted, "src/repro/simulation/parallel.py")
        assert "SL014" in {v.rule_id for v in violations}

    def test_env_read_in_scenarios_fires_sl009(self):
        # repro/scenarios/knobs.py was once the one module allowed to read
        # the environment (deprecated env aliases); the ban has no allowlist.
        source = (
            "import os\n\n\n"
            "def overrides():\n"
            "    return os.environ.get('SCENARIO_SET', '').split()\n"
        )
        for path in ("src/repro/scenarios/knobs.py", "src/repro/scenarios/cli.py"):
            violations = lint_source(source, path)
            assert "SL009" in {v.rule_id for v in violations}, path
