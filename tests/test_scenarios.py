"""Tests for the declarative scenario harness (``repro.scenarios``).

Three layers are covered:

* **spec/loader** — dataclass validation, dict/TOML loading with strict
  unknown-key checking, ``--set`` override parsing and deep-merge, and a
  bounded fuzz of every declared key (a hostile value loads or raises
  :class:`ConfigurationError`, nothing else);
* **equivalence** — fixed-seed results of every scenario kind must match
  ``tests/data/scenario_golden.json`` bit for bit.  The file pins the
  numbers the cluster experiments produced before they ran through
  :class:`ScenarioRunner`, and dict-config runs are checked against it;
* **reporting** — the text-table helpers (including the ``ratio(0, 0)`` and
  ``series_table`` ordering fixes) and the self-contained HTML report, with
  golden files for the BENCH JSON and REPORT HTML artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.reporting import (
    format_table,
    ratio,
    render_chart,
    render_report,
    series_table,
    summarize_sweep,
)
from repro.errors import ConfigurationError, SimulationError
from repro.scenarios import (
    FleetSpec,
    HotspotSpec,
    ScenarioRunner,
    ScenarioSpec,
    SweepSpec,
    TilingSpec,
    WorkloadSpec,
    apply_overrides,
    load_scenario,
    parse_override,
    spec_from_dict,
)
from repro.scenarios import loader as scenario_loader
from repro.scenarios.spec import SCENARIO_KINDS
from repro.simulation.multiquery import CoLocatedBlockExecutor
from repro.simulation.multisource import MultiSourceExecutor
from repro.simulation.sharding import ShardedClusterExecutor

DATA_DIR = Path(__file__).resolve().parent / "data"
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

requires_tomllib = pytest.mark.skipif(
    scenario_loader.tomllib is None, reason="tomllib needs Python >= 3.11"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads((DATA_DIR / "scenario_golden.json").read_text())


# ---------------------------------------------------------------------------
# Spec validation.
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_minimal_spec_defaults(self):
        spec = ScenarioSpec(name="s", kind="scaling")
        assert spec.mode == "simulated"
        assert spec.record_mode == "arena"
        assert spec.fleet.strategy == "Jarvis"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"kind": "quantum"},
            {"mode": "oracle"},
            {"record_mode": "columnar"},
            {"epochs": 0},
            {"warmup_epochs": 25},  # == default epochs: warmup must be inside
            {"max_sources_limit": -1},
            {"min_speedup": float("nan")},
        ],
    )
    def test_bad_top_level_knobs(self, kwargs):
        base = {"name": "s", "kind": "scaling"}
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(**base)

    def test_dynamic_replacement_requires_hotspot(self):
        with pytest.raises(ConfigurationError, match="hotspot"):
            ScenarioSpec(name="s", kind="dynamic_replacement")

    @pytest.mark.parametrize(
        "sources, blocks, shift_epoch, match",
        [
            (8, 1, 4, ">= 2 blocks"),
            (2, 4, 4, "source per block"),
            (8, 2, 16, "inside the run"),
        ],
        ids=["one_block", "fewer_sources_than_blocks", "shift_after_the_run"],
    )
    def test_dynamic_replacement_shape_rejected_at_load(
        self, sources, blocks, shift_epoch, match
    ):
        data = {
            "scenario": {"name": "x", "kind": "dynamic_replacement"},
            "run": {"epochs": 16},
            "workload": {"hotspot": {"shift_epoch": shift_epoch}},
            "fleet": {"sources": sources},
            "tiling": {"blocks": blocks},
        }
        with pytest.raises(ConfigurationError, match=match):
            spec_from_dict(data)

    def test_hotspot_factor_must_amplify(self):
        with pytest.raises(ConfigurationError):
            HotspotSpec(shift_epoch=4, factor=0.5)
        with pytest.raises(ConfigurationError):
            HotspotSpec(shift_epoch=-1)

    def test_sweep_axes_positive(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(sources=(1, 0))
        with pytest.raises(ConfigurationError):
            SweepSpec(queries=(0,))

    def test_static_placement_needs_map(self):
        with pytest.raises(ConfigurationError, match="placement_map"):
            TilingSpec(placement="static")
        tiling = TilingSpec(placement="static", placement_map={"src-0": 1})
        assert tiling.placement_arg() == {"src-0": 1}

    def test_unknown_placement_rejected_at_load(self):
        with pytest.raises(ConfigurationError, match="zigzag"):
            spec_from_dict(
                {
                    "scenario": {"name": "x", "kind": "sharded"},
                    "tiling": {"placement": "zigzag"},
                }
            )
        # The documented names load; undocumented spellings fail at load.
        for name in ("round_robin", "byte_rate_balanced"):
            assert TilingSpec(placement=name).placement == name
        for name in ("rr", "byte-rate-balanced"):
            with pytest.raises(ConfigurationError, match=name):
                spec_from_dict(
                    {
                        "scenario": {"name": "x", "kind": "sharded"},
                        "tiling": {"placement": name},
                    }
                )

    def test_negative_placement_map_block_rejected_at_load(self):
        with pytest.raises(ConfigurationError, match="source-1"):
            spec_from_dict(
                {
                    "scenario": {"name": "x", "kind": "sharded"},
                    "tiling": {
                        "placement": "static",
                        "placement_map": {"source-0": 0, "source-1": -1},
                    },
                }
            )

    def test_budget_schedule_validation(self):
        fleet = FleetSpec(budget=((0, 0.3), (10, 0.6)))
        assert fleet.budget_schedule().budget_at(12) == 0.6
        with pytest.raises(ConfigurationError):
            FleetSpec(budget=())
        with pytest.raises(ConfigurationError):
            FleetSpec(budget=((0, float("nan")),))
        with pytest.raises(ConfigurationError, match="epoch 0"):
            FleetSpec(budget=((3, 0.5),))

    def test_resolved_warmup_defaults(self):
        steady = ScenarioSpec(name="s", kind="scaling", epochs=25)
        assert steady.resolved_warmup() == 8  # max(2, 25 // 3)
        timing = ScenarioSpec(name="s", kind="record_modes", epochs=12)
        assert timing.resolved_warmup() == 3  # max(1, 12 // 4)
        dynamic = ScenarioSpec(
            name="s",
            kind="dynamic_replacement",
            workload=WorkloadSpec(hotspot=HotspotSpec(shift_epoch=7)),
            tiling=TilingSpec(blocks=2),
            epochs=30,
        )
        assert dynamic.resolved_warmup() == 7  # the hotspot's shift epoch
        explicit = ScenarioSpec(name="s", kind="scaling", epochs=25, warmup_epochs=1)
        assert explicit.resolved_warmup() == 1

    def test_with_overrides_revalidates(self):
        spec = ScenarioSpec(name="s", kind="scaling")
        assert spec.with_overrides(epochs=9).epochs == 9
        with pytest.raises(ConfigurationError):
            spec.with_overrides(epochs=0)


# ---------------------------------------------------------------------------
# Dict/TOML loading.
# ---------------------------------------------------------------------------


class TestLoader:
    def test_minimal_dict(self):
        spec = spec_from_dict({"scenario": {"name": "x", "kind": "scaling"}})
        assert spec.name == "x"
        assert spec.workload.query == "s2s_probe"

    def test_scenario_must_declare_name_and_kind(self):
        with pytest.raises(ConfigurationError, match="'name' and 'kind'"):
            spec_from_dict({"scenario": {"name": "x"}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            spec_from_dict(
                {"scenario": {"name": "x", "kind": "scaling"}, "cluster": {}}
            )

    def test_unknown_key_reports_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"run\.'epoch'"):
            spec_from_dict(
                {"scenario": {"name": "x", "kind": "scaling"}, "run": {"epoch": 9}}
            )

    @pytest.mark.parametrize(
        "run",
        [
            {"record_mode": "batched"},
            {"record_modes": ["object", "arena"]},
            {"arena_min_speedup": 3.0},
        ],
    )
    def test_retired_record_mode_keys_rejected(self, run):
        with pytest.raises(ConfigurationError):
            spec_from_dict(
                {"scenario": {"name": "x", "kind": "record_modes"}, "run": run}
            )

    def test_hotspot_requires_shift_epoch(self):
        with pytest.raises(ConfigurationError, match="shift_epoch"):
            spec_from_dict(
                {
                    "scenario": {"name": "x", "kind": "dynamic_replacement"},
                    "workload": {"hotspot": {"factor": 2.0}},
                }
            )

    def test_numeric_coercion_accepts_strings(self):
        spec = spec_from_dict(
            {
                "scenario": {"name": "x", "kind": "scaling"},
                "run": {"epochs": "8"},
                "workload": {"rate_scale": "0.5"},
                "fleet": {"sources": 4.0},
            }
        )
        assert spec.epochs == 8
        assert spec.workload.rate_scale == 0.5
        assert spec.fleet.sources == 4

    @pytest.mark.parametrize(
        "run",
        [
            {"epochs": 8.5},
            {"epochs": True},
            {"epochs": "eight"},
            {"epochs": None},
            {"epochs": float("nan")},
            {"epochs": float("inf")},
            {"epochs": "nan"},
            {"epochs": "inf"},
        ],
    )
    def test_non_integer_epochs_rejected(self, run):
        data = {"scenario": {"name": "x", "kind": "scaling"}, "run": run}
        with pytest.raises(ConfigurationError):
            spec_from_dict(data)

    def test_non_finite_integers_rejected_everywhere(self):
        base = {"scenario": {"name": "x", "kind": "sharded"}}
        for override in (
            "run.epochs=inf",
            "fleet.sources=nan",
            "sweep.blocks=1,inf",
        ):
            with pytest.raises(ConfigurationError):
                load_scenario(base, overrides=[override])
        with pytest.raises(ConfigurationError):
            spec_from_dict({**base, "fleet": {"budget": [[float("inf"), 0.5]]}})
        with pytest.raises(ConfigurationError):
            spec_from_dict(
                {
                    **base,
                    "tiling": {
                        "placement": "static",
                        "placement_map": {"source-0": float("nan")},
                    },
                }
            )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scenario", "enabled", False),
            ("sweep", "budgets", [0.1, 0.9]),
            ("fleet", "sp_compute_share", 1.5),
        ],
        ids=["scenario.enabled", "sweep.budgets", "fleet.sp_compute_share"],
    )
    def test_retired_keys_rejected(self, section, key, value):
        data = {"scenario": {"name": "x", "kind": "scaling"}}
        data.setdefault(section, {})[key] = value
        with pytest.raises(ConfigurationError, match="unknown key"):
            spec_from_dict(data)

    def test_scalar_axes_promote_to_tuples(self):
        spec = spec_from_dict(
            {
                "scenario": {"name": "x", "kind": "scaling"},
                "sweep": {"sources": 4, "strategies": "Jarvis"},
            }
        )
        assert spec.sweep.sources == (4,)
        assert spec.sweep.strategies == ("Jarvis",)

    def test_budget_schedule_from_pairs(self):
        spec = spec_from_dict(
            {
                "scenario": {"name": "x", "kind": "scaling"},
                "fleet": {"budget": [[0, 0.3], [10, 0.6]]},
            }
        )
        assert spec.fleet.budget == ((0, 0.3), (10, 0.6))
        with pytest.raises(ConfigurationError, match="pairs"):
            spec_from_dict(
                {
                    "scenario": {"name": "x", "kind": "scaling"},
                    "fleet": {"budget": [[0, 0.3, 1.0]]},
                }
            )

    @requires_tomllib
    def test_toml_round_trip(self, tmp_path):
        config = tmp_path / "s.toml"
        config.write_text(
            "[scenario]\n"
            'name = "toml_case"\n'
            'kind = "sharded"\n'
            "[fleet]\n"
            "sources = 4\n"
            "[sweep]\n"
            "blocks = [1, 2]\n"
        )
        spec = load_scenario(config)
        assert spec.name == "toml_case"
        assert spec.sweep.blocks == (1, 2)

    @requires_tomllib
    def test_invalid_toml_reports_path(self, tmp_path):
        config = tmp_path / "broken.toml"
        config.write_text("[scenario\n")
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            load_scenario(config)

    def test_missing_file_is_configuration_error(self):
        if scenario_loader.tomllib is None:
            with pytest.raises(ConfigurationError, match="tomllib"):
                load_scenario("no/such/scenario.toml")
        else:
            with pytest.raises(ConfigurationError, match="cannot read"):
                load_scenario("no/such/scenario.toml")


@requires_tomllib
@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.toml")), ids=lambda path: path.stem
)
def test_committed_config_loads(path):
    """Every committed config loads, and names the artifacts after its file."""
    assert load_scenario(path).name == path.stem


class TestOverrides:
    def test_parse_scalar_coercion(self):
        assert parse_override("run.epochs=8") == (("run", "epochs"), 8)
        assert parse_override("run.min_speedup=5.0") == (("run", "min_speedup"), 5.0)
        assert parse_override("scenario.name=false") == (
            ("scenario", "name"),
            "false",
        )
        assert parse_override("workload.query=s2s_probe") == (
            ("workload", "query"),
            "s2s_probe",
        )

    def test_parse_lists_and_deep_paths(self):
        assert parse_override("sweep.sources=1,2,4") == (
            ("sweep", "sources"),
            [1, 2, 4],
        )
        assert parse_override("workload.hotspot.shift_epoch=4") == (
            ("workload", "hotspot", "shift_epoch"),
            4,
        )

    @pytest.mark.parametrize("entry", ["epochs8", "epochs=8", ".x=1", "a..b=1"])
    def test_malformed_overrides_rejected(self, entry):
        with pytest.raises(ConfigurationError):
            parse_override(entry)

    def test_apply_overrides_is_a_deep_copy(self):
        data = {"scenario": {"name": "x", "kind": "scaling"}, "run": {"epochs": 3}}
        merged = apply_overrides(data, ["run.epochs=9", "fleet.sources=2"])
        assert merged["run"]["epochs"] == 9
        assert merged["fleet"] == {"sources": 2}
        assert data["run"]["epochs"] == 3  # input untouched
        assert "fleet" not in data

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ConfigurationError, match="non-table"):
            apply_overrides({"run": {"epochs": 3}}, ["run.epochs.x=1"])

    def test_overrides_validate_like_file_values(self):
        data = {"scenario": {"name": "x", "kind": "scaling"}}
        assert load_scenario(data, overrides=["run.epochs=9"]).epochs == 9
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_scenario(data, overrides=["run.bogus=1"])


def _declared_keys(section, keys):
    for key, hint in keys.items():
        yield section, key
        for nested in get_args(hint):
            if is_dataclass(nested):
                yield from _declared_keys(section + (key,), get_type_hints(nested))


#: Every key the loader declares, as (section, key) dotted-path parts.
DECLARED_KEYS = [
    path
    for section, keys in scenario_loader.SECTION_FIELDS.items()
    for path in _declared_keys((section,), keys)
]

#: Values a config file or an override list can smuggle into any key.
HOSTILE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "8", "-1", "0", "static"]),
    st.lists(
        st.one_of(st.integers(-3, 70), st.floats(), st.text(max_size=3)),
        max_size=3,
    ),
    st.lists(st.lists(st.one_of(st.integers(-2, 9), st.floats()), max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.floats()), max_size=2),
)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        path=st.sampled_from(DECLARED_KEYS),
        value=HOSTILE_VALUES,
        kind=st.sampled_from(SCENARIO_KINDS),
    )
    def test_hostile_value_loads_or_raises_configuration_error(self, path, value, kind):
        data = {
            "scenario": {"name": "fuzz", "kind": kind},
            "workload": {"hotspot": {"shift_epoch": 4}},
            "fleet": {"sources": 4},
            "tiling": {"blocks": 2, "workers": 2},
        }
        section, key = path
        table = data
        for part in section:
            table = table.setdefault(part, {})
        table[key] = value
        try:
            spec = spec_from_dict(data)
        except ConfigurationError:
            return
        assert isinstance(spec, ScenarioSpec)


# ---------------------------------------------------------------------------
# Fixed-seed equivalence with the golden numbers.
# ---------------------------------------------------------------------------


def _tiny_comparison_dict():
    return {
        "scenario": {"name": "tiny_comparison", "kind": "scaling", "mode": "comparison"},
        "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": "arena"},
        "workload": {"records_per_epoch": 120},
        "fleet": {"budget": 0.55},
        "sweep": {"sources": [1, 2], "strategies": ["Jarvis"]},
    }


@pytest.fixture(scope="module")
def tiny_comparison_result():
    return ScenarioRunner().run(load_scenario(_tiny_comparison_dict()))


class TestGoldenEquivalence:
    """Every scenario kind reproduces the pre-refactor numbers exactly."""

    def test_scaling_comparison_via_config(self, golden, tiny_comparison_result):
        assert tiny_comparison_result.raw == golden["scaling_comparison"]

    def test_scaling_analytic_sweep(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "scaling", "mode": "analytic"},
                "run": {"epochs": 8, "warmup_epochs": 2, "max_sources_limit": 0},
                "workload": {"records_per_epoch": 120},
                "fleet": {"budget": 0.55},
                "sweep": {"sources": [1, 4], "strategies": ["Jarvis", "Best-OP"]},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        for strategy, entries in golden["scaling_sweep"].items():
            for want, got in zip(entries, raw["sweep"][strategy]):
                for key, value in want.items():
                    assert getattr(got, key) == value, (strategy, key)

    def test_max_supported_sources(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "scaling", "mode": "analytic"},
                "run": {"epochs": 8, "warmup_epochs": 2, "max_sources_limit": 64},
                "workload": {"records_per_epoch": 120},
                "fleet": {"budget": 0.55},
                "sweep": {"strategies": ["Jarvis", "Best-OP"]},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        assert raw["supported"] == golden["max_supported_sources"]

    def test_simulated_scaling_sweep(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "scaling", "mode": "simulated"},
                "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": "arena"},
                "workload": {"records_per_epoch": 120},
                "fleet": {"budget": 0.55},
                "sweep": {"sources": [1, 2], "strategies": ["Best-OP"]},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        for want, got in zip(golden["simulated_scaling_sweep"]["Best-OP"], raw["Best-OP"]):
            summary = got.summary()
            for key, value in want.items():
                assert summary[key] == value, key

    def test_sharded_scaling_sweep(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "sharded"},
                "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": "arena"},
                "workload": {"records_per_epoch": 120},
                "fleet": {"sources": 4, "budget": 0.55},
                "sweep": {"blocks": [1, 2], "strategies": ["Jarvis"]},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        for want, got in zip(golden["sharded_scaling_sweep"]["Jarvis"], raw["Jarvis"]):
            summary = got.summary()
            for key, value in want.items():
                assert summary[key] == value, key

    def test_dynamic_replacement(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "dynamic_replacement"},
                "run": {"epochs": 16, "record_mode": "arena"},
                "workload": {
                    "records_per_epoch": 150,
                    "hotspot": {"shift_epoch": 4},
                },
                "fleet": {"sources": 8, "budget": 1.0, "strategy": "All-SP"},
                "tiling": {"blocks": 2},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        want = golden["dynamic_replacement_sweep"]
        assert raw["static_mbps"] == want["static_mbps"]
        assert raw["dynamic_mbps"] == want["dynamic_mbps"]
        assert raw["oracle_mbps"] == want["oracle_mbps"]
        assert raw["gap_recovered"] == want["gap_recovered"]
        assert len(raw["migrations"]) == want["num_migrations"]
        assert raw["scenario"]["ingress_mbps"] == want["scenario_ingress_mbps"]

    def test_colocated_analytic(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "colocated", "mode": "analytic"},
                "run": {"epochs": 8, "warmup_epochs": 2},
                "workload": {"records_per_epoch": 100},
                "fleet": {"cores": 1},
                "sweep": {"queries": [1, 2]},
            }
        )
        assert ScenarioRunner().run(spec).raw == golden["multi_query_sweep"]

    def test_colocated_comparison(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "colocated", "mode": "comparison"},
                "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": "arena"},
                "workload": {"records_per_epoch": 100},
                "fleet": {"cores": 1},
                "sweep": {"queries": [1, 2]},
            }
        )
        assert ScenarioRunner().run(spec).raw == golden["multi_query_colocation_sweep"]

    def test_record_modes(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "record_modes"},
                "run": {"epochs": 8, "warmup_epochs": 2},
                "workload": {"records_per_epoch": 200},
                "fleet": {"sources": 4, "budget": 0.55},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        for strategy, want in golden["record_modes"].items():
            got = raw[strategy]
            for mode in ("object", "arena"):
                assert got[f"{mode}_goodput_mbps"] == want[mode]["goodput_mbps"]
                assert (
                    got[f"{mode}_median_latency_s"] == want[mode]["median_latency_s"]
                )
            assert got["offered_mbps"] == want["object"]["offered_mbps"]


#: One small spec per simulated kind and mode, each a few epochs long.
CONSERVATION_CASES = {
    "scaling_simulated": {
        "scenario": {"kind": "scaling", "mode": "simulated"},
        "sweep": {"sources": [2]},
    },
    "scaling_comparison": {
        "scenario": {"kind": "scaling", "mode": "comparison"},
        "sweep": {"sources": [2]},
    },
    "sharded": {"scenario": {"kind": "sharded"}, "sweep": {"blocks": [2]}},
    "dynamic_replacement": {
        "scenario": {"kind": "dynamic_replacement"},
        "workload": {"records_per_epoch": 60, "hotspot": {"shift_epoch": 2}},
        "tiling": {"blocks": 2},
    },
    "colocated_simulated": {
        "scenario": {"kind": "colocated", "mode": "simulated"},
        "sweep": {"queries": [2]},
    },
    "record_modes": {"scenario": {"kind": "record_modes"}},
    "parallel": {"scenario": {"kind": "parallel"}, "tiling": {"blocks": 2, "workers": 2}},
}


class TestConservationChecked:
    """Every simulated kind refuses a run that lost or duplicated a record."""

    @pytest.mark.parametrize("case", sorted(CONSERVATION_CASES))
    def test_violation_raises_simulation_error(self, case, monkeypatch):
        def violated(self):
            return ["source-0: 1 record lost"]

        for executor in (
            MultiSourceExecutor,
            ShardedClusterExecutor,
            CoLocatedBlockExecutor,
        ):
            monkeypatch.setattr(executor, "verify_record_conservation", violated)
        data = {
            "run": {"epochs": 4, "warmup_epochs": 1},
            "workload": {"records_per_epoch": 60},
            "fleet": {"sources": 2},
            "sweep": {"strategies": ["Jarvis"]},
        }
        for section, table in CONSERVATION_CASES[case].items():
            data[section] = {**data.get(section, {}), **table}
        data["scenario"] = {"name": case, **data["scenario"]}
        with pytest.raises(SimulationError, match="conservation"):
            ScenarioRunner().run(spec_from_dict(data))


# ---------------------------------------------------------------------------
# Text-table reporting helpers.
# ---------------------------------------------------------------------------


class TestRatio:
    def test_zero_over_zero_is_nan_not_inf(self):
        assert math.isnan(ratio(0.0, 0.0))
        assert math.isnan(ratio(float("nan"), 0.0))

    def test_signed_infinity_over_zero(self):
        assert ratio(2.0, 0.0) == float("inf")
        assert ratio(-2.0, 0.0) == float("-inf")

    def test_plain_division(self):
        assert ratio(6.0, 3.0) == 2.0


class TestTables:
    def test_format_table_needs_headers(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError, match="2 cells"):
            format_table(["a", "b", "c"], [[1, 2]])

    def test_format_table_formats_floats(self):
        table = format_table(["x"], [[float("nan")], [1234.5], [0.12345]])
        lines = table.splitlines()
        assert lines[2].strip() == "nan"
        assert lines[3].strip() == "1,234"  # thousands grouping, no decimals
        assert lines[4].strip() == "0.123"

    def test_series_table_sorts_the_shared_axis(self):
        table = series_table({"b": {4: 1.0, 1: 2.0}, "a": {2: 3.0}}, x_label="n")
        first_column = [line.split("|")[0].strip() for line in table.splitlines()[2:]]
        assert first_column == ["1", "2", "4"]
        assert "nan" in table  # missing (series, x) points render as nan

    def test_series_table_keeps_insertion_order_for_mixed_axes(self):
        table = series_table({"s": {1: 1.0, "a": 2.0}})
        first_column = [line.split("|")[0].strip() for line in table.splitlines()[2:]]
        assert first_column == ["1", "a"]

    def test_series_table_needs_a_series(self):
        with pytest.raises(ConfigurationError):
            series_table({})

    def test_summarize_sweep_missing_metric_is_nan(self):
        sweep = {"A": {0.5: {"throughput_mbps": 2.0}}}
        out = summarize_sweep(sweep, metric="latency_s")
        assert math.isnan(out["A"][0.5])


# ---------------------------------------------------------------------------
# Self-contained HTML reports.
# ---------------------------------------------------------------------------


class TestHtmlReport:
    def test_title_and_headings_required(self):
        with pytest.raises(ConfigurationError, match="title"):
            render_report("", [])
        with pytest.raises(ConfigurationError, match="heading"):
            render_report("t", [{"body": "text"}])

    def test_markup_is_escaped(self):
        html = render_report(
            "<script>alert(1)</script>",
            [{"heading": "a & b", "body": "<pre> injection"}],
        )
        assert "<script>" not in html
        assert "&lt;script&gt;alert(1)&lt;/script&gt;" in html
        assert "a &amp; b" in html

    def test_chart_skips_non_finite_points(self):
        html = render_chart({"s": {1: float("nan"), 2: float("inf")}})
        assert html == "<p><em>(no plottable data)</em></p>"

    def test_chart_draws_lines_points_and_legend(self):
        html = render_chart({"jarvis": {1: 1.0, 2: 4.0}}, x_label="n", y_label="mbps")
        assert "<polyline" in html
        assert "<circle" in html
        assert ">jarvis</text>" in html
        assert ">n</text>" in html and ">mbps</text>" in html

    def test_single_point_series_has_no_line(self):
        html = render_chart({"s": {3: 1.5}})
        assert "<polyline" not in html
        assert "<circle" in html

    def test_report_is_self_contained(self, tiny_comparison_result):
        html = tiny_comparison_result.render_report()
        assert html.startswith("<!DOCTYPE html>")
        # No external assets: nothing fetched, nothing executed.  (The SVG
        # xmlns URL is a namespace identifier, not a resource reference.)
        for marker in ("<link", "<script", "src=", "href="):
            assert marker not in html, marker
        assert "Scenario: tiny_comparison" in html
        assert "kind=scaling mode=comparison" in html

    def test_report_html_matches_golden(self, tiny_comparison_result):
        golden_html = (DATA_DIR / "report_golden.html").read_text()
        assert tiny_comparison_result.render_report() == golden_html

    def test_bench_json_matches_golden(self, tiny_comparison_result):
        want = json.loads((DATA_DIR / "bench_golden.json").read_text())
        result = tiny_comparison_result
        payload = {
            "name": result.spec.name,
            "table": result.table,
            **result.payload,
        }
        assert json.loads(json.dumps(payload, sort_keys=True, default=str)) == want

    def test_write_emits_report_file(self, tiny_comparison_result, tmp_path):
        path = tiny_comparison_result.write(tmp_path / "out")
        assert path == tmp_path / "out" / "REPORT_tiny_comparison.html"
        assert path.read_text() == tiny_comparison_result.render_report()


# ---------------------------------------------------------------------------
# CLI entry point.
# ---------------------------------------------------------------------------


@requires_tomllib
class TestCli:
    def _write_config(self, tmp_path):
        config = tmp_path / "cli_case.toml"
        config.write_text(
            "[scenario]\n"
            'name = "cli_case"\n'
            'kind = "scaling"\n'
            'mode = "comparison"\n'
            "[run]\n"
            "epochs = 4\n"
            "warmup_epochs = 1\n"
            "[workload]\n"
            "records_per_epoch = 60\n"
            "[sweep]\n"
            "sources = [1]\n"
            'strategies = ["Jarvis"]\n'
        )
        return config

    def test_cli_writes_bench_and_report(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        out_dir = tmp_path / "out"
        code = main(
            [
                str(self._write_config(tmp_path)),
                "--set",
                "run.epochs=5",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        bench = json.loads((out_dir / "BENCH_cli_case.json").read_text())
        assert bench["config"]["num_epochs"] == 5  # the --set override landed
        html = (out_dir / "REPORT_cli_case.html").read_text()
        assert "Scenario: cli_case" in html
        assert "sources" in capsys.readouterr().out
