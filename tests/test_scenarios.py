"""Scenario subsystem tests: format round-trips, digest identities, the
cluster zoo, reference resolution, serve-spec integration, and the
``repro scenarios`` CLI surface.

The load-bearing property throughout is that a scenario *names* a
configuration without *changing* it — the deep fingerprint-level form
of that claim lives in :mod:`repro.validate.scenario` (exercised via
``repro validate --scenarios`` and its own test below); this file covers
the format and plumbing edges around it.
"""

import json

import pytest

from repro.cli import main
from repro.machine.registry import CLUSTER_A, CLUSTER_B, get_cluster
from repro.scenarios import (
    FrequencyPlan,
    FrequencySegment,
    Scenario,
    ScenarioError,
    cluster_from_dict,
    cluster_to_dict,
    library_names,
    load_scenario,
    load_zoo_cluster,
    scenario_names,
    zoo_names,
    zoo_provenance,
)


# --- Scenario format ---------------------------------------------------------


def test_scenario_round_trips_through_json():
    sc = Scenario(
        name="roundtrip",
        description="a kitchen-sink scenario",
        cluster="zoo/broadwell",
        suite="small",
        benchmarks=("lbm", "weather"),
        frequency=FrequencyPlan.fixed(2.0e9),
        sweep={"nodes": [1, 2, 4]},
    )
    again = Scenario.from_json(sc.to_json())
    assert again == sc
    assert again.digest == sc.digest


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown"):
        Scenario.from_dict({"name": "x", "cluster": "A", "turbo": True})


def test_scenario_requires_cluster_xor_spec():
    with pytest.raises(ScenarioError):
        Scenario(name="none")
    with pytest.raises(ScenarioError):
        Scenario(
            name="both",
            cluster="A",
            cluster_spec=cluster_to_dict(CLUSTER_A),
        )


def test_sweep_axes_nodes_xor_counts():
    with pytest.raises(ScenarioError):
        Scenario(name="x", cluster="A", sweep={"nodes": [1], "counts": [4]})


def test_frequency_shorthand_bare_number_is_fixed_ghz():
    sc = Scenario.from_dict({"name": "x", "cluster": "A", "frequency": 2.0})
    assert sc.frequency.is_fixed
    assert sc.frequency.frequency_hz == pytest.approx(2.0e9)


def test_validate_rejects_out_of_range_frequency():
    sc = Scenario(name="x", cluster="A", frequency=FrequencyPlan.fixed(9.9e9))
    with pytest.raises(ScenarioError):
        sc.validate()


def test_validate_rejects_unknown_benchmark():
    sc = Scenario(name="x", cluster="A", benchmarks=("not-a-code",))
    with pytest.raises(ScenarioError):
        sc.validate()


# --- digest identities -------------------------------------------------------


def test_digest_covers_parameters_not_labels():
    """Identical machine parameters digest identically regardless of how
    the scenario spells them (registry name, zoo ref, inline spec) or
    what the scenario/cluster is called."""
    by_registry = Scenario(name="a", cluster="A")
    by_zoo = Scenario(name="b", cluster="zoo/icelake")
    spec = cluster_to_dict(CLUSTER_A)
    inline = Scenario(name="c", cluster_spec=spec)
    spec_renamed = dict(spec, name="SomethingElse")
    renamed = Scenario(name="d", cluster_spec=spec_renamed)
    assert by_registry.digest == by_zoo.digest == inline.digest
    assert renamed.digest == inline.digest


def test_nominal_frequency_plan_does_not_move_the_digest():
    nominal = CLUSTER_A.node.cpu.nominal_clock_hz
    bare = Scenario(name="x", cluster="A")
    pinned = Scenario(
        name="x", cluster="A", frequency=FrequencyPlan.fixed(nominal)
    )
    clocked = Scenario(
        name="x", cluster="A", frequency=FrequencyPlan.fixed(2.0e9)
    )
    assert pinned.digest == bare.digest
    assert clocked.digest != bare.digest


def test_digest_sensitive_to_any_machine_parameter():
    spec = cluster_to_dict(CLUSTER_A)
    spec["network"]["latency_s"] *= 2
    assert (
        Scenario(name="x", cluster_spec=spec).digest
        != Scenario(name="x", cluster="A").digest
    )


# --- frequency plans ---------------------------------------------------------


def test_fixed_plan_properties():
    plan = FrequencyPlan.fixed(2.2e9)
    assert plan.is_fixed
    assert plan.frequency_hz == 2.2e9


def test_segmented_plan_has_no_single_frequency():
    plan = FrequencyPlan(
        (FrequencySegment(2.0e9, iterations=2), FrequencySegment(2.4e9))
    )
    assert not plan.is_fixed
    with pytest.raises(ScenarioError):
        plan.frequency_hz


def test_open_segment_only_legal_last():
    with pytest.raises(ScenarioError):
        FrequencyPlan(
            (FrequencySegment(2.0e9), FrequencySegment(2.4e9, iterations=2))
        )


def test_zero_iteration_segments_drop_out_of_active():
    plan = FrequencyPlan(
        (
            FrequencySegment(3.0e9, iterations=0),
            FrequencySegment(2.0e9, iterations=2),
            FrequencySegment(2.4e9),
        )
    )
    assert [s.frequency_hz for s in plan.active_segments] == [2.0e9, 2.4e9]


# --- the zoo -----------------------------------------------------------------


def test_zoo_has_all_six_machines():
    assert set(zoo_names()) == {
        "broadwell",
        "cascadelake",
        "icelake",
        "nextgen",
        "raspberrypi",
        "sapphirerapids",
    }


def test_zoo_paper_machines_equal_registry():
    assert load_zoo_cluster("icelake") == CLUSTER_A
    assert load_zoo_cluster("sapphirerapids") == CLUSTER_B


def test_zoo_files_round_trip_exactly():
    for name in zoo_names():
        cluster = load_zoo_cluster(name)
        assert cluster_from_dict(cluster_to_dict(cluster)) == cluster
        assert zoo_provenance(name)  # every machine cites its source


def test_registry_resolves_zoo_refs():
    assert get_cluster("zoo/cascadelake").name == "Cascadelake"
    with pytest.raises(KeyError):
        get_cluster("zoo/not-a-machine")


# --- reference resolution ----------------------------------------------------


def test_load_scenario_zoo_ref_synthesizes_a_scenario():
    sc = load_scenario("zoo/broadwell")
    assert sc.cluster == "zoo/broadwell"
    assert not sc.validate()


def test_load_scenario_library_by_name():
    sc = load_scenario("dvfs_lbm_clockdown")
    assert sc.benchmarks == ("lbm",)
    assert sc.frequency.frequency_hz == pytest.approx(2.0e9)


def test_load_scenario_from_file_path(tmp_path):
    path = tmp_path / "mine.json"
    Scenario(name="mine", cluster="B", suite="small").save(path)
    sc = load_scenario(str(path))
    assert sc.name == "mine" and sc.cluster == "B"


def test_load_scenario_unknown_ref_lists_names():
    with pytest.raises(ScenarioError) as err:
        load_scenario("nope")
    assert "zoo/icelake" in str(err.value)
    assert "dvfs_lbm_clockdown" in str(err.value)


def test_scenario_names_lists_zoo_and_library():
    names = scenario_names()
    assert "icelake" in names["zoo"]
    assert set(library_names()) == set(names["library"])


def test_library_scenarios_all_validate():
    for name in library_names():
        assert load_scenario(name).validate() is None


# --- serve-spec integration --------------------------------------------------


def test_serve_spec_accepts_scenario_ref():
    from repro.serve.spec import ServeSpec

    spec = ServeSpec.from_request(
        {"benchmark": "lbm", "scenario": "zoo/cascadelake"}
    )
    spec.validate()
    _, cluster, _ = spec.resolve()
    assert cluster.name == "Cascadelake"
    # zoo machines have no surrogate corpus — DES only, no prediction
    assert spec.prediction_spec() is None


def test_serve_key_names_the_machine_not_the_request_form():
    from repro.serve.spec import ServeSpec

    def key(doc):
        return ServeSpec.from_request({"benchmark": "lbm", **doc}).key

    assert key({"scenario": "zoo/icelake"}) == key({"cluster": "A"})
    clocked = {"name": "slow", "cluster": "A", "frequency": 1.6}
    assert key({"scenario": clocked}) != key({"cluster": "A"})


def test_calibrated_names_the_machine_not_the_label():
    from dataclasses import replace

    from repro.machine import calibrated
    from repro.model.dvfs import apply_frequency

    assert calibrated(get_cluster("zoo/icelake")) == "ClusterA"
    assert calibrated(replace(CLUSTER_B, max_nodes=64)) == "ClusterB"
    assert calibrated(apply_frequency(CLUSTER_A, 1.6e9)) is None
    assert calibrated(get_cluster("zoo/cascadelake")) is None


def test_serve_spec_rejects_cluster_plus_scenario():
    from repro.serve.spec import ServeSpec, SpecError

    with pytest.raises(SpecError):
        ServeSpec.from_request(
            {"benchmark": "lbm", "cluster": "A", "scenario": "zoo/icelake"}
        )


def test_serve_spec_rejects_segmented_plan():
    from repro.serve.spec import ServeSpec, SpecError

    with pytest.raises(SpecError, match="segmented"):
        ServeSpec.from_request(
            {
                "benchmark": "lbm",
                "scenario": {
                    "name": "seg",
                    "cluster": "A",
                    "frequency": {
                        "segments": [
                            {"frequency_ghz": 2.0, "iterations": 2},
                            {"frequency_ghz": 2.4},
                        ]
                    },
                },
            }
        )


def test_serve_spec_scenario_round_trips_to_request():
    from repro.serve.spec import ServeSpec

    spec = ServeSpec.from_request(
        {"benchmark": "lbm", "scenario": "zoo/raspberrypi", "nnodes": 2}
    )
    again = ServeSpec.from_request(spec.to_request())
    assert again.key == spec.key


# --- CLI surface -------------------------------------------------------------


def test_cli_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    assert "zoo/cascadelake" in out
    assert "dvfs_lbm_clockdown" in out


def test_cli_scenarios_show_emits_json_and_digest(capsys):
    assert main(["scenarios", "show", "zoo/broadwell"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[: out.index("\ndigest")])
    assert doc["cluster"] == "zoo/broadwell"
    assert load_scenario("zoo/broadwell").digest in out


def test_cli_scenarios_validate_all(capsys):
    assert main(["scenarios", "validate"]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_cli_scenarios_unknown_ref_fails(capsys):
    assert main(["scenarios", "show", "zoo/tpu"]) == 2


def test_cli_sweep_with_scenario(capsys):
    assert main(["sweep", "--scenario", "dvfs_lbm_clockdown"]) == 0
    out = capsys.readouterr().out
    assert "lbm" in out
    assert "EDP" in out


def test_cli_explicit_flag_beats_scenario(capsys):
    assert main(
        ["sweep", "--scenario", "dvfs_lbm_clockdown", "--counts", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "4" in out


def test_cli_validate_scenarios(capsys):
    assert main(["validate", "--scenarios"]) == 0
    out = capsys.readouterr().out.lower()
    assert "scenario" in out


# --- validator module --------------------------------------------------------


def test_zoo_validation_green():
    from repro.validate.scenario import zoo_validation

    assert zoo_validation() == []
