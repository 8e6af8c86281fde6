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


# --- one resolution for every front end --------------------------------------


def test_cli_trace_on_a_zoo_machine_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "trace"
    assert main(["trace", "lbm", "--scenario", "zoo/cascadelake", "-n", "4",
                 "-o", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == [
        "lbm_Cascadelake_4r.chrome.json",
        "lbm_Cascadelake_4r.md",
        "lbm_Cascadelake_4r.svg",
    ]


@pytest.mark.parametrize("tier", ["auto", "analytic", "surrogate", "des"])
def test_cli_predict_refuses_a_scenario_fault_plan(tier, capsys):
    assert main(["predict", "--scenario", "degraded_fabric_day",
                 "--tier", tier]) == 2
    err = capsys.readouterr().err
    assert "fault plan" in err
    assert "repro sweep --scenario degraded_fabric_day" in err


class _Ran(Exception):
    """Raised by a stand-in ``run`` to capture what a front end runs."""


def _capture_run(bench, cluster, nprocs, suite="tiny", faults=None, **_):
    raise _Ran(bench.name, cluster, suite, faults)


def _identity(benchmark, cluster, suite, faults):
    digest = None if faults is None or faults.empty else faults.digest
    return benchmark, cluster.machine_digest, suite, digest


@pytest.mark.parametrize(
    "ref", [f"zoo/{n}" for n in zoo_names()] + library_names()
)
def test_front_ends_resolve_every_scenario_alike(ref, monkeypatch, capsys):
    import repro.cli
    import repro.scenarios.run
    from repro.scenarios import resolve, run_scenario
    from repro.serve.spec import ServeSpec, SpecError

    monkeypatch.setattr(repro.cli, "run", _capture_run)
    monkeypatch.setattr(repro.scenarios.run, "run", _capture_run)
    scenario = load_scenario(ref)
    explicit = None if scenario.benchmarks else "lbm"
    res = resolve(ref, benchmarks=[explicit] if explicit else None)
    argv = ["trace", "--scenario", ref, "-n", "1"]
    request = {"benchmark": res.benchmark, "scenario": ref}
    if res.segmented:
        # single-run front ends refuse a segmented plan; run_scenario
        # prices it segment by segment
        assert main(argv) == 2
        assert "segmented" in capsys.readouterr().err
        with pytest.raises(SpecError, match="segmented"):
            ServeSpec.from_request(request)
        with pytest.raises(_Ran):
            run_scenario(scenario, 1, benchmark=explicit)
        return
    want = _identity(res.benchmark, res.cluster, res.suite, res.faults)

    with pytest.raises(_Ran) as cli:
        main(argv + ([explicit] if explicit else []))
    with pytest.raises(_Ran) as lib:
        run_scenario(scenario, 1, benchmark=explicit)
    spec = ServeSpec.from_request(request).run_spec()
    assert _identity(*cli.value.args) == want
    assert _identity(*lib.value.args) == want
    assert _identity(
        spec.benchmark.name, spec.cluster, spec.suite, spec.faults
    ) == want


def test_scenario_run_request_loads_its_scenario_once(monkeypatch):
    from repro.serve import ServeApp, ServeClient, loopback_server

    loads = []
    validate = Scenario.validate
    monkeypatch.setattr(
        Scenario, "validate",
        lambda self: (loads.append(self.name), validate(self))[1],
    )
    app = ServeApp(workers=1, sweep_executor="serial")
    with loopback_server(app) as (host, port):
        answer = ServeClient(host, port).run({
            "benchmark": "lbm", "scenario": "dvfs_lbm_clockdown",
            "nprocs": 4,
        })
    assert answer.source == "des"
    assert loads == ["dvfs_lbm_clockdown"]


#: ``ServeSpec.key`` of each request as computed before the serve spec
#: moved onto :func:`repro.scenarios.resolve`: store files written then
#: must still hit.
PINNED_KEYS = [
    ({"benchmark": "lbm", "cluster": "A"},
     "900098075775803e322012ede9d6451cf5011534d998686dfef2094be161029b"),
    ({"benchmark": "tealeaf", "cluster": "ClusterB", "nnodes": 4,
      "suite": "small", "threads": 2, "seed": 3, "noise_sigma": 0.02,
      "sim_steps": 5},
     "7f13750e468e8ad4db8e177a64e4d817f5c26564f312c08b959c83d883d9e8c0"),
    ({"benchmark": "lbm", "cluster": "A",
      "faults": {"slow_ranks": [{"rank": 0, "factor": 2.0}]}},
     "4e1a60f4c7e6ee2baeb0edfdfb084084f7b795dd858ca29422b3edc81bbb6996"),
    ({"benchmark": "lbm", "cluster": "zoo/cascadelake", "nnodes": 2},
     "445a7d820475f2c023514e73bf84e5ca0e801ee6feb51c44dbf811d2ec866e02"),
    ({"benchmark": "lbm", "scenario": "zoo/cascadelake"},
     "2cc4ffbd8966b9793faa693477774c603a0f4c5582434265226e9cdabd693a23"),
    ({"benchmark": "soma", "scenario": "zoo/raspberrypi", "nnodes": 64},
     "6516a2b3ad79bbbdfe1cdc3f48d39f80e70c1a2a15dea1958e67f4db1af50aa7"),
    ({"benchmark": "minisweep", "scenario": "degraded_fabric_day",
      "nnodes": 2},
     "bea123604114721797252192de48e2c7140d6a067d21239728d000ef9ebf2f3c"),
    ({"benchmark": "lbm", "scenario": "dvfs_lbm_clockdown"},
     "d23c4917d2d85daeb36d5405509a58a06a20a4837e85aa7f8cf6eaf14f326bc6"),
    ({"benchmark": "lbm",
      "scenario": {"name": "slow", "cluster": "A", "frequency": 1.6}},
     "425cd733d82e2027a3e77c1c93b52e28c5b68d0440f10dad19f40e95337623f7"),
    ({"benchmark": "pot3d",
      "scenario": {"name": "inline", "cluster_spec": "ClusterA",
                   "suite": "small"},
      "nnodes": 2, "nprocs": 100},
     "0b59f38fbffe8bf5187ba98e30200a6a426d59096c1265afd1f180ca1b1dc12f"),
]


@pytest.mark.parametrize("doc,key", PINNED_KEYS)
def test_serve_keys_stay_pinned(doc, key):
    from repro.serve.spec import ServeSpec

    scenario = doc.get("scenario")
    if isinstance(scenario, dict) and "cluster_spec" in scenario:
        scenario = {**scenario, "cluster_spec": cluster_to_dict(
            get_cluster(scenario["cluster_spec"]))}
        doc = {**doc, "scenario": scenario}
    assert ServeSpec.from_request(doc).key == key
