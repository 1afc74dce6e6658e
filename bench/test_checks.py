"""Each independent check accepts menuopt's own result and rejects a perturbed one;
the metrics run.py reports are the ones BENCHMARK.json names.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from menuopt import cli  # noqa: E402

G1 = workloads.G1


def run_cli(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run([str(a) for a in argv]) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])["result"]


def write(tmp_path, name, doc) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def reference(path) -> checks.Reference:
    return checks.Reference(checks.Game(json.loads(Path(path).read_text())))


@pytest.fixture(scope="module")
def game33(tmp_path_factory):
    doc = workloads.random_game(np.random.default_rng([3, 3, 2, 0]), 3, 3, 2)
    return write(tmp_path_factory.mktemp("games"), "g33.json", doc)


def test_stackelberg(game33):
    ref = reference(game33)
    good = run_cli("stackelberg", "--game", game33)
    assert checks.check_stackelberg(ref, good) == []
    bad = copy.deepcopy(good)
    bad["per_type"][1]["value"] += 1e-4
    assert checks.check_stackelberg(ref, bad)
    bad = copy.deepcopy(good)
    bad["per_type"][0]["csp"] = np.roll(bad["per_type"][0]["csp"], 1).tolist()
    assert checks.check_stackelberg(ref, bad)


@pytest.mark.parametrize("field,change", [
    ("value", lambda r: r.__setitem__("value", r["value"] + 1e-4)),
    ("assignment", lambda r: r["assignment"].__setitem__(0, np.roll(r["assignment"][0], 1).tolist())),
    ("nsr_baseline", lambda r: r.__setitem__("nsr_baseline", r["nsr_baseline"] - 1e-3)),
    ("stackelberg_values", lambda r: r["stackelberg_values"].__setitem__(0, r["stackelberg_values"][0] + 1e-3)),
])
def test_commit_nr(game33, field, change):
    ref = reference(game33)
    good = run_cli("commit-nr", "--game", game33)
    assert checks.check_commit_nr(ref, good) == []
    bad = copy.deepcopy(good)
    change(bad)
    assert checks.check_commit_nr(ref, bad)


def test_commit_nr_g1_value():
    ref = reference(G1)
    good = run_cli("commit-nr", "--game", G1)
    assert checks.check_commit_nr(ref, good, "g1") == []
    # the feasible but non-optimal half/half menu of the fixture is worth 5
    bad = dict(good, value=5.0, assignment=[[0.0, 0.5, 0.0, 0.0, 0.5, 0.0]])
    assert checks.check_commit_nr(ref, bad, "g1")


def test_commit_general():
    ref = reference(G1)
    good = run_cli("commit-general", "--game", G1, "--eps", 0.05)
    assert checks.check_commit_general(ref, good, 0.05) == []
    assert checks.check_commit_general(ref, dict(good, converged=False), 0.05)
    assert checks.check_commit_general(ref, dict(good, value_lower_bound=good["value_lower_bound"] + 1e-3), 0.05)
    # a menu that asks the type for less than its favourite is not satisfiable everywhere
    tight = copy.deepcopy(good)
    for con in tight["menu"]["constraints"]:
        con["rhs"] -= 1.5
    assert checks.check_commit_general(ref, tight, 0.05)
    # the returned profile moved to the learner's favourite pair breaks the value bookkeeping
    moved = copy.deepcopy(good)
    moved["assignment"][0] = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    assert checks.check_commit_general(ref, moved, 0.05)


@pytest.mark.parametrize("kind", ["favourite", "worst"])
def test_check_menu(tmp_path, game33, kind):
    ref = reference(game33)
    game = json.loads(game33.read_text())
    assign = workloads.assignment(game, kind, np.random.default_rng(0))
    path = write(tmp_path, "a.json", assign)
    good = run_cli("check-menu", "--game", game33, "--assignment", path, "--delta", 0.05)
    assert good["approachable"] == (kind == "favourite")
    assert checks.check_check_menu(ref, good, assign, 0.05) == []
    if kind == "worst":
        # claimed pass on a menu that leaves some opponent mix unanswerable
        flipped = dict(good, approachable=True, outcome="ApproachableExpanded(0.05)", certificate_y=None, direction=None)
        assert checks.check_check_menu(ref, flipped, assign, 0.05)
        # a certificate under which the learner can answer inside the menu
        weak = dict(good, certificate_y=[1.0] + [0.0] * (ref.g.n - 1))
        loose = {"profiles": workloads.assignment(game, "favourite", None)["profiles"]}
        assert checks.check_check_menu(ref, weak, loose, 0.05)
    else:
        refuted = dict(good, approachable=False, outcome="NotApproachable",
                       certificate_y=[1.0] + [0.0] * (ref.g.n - 1), direction=[1.0, 0.0])
        assert checks.check_check_menu(ref, refuted, assign, 0.05)


def test_maximin(game33):
    ref = reference(game33)
    good = run_cli("maximin", "--game", game33, "--adversary", "aborter", "--T", 300)
    assert checks.check_maximin(ref, good, 0.05, 300) == []
    bad = copy.deepcopy(good)
    bad["abort_count"] += 1
    assert checks.check_maximin(ref, bad, 0.05, 300)
    bad = copy.deepcopy(good)
    bad["epochs"][0]["V"] -= 0.01
    assert checks.check_maximin(ref, bad, 0.05, 300)


def test_maximin_oracle_rejects_an_abort_at_a_forceable_level(tmp_path):
    # The learner's top pair is also the only pair the opponent likes, so
    # the top level's menu is forceable and maximin must stop there.
    doc = {"m": 2, "n": 2, "u_L": [[1.0, 0.0], [0.0, 0.0]], "types": [{"u_O": [[1.0, 0.0], [0.0, 0.0]], "alpha": 1.0}]}
    path = write(tmp_path, "easy.json", doc)
    ref = reference(path)
    good = run_cli("maximin", "--game", path, "--adversary", "aborter", "--T", 200)
    assert good["abort_count"] == 0
    assert checks.check_maximin(ref, good, 0.05, 200) == []
    aborted = dict(good, abort_count=1, final_V=0.95,
                   epochs=[{"V": 1.0, "start_round": 0}, {"V": 0.95, "start_round": 10}])
    problems = checks.check_maximin(ref, aborted, 0.05, 200)
    assert any("forceable" in p for p in problems)


def test_simulate(game33):
    ref = reference(game33)
    good = run_cli("simulate", "--game", game33, "--T", 500)
    assert checks.check_simulate(ref, good, 500, 0) == []
    assert checks.check_simulate(ref, dict(good, learner_avg=good["learner_avg"] + 1e-6), 500, 0)
    assert checks.check_simulate(ref, dict(good, opponent_avg=good["per_type_avg"][1] + 1.0), 500, 0)
    drift = copy.deepcopy(good)
    drift["chosen_csp"] = np.roll(drift["chosen_csp"], 1).tolist()
    assert checks.check_simulate(ref, drift, 500, 0)


def test_metric_names_and_units_match_benchmark_json():
    import run
    import tracer

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    records = [run.Record({"role": role}, 0, False, 0, 0.1, "", [1e-3]) for role in run.ROLES]
    e2e = run.end_to_end_metrics(records, run.at_reference_speed(records), [0.5], 40.0)
    assert [(k, u) for k, (_, u) in e2e.items()] == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = run.per_layer_metrics(tracer.Tracer(), 1, 1.0, 1.0)
    assert [(k, u) for k, (_, u) in layer.items()] == [(m["name"], m["unit"]) for m in spec["per_layer"]]


def test_tracer_rebinds_imported_names_and_restores_them():
    import tracer
    from menuopt import general_commitment, maximin

    def bindings():
        return cli.test_assignment_valid, general_commitment.verdict_for_thresholds, maximin.ADVERSARIES["aborter"]

    originals = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(a is not b for a, b in zip(bindings(), originals))
        run_cli("commit-general", "--game", G1, "--eps", 0.05)
    finally:
        t.uninstall()
    assert all(a is b for a, b in zip(bindings(), originals))
    assert t.stat("approachability.verdict_for_thresholds").calls > 0
    # self times partition the time of the one root call
    assert sum(t.layer_self_time().values()) == pytest.approx(t.stat("cli.run").total, rel=1e-9)
