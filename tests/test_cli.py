import json
from pathlib import Path

import numpy as np
import pytest

from conftest import G1_NR_VALUE
from menuopt import cli
from menuopt.core import Csp, CspAssignment

G1_DOC = {
    "m": 3,
    "n": 2,
    "u_L": [[0, 3], [7.1, 2.1], [7, 1]],
    "types": [{"u_O": [[0, 1], [0, 1], [3, 0]], "alpha": 1.0}],
}


@pytest.fixture()
def g1_path(tmp_path):
    p = tmp_path / "g1.json"
    p.write_text(json.dumps(G1_DOC))
    return str(p)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out.strip().splitlines()[-1])


def test_stackelberg_type0(capsys, g1_path):
    code, doc = run_json(capsys, "stackelberg", "--game", g1_path, "--type", "0")
    assert code == 0
    assert doc["command"] == "stackelberg"
    assert doc["result"]["value"] == pytest.approx(1.0)
    assert doc["result"]["outcome"] == {"learner_action": 0, "optimizer_action": 1}


def test_commit_nr_reports_lp_value_and_baseline(capsys, g1_path):
    code, doc = run_json(capsys, "commit-nr", "--game", g1_path)
    assert code == 0
    assert doc["result"]["value"] == pytest.approx(float(G1_NR_VALUE), abs=1e-6)
    assert doc["result"]["nsr_baseline"] == pytest.approx(3.0, abs=1e-6)
    assert doc["result"]["stackelberg_values"] == [pytest.approx(1.0)]


def test_oracle_nr(capsys, g1_path):
    code, doc = run_json(
        capsys, "oracle", "nr", "--game", g1_path, "--resolution", "0.25"
    )
    assert code == 0
    assert doc["result"]["value"] == pytest.approx(6.05, abs=1e-9)


def test_oracle_maximin(capsys, tmp_path, capsysbinary=None):
    doc = {
        "m": 2,
        "n": 2,
        "u_L": [[0.3, 0.3], [0.3, 0.3]],
        "types": [{"u_O": [[0, 1], [1, 0]], "alpha": 1.0}],
    }
    p = tmp_path / "const.json"
    p.write_text(json.dumps(doc))
    code = cli.run(["oracle", "maximin", "--game", str(p), "--resolution", "0.05"])
    assert code == 0


def test_oracle_maximin_rejects_delta_zero(capsys):
    game = str(Path(__file__).parent / "golden" / "g7000-222.json")
    code, out = run_cli(capsys, "oracle", "maximin", "--game", game, "--delta", "0")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


@pytest.mark.parametrize("resolution", ["nan", "inf", "0", "-1"])
def test_oracle_maximin_rejects_bad_resolution(capsys, resolution):
    game = str(Path(__file__).parent / "golden" / "g7000-222.json")
    code, out = run_cli(capsys, "oracle", "maximin", "--game", game, "--resolution", resolution)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_oracle_maximin_stops_at_the_floor(capsys):
    # a step of 2 scans past min(u_L) = -0.955808421627 before a level passes
    game = str(Path(__file__).parent / "golden" / "g7000-222.json")
    code, doc = run_json(capsys, "oracle", "maximin", "--game", game, "--resolution", "2")
    assert code == 0
    assert doc["result"]["value"] == -0.955808421627


ZERO_DOC = {
    "m": 2,
    "n": 2,
    "u_L": [[0, 0], [0, 0]],
    "types": [{"u_O": [[0, 0], [0, 0]], "alpha": 0.5}, {"u_O": [[0, 0], [0, 0]], "alpha": 0.5}],
}


@pytest.fixture()
def zero_path(tmp_path):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(ZERO_DOC))
    return str(p)


# every payoff is 0, so p_max = 0: the tester net is the k pure directions
# and the hedge weights stay uniform; no command may divide by p_max
@pytest.mark.filterwarnings("error")
def test_check_menu_on_an_all_zero_game(capsys, zero_path, tmp_path):
    assign = CspAssignment((Csp.point_mass(0, 0, 2, 2), Csp(np.full(4, 0.25))))
    ap = tmp_path / "assign.json"
    ap.write_text(assign.to_json())
    code, doc = run_json(capsys, "check-menu", "--game", zero_path, "--assignment", str(ap))
    assert code == 0
    assert doc["result"]["approachable"] is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("adversary", [[], ["--adversary", "aborter"]], ids=["default", "aborter"])
def test_maximin_on_an_all_zero_game(capsys, zero_path, adversary):
    code, doc = run_json(capsys, "maximin", "--game", zero_path, "--T", "200", *adversary)
    assert code == 0
    res = doc["result"]
    assert res["abort_count"] == 0
    assert res["final_V"] == 0.0
    assert res["learner_avg"] == 0.0 and res["per_type_avg"] == [0.0, 0.0]


@pytest.mark.filterwarnings("error")
def test_oracle_maximin_on_an_all_zero_game(capsys, zero_path):
    code, doc = run_json(capsys, "oracle", "maximin", "--game", zero_path)
    assert code == 0
    assert doc["result"]["value"] == 0.0


# u_L = 0 makes the objective cut the zero vector; the search must stop at
# the first valid centre instead of cutting with it
@pytest.mark.filterwarnings("error")
def test_commit_general_on_an_all_zero_game(capsys, zero_path):
    code, doc = run_json(capsys, "commit-general", "--game", zero_path)
    assert code == 0
    res = doc["result"]
    assert res["value_lower_bound"] == 0.0
    assert res["converged"] is True
    assert res["menu_certified"] is True


def test_check_menu_roundtrip(capsys, g1_path, tmp_path):
    assign = CspAssignment((Csp.point_mass(0, 1, 3, 2),))
    ap = tmp_path / "assign.json"
    ap.write_text(assign.to_json())
    code, doc = run_json(
        capsys, "check-menu", "--game", g1_path, "--assignment", str(ap), "--delta", "0.05"
    )
    assert code == 0
    assert doc["result"]["approachable"] is True  # threshold 1 above the 0.75 cap
    assert doc["result"]["outcome"] == "ApproachableExpanded(0.05)"


def test_check_menu_not_approachable_certificates(capsys, g1_path, tmp_path):
    # all mass on the opponent's worst pair: threshold 0 < forceable 0.75
    assign = CspAssignment((Csp.point_mass(0, 0, 3, 2),))
    ap = tmp_path / "assign.json"
    ap.write_text(assign.to_json())
    code, doc = run_json(
        capsys, "check-menu", "--game", g1_path, "--assignment", str(ap), "--delta", "0.05"
    )
    assert code == 0
    res = doc["result"]
    assert res["approachable"] is False
    assert res["direction"] == [1.0]
    assert res["certificate_y"] is not None


def test_maximin_runs_and_is_deterministic(capsys, g1_path):
    args = ["maximin", "--game", g1_path, "--eps", "0.05", "--T", "400", "--seed", "7",
            "--adversary", "aborter"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["result"]["final_V"] == pytest.approx(7.05)


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_maximin_rejects_non_finite_eps(capsys, g1_path, eps):
    code, out = run_cli(capsys, "maximin", "--game", g1_path, "--eps", eps, "--T", "50")
    assert code == 2
    assert "eps" in json.loads(out)["error"]["message"]


def test_check_menu_rejects_nan_delta(capsys, g1_path, tmp_path):
    ap = tmp_path / "assign.json"
    ap.write_text(CspAssignment((Csp.point_mass(0, 1, 3, 2),)).to_json())
    code, out = run_cli(
        capsys, "check-menu", "--game", g1_path, "--assignment", str(ap), "--delta", "nan"
    )
    assert code == 2
    assert "delta" in json.loads(out)["error"]["message"]


def test_simulate_smoke_and_stream(capsys, g1_path):
    code, out = run_cli(
        capsys, "simulate", "--game", g1_path, "--learner", "commit-nr",
        "--T", "200", "--stream",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 201  # 200 round records plus the report
    first = json.loads(lines[0])
    assert set(first) == {"t", "x", "y"}
    final = json.loads(lines[-1])
    assert final["result"]["learner_avg"] > 3.0


def test_malformed_game_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{this is not json")
    code, out = run_cli(capsys, "commit-nr", "--game", str(p))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_missing_game_file_exits_2(capsys):
    code, out = run_cli(capsys, "commit-nr", "--game", "/nonexistent/g.json")
    assert code == 2


def test_schema_violation_exits_2(capsys, tmp_path):
    doc = dict(G1_DOC, types=[{"u_O": [[0, 1], [0, 1], [3, 0]], "alpha": 0.4}])
    p = tmp_path / "half.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "commit-nr", "--game", str(p))
    assert code == 2


def test_bad_type_index_exits_2(capsys, g1_path):
    code, out = run_cli(capsys, "stackelberg", "--game", g1_path, "--type", "3")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys, g1_path):
    assert cli.run(["frobnicate", "--game", g1_path]) == 2


def test_digest_changes_with_args(capsys, g1_path):
    _, d1 = run_json(capsys, "oracle", "nr", "--game", g1_path, "--resolution", "0.25")
    _, d2 = run_json(capsys, "oracle", "nr", "--game", g1_path, "--resolution", "0.5")
    assert d1["inputs_digest"] != d2["inputs_digest"]
