import json
from pathlib import Path

import numpy as np
import pytest

from conftest import G1_NR_VALUE, random_game
from menuopt import cli, playback
from menuopt.core import Csp, CspAssignment
from menuopt.errors import NumericalFailure

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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_commit_general_exits_3_when_the_ellipsoid_overflows(capsys, tmp_path):
    doc = dict(G1_DOC, u_L=(np.array(G1_DOC["u_L"]) * 1e300).tolist(),
               types=[{"u_O": (np.array(G1_DOC["types"][0]["u_O"]) * 1e300).tolist(), "alpha": 1.0}])
    path = tmp_path / "g1e300.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "commit-general", "--game", str(path), "--eps", "5e298")
    assert code == 3
    assert out == {"error": {"kind": "numerical", "message": "ellipsoid collapsed"}}


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


def test_maximin_rejects_a_negative_seed(capsys, g1_path):
    code, out = run_cli(capsys, "maximin", "--game", g1_path, "--T", "50", "--seed", "-1")
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": "seed must be non-negative"}


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


@pytest.mark.parametrize("game", ["g1", "g332", "g7000-232"])
def test_simulate_builds_its_schedule_once_per_command(capsys, monkeypatch, g1_path, game):
    # the learner and the opponent share one build of the chosen target's
    # schedule, and a repeat of the command builds it again
    path = g1_path if game == "g1" else str(Path(__file__).parent / "golden" / f"{game}.json")
    builds = []
    build = playback.schedule_blocks

    def spy(target):
        builds.append(target)
        return build(target)

    monkeypatch.setattr(playback, "schedule_blocks", spy)
    for _ in range(2):
        builds.clear()
        code, _ = run_cli(capsys, "simulate", "--game", path, "--learner", "commit-nr", "--T", "8000")
        assert code == 0
        assert len(builds) == 1


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


def test_stackelberg_checks_the_type_index_before_solving(capsys, monkeypatch, g1_path):
    def failing_solve(game):
        raise NumericalFailure("leader LP failed")

    monkeypatch.setattr(cli, "type_leader_values", failing_solve)
    code, out = run_cli(capsys, "stackelberg", "--game", g1_path, "--type", "3")
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": "type index 3 out of range"}


@pytest.mark.parametrize(
    "argv",
    [["stackelberg"], ["commit-general", "--max-iters", "20"], ["maximin", "--T", "50"]],
    ids=lambda argv: argv[0],
)
def test_nan_prior_weight_exits_2(capsys, tmp_path, argv):
    p = tmp_path / "nan.json"
    p.write_text('{"m": 2, "n": 2, "u_L": [[1, 0], [0, 1]], "types": [{"u_O": [[0, 1], [1, 0]], "alpha": NaN}]}')
    code, out = run_cli(capsys, *argv, "--game", str(p))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_unknown_subcommand_exits_2(capsys, g1_path):
    assert cli.run(["frobnicate", "--game", g1_path]) == 2


def test_digest_changes_with_args(capsys, g1_path):
    _, d1 = run_json(capsys, "oracle", "nr", "--game", g1_path, "--resolution", "0.25")
    _, d2 = run_json(capsys, "oracle", "nr", "--game", g1_path, "--resolution", "0.5")
    assert d1["inputs_digest"] != d2["inputs_digest"]


# every flag of each command, then the same command with only what it requires
PARSER_CASES = {
    "stackelberg": ([], ["--type", "0"]),
    "commit-nr": ([], []),
    "commit-general": ([], ["--eps", "0.1", "--delta", "0.02", "--max-iters", "60"]),
    "maximin": ([], ["--eps", "0.1", "--T", "300", "--seed", "3", "--adversary", "aborter"]),
    "check-menu": (["--assignment", "ASSIGN"], ["--delta", "0.1"]),
    "simulate": (
        [],
        ["--learner", "commit-general", "--type", "0", "--T", "40", "--seed", "2",
         "--eps", "0.1", "--delta", "0.02", "--stream"],
    ),
    "oracle": (["nr"], ["--resolution", "0.5", "--delta", "0.05", "--assignment", "ASSIGN"]),
}


@pytest.mark.parametrize("command", sorted(PARSER_CASES))
def test_kept_parser_matches_a_fresh_one(capsys, monkeypatch, g1_path, tmp_path, command):
    ap = tmp_path / "assign.json"
    ap.write_text(CspAssignment((Csp.point_mass(0, 0, 3, 2),)).to_json())
    required, flags = (
        [str(ap) if a == "ASSIGN" else a for a in argv] for argv in PARSER_CASES[command]
    )
    full = [command, "--game", g1_path, *required, *flags]
    default = [command, "--game", g1_path, *required]
    kept = [run_cli(capsys, *full), run_cli(capsys, *default)]
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(default) == cli.build_parser().parse_args(default)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser on every run
    fresh = [run_cli(capsys, *full), run_cli(capsys, *default)]
    assert kept == fresh
    for code, out in kept:
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["inputs_digest"]


def test_kept_parser_calls_the_current_handler(capsys, monkeypatch, g1_path):
    args = cli._parser().parse_args(["commit-nr", "--game", g1_path])
    assert args.func == "cmd_commit_nr"
    monkeypatch.setattr(cli, "cmd_stackelberg", lambda game, args: {"rebound": True})
    code, doc = run_json(capsys, "stackelberg", "--game", g1_path)
    assert code == 0
    assert doc["result"] == {"rebound": True}


# every command on games with a single row, a single column or both; each
# must end in a documented exit code with one JSON document on stdout
DEGENERATE_COMMANDS = {
    "check-menu": ["check-menu", "--assignment", "ASSIGN"],
    "commit-general": ["commit-general"],
    "commit-nr": ["commit-nr"],
    "maximin": ["maximin", "--T", "200"],
    "maximin-aborter": ["maximin", "--T", "200", "--adversary", "aborter"],
    "oracle-nr": ["oracle", "nr", "--resolution", "0.25"],
    "oracle-validity": ["oracle", "validity", "--resolution", "0.25", "--assignment", "ASSIGN"],
    "oracle-maximin": ["oracle", "maximin", "--resolution", "0.25"],
    "simulate-nr": ["simulate", "--learner", "commit-nr", "--T", "200"],
    "simulate-general": ["simulate", "--learner", "commit-general", "--T", "200"],
    "stackelberg": ["stackelberg"],
}


@pytest.mark.parametrize("command", sorted(DEGENERATE_COMMANDS))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)], ids="{0[0]}x{0[1]}".format)
def test_every_command_on_a_degenerate_shape(capsys, tmp_path, shape, k, command):
    m, n = shape
    game = random_game(np.random.default_rng([9200, m, n, k]), m, n, k)
    gp = tmp_path / "game.json"
    gp.write_text(game.to_json())
    ap = tmp_path / "assign.json"
    ap.write_text(CspAssignment(tuple(Csp(np.full(m * n, 1.0 / (m * n))) for _ in range(k))).to_json())
    argv = [str(ap) if a == "ASSIGN" else a for a in DEGENERATE_COMMANDS[command]]
    code, out = run_cli(capsys, *argv, "--game", str(gp))
    assert code in (0, 2, 3)
    lines = out.strip().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])
