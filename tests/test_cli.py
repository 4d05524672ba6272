"""CLI behavior through main(argv); no subprocesses."""
import json

import pytest

from selfdual.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(line) for line in out.splitlines()] if out else []
    return rc, lines


def test_construct_round_trips_through_verify(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "5", "--n", "4")
    assert rc == 0 and len(lines) == 1
    obj = lines[0]
    assert obj["theorem"] == "Thm3"
    assert obj["n"] == 4 and obj["k"] == 2
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 0
    assert lines[0]["hermitian_self_dual"] is True
    assert lines[0]["mds"]["status"] == "certified-exact"


def test_verify_detects_corruption(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    assert rc == 0
    obj = lines[0]
    # bump one generator coefficient
    obj["generator"][0][0] = [(obj["generator"][0][0][0] + 1) % 7]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 1
    assert lines[0]["euclidean_self_dual"] is False


def test_verify_missing_and_malformed_files(tmp_path, capsys):
    rc, lines = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc, lines = run_cli(capsys, "verify", str(bad))
    assert rc == 2
    bad.write_text(json.dumps({"field": {"p": 5, "t": 1,
                                         "modulus": [0, 1]}, "n": 2}))
    rc, lines = run_cli(capsys, "verify", str(bad))
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_verify_oversize_exhaustive_is_guarded(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "31", "--n", "15")
    assert rc == 0
    path = tmp_path / "big.json"
    path.write_text(json.dumps(lines[0]))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", "exhaustive")
    assert rc == 0
    assert lines[0]["mds"]["status"] == "guarded"
    assert "warning" in lines[0]


def test_verify_inner_hermitian_on_base_field_code(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    path = tmp_path / "code.json"
    path.write_text(json.dumps(lines[0]))
    rc, lines = run_cli(capsys, "verify", str(path), "--inner", "hermitian")
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_construct_domain_failures_exit_one(capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "59", "--n", "29")
    assert rc == 1
    assert lines[0]["error"] == "NoGamma"
    rc, lines = run_cli(capsys, "construct", "constacyclic",
                        "--p", "7", "--n", "4", "--r", "2")
    assert rc == 1
    assert lines[0]["error"] == "PreconditionFailed"
    assert lines[0]["reason"] == "BadTwoAdicCongruence"


def test_construct_verification_failure_exits_two(capsys):
    # square scalars break self-duality here; builder refuses to emit
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "3", "--n", "2", "--v-choice", "square")
    assert rc == 2
    assert lines[0]["error"] == "VerificationFailed"
    assert lines[0]["predicate"] == "hermitian_self_dual"


def test_construct_missing_arguments(capsys):
    rc, lines = run_cli(capsys, "construct", "constacyclic",
                        "--p", "7", "--n", "4")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"
    rc, lines = run_cli(capsys, "construct", "grs-hermitian", "--p", "7")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"
    rc, lines = run_cli(capsys, "construct", "hermitian-n5",
                        "--p", "3", "--n", "7")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"


def test_construct_points_parsing(capsys):
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "7", "--n", "4", "--points", "1,3,4,6")
    assert rc == 0
    assert lines[0]["metadata"]["points"] == [1, 3, 4, 6]
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "7", "--n", "4", "--points", "1,2,x")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"


def test_splitting_fixture_witnesses(capsys):
    rc, lines = run_cli(capsys, "splitting", "--n", "25", "--q", "49",
                        "--multiplier", "18", "--set-from", "7",
                        "--set-to", "18")
    assert rc == 0
    assert lines[0]["is_splitting"] is False and lines[0]["witness"] == 12
    rc, lines = run_cli(capsys, "splitting", "--n", "25", "--q", "1849",
                        "--multiplier", "7", "--set-from", "7",
                        "--set-to", "18")
    assert rc == 0
    assert lines[0]["witness"] == 13


def test_splitting_malformed_range(capsys):
    rc, lines = run_cli(capsys, "splitting", "--n", "25", "--q", "49",
                        "--multiplier", "18", "--set-from", "18",
                        "--set-to", "7")
    assert rc == 2 and lines[0]["error"] == "MalformedInput"


def test_splitting_domain_error(capsys):
    # q shares a factor with n: coset closure is undefined
    rc, lines = run_cli(capsys, "splitting", "--n", "25", "--q", "15",
                        "--multiplier", "2", "--set-from", "7",
                        "--set-to", "18")
    assert rc == 1 and lines[0]["error"] == "NotCoprime"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_pretty_flag(capsys):
    rc = main(["construct", "euclidean-duadic", "--p", "7", "--n", "3",
               "--pretty"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("{\n")
    json.loads(out)


@pytest.mark.parametrize("override", ["codewrods=1", "columns=abc",
                                      "columns=0"])
def test_malformed_guard_override_is_refused(override, monkeypatch, capsys):
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", override)
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_field_size_override_refuses_larger_fields(tmp_path, monkeypatch,
                                                   capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    assert rc == 0
    path = tmp_path / "code.json"
    path.write_text(json.dumps(lines[0]))
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "field_size=5")
    for argv in (["construct", "euclidean-duadic", "--p", "7", "--n", "3"],
                 ["verify", str(path)]):
        rc, lines = run_cli(capsys, *argv)
        assert rc == 1
        assert lines[0]["error"] == "SizeGuardExceeded"
    # GF(5) fits, but the Hermitian route works in GF(25)
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "5", "--n", "4")
    assert rc == 1
    assert lines[0]["error"] == "SizeGuardExceeded"


def test_verify_refuses_a_tower_over_a_reducible_quadratic(tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "5", "--n", "4")
    assert rc == 0
    obj = lines[0]
    # y**2 - 1 = (y - 1)(y + 1): GF(5)[y] modulo it has zero divisors
    obj["field"]["ext_modulus"] = [[4], [0], [1]]
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path))
    assert rc == 1
    assert lines[0]["error"] == "ZeroElement"
    assert "irreducible" in lines[0]["message"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_fewer_than_one_trial(trials, tmp_path, capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    path = tmp_path / "code.json"
    path.write_text(json.dumps(lines[0]))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", "monte-carlo",
                        "--trials", trials)
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


@pytest.mark.parametrize("mds", ["auto", "columns"])
def test_verify_refuses_a_zero_dimensional_code(mds, tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"field": {"p": 5, "t": 1, "modulus": [0, 1]},
                                "n": 3, "k": 0, "generator": []}))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", mds)
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


@pytest.mark.parametrize("mds", ["auto", "bch"])
@pytest.mark.parametrize("defining", [
    {"modulus": "x", "step": 1, "elements": [1]},
    {"modulus": 3, "step": 1},
    {"modulus": 0, "step": 1, "elements": [1]},
    [3, 1],
])
def test_verify_refuses_a_malformed_defining_set(defining, mds, tmp_path,
                                                 capsys):
    rc, lines = run_cli(capsys, "construct", "euclidean-duadic",
                        "--p", "7", "--n", "3")
    obj = lines[0]
    obj["metadata"]["defining_set"] = defining
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    rc, lines = run_cli(capsys, "verify", str(path), "--mds", mds)
    assert rc == 2
    assert lines[0]["error"] == "MalformedInput"


def test_norm_equation_beyond_the_dlog_guard_is_refused(monkeypatch, capsys):
    # GF(8) exceeds dlog_limit = 4: no walk, and no other exponent either
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "dlog_limit=4")
    rc, lines = run_cli(capsys, "construct", "grs-hermitian",
                        "--p", "2", "--t", "3", "--n", "4")
    assert rc == 1
    assert lines[0]["error"] == "DiscreteLogGuardExceeded"
