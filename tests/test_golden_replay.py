"""Replay the benchmark's goldens in-process, byte for byte.

``perfbench/golden/cli-cold.json`` holds the exact stdout and exit code
of ``selfdual construct`` and of ``selfdual verify`` on its output for
16 instances; ``perfbench/golden/hermitian-sweep.json`` holds, for the
56 Hermitian builds of acceptance criteria 4 to 6, the sha256 of the
JSON that ``construct`` would print and the stdout of ``verify`` on it;
``perfbench/golden/euclidean-table.json`` holds, for the 22 reference
table pairs, the ``run_table_pair`` row without its wall time and, for
each confirmed pair, the built code and the stdout of ``verify`` on it.
All three were recorded when the goldens were made, so any change in a
canonical choice (modulus, primitive element, roots, gamma, generator
rows), in tier choice, verdict or report shows up as a difference here.
The goldens are only read.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

import selfdual
from selfdual.codes import certify_mds, code_from_json
from selfdual.cli import main
from selfdual.config import GuardConfig
from selfdual.constructions import build_euclidean_duadic_extended
from selfdual.cosets import DefiningSet
from selfdual.errors import GuardExceeded
from selfdual.fields import element_from_json
from selfdual.table import run_table_pair

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def _load(name):
    with open(GOLDEN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


CLI_GOLDEN = _load("cli-cold.json")
SWEEP_GOLDEN = _load("hermitian-sweep.json")
TABLE_GOLDEN = _load("euclidean-table.json")

# construct arguments -> the rung `verify` takes on the built code; these
# take every rung of the MDS tier ladder on one side or the other
RUNGS = {
    "euclidean-duadic --p 7 --n 3": "exhaustive",
    "grs-hermitian --p 13 --n 12": "columns",
    "dispatch --p 31 --n 32": "bch",
    # the builder certifies on the extended root-run rung, verify on bch
    "hermitian-duadic --p 47 --n 23": "bch",
    # the builder reports certified-structural, verify plain monte-carlo
    "grs-hermitian --p 3 --t 3 --n 26": "monte-carlo",
}


def _verify(path, capsys):
    rc = main(["verify", str(path)])
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("args", sorted(key.split(" ", 1)[1]
                                        for key in CLI_GOLDEN))
def test_construct_and_verify_match_golden(args, tmp_path, capsys):
    want = CLI_GOLDEN["construct " + args]
    rc = main(["construct"] + args.split())
    out = capsys.readouterr().out
    assert (rc, out) == (want["construct"]["rc"], want["construct"]["stdout"])

    path = tmp_path / "code.json"
    path.write_text(out, encoding="utf-8")
    assert _verify(path, capsys) == (want["verify"]["rc"],
                                     want["verify"]["stdout"])

    if args in RUNGS:
        code, metadata = code_from_json(json.loads(out))
        defining, lam = metadata.get("defining_set"), metadata.get("lambda")
        cert = certify_mds(code, defining=defining
                           and DefiningSet.from_json(defining),
                           lam=lam and element_from_json(code.field, lam))
        assert cert.tier == RUNGS[args]


def _parse_build(key):
    name, args = re.fullmatch(r"(\w+)\(([\d, ]*)\)", key).groups()
    return getattr(selfdual, name), [int(a) for a in args.split(", ")]


@pytest.mark.parametrize("key", sorted(SWEEP_GOLDEN))
def test_sweep_build_and_verify_match_golden(key, tmp_path, capsys):
    want = SWEEP_GOLDEN[key]
    builder, args = _parse_build(key)
    result = builder(*args)
    text = json.dumps(result.to_json()) + "\n"  # as `construct` prints it
    got = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
           "construction": result.construction, "theorem": result.theorem,
           "n": result.code.n, "k": result.code.k,
           "verification": result.report.to_json()}
    assert got == want["build"]

    path = tmp_path / "code.json"
    path.write_text(text, encoding="utf-8")
    assert _verify(path, capsys) == (want["verify"]["rc"],
                                     want["verify"]["stdout"])


@pytest.mark.parametrize("key", sorted(TABLE_GOLDEN))
def test_table_pair_and_verify_match_golden(key, tmp_path, capsys):
    want = TABLE_GOLDEN[key]
    length, p, t = map(int, re.fullmatch(r"table (\d+) (\d+)\^(\d+)",
                                         key).groups())
    row = run_table_pair(length, p, t).to_json()
    del row["seconds"]  # wall time, not output
    assert row == want["row"]
    if "code" in want:
        path = tmp_path / "code.json"
        path.write_text(want["code"], encoding="utf-8")
        assert _verify(path, capsys) == (want["verify"]["rc"],
                                         want["verify"]["stdout"])


def test_builder_raises_when_the_chosen_rung_is_guarded():
    # q**k = 49 picks the exhaustive rung, and the codeword guard stops it
    guards = GuardConfig(codeword_limit=10)
    with pytest.raises(GuardExceeded):
        build_euclidean_duadic_extended(7, 1, 3, guards)
