"""Replay part of the benchmark's cold-CLI goldens in-process.

``perfbench/golden/cli-cold.json`` holds the byte-exact stdout and exit
code of ``selfdual construct`` and of ``selfdual verify`` on its output,
recorded when the goldens were made.  The instances below take every
rung of the MDS tier ladder on one side or the other, so a change in
tier choice, verdict or report shows up as a byte difference.
"""
import json
from pathlib import Path

import pytest

from selfdual.codes import certify_mds, code_from_json
from selfdual.cli import main
from selfdual.config import GuardConfig
from selfdual.constructions import build_euclidean_duadic_extended
from selfdual.cosets import DefiningSet
from selfdual.errors import GuardExceeded

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli-cold.json"

# construct arguments -> the rung `verify` takes on the built code
REPLAYED = {
    "euclidean-duadic --p 7 --n 3": "exhaustive",
    "grs-hermitian --p 13 --n 12": "columns",
    "dispatch --p 31 --n 32": "bch",
    # the builder certifies on the extended root-run rung, verify on bch
    "hermitian-duadic --p 47 --n 23": "bch",
    # the builder reports certified-structural, verify plain monte-carlo
    "grs-hermitian --p 3 --t 3 --n 26": "monte-carlo",
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("args", sorted(REPLAYED))
def test_construct_and_verify_match_golden(args, golden, tmp_path, capsys):
    want = golden["construct " + args]
    rc = main(["construct"] + args.split())
    out = capsys.readouterr().out
    assert (rc, out) == (want["construct"]["rc"], want["construct"]["stdout"])

    path = tmp_path / "code.json"
    path.write_text(out, encoding="utf-8")
    rc = main(["verify", str(path)])
    assert (rc, capsys.readouterr().out) == (want["verify"]["rc"],
                                             want["verify"]["stdout"])

    code, metadata = code_from_json(json.loads(out))
    defining = metadata.get("defining_set")
    cert = certify_mds(code, defining=defining and DefiningSet.from_json(defining))
    assert cert.tier == REPLAYED[args]


def test_builder_raises_when_the_chosen_rung_is_guarded():
    guards = GuardConfig(exhaustive_tier_limit=10**8, codeword_limit=10)
    with pytest.raises(GuardExceeded):
        build_euclidean_duadic_extended(7, 1, 3, guards)
