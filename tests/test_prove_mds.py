"""The one MDS proof read, ``codes.prove_mds``.

It names the first proof that holds, or None: the code's points, the
roots a route or a record proposes, or the Cauchy certificate of its
reduced form.  ``mds_check`` and the automatic exhaustive rung of
``certify_mds`` read nothing else, so it must be sound on its own: over
the evaluation rows of ``test_points`` and the proposed shift forms of
``test_root_proof``, with their mutations, no proof goes to a code the
per-subset determinant oracle refutes.  Every golden code of the three
benchmark workloads, the four paper-scale records and the 89 dispatch
builds for q from 17 to 31 get a proof, of the kind named here, as
``verify`` of each record reads it.
"""
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from selfdual.cli import main
from selfdual.codes import code_from_json, prove_mds
from selfdual.config import GuardConfig
from selfdual.constructions import exists_hermitian_dispatch
from selfdual.cosets import DefiningSet
from selfdual.fields import element_from_json

from oracles import lex_column_oracle
from test_points import _made, _sweep_builds, evaluation_rows
from test_root_proof import proposed_shift_form

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@st.composite
def proposed_code(draw):
    """(code, roots): evaluation rows that pass the rank check, with no
    roots, or a shift form with the roots proposed for it or none."""
    if draw(st.booleans()):
        field, rows, _, _ = draw(evaluation_rows())
        code, full = _made(field, rows)
        assume(full)
        return code, None
    code, T, lam, _, _ = draw(proposed_shift_form())
    return code, draw(st.sampled_from([(T, lam), None]))


@settings(deadline=None, max_examples=300)
@given(proposed_code())
def test_no_proof_goes_to_a_code_the_column_oracle_refutes(case):
    code, roots = case
    proof = prove_mds(code, roots, GuardConfig())
    assert proof in ("points", "roots", "cauchy", None)
    # the points are read first, and the roots only when proposed
    assert (proof == "points") == (code._points is not None)
    assert not (roots is None and proof == "roots")
    if proof is not None:
        assert lex_column_oracle(code) == ("certified-exact", None)


def _proof(record):
    """The proof ``verify`` of ``record`` reads: its code, with the
    defining set and lambda of its metadata as the proposed roots."""
    code, metadata = code_from_json(record)
    defining, lam = metadata.get("defining_set"), metadata.get("lambda")
    roots = None
    if defining:
        roots = (DefiningSet.from_json(defining),
                 lam and element_from_json(code.field, lam))
    return prove_mds(code, roots, GuardConfig())


def _construct(route, capsys):
    capsys.readouterr()
    assert main(["construct", *route.split()]) == 0
    return json.loads(capsys.readouterr().out)


def _golden(name):
    with open(GOLDEN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def test_each_cli_golden_record_is_proved_by_its_points_or_its_roots():
    # a GRS record by its points, every cyclic one by its roots
    golden = _golden("cli-cold.json")
    assert len(golden) == 16
    for key, want in golden.items():
        route = key.split(" ", 2)[1]
        proof = _proof(json.loads(want["construct"]["stdout"]))
        assert proof == ("points" if route == "grs-hermitian"
                         else "roots"), key


def test_each_table_golden_record_is_proved_by_its_roots():
    records = [json.loads(want["code"]) for want in
               _golden("euclidean-table.json").values() if "code" in want]
    assert len(records) == 20
    assert Counter(map(_proof, records)) == {"roots": 20}


def _kind(result):
    """The proof a build's construction names: a one-row code by the
    Cauchy certificate (nonzero entries), another GRS code by its
    points, a cyclic code by its roots."""
    if result.code.k == 1:
        return "cauchy"
    return "points" if result.construction == "grs-hermitian" else "roots"


def test_each_sweep_build_is_proved_as_its_construction_names():
    kinds = Counter()
    for build, args in _sweep_builds():
        result = build(*args)
        proof = _proof(result.to_json())
        assert proof == _kind(result), (build.__name__, args)
        kinds[proof] += 1
    assert kinds == {"roots": 35, "points": 15, "cauchy": 6}


def test_each_dispatch_build_for_q_from_17_to_31_is_proved():
    kinds = Counter()
    for p, t in ((17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1),
                 (31, 1)):
        for n in range(2, p ** t + 2, 2):
            result = exists_hermitian_dispatch(p, t, n)
            proof = _proof(result.to_json())
            assert proof == _kind(result), (p, t, n)
            kinds[proof] += 1
    assert kinds == {"points": 75, "roots": 7, "cauchy": 7}


@pytest.mark.parametrize("route, want", [
    ("grs-hermitian --p 127 --n 126", "points"),
    ("grs-hermitian --p 251 --n 250", "points"),
    ("dispatch --p 127 --n 128", "roots"),
    ("hermitian-duadic --p 127 --n 63", "roots"),
])
def test_the_paper_scale_records_are_proved(route, want, capsys):
    assert _proof(_construct(route, capsys)) == want
