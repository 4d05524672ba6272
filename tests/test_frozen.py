"""The frozen value classes: cold import and dataclass-like behaviour."""
import importlib.util
import os
import subprocess
import sys

import pytest

from selfdual import (
    ConstructionResult,
    DefiningSet,
    GuardConfig,
    LinearCode,
    make_field,
    quadratic_extension,
)
from selfdual.codes import (
    CyclicSpec,
    MdsCertificate,
    MdsVerdict,
    VerificationReport,
)
from selfdual.cosets import SplittingReport
from selfdual.fields import Element, FieldSpec, TowerSpec
from selfdual.numtheory import Factorization, SolvabilityVerdict
from selfdual.table import TableOutcome

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks from importing modules of their own; the packed
    # field arithmetic reads its lanes through memoryview, so neither
    # array nor struct (each a shared library to load) is needed either,
    # and the command line reads its arguments from its own table, with
    # neither argparse nor the gettext it imports
    probe = ("import sys; sys.path.insert(0, %r); import selfdual.cli; "
             "print(sorted({'dataclasses', 'inspect', 'array', '_struct',"
             " 'argparse', 'gettext'} & set(sys.modules)))" % SRC)
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _sweep_builders():
    """The builder names of the benchmark's Hermitian sweep, read from
    ``perfbench/workloads.py``; the benchmark itself is not run."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return sorted({name for name, _ in workloads.sweep_builds()})


def test_import_binds_what_the_benchmark_reaches_by_attribute():
    # the benchmark's worker runs a bare ``import selfdual``, then calls
    # selfdual.table.run_table_pair and getattr(selfdual, builder)
    names = _sweep_builders()
    assert len(names) == 3
    probe = ("import sys; sys.path.insert(0, %r); import selfdual; "
             "print(callable(selfdual.table.run_table_pair), "
             "[n for n in %r if not callable(getattr(selfdual, n, None))])"
             % (SRC, names))
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "True []", out.stderr


GF5 = make_field(5, 1)
GF9 = quadratic_extension(make_field(3, 1))
CODE = LinearCode(GF5, 2, 1, ((GF5.one, GF5.from_int(2)),))
VERDICT = MdsVerdict("refuted", 3, 2, (0, 1))
REPORT = VerificationReport(True, None, 3, None, VERDICT, "careful")
SPEC = CyclicSpec(GF5, 4, GF5.one, DefiningSet(4, (1,)), (GF5.one,),
                  GF5.from_int(2))

# (class, field names, positional values, defaults of the trailing fields)
CASES = [
    (GuardConfig,
     ("field_size_limit", "factor_limit", "dlog_limit", "codeword_limit",
      "column_limit"),
     (1, 2, 3, 4, 5),
     (2**31, 2**40, 2**20, 10**7, 10**6)),
    (LinearCode, ("field", "n", "k", "generator"), tuple(
        getattr(CODE, name) for name in ("field", "n", "k", "generator")),
     ()),
    (CyclicSpec, ("field", "n", "lam", "defining", "g", "alpha"),
     (GF5, 4, GF5.one, DefiningSet(4, (1,)), (GF5.one,), GF5.from_int(2)),
     ()),
    (MdsVerdict, ("status", "trials", "passes", "witness"),
     ("refuted", 3, 2, (0, 1)), (None, None, None)),
    (MdsCertificate, ("tier", "verdict", "distance_exact",
                      "distance_lower_bound", "reason", "warning"),
     ("columns", VERDICT, 3, 2, "why", "careful"), (None,) * 4),
    (VerificationReport, ("euclidean_self_dual", "hermitian_self_dual",
                          "distance_exact", "distance_lower_bound", "mds",
                          "warning"),
     (True, None, 3, None, VERDICT, "careful"), (None,)),
    (ConstructionResult, ("code", "theorem", "construction", "report",
                          "gamma", "cyclic", "extras"),
     (CODE, "Thm2", "euclidean-duadic", REPORT, GF5.one, SPEC, {"a": 1}),
     (None, None, None)),
    (DefiningSet, ("modulus", "elements", "step"), (8, (1, 5), 4), (1,)),
    (SplittingReport, ("n", "multiplier", "s1", "s2", "is_splitting",
                       "witness"),
     (5, 2, (1, 4), (2, 3), False, 4), ()),
    (FieldSpec, ("p", "t", "modulus"), (5, 1, (0, 1)), ()),
    (TowerSpec, ("base", "ext_modulus"), (GF9.base, GF9.ext_modulus), ()),
    (Element, ("field", "value"), (GF5, (3,)), ()),
    (Factorization, ("factors",), (((2, 1), (3, 2)),), ()),
    (SolvabilityVerdict, ("solvable", "case", "odd_sum"),
     (True, "Char2", 0), ()),
    (TableOutcome, ("length", "p", "t", "verdict", "reason", "seconds",
                    "detail"),
     (4, 7, 1, "CONFIRMED", None, 0.5, None), ()),
]


@pytest.mark.parametrize("cls, names, values, defaults", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_keeps_its_dataclass_behaviour(cls, names, values,
                                                   defaults):
    obj = cls(*values)
    assert tuple(getattr(obj, name) for name in names) == values
    twin = cls(**dict(zip(names, values)))
    if cls is ConstructionResult:
        # eq=False: a result equals only itself
        assert obj == obj and obj != twin and len({obj, twin}) == 2
    else:
        assert obj == twin and hash(obj) == hash(twin)
        assert hash(obj) == hash(values)
        assert obj != values
    required = len(values) - len(defaults)
    bare = cls(*values[:required])
    assert tuple(getattr(bare, name) for name in names[required:]) == defaults
    if cls is Element:
        assert repr(obj) == "GF(5)(3,)"
    else:
        assert repr(obj) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % pair for pair in zip(names, values)))
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    assert getattr(obj, names[0]) == values[0]


def test_defining_set_normalises_and_refuses_bad_steps():
    T = DefiningSet(5, (7, 1, 6, -3))
    assert T.elements == (1, 2) and T.step == 1
    assert T == DefiningSet(5, (1, 2), 1)
    for step in (0, -1):
        with pytest.raises(ValueError):
            DefiningSet(5, (1,), step)
    with pytest.raises(ValueError):
        DefiningSet(0, (1,))
    with pytest.raises(ValueError):
        DefiningSet(8, (1,), 3)  # the step must divide the modulus
    with pytest.raises(ValueError):
        DefiningSet(8, (2,), 4)  # outside the class 1 mod 4


def test_linear_code_still_checks_its_generator():
    one, two = GF5.one, GF5.from_int(2)
    with pytest.raises(ValueError):
        LinearCode(GF5, 2, 2, ((one, two),))
    with pytest.raises(ValueError):
        LinearCode(GF5, 3, 1, ((one, two),))
    with pytest.raises(ValueError):
        LinearCode(GF5, 2, 2, ((one, two), (two, GF5.from_int(4))))


def test_field_caches_are_computed_once():
    for field in (GF5, make_field(3, 2), GF9):
        assert field.zero is field.zero and field.one is field.one
        assert field.index(field.zero) == 0 and field.index(field.one) == 1
    assert GF9.y is GF9.y
    assert GF9.y == Element(GF9, (0, 1))
    # equal fields built apart share a hash and compare equal
    assert hash(FieldSpec(3, 2, (1, 0, 1))) == hash(make_field(3, 2))
    assert FieldSpec(3, 2, (1, 0, 1)) == make_field(3, 2)
    assert TowerSpec(GF9.base, GF9.ext_modulus) == GF9
