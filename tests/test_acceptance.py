"""Acceptance gate: seven end-to-end criteria, one test each.

Every test re-derives its expectations at runtime (brute-force oracles,
independent re-checks of self-duality and distances) and records a
[PASS]/[FAIL] summary line that conftest prints after the run.  Counts
that appear as literals were produced by the enumeration in the same
test and serve as regression pins, not as inputs.
"""
import contextlib
import io
import json
import math
import time

import pytest

from selfdual import (
    build_euclidean_duadic_extended,
    build_grs_hermitian,
    build_hermitian_extended_duadic,
    build_hermitian_n5,
    check_centered_duadic_splitting,
    cyclic_generator_matrix,
    exists_hermitian_dispatch,
    is_euclidean_self_dual,
    is_hermitian_self_dual,
    make_field,
    min_distance_exhaustive,
)
from selfdual.cli import main as cli_main
from selfdual.errors import PreconditionFailed
from selfdual.numtheory import gamma_solvability
from selfdual.table import EXPECTED_UNSUPPORTED, TABLE_ROWS, run_table

from oracles import (
    codeword,
    euclidean_dual,
    extension_weight_audit,
    hermitian_dual,
    odd_prime_powers,
    same_code,
)

RESULTS: dict[int, tuple[bool, str]] = {}


@contextlib.contextmanager
def criterion(num: int, title: str):
    info = {"note": title}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        RESULTS[num] = (False, "%s (%.1f s)"
                        % (info["note"], time.perf_counter() - start))
        raise
    RESULTS[num] = (True, "%s (%.1f s)"
                    % (info["note"], time.perf_counter() - start))


def naive_distance(code):
    """Full q**k enumeration, independent of the library scan."""
    field = code.field
    best = None
    for idx in range(1, field.order ** code.k):
        msg = []
        v = idx
        for _ in range(code.k):
            msg.append(field.from_int(v % field.order))
            v //= field.order
        w = sum(1 for x in codeword(code, msg) if x)
        if best is None or w < best:
            best = w
    return best


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli_main(list(argv))
    lines = [json.loads(line) for line in buf.getvalue().splitlines() if line]
    return status, lines


def test_criterion_1_reference_length_sweep():
    with criterion(1, "reference length sweep") as info:
        start = time.perf_counter()
        outcomes = run_table()
        elapsed = time.perf_counter() - start

        by_key = {(o.length, o.p, o.t): o for o in outcomes}
        assert len(by_key) == len(outcomes) == 22
        # every pair except the two expected refusals must be CONFIRMED
        for key, o in by_key.items():
            if key in EXPECTED_UNSUPPORTED:
                assert o.verdict == "UNSUPPORTED"
                assert o.reason == EXPECTED_UNSUPPORTED[key]
            else:
                assert o.verdict == "CONFIRMED", (key, o.reason)
        assert by_key[(30, 59, 1)].reason == "NoGamma"
        assert by_key[(156, 5, 4)].reason == "NotCoprime"
        confirmed = [o for o in outcomes if o.verdict == "CONFIRMED"]
        assert len(confirmed) == 20

        for o in confirmed:
            assert o.detail["n"] == o.length
            assert o.detail["k"] == o.length // 2
            assert o.detail["mds"].startswith("certified")

        # pairs small enough for a full codeword scan get the exact
        # distance length/2 + 1; everything larger carries a root-run
        # certificate instead
        small = {key for key in by_key
                 if key not in EXPECTED_UNSUPPORTED
                 and (key[1] ** key[2]) ** (key[0] // 2) <= 10 ** 6}
        assert small == {(4, 2, 2), (4, 7, 1), (6, 2, 4), (8, 2, 3), (6, 3, 4)}
        for key in small:
            o = by_key[key]
            assert o.detail["mds"] == "certified-exact"
            assert o.detail["distance"] == {"exact": key[0] // 2 + 1}

        # independent re-checks on the enumerable pairs: exact dual
        # equality plus a from-scratch distance scan
        for length, p, t in sorted(small):
            res = build_euclidean_duadic_extended(p, t, length - 1)
            assert is_euclidean_self_dual(res.code)
            assert same_code(euclidean_dual(res.code), res.code)
            assert min_distance_exhaustive(res.code) == length // 2 + 1
            if (p ** t) ** (length // 2) <= 5000:
                assert naive_distance(res.code) == length // 2 + 1

        assert elapsed < 120
        info["note"] = ("length sweep: 20/22 pairs confirmed, "
                        "(30, 59) and (156, 5^4) refused as expected, "
                        "%.1f s" % elapsed)


def test_criterion_2_splitting_counterexample_witnesses():
    with criterion(2, "splitting counterexamples") as info:
        # library route: centered candidate set for length 25
        r1 = check_centered_duadic_splitting(7, 1, 25)
        assert not r1.is_splitting
        assert r1.witness == 12
        assert r1.s1 == tuple(range(7, 19))
        r2 = check_centered_duadic_splitting(43, 1, 25)
        assert not r2.is_splitting
        assert r2.witness == 13

        # CLI route with explicit parameters: coset base q**2, the
        # multiplier congruent to -q mod 25
        status, out = run_cli("splitting", "--n", "25", "--q", "49",
                              "--multiplier", "18",
                              "--set-from", "7", "--set-to", "18")
        assert status == 0
        assert out[0]["is_splitting"] is False and out[0]["witness"] == 12
        status, out = run_cli("splitting", "--n", "25", "--q", "1849",
                              "--multiplier", "7",
                              "--set-from", "7", "--set-to", "18")
        assert status == 0
        assert out[0]["is_splitting"] is False and out[0]["witness"] == 13
        info["note"] = ("splitting refused with witness 12 (q = 7) and "
                        "13 (q = 43) for length 25, library and CLI")


def test_criterion_3_solvability_classifier_vs_brute_force():
    with criterion(3, "solvability classifier sweep") as info:
        start = time.perf_counter()
        pairs = 0
        for q, p, t in odd_prime_powers(343):
            field = make_field(p, t)
            elems = list(field.elements())
            for n in range(3, q, 2):
                if (q - 1) % n:
                    continue
                n_bar = field.scalar(n)
                brute = any(field.one + g * g * n_bar == field.zero
                            for g in elems)
                assert gamma_solvability(p, t, n).solvable == brute, (q, n)
                pairs += 1
        elapsed = time.perf_counter() - start
        assert pairs == 175    # enumeration size, pinned for regression
        assert elapsed < 10
        info["note"] = ("solvability classifier matches brute force on "
                        "all %d (q, n) pairs, q <= 343, %.1f s"
                        % (pairs, elapsed))


GRS_BASES = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]


def test_criterion_4_grs_suite():
    with criterion(4, "GRS suite") as info:
        built = 0
        for p, t in GRS_BASES:
            q = p ** t
            field = make_field(p, t)
            for n in range(2, q + 1, 2):
                res = build_grs_hermitian(p, t, n)
                code = res.code
                assert (code.n, code.k) == (n, n // 2)
                assert code.field.order == q * q
                # (a) self-duality, re-checked from the matrix
                assert is_hermitian_self_dual(code)
                assert same_code(hermitian_dual(code), code)
                # (b) interpolation moments, recomputed from the
                # serialized evaluation points
                pts = [field.from_int(i) for i in res.extras["points"]]
                u = []
                for i, a in enumerate(pts):
                    prod = field.one
                    for j, b in enumerate(pts):
                        if j != i:
                            prod = prod * (a - b)
                    u.append(prod.inverse())
                for m in range(n - 1):
                    acc = field.zero
                    for ui, ai in zip(u, pts):
                        acc = acc + ui * ai ** m
                    assert acc == field.zero, (q, n, m)
                # (c) MDS within guard budget: every size here fits the
                # exhaustive or column tier
                assert res.report.mds.status == "certified-exact"
                assert res.report.distance_exact == n // 2 + 1
                built += 1
        assert built == 21
        info["note"] = ("all %d GRS codes self-dual with exact moments "
                        "and certified MDS, q in {3,5,7,9,11,13}" % built)


def test_criterion_5_even_length_dispatch_coverage():
    with criterion(5, "even-length dispatch") as info:
        built = 0
        for p, t in GRS_BASES:
            q = p ** t
            for n in range(2, q + 2, 2):
                res = exists_hermitian_dispatch(p, t, n)
                want_route = "grs-hermitian" if n <= q else "constacyclic"
                assert res.construction == want_route, (q, n)
                assert (res.code.n, res.code.k) == (n, n // 2)
                assert res.report.hermitian_self_dual is True
                assert is_hermitian_self_dual(res.code)
                assert res.report.mds.status == "certified-exact"
                assert res.report.distance_exact == n // 2 + 1
                built += 1
        assert built == 27
        # the showcase shape: length q + 1 over GF(49)
        show = exists_hermitian_dispatch(7, 1, 8)
        assert show.construction == "constacyclic"
        assert show.code.field.order == 49
        assert (show.code.n, show.code.k, show.report.distance_exact) == (8, 4, 5)
        info["note"] = ("dispatch covers all %d even lengths n <= q + 1, "
                        "q in {3,5,7,9,11,13}; [8, 4, 5] over GF(49) via "
                        "the shift-constant route" % built)


def test_criterion_6_special_length_and_duadic_extensions():
    with criterion(6, "length-6 and extended duadic sweeps") as info:
        powers = odd_prime_powers(49)

        # membership in the 5 | q**2 + 1 family is computed, not assumed
        family = [(q, p, t) for q, p, t in powers if (q * q + 1) % 5 == 0]
        got = {q for q, _, _ in family}
        assert got >= {3, 7, 13, 43, 47}
        assert got == {3, 7, 13, 17, 23, 27, 37, 43, 47}
        for q, p, t in family:
            res = build_hermitian_n5(p, t)
            assert (res.code.n, res.code.k) == (6, 3)
            assert res.code.field.order == q * q
            assert res.report.hermitian_self_dual is True
            assert is_hermitian_self_dual(res.code)
            assert res.report.distance_exact == 4

        # extended duadic pairs: enumerate the preconditions, then
        # demand the builder succeeds exactly on that set
        valid = [(q, p, t, n) for q, p, t in powers
                 for n in range(3, q, 2)
                 if (q - 1) % n == 0 and math.gcd(n, q + 1) == 1]
        assert len(valid) == 20
        assert (47, 47, 1, 23) in valid
        for q, p, t, n in valid:
            res = build_hermitian_extended_duadic(p, t, n)
            assert (res.code.n, res.code.k) == (n + 1, (n + 1) // 2)
            assert res.report.hermitian_self_dual is True
            assert is_hermitian_self_dual(res.code)
            if res.report.distance_exact is not None:
                assert res.report.distance_exact == (n + 3) // 2
            else:
                # oversized instances carry the root-run certificate
                assert res.report.mds.status == "certified-bch"
                assert res.report.distance_lower_bound == (n + 1) // 2
        valid_set = {(p, t, n) for _, p, t, n in valid}
        for q, p, t in powers:
            for n in range(3, 50):
                if (p, t, n) in valid_set:
                    continue
                with pytest.raises(PreconditionFailed):
                    build_hermitian_extended_duadic(p, t, n)
        info["note"] = ("9 length-6 codes (5 | q^2 + 1 family) and 20 "
                        "extended duadic codes verified; every other "
                        "(q <= 49, n) pair correctly refused")


def test_criterion_7_property_suites_and_extension_audit():
    with criterion(7, "property suites and extension audit") as info:
        import test_properties as props

        required = [
            "test_euclidean_dual_is_an_involution",
            "test_hermitian_dual_is_an_involution",
            "test_conjugation_is_a_field_automorphism",
            "test_conjugation_is_an_involution_matching_qth_power",
            "test_norm_equation_always_solvable_for_nonzero_targets",
            "test_bch_verdict_is_sound",
            "test_consecutive_root_run_lower_bounds_the_distance",
        ]
        for name in required:
            assert callable(getattr(props, name)), name
        # norm-map sampling spans every prime power q <= 13
        assert {p ** t for p, t in props.TOWER_BASE_POOL} == \
            {2, 3, 4, 5, 7, 8, 9, 11, 13}

        # minimum-weight words of the unextended cyclic code must all
        # have nonzero coordinate sum, for every sweep instance small
        # enough to enumerate
        small = [(length, p, t) for length, fs in TABLE_ROWS for p, t in fs
                 if (length, p, t) not in EXPECTED_UNSUPPORTED
                 and (p ** t) ** (length // 2) <= 10 ** 6]
        assert sorted(small) == [(4, 2, 2), (4, 7, 1), (6, 2, 4),
                                 (6, 3, 4), (8, 2, 3)]
        for length, p, t in small:
            res = build_euclidean_duadic_extended(p, t, length - 1)
            base = cyclic_generator_matrix(res.cyclic)
            d, all_sums_nonzero = extension_weight_audit(base)
            assert d == length // 2
            assert all_sums_nonzero is True
        info["note"] = ("property suites in place (duals, conjugation, "
                        "norm map, root-run bound); extension audit clean "
                        "on all %d enumerable sweep instances" % len(small))
