"""Coset and splitting machinery.

The two failing-splitting fixtures (witnesses 12 and 13 for n = 25)
were recomputed by hand: with T = {7..18} and multiplier 18 = -7 mod 25
the least i in T whose image lands back in T is i = 9, image 12; with
multiplier 7 = -43 mod 25 it is i = 9 again, image 13.
"""
import pytest

from selfdual.cosets import (
    DefiningSet,
    check_duadic_splitting,
    consecutive_run,
    cyclotomic_coset,
)
from selfdual.errors import NotCoprime, ZeroInSet


def test_cyclotomic_coset_hand_values():
    assert cyclotomic_coset(1, 25, 7) == (1, 7, 18, 24)
    assert cyclotomic_coset(2, 25, 7) == (2, 11, 14, 23)
    assert cyclotomic_coset(0, 25, 7) == (0,)
    assert cyclotomic_coset(5, 15, 2) == (5, 10)


def test_cyclotomic_coset_closure_partition():
    n, q = 21, 4
    seen = set()
    for i in range(n):
        orbit = set(cyclotomic_coset(i, n, q))
        assert {x * q % n for x in orbit} == orbit
        if i not in seen:
            assert not (orbit & seen) or orbit <= seen
        seen |= orbit
    assert seen == set(range(n))


def test_cyclotomic_coset_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        cyclotomic_coset(1, 15, 3)


def test_defining_set_normalization():
    T = DefiningSet(7, (5, 12, 5, 3))
    assert T.elements == (3, 5)
    assert len(T) == 2
    assert frozenset(T.elements) == {3, 5}


def test_defining_set_step_validation():
    T = DefiningSet(8, (1, 3), step=2)
    assert T.elements == (1, 3)
    with pytest.raises(ValueError):
        DefiningSet(8, (2, 3), step=2)   # 2 is not 1 mod 2... (even member)


def test_defining_set_json_roundtrip():
    T = DefiningSet(16, (1, 3, 5, 7), step=2)
    obj = T.to_json()
    assert obj == {"modulus": 16, "step": 2, "elements": [1, 3, 5, 7]}
    assert DefiningSet.from_json(obj) == T


# --- splitting checks ---

def centered_set(n):
    return DefiningSet(n, tuple(range((n + 3) // 4, (3 * n - 3) // 4 + 1)))


def test_splitting_failure_witness_n25_q7():
    rep = check_duadic_splitting(centered_set(25), -7, 25, 49)
    assert not rep.is_splitting
    assert rep.witness == 12
    assert rep.multiplier == 18


def test_splitting_failure_witness_n25_q43():
    rep = check_duadic_splitting(centered_set(25), 7, 25, 43 * 43)
    assert not rep.is_splitting
    assert rep.witness == 13


def test_splitting_success_n5_q9():
    rep = check_duadic_splitting(centered_set(5), -3, 5, 9)
    assert rep.is_splitting
    assert rep.witness is None
    assert set(rep.s1) | set(rep.s2) == set(range(1, 5))
    assert len(rep.s1) == len(rep.s2) == 2


def test_splitting_halves_are_coset_closed_when_ok():
    # nontrivial cosets: 9 = 4 (mod 5) pairs {2,3} and {1,4}
    rep = check_duadic_splitting(centered_set(5), -3, 5, 9)
    assert rep.is_splitting
    for half in (rep.s1, rep.s2):
        assert {x * 9 % 5 for x in half} == set(half)


def test_splitting_mu_minus_one_invariant():
    # T = {1..(n-1)/2} splits under -1 whenever n | q - 1
    for q in (7, 13, 25, 31, 49):
        for n in range(3, q, 2):
            if (q - 1) % n:
                continue
            T = DefiningSet(n, tuple(range(1, (n + 1) // 2)))
            assert check_duadic_splitting(T, -1, n, q).is_splitting


def test_splitting_rejects_zero_member():
    with pytest.raises(ZeroInSet):
        check_duadic_splitting(DefiningSet(11, (0, 1)), -1, 11, 3)


def test_splitting_report_json():
    rep = check_duadic_splitting(centered_set(25), -7, 25, 49)
    obj = rep.to_json()
    assert obj["is_splitting"] is False
    assert obj["witness"] == 12
    assert obj["n"] == 25


def naive_splitting(T, a, n, q):
    """Independent verifier: all three defining conditions from sets."""
    s1 = {x % n for x in T}
    s2 = set(range(1, n)) - s1
    cond_swap = ({a * x % n for x in s1} == s2
                 and {a * x % n for x in s2} == s1)
    cond_cosets = all({x * q % n for x in half} == half
                      for half in (s1, s2))
    return cond_swap and cond_cosets


def test_splitting_agrees_with_naive_exhaustive_small():
    # every subset of Z_7* against every multiplier, q = 2
    import itertools

    n, q = 7, 2
    for size in range(1, 6):
        for combo in itertools.combinations(range(1, n), size):
            T = DefiningSet(n, combo)
            for a in range(2, n):
                rep = check_duadic_splitting(T, a, n, q)
                assert rep.is_splitting == naive_splitting(combo, a, n, q)


# --- consecutive runs ---

def test_consecutive_run_values():
    assert consecutive_run(DefiningSet(7, ())) == 0
    assert consecutive_run(DefiningSet(7, (1, 2, 3))) == 3
    assert consecutive_run(DefiningSet(7, (6, 0))) == 2          # wraps
    assert consecutive_run(DefiningSet(7, (5, 6, 0, 1))) == 4    # wraps
    assert consecutive_run(DefiningSet(8, (1, 3), step=2)) == 2
    assert consecutive_run(DefiningSet(9, (1, 2, 4, 5))) == 2
    run = consecutive_run(DefiningSet(11, tuple(range(1, 6))))
    assert run == 5


def test_consecutive_run_bounded_by_size():
    T = DefiningSet(12, (1, 3, 4, 7, 9))
    assert consecutive_run(T) <= len(T)


def test_full_set_run_is_modulus():
    T = DefiningSet(5, (0, 1, 2, 3, 4))
    assert consecutive_run(T) == 5
