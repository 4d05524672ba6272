"""Instance pools of the three benchmark workloads.

Pure data and plain Python: the parent process of the benchmark never
imports ``selfdual``, so that every pass it times starts in a fresh
interpreter with empty caches.
"""
from __future__ import annotations

from math import gcd

# `selfdual construct` arguments for the cli-cold pool: the seven README
# examples first, then the larger instances named by the workload.
CLI_POOL: tuple[tuple[str, ...], ...] = (
    ("euclidean-duadic", "--p", "7", "--n", "3"),
    ("grs-hermitian", "--p", "5", "--n", "4"),
    ("constacyclic", "--p", "11", "--n", "6", "--r", "4"),
    ("negacyclic", "--p", "3", "--t", "2", "--n", "10"),
    ("hermitian-duadic", "--p", "11", "--n", "5"),
    ("hermitian-n5", "--p", "7"),
    ("dispatch", "--p", "7", "--n", "8"),
    ("euclidean-duadic", "--p", "31", "--n", "15"),
    ("grs-hermitian", "--p", "13", "--n", "12"),
    ("grs-hermitian", "--p", "31", "--n", "30"),
    ("grs-hermitian", "--p", "3", "--t", "3", "--n", "26"),
    ("dispatch", "--p", "13", "--n", "14"),
    ("dispatch", "--p", "31", "--n", "32"),
    ("hermitian-duadic", "--p", "47", "--n", "23"),
    ("hermitian-n5", "--p", "13"),
    ("hermitian-n5", "--p", "23"),
)

# (length, p, t) for every pair of selfdual.table.TABLE_ROWS, in order.
TABLE_PAIRS: tuple[tuple[int, int, int], ...] = (
    (4, 2, 2), (4, 7, 1), (6, 2, 4), (6, 3, 4), (8, 2, 3), (8, 3, 6),
    (10, 2, 6), (10, 5, 6), (12, 3, 5), (14, 2, 12), (14, 3, 6),
    (16, 31, 1), (16, 31, 2), (16, 31, 3), (18, 3, 16), (20, 5, 9),
    (22, 5, 6), (24, 3, 11), (26, 7, 4), (28, 7, 9), (30, 59, 1),
    (156, 5, 4),
)


def cli_id(argv) -> str:
    return "construct " + " ".join(argv)


def table_id(pair) -> str:
    length, p, t = pair
    return "table %d %d^%d" % (length, p, t)


def _odd_prime_powers(limit: int):
    out = []
    for p in range(3, limit + 1):
        if any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            continue
        q, t = p, 1
        while q <= limit:
            out.append((q, p, t))
            q, t = q * p, t + 1
    return sorted(out)


def sweep_builds():
    """(builder name, args) for the 56 builds of criteria 4 to 6.

    Every even n <= q + 1 through the dispatcher for q <= 13, the
    length-6 family for every q <= 49 with 5 | q^2 + 1 (q = 37, 43, 47
    included: they set the tail), and every valid extended duadic
    (q, n) with q <= 49.
    """
    builds = []
    for q, p, t in _odd_prime_powers(13):
        for n in range(2, q + 2, 2):
            builds.append(("exists_hermitian_dispatch", (p, t, n)))
    for q, p, t in _odd_prime_powers(49):
        if (q * q + 1) % 5 == 0:
            builds.append(("build_hermitian_n5", (p, t)))
    for q, p, t in _odd_prime_powers(49):
        for n in range(3, q, 2):
            if (q - 1) % n == 0 and gcd(n, q + 1) == 1:
                builds.append(("build_hermitian_extended_duadic", (p, t, n)))
    return builds


def sweep_id(build) -> str:
    name, args = build
    return "%s(%s)" % (name, ", ".join(str(a) for a in args))


def _grouped(keys):
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


# Instances that share a field form one block and keep their order inside
# it, so that the instance paying for the field's canonical choices (and
# filling the caches) is the same under every seed: the seed shuffles
# whole blocks.  Every cli-cold request is a process of its own.
BLOCKS = {
    "cli-cold": [[i] for i in range(len(CLI_POOL))],
    "euclidean-table": _grouped([(p, t) for _, p, t in TABLE_PAIRS]),
    "hermitian-sweep": _grouped([args[0] ** args[1]
                                 for _, args in sweep_builds()]),
}


def shuffled(blocks, rng) -> list[int]:
    order = list(blocks)
    rng.shuffle(order)
    return [i for block in order for i in block]


def is_proved(report: dict, n: int, k: int) -> bool:
    """Whether a verification report proves d = n - k + 1.

    Monte-Carlo (also behind ``certified-structural``), ``inconclusive``,
    ``guarded`` and a bound short of n - k + 1 all count as unproved.
    """
    if report["mds"]["status"] not in ("certified-exact", "certified-bch"):
        return False
    distance = report.get("distance") or {}
    d = distance.get("exact", distance.get("lower_bound"))
    return d is not None and d >= n - k + 1
