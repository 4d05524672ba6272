"""Kernel probes: single-layer timings on fixed seeded inputs.

    probes.py RESULT SEED

Runs in an interpreter of its own so that it warms no workload's caches,
and writes {metric name: value} as JSON to RESULT.  Each value is the
median of five timed batches, each batch in reference seconds (see
speed.py).  Sanity reference: raw wall times of 8, 20 and 140 us per
multiply in GF(31^3), GF(47^2) and GF(47^4) on a 2-core x86 box with
Python 3.11; in reference seconds, which assume the box's fast state,
the same work reads about 4, 11 and 76 us.
"""
import json
import random
import statistics
import sys
import time

from selfdual import (
    DefiningSet,
    LinearCode,
    cyclic_generator_matrix,
    extend_code,
    find_primitive_element,
    generator_from_defining_set,
    is_euclidean_self_dual,
    make_field,
    min_distance_exhaustive,
    quadratic_extension,
    solve_gamma_euclidean,
)
from selfdual.linalg import DlogTable, det_nonzero, null_space
from speed import BOUNDARY_RUNS, REFERENCE_S, probe


def _median_seconds(fn, repeats: int = 5) -> float:
    times = []
    after = probe(BOUNDARY_RUNS)
    for _ in range(repeats):
        before = after
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        after = probe(BOUNDARY_RUNS)
        times.append(elapsed * REFERENCE_S * 2 / (before + after))
    return statistics.median(times)


def _field_probes(out: dict, rng: random.Random) -> None:
    gf31_3 = make_field(31, 3)
    gf47_2 = quadratic_extension(make_field(47, 1))
    fields = {"gf31_3": gf31_3, "gf47_2": gf47_2,
              "gf47_4": quadratic_extension(gf47_2)}
    for label, field in fields.items():
        xs = [field.from_int(rng.randrange(1, field.order))
              for _ in range(64)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        exponent = (field.order - 1) // 2

        def mul():
            for a, b in pairs:
                a * b

        def inv():
            for x in xs:
                x.inverse()

        def power():
            for x in xs[:8]:
                x ** exponent

        out["fields.mul_us." + label] = _median_seconds(mul) / 64 * 1e6
        out["fields.inv_us." + label] = _median_seconds(inv) / 64 * 1e6
        out["fields.pow_us." + label] = _median_seconds(power) / 8 * 1e6


def _linalg_probes(out: dict, rng: random.Random) -> None:
    field = make_field(31, 3)
    find_primitive_element(field)  # the build alone is timed
    out["linalg.dlog_build_ms.gf31_3"] = _median_seconds(
        lambda: DlogTable(field), repeats=3) * 1e3
    table = DlogTable(field)
    rows = [[field.from_int(rng.randrange(1, field.order)) for _ in range(8)]
            for _ in range(8)]
    encoded = [[table.encode(x) for x in row] for row in rows]

    def zech():
        for _ in range(20):
            table.det_nonzero(encoded)

    def generic():
        for _ in range(5):
            det_nonzero(rows, field)

    out["linalg.det8_zech_us"] = _median_seconds(zech) / 20 * 1e6
    out["linalg.det8_generic_us"] = _median_seconds(generic) / 5 * 1e6


def _code_probes(out: dict, rng: random.Random) -> None:
    gf31 = make_field(31, 1)
    # the [16, 8] Euclidean self-dual extended duadic code over GF(31)
    spec = generator_from_defining_set(gf31, 15, gf31.one,
                                       DefiningSet(15, tuple(range(1, 8))))
    code = extend_code(cyclic_generator_matrix(spec),
                       solve_gamma_euclidean(gf31, 15))
    out["codes.gram_check_ms"] = _median_seconds(
        lambda: is_euclidean_self_dual(code)) * 1e3
    out["linalg.null_space_ms"] = _median_seconds(
        lambda: null_space(code.generator, code.n, gf31)) * 1e3
    # a seeded systematic [12, 3] code over GF(31): 993 projective words
    k, n = 3, 12
    rows = tuple(
        tuple(gf31.one if j == i else gf31.zero for j in range(k))
        + tuple(gf31.from_int(rng.randrange(31)) for _ in range(n - k))
        for i in range(k))
    scan_code = LinearCode(gf31, n, k, rows)
    out["codes.projective_scan_ms"] = _median_seconds(
        lambda: min_distance_exhaustive(scan_code)) * 1e3


def main(argv) -> int:
    result_path, seed = argv[0], int(argv[1])
    rng = random.Random(seed)
    out: dict = {}
    _field_probes(out, rng)
    _linalg_probes(out, rng)
    _code_probes(out, rng)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
