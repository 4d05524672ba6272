"""Reference sweep of Euclidean extended duadic lengths 4..30 and 156.

Each row lists the fields claimed (or refuted) for that length.  The
runner rebuilds every pair from scratch and compares the outcome with
the expected verdict, so the sweep doubles as a regression gate.
"""
from __future__ import annotations

import time

from .config import GuardConfig, current_guards
from .constructions import build_euclidean_duadic_extended
from .errors import NoGamma, PreconditionFailed, SelfDualError
from .frozen import Frozen

# (length, ((p, t), ...)) with length = n + 1
TABLE_ROWS: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (4, ((2, 2), (7, 1))),
    (6, ((2, 4), (3, 4))),
    (8, ((2, 3), (3, 6))),
    (10, ((2, 6), (5, 6))),
    (12, ((3, 5),)),
    (14, ((2, 12), (3, 6))),
    (16, ((31, 1), (31, 2), (31, 3))),
    (18, ((3, 16),)),
    (20, ((5, 9),)),
    (22, ((5, 6),)),
    (24, ((3, 11),)),
    (26, ((7, 4),)),
    (28, ((7, 9),)),
    (30, ((59, 1),)),
    (156, ((5, 4),)),
)

# pairs expected to fail, with the failing check
EXPECTED_UNSUPPORTED: dict[tuple[int, int, int], str] = {
    (30, 59, 1): "NoGamma",
    (156, 5, 4): "NotCoprime",
}


def field_label(p: int, t: int) -> str:
    return "%d^%d" % (p, t) if t > 1 else str(p)


class TableOutcome(Frozen):
    """One table pair; ``verdict`` is CONFIRMED, UNSUPPORTED or GUARDED."""

    _fields = ("length", "p", "t", "verdict", "reason", "seconds", "detail")

    def __init__(self, length: int, p: int, t: int, verdict: str,
                 reason: str | None, seconds: float, detail: dict | None):
        self._assign(length, p, t, verdict, reason, seconds, detail)

    @property
    def expected(self) -> tuple[str, str | None]:
        reason = EXPECTED_UNSUPPORTED.get((self.length, self.p, self.t))
        if reason is None:
            return ("CONFIRMED", None)
        return ("UNSUPPORTED", reason)

    @property
    def matches_expected(self) -> bool:
        want_verdict, want_reason = self.expected
        if self.verdict != want_verdict:
            return False
        return want_reason is None or self.reason == want_reason

    def to_json(self):
        out = {
            "length": self.length,
            "q": field_label(self.p, self.t),
            "p": self.p,
            "t": self.t,
            "verdict": self.verdict,
            "seconds": round(self.seconds, 3),
            "expected": self.expected[0],
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.detail is not None:
            out["detail"] = self.detail
        out["matches_expected"] = self.matches_expected
        return out


def run_table_pair(length: int, p: int, t: int,
                   guards: GuardConfig | None = None) -> TableOutcome:
    guards = current_guards(guards)
    start = time.perf_counter()
    try:
        result = build_euclidean_duadic_extended(p, t, length - 1, guards)
    except SelfDualError as exc:
        # NoGamma carries no reason of its own: its code is the reason
        verdict, reason = "GUARDED", exc.code
        if isinstance(exc, (NoGamma, PreconditionFailed)):
            verdict, reason = "UNSUPPORTED", getattr(exc, "reason", exc.code)
        return TableOutcome(length, p, t, verdict, reason,
                            time.perf_counter() - start, {"message": str(exc)})
    seconds = time.perf_counter() - start
    report = result.report
    detail: dict = {
        "n": result.code.n,
        "k": result.code.k,
        "mds": report.mds.status,
        "theorem": result.theorem,
        "distance": report.to_json()["distance"],
    }
    return TableOutcome(length, p, t, "CONFIRMED", None, seconds, detail)


def run_table(guards: GuardConfig | None = None) -> list[TableOutcome]:
    guards = current_guards(guards)
    outcomes = []
    for length, fields in TABLE_ROWS:
        for p, t in fields:
            outcomes.append(run_table_pair(length, p, t, guards))
    return outcomes
