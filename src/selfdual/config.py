"""Guard thresholds for the exhaustive parts of the pipeline.

All heavy checks are bounded so that a stray parameter cannot hang the
process.  The defaults can be overridden per call or globally through the
environment variable ``SELFDUAL_GUARD_OVERRIDE`` whose value is a
comma-separated ``key=value`` list, e.g.::

    SELFDUAL_GUARD_OVERRIDE="codewords=20000000,columns=2000000"

Recognized keys: ``field_size``, ``factor_limit``, ``dlog_limit``,
``codewords``, ``columns``.  An unknown key, a non-integer or a limit
below 1 is refused with ``MalformedInput``.  Each limit refuses work;
which rung of the MDS ladder runs is chosen by ``codes.certify_mds``.
"""
from __future__ import annotations

import functools
import os

from .errors import MalformedInput
from .frozen import Frozen

_ENV_VAR = "SELFDUAL_GUARD_OVERRIDE"

_KEY_TO_FIELD = {
    "field_size": "field_size_limit",
    "factor_limit": "factor_limit",
    "dlog_limit": "dlog_limit",
    "codewords": "codeword_limit",
    "columns": "column_limit",
}


class GuardConfig(Frozen):
    """The guard limits; a keyword argument overrides its default.

    - ``field_size_limit``: largest admissible field order, also of
      the quadratic extension a root proof places a code's roots in
      (refused: no proof).
    - ``factor_limit``: ``factorize()`` refuses integers above this,
      and ``fields.check_field_size`` a field whose order less one is
      above it.
    - ``dlog_limit``: bounds each walk over one element's powers: a
      base order q above it stops the norm walk of the Hermitian
      routes (q - 1 base powers), a defining set modulus m above it
      stops the root walk of the root-run rung and of a cyclic route's
      generator (m powers), a q - 1 above it stops the Zech-log table
      of the codeword scan (q - 1 powers of the primitive element), and
      an n above it stops ``selfdual splitting``,
      ``check_centered_duadic_splitting`` and ``check_duadic_splitting``
      (powers of q mod n).
    - ``codeword_limit``: ``min_distance_exhaustive()`` refuses when
      q**k exceeds this; as k >= 2 for a table, it bounds the scan's
      Zech-log table too, to q**2 <= the limit.  That table is the one
      log encoding the package builds: every reduction, walk and
      minor runs on packed values.
    - ``column_limit``: ``mds_check(exhaustive-columns)`` refuses when
      C(n, k) exceeds this.
    """

    _fields = ("field_size_limit", "factor_limit", "dlog_limit",
               "codeword_limit", "column_limit")

    def __init__(self, field_size_limit: int = 2**31,
                 factor_limit: int = 2**40, dlog_limit: int = 2**20,
                 codeword_limit: int = 10**7, column_limit: int = 10**6):
        self._assign(field_size_limit, factor_limit, dlog_limit,
                     codeword_limit, column_limit)

    @staticmethod
    def from_env() -> "GuardConfig":
        """Defaults overridden by ``SELFDUAL_GUARD_OVERRIDE``.

        Raises ``MalformedInput`` on an unknown key, a value that is not
        an integer, or a limit below 1.  Each raw value is parsed once:
        a changed variable is parsed afresh, and a refused one is never
        cached, so it is refused on every call.
        """
        return _parse_override(os.environ.get(_ENV_VAR, ""))


@functools.lru_cache(maxsize=8)
def _parse_override(raw: str) -> GuardConfig:
    """The guards of one raw value of ``SELFDUAL_GUARD_OVERRIDE``."""
    overrides = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        field = _KEY_TO_FIELD.get(key.strip())
        try:
            limit = int(value)
        except ValueError:
            limit = 0
        if field is None or limit < 1:
            raise MalformedInput(
                "%s: bad entry %r, expected key=limit with a limit "
                ">= 1 and a key among %s"
                % (_ENV_VAR, part, ", ".join(_KEY_TO_FIELD)))
        overrides[field] = limit
    return GuardConfig(**overrides)


def current_guards(guards: "GuardConfig | None" = None) -> GuardConfig:
    """Resolve the guard config for a call: explicit wins over environment."""
    if guards is not None:
        return guards
    return GuardConfig.from_env()
