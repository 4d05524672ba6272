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

    - ``field_size_limit``: largest admissible field order.
    - ``factor_limit``: ``factorize()`` refuses integers above this,
      and ``fields.check_field_size`` a field whose order less one is
      above it.
    - ``dlog_limit``: bounds each walk over one element's powers: a
      field of order q above it gets no Zech-log table (q - 1 powers),
      a base order q above it stops the norm walk of the Hermitian
      routes (q - 1 base powers), a defining set modulus m above it
      stops the root walk of the root-run rung and of a cyclic route's
      generator (m powers), and an n above it stops ``selfdual
      splitting`` and ``check_centered_duadic_splitting`` (powers of q
      mod n).
    - ``codeword_limit``: ``min_distance_exhaustive()`` refuses when
      q**k exceeds this.
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
        an integer, or a limit below 1.
        """
        raw = os.environ.get(_ENV_VAR, "").strip()
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
