"""MDS self-dual codes over finite fields: constructions with built-in
verification, a splitting checker, and a reference length sweep.

The top level holds the routes and what the README and the benchmark
use; every other name is imported from its submodule (``selfdual.codes``,
``selfdual.fields``, ...).  ``selfdual.table`` is bound on import."""

from . import table
from .codes import (
    LinearCode,
    code_from_json,
    code_to_json,
    cyclic_generator_matrix,
    extend_code,
    generator_from_defining_set,
    is_euclidean_self_dual,
    is_hermitian_self_dual,
    min_distance_exhaustive,
)
from .config import GuardConfig
from .constructions import (
    ConstructionResult,
    build_constacyclic_hermitian,
    build_euclidean_duadic_extended,
    build_grs_hermitian,
    build_hermitian_extended_duadic,
    build_hermitian_n5,
    build_negacyclic_hermitian,
    check_centered_duadic_splitting,
    exists_hermitian_dispatch,
    solve_gamma_euclidean,
)
from .cosets import DefiningSet
from .errors import (
    MalformedInput,
    NoGamma,
    PreconditionFailed,
    SelfDualError,
    VerificationFailed,
)
from .fields import find_primitive_element, make_field, quadratic_extension

__version__ = "0.1.0"
