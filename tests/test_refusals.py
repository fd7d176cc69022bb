"""Each public function refuses a bad input with its own message.

One row per refusal that no other test reaches, called through the
public function that makes it.
"""

from fractions import Fraction

import pytest

from oracles import integer_image
from primelab.errors import ValidationError
from primelab.gpy import GpyParams, remainder_R, residue_set_C
from primelab.maynard import (
    BasisIndex,
    GBoundParams,
    QuadraticFormPair,
    build_quadratic_forms,
    enumerate_basis,
    gap_bound_chain,
    rayleigh_quotient,
)
from primelab.sieve import mangoldt_range, prime_count
from primelab.stats import (
    hardy_ramanujan_proportion,
    mertens_sums,
    normal_interval,
    pigeonhole_experiment,
)
from primelab.tuples import prime_offset_tuple, require_admissible

TRIPLE = require_admissible([0, 2, 6])
ONE = (BasisIndex(0, 0),)

REFUSALS = {
    "gpy_params_x": (lambda: GpyParams(k=3, l=1, b=0.25, x=99, tuple=TRIPLE),
                     "x must be >= 100, got 99"),
    "residue_set_d": (lambda: residue_set_C(1, 0, TRIPLE), "d must be >= 1, got 0"),
    "remainder_c": (lambda: remainder_R(1000, 3, 0), "c must lie in [1, 3], got 0"),
    "enumerate_basis_degree": (lambda: enumerate_basis(-1), "degree must be >= 0, got -1"),
    "form_dimensions": (
        lambda: QuadraticFormPair(k=2, degree=0, basis=ONE,
                                  image1=integer_image([[Fraction(1)]]),
                                  image2=integer_image([[Fraction(1), Fraction(0)]])),
        "matrix dimensions must equal basis size",
    ),
    "forms_k": (lambda: build_quadratic_forms(0, 2), "k must be >= 1, got 0"),
    "forms_degree": (lambda: build_quadratic_forms(3, -1), "degree must be >= 0, got -1"),
    "rayleigh_length": (
        lambda: rayleigh_quotient(build_quadratic_forms(2, 1), [Fraction(1)]),
        "need 2 coefficients, got 1",
    ),
    "rayleigh_zero_norm": (
        lambda: rayleigh_quotient(build_quadratic_forms(2, 1), [Fraction(0)] * 2),
        "witness has zero I-form norm",
    ),
    "gbound_variant": (lambda: GBoundParams(A=1.0, T=1.0, k=5, variant="squared"),
                       "variant must be one of"),
    "chain_tuple_length": (
        lambda: gap_bound_chain(5, 3, 0.5, 1, prime_offset_tuple(4)),
        "tuple has 4 offsets, expected 5",
    ),
    "prime_count_x": (lambda: prime_count(-1), "x must be >= 0, got -1"),
    # primes_between makes the range check on its first step
    "mangoldt_range": (lambda: mangoldt_range(5, 3), "need 0 <= lo < hi, got [5, 3)"),
    "pigeonhole_H": (lambda: pigeonhole_experiment(1000, -1, 10), "H must be >= 0, got -1"),
    "mertens_n": (lambda: mertens_sums(2), "n must be >= 3, got 2"),
    "hardy_ramanujan_n": (lambda: hardy_ramanujan_proportion(15, 1.0), "n must be >= 16, got 15"),
    "normal_interval": (lambda: normal_interval(1.0, 1.0), "need a < b, got a=1.0 b=1.0"),
    "prime_offset_k": (lambda: prime_offset_tuple(0), "k must be >= 1, got 0"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_names_the_violated_precondition(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValidationError) as info:
        call()
    assert message in str(info.value)
