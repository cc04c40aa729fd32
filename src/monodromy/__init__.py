"""Finite-monodromy criteria for exponential sums, in exact arithmetic.

The package has five layers:

* :mod:`monodromy.qz` - classes in (Q/Z) prime to p and the Kubert
  V-function by p-adic digit sums;
* :mod:`monodromy.fm_exponents` - the FM-exponent classification and its
  numeric cross-check;
* :mod:`monodromy.criteria` - the W functional, the two-variable and
  binomial inequalities, and bounded exhaustive violation searches;
* :mod:`monodromy.catalog` - the candidate/final/binomial family lists as
  data, brute-force scans, and the scan-vs-theorems crosscheck;
* :mod:`monodromy.charsums` - literal character sums over small finite
  fields (Gauss, Jacobi, Mellin, switchsum), the independent oracle layer.
"""

from .qz import QzClass, kubert_v, mult_order
from .fm_exponents import classify_fm_exponent, numeric_monomial_check, prime_to_p_part
from .criteria import (
    ExponentPair,
    WitnessReport,
    belyi_monomial_side,
    belyi_search,
    binomial_check,
    binomial_search,
    default_max_r,
    verify_witness_table,
    w_value,
)
from .catalog import (
    classify_binomial,
    classify_pair,
    crosscheck,
    enumerate_family,
    fm_pair_scan,
    quotient_lemma_oracle,
)
from .charsums import (
    build_field,
    exp_sum,
    gauss_sum,
    jacobi_sum,
    mellin_sum,
    switchsum_check,
)

__version__ = "0.1.0"

__all__ = [
    "ExponentPair",
    "QzClass",
    "WitnessReport",
    "belyi_monomial_side",
    "belyi_search",
    "binomial_check",
    "binomial_search",
    "build_field",
    "classify_binomial",
    "classify_fm_exponent",
    "classify_pair",
    "crosscheck",
    "default_max_r",
    "enumerate_family",
    "exp_sum",
    "fm_pair_scan",
    "gauss_sum",
    "jacobi_sum",
    "kubert_v",
    "mellin_sum",
    "mult_order",
    "numeric_monomial_check",
    "prime_to_p_part",
    "quotient_lemma_oracle",
    "switchsum_check",
    "verify_witness_table",
    "w_value",
]
