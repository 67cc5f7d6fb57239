"""cycsieve: exact verification of a geometric sieve for cyclic covers of P^n
over F_q(T) — finite-field kernels, power-residue character sums, Gauss sums,
Weil-bound audits, projective duality checks, and the sieve inequalities,
all in exact arithmetic at desk scale.
"""

__version__ = "0.1.0"

from .ffield import GF, ExtensionField, PrimeField  # noqa: F401
from .cyclotomic import CycRing, cyc_ring  # noqa: F401
from .geometry import MultiForm, Verdict  # noqa: F401
from .charsums import Budget, BudgetExceeded, CharSumContext, wd_audit  # noqa: F401
from .sieve import (  # noqa: F401
    SieveParams,
    SievingSet,
    brute_force_count,
    build_sieving_set,
    choose_delta,
    min_b,
    sieve_inequality_general,
    sieve_terms,
)
from .reports import load_config, resolve_config, run_sieve  # noqa: F401
