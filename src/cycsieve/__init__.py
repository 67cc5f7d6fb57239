"""cycsieve: exact verification of a geometric sieve for cyclic covers of P^n
over F_q(T) — finite-field kernels, power-residue character sums, Gauss sums,
Weil-bound audits, projective duality checks, and the sieve inequalities,
all in exact arithmetic at desk scale.

The package exports its modules, not names (``from cycsieve import sieve``),
and imports none of them itself, so each command loads only what it runs.
"""

__version__ = "0.1.0"
