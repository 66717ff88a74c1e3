"""Desk-scale toolkit for primes in arithmetic progressions.

Exact verifiers and evaluators for the combinatorial and exponential-sum
machinery behind equidistribution of primes to large moduli: discrepancy
scans, Buchstab/Harman sieve decompositions, fundamental-lemma weights,
Kloosterman and hyper-Kloosterman sums, and truncated completion-of-sums
formulas.
"""

__version__ = "0.1.0"

from .arith import (  # noqa: F401,E402
    FactoredInt,
    bezout_split,
    coprime_partition,
    divisors,
    euler_phi,
    factorize,
    mobius,
    mod_inv,
    tau_k,
)
from .buchstab import buchstab_omega  # noqa: F401,E402
from .completion import (  # noqa: F401,E402
    completed_ap_sum,
    completed_inverse_sum,
    coprime_smooth_sum,
    partition_of_unity,
    psi0_eval,
    psi0_hat,
)
from .dispersion import DispersionInstance, dispersion_expand  # noqa: F401,E402
from .expsums import (  # noqa: F401,E402
    deligne_check,
    f_property_check,
    f_sum,
    kl3,
    kl3_correlation,
    kloosterman,
    ramanujan,
    weil_check,
)
from .harman import harman_tree  # noqa: F401,E402
from .identities import (  # noqa: F401,E402
    fundamental_lemma_weights,
    heath_brown_decompose,
    heath_brown_range,
    reduction_sequences,
    verify_buchstab,
)
from .primes import pi, primes_in, rough_count, von_mangoldt  # noqa: F401,E402
from .progressions import (  # noqa: F401,E402
    SValue,
    bv_aggregate,
    divisor_window_family,
    exceptional_fraction,
    pi_ap,
    s_value,
    s_values,
)
