"""High-precision verification toolkit for Mahler measures, L-values,
and hypergeometric identities.

The package is organized as a stack: a fixed-point int layer with two
series accelerators, Richardson and Levin (precision), special functions
on top of it (special), deterministic
quadrature and lattice QMC (quadrature), eta-product newforms and their
L-functions (modular), Wilf-Zeilberger certificates (wz), finite-field
hypergeometrics (ffield), torus Mahler measures (mahler), and finally a
registry of named identity checks (registry) with a CLI front end (cli).

>>> import mahlerlab
>>> mahlerlab.run_check("thm-1.1").passed
True
"""

from .ffield import greene_nfn, verify_4_1
from .mahler import (
    LaurentDescriptor,
    builtin_descriptor,
    builtin_names,
    density_integral_check,
    fourier_check,
    m_rk_hypergeometric,
    mahler_numeric,
    parse_descriptor,
    r_alpha,
    wan_moment_check,
)
from .modular import (
    NEWFORM_F,
    NEWFORM_H,
    FunctionalEquationViolation,
    NewformSpec,
    QSeries,
    axis_mellin,
    eta_qexp,
    fricke_check,
    l_prime_at_0,
    l_value,
    newform_coefficient,
)
from .precision import NoConvergence, ResourceLimitError, accelerate
from .quadrature import IntegrandError, tanh_sinh, tanh_sinh_interval, torus_qmc
from .registry import (
    KINDS,
    CheckResult,
    IdentityCheck,
    UnknownCheckError,
    check_ids,
    get_check,
    run_all,
    run_check,
    summarize,
)
from .special import catalan, ell_k, ell_kprime, legendre_chi3, pfq, zeta_int
from .wz import PAIR_ONE, PAIR_TWO, identity_2_8_2_9, wz_pair_verify

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # registry and checks
    "KINDS",
    "CheckResult",
    "IdentityCheck",
    "UnknownCheckError",
    "check_ids",
    "get_check",
    "run_all",
    "run_check",
    "summarize",
    # modular forms and L-values
    "NEWFORM_F",
    "NEWFORM_H",
    "FunctionalEquationViolation",
    "NewformSpec",
    "QSeries",
    "axis_mellin",
    "eta_qexp",
    "fricke_check",
    "l_prime_at_0",
    "l_value",
    "newform_coefficient",
    # Mahler measures
    "LaurentDescriptor",
    "builtin_descriptor",
    "builtin_names",
    "density_integral_check",
    "fourier_check",
    "m_rk_hypergeometric",
    "mahler_numeric",
    "parse_descriptor",
    "r_alpha",
    "wan_moment_check",
    # special functions and series
    "catalan",
    "ell_k",
    "ell_kprime",
    "legendre_chi3",
    "pfq",
    "zeta_int",
    "NoConvergence",
    "ResourceLimitError",
    "accelerate",
    # quadrature
    "IntegrandError",
    "tanh_sinh",
    "tanh_sinh_interval",
    "torus_qmc",
    # exact certificates
    "PAIR_ONE",
    "PAIR_TWO",
    "identity_2_8_2_9",
    "wz_pair_verify",
    "greene_nfn",
    "verify_4_1",
]
