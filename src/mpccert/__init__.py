"""mpccert — stability and performance certification for receding-horizon
control without terminal costs or constraints, with multi-step (networked)
update schedules.

The workflow: describe how fast finite-horizon optimal costs can grow
(:mod:`~mpccert.controllability`), turn that into a suboptimality index
alpha for a horizon pair (N, m) (:mod:`~mpccert.certificate`), study how
the index shapes horizon requirements (:mod:`~mpccert.analysis`), and
validate the certificates against actual closed loops — including random
feedback dropouts (:mod:`~mpccert.sim`, :mod:`~mpccert.netcheck`).
"""
from .controllability import (
    CSequence,
    ExpBound,
    GammaSequence,
    check_submultiplicative,
    constant_gamma,
    gamma_from_c_sequence,
    gamma_from_csv,
    gamma_from_exponential,
    gamma_to_csv,
)
from .certificate import (
    CertificateQuery,
    CertificateResult,
    alpha_closed_form,
    alpha_lp,
    certificate,
    max_alpha_over_m,
)
from .analysis import (
    HorizonResult,
    HorizonSearchError,
    RegionGrid,
    alpha_profile_m,
    constant_family,
    exponential_family,
    horizon_bound_half,
    horizon_bound_m1,
    horizon_table,
    minimal_horizon,
    stability_region,
)
from .netcheck import (
    NetworkExperiment,
    NetworkReport,
    UpToCertificate,
    certify_up_to,
    run_network_experiment,
)
from . import sim

__version__ = "0.1.0"

__all__ = [
    "CSequence",
    "ExpBound",
    "GammaSequence",
    "check_submultiplicative",
    "constant_gamma",
    "gamma_from_c_sequence",
    "gamma_from_csv",
    "gamma_from_exponential",
    "gamma_to_csv",
    "CertificateQuery",
    "CertificateResult",
    "alpha_closed_form",
    "alpha_lp",
    "certificate",
    "max_alpha_over_m",
    "HorizonResult",
    "HorizonSearchError",
    "RegionGrid",
    "alpha_profile_m",
    "constant_family",
    "exponential_family",
    "horizon_bound_half",
    "horizon_bound_m1",
    "horizon_table",
    "minimal_horizon",
    "stability_region",
    "NetworkExperiment",
    "NetworkReport",
    "UpToCertificate",
    "certify_up_to",
    "run_network_experiment",
    "sim",
]
