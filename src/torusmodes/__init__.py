"""torusmodes: exact q-expansions, quasi-Jacobi special functions, and a
symbolic zero-mode correlator recursion engine with a lattice backend."""

__version__ = "0.1.0"

from .scaled import ScaledRational
from .qseries import (QExpansion, bernoulli, eisenstein, eta_power,
                      geometric_inverse_factor)
from .ratfunc import LaurentPoly, ZetaRational
from .elliptic import (BivariateExpansion, g_expansion, p_expansion,
                       p_tilde_1, wp_laurent, z_expansion)
from .symbols import CoeffPoly, delta_transform
from .hha import (HHASpec, CorrSymbol, CorrExpression, weight1_spec,
                  weight2_spec, square_action, d_state, reduce_once,
                  reduce_once_ordered, reduce_to_zero_modes, invert_to_full,
                  peel_zero_modes, weight1_configuration_formula,
                  anomaly_of_zero_modes)
from .lattice import (EvenLattice, VectorShell, FockLabel, enumerate_vectors,
                      theta_series, theta_moment, quasimod_rhs,
                      fock_trace_oracle, chi_weight1, e8, e8_cubed, a1)
from .numerics import (g_value, p_value, wp_value, eisenstein_value,
                       verify_modular, sample_points)

__all__ = [
    "ScaledRational", "QExpansion", "bernoulli", "eisenstein",
    "eta_power", "geometric_inverse_factor",
    "LaurentPoly", "ZetaRational", "BivariateExpansion",
    "g_expansion", "p_expansion", "p_tilde_1", "wp_laurent",
    "z_expansion", "CoeffPoly",
    "delta_transform", "HHASpec", "CorrSymbol", "CorrExpression",
    "weight1_spec", "weight2_spec", "square_action", "d_state",
    "reduce_once", "reduce_once_ordered", "reduce_to_zero_modes",
    "invert_to_full", "peel_zero_modes",
    "weight1_configuration_formula", "anomaly_of_zero_modes", "EvenLattice",
    "VectorShell", "FockLabel", "enumerate_vectors", "theta_series",
    "theta_moment", "quasimod_rhs", "fock_trace_oracle", "chi_weight1",
    "e8", "e8_cubed", "a1", "g_value", "p_value", "wp_value",
    "eisenstein_value", "verify_modular", "sample_points",
    "__version__",
]
