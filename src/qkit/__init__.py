"""qkit: numerics and exact arithmetic for q-series and q-orthogonal polynomials."""

from .core import (
    DEFAULT_TRUNCATION,
    QParam,
    Truncation,
    partial_theta,
    qbinom,
    qgamma,
    qpoch_finite,
    qpoch_inf,
    qpoch_multi,
    theta2,
    theta3,
    theta4,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NumericOverflowError,
    PoleError,
    QKitError,
    QuadratureError,
    TruncationError,
    UnsupportedIdentityError,
)
from .polys import (
    confluent_poly,
    qhermite,
    qhermite_inv,
    qhermite_inv_exp,
    qhermite_sum,
    qlaguerre,
    stieltjes_wigert,
    weight,
)
from .series import (
    bessel1_normalized,
    bessel2_normalized,
    bessel2_normalized_native,
    bessel3_normalized,
    bessel3_normalized_native,
    cal_e,
    cal_e_raw,
    jackson_bessel,
    m_weighted,
    modified_bessel_i,
    phi,
    psi_bilateral,
    q_exp_big,
    q_exp_small,
    ramanujan_a,
)

__version__ = "0.1.0"
