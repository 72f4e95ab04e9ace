"""Gaussian-illumination receiver analysis toolkit.

Builds Gaussian probe states as covariance matrices, propagates them through
a lossy thermal target channel, evaluates quadratic-observable receivers
exactly, and compares against quantum Chernoff bounds.
"""

from .states import (
    GaussianState,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    symplectic_form,
    tensor,
)
from .channels import (
    HypothesisPair,
    NoiseModel,
    ScenarioParams,
    apply_target,
    hypothesis_pair,
)
from .observables import (
    ObservableStats,
    QuadraticObservable,
    heterodyne,
    obs_bound,
    obs_dh,
    obs_hd_product,
    obs_number,
    obs_number_difference,
    obs_off,
    obs_opa,
    obs_pc,
    obs_quadrature,
    obs_squeeze_difference,
    stats,
    transform_by_beam_splitter,
)
from .receivers import (
    OPA_GAIN,
    optimal_beta_closed,
    optimize_alpha_beta_nonconstant,
    p_err,
    snr_bound_constant,
    snr_bound_nonconstant,
    snr_cct,
    snr_closed_dh,
    snr_closed_opa,
    snr_closed_pc,
    snr_coherent_hd,
    snr_generic,
    snr_nearly_bound,
)
from .chernoff import QcbResult, coherent_qcb_closed, qcb, qcb_sweep, williamson
from .figures import CurveSet, SweepConfig, run_figure
from .emit import emit, to_csv, to_json, to_svg

__version__ = "0.1.0"
