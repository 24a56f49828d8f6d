"""Embedding flows for hyperbolic polynomial jets."""

from .scalars import EigenScalar, ExactnessError, PiPoly, QQi
from .jets import (
    MODE_EXACT,
    MODE_FLOAT,
    ConjugateSymmetryError,
    MultiIndex,
    PolyJet,
    RealPairing,
    compose,
    complexify,
    jacobian_apply,
    jet_distance,
    multiindices,
    permute_jet,
    realify,
)
from .spectral import (
    BlockMatrix,
    BranchChoice,
    EigenData,
    JordanBlock,
    LogBlock,
    NegativePairBlock,
    RotationBlock,
    SpectralError,
    TriangularLinear,
    dense_exp,
    has_real_log,
    is_hyperbolic,
    pair_negative_blocks,
    real_log,
    weakly_nonresonant_branch,
)
from .resonance import (
    ResonanceReport,
    field_resonances,
    map_resonances,
)
from .normal_form import (
    GermSpec,
    NearResonanceError,
    NormalFormResult,
    distinguished_normal_form,
)
from .embedding import FieldGerm, Obstruction, solve_embedding
from .flow import FlowJet, flow_jet
from .verdict import Verdict, certify, embedding_residual, time_one_residuals, time_one_steps
from .classify import PlanarVerdict, classify_2d
from .germfile import GermFile, GermParseError, parse_germ, serialize_germ
from .reports import Report, fmt_complex, fmt_entry, parse_machine

__version__ = "0.1.0"
