"""Depth calculus for terms over ranked signatures.

Terms are finite trees of variables and fixed-arity operation symbols.
This package measures them (depth, per-variable depth, yield, length),
composes them, rewrites them through hypersubstitutions, and ships exact
closed-form predictors for the depth of the results together with a
randomized verification harness that checks every predictor against
direct construction.
"""

from .hypersub import (
    Hypersubstitution,
    apply_hyp,
    compose_hyp,
    hyp_depth,
    identity_hyp,
    is_full_hyp,
    is_regular_hyp,
    predict_depth_full_hyp,
)
from .occurrences import (
    BTrace,
    OccurrencePath,
    b_of,
    b_trace,
    beta,
    occurrence_path,
)
from .superpose import is_full, predict_depth_full, predict_depth_general, superpose
from .terms import (
    App,
    DepthReport,
    Signature,
    Term,
    Var,
    arity_bound,
    depth,
    depth_report,
    depth_wrt,
    length,
    postorder,
    variables,
    yield_word,
)
from .textio import (
    ParseError,
    SourceSpan,
    parse_hyp,
    parse_signature,
    parse_term,
    render_hyp,
    render_signature,
    render_term,
)
from .verify import (
    KINDS,
    Discrepancy,
    GenConfig,
    check_theorem,
    gen_full_hyp,
    gen_full_term,
    gen_hyp,
    gen_signature,
    gen_term,
    trial_stream,
)

__version__ = "0.1.0"

__all__ = [
    "App",
    "BTrace",
    "DepthReport",
    "Discrepancy",
    "GenConfig",
    "Hypersubstitution",
    "KINDS",
    "OccurrencePath",
    "ParseError",
    "Signature",
    "SourceSpan",
    "Term",
    "Var",
    "apply_hyp",
    "arity_bound",
    "b_of",
    "b_trace",
    "beta",
    "check_theorem",
    "compose_hyp",
    "depth",
    "depth_report",
    "depth_wrt",
    "gen_full_hyp",
    "gen_full_term",
    "gen_hyp",
    "gen_signature",
    "gen_term",
    "hyp_depth",
    "identity_hyp",
    "is_full",
    "is_full_hyp",
    "is_regular_hyp",
    "length",
    "occurrence_path",
    "parse_hyp",
    "parse_signature",
    "parse_term",
    "postorder",
    "predict_depth_full",
    "predict_depth_full_hyp",
    "predict_depth_general",
    "render_hyp",
    "render_signature",
    "render_term",
    "superpose",
    "trial_stream",
    "variables",
    "yield_word",
]
