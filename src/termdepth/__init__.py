"""Depth calculus for terms over ranked signatures.

Terms are finite trees of variables and fixed-arity operation symbols.
This package measures them (depth, per-variable depth, yield, length),
composes them, rewrites them through hypersubstitutions, and ships
closed-form predictors for the depth of the results together with a
randomized verification harness that checks every predictor against
direct construction.  Each predictor is exact inside its stated domain;
outside it the harness reports shrunk counterexamples, as it does for
``b_of`` (thm5.1) on images that are bare variables or drop variables.
"""

from . import hypersub, occurrences, superpose, terms, textio, verify

__version__ = "0.1.0"

__all__ = []
__all__ += terms.__all__
__all__ += superpose.__all__
__all__ += hypersub.__all__
__all__ += occurrences.__all__
__all__ += textio.__all__
__all__ += verify.__all__

# Last, because ``from .superpose import *`` rebinds the name ``superpose``
# from the submodule, which the lines above read, to the function.
from .hypersub import *  # noqa: E402, F403
from .occurrences import *  # noqa: E402, F403
from .superpose import *  # noqa: E402, F403
from .terms import *  # noqa: E402, F403
from .textio import *  # noqa: E402, F403
from .verify import *  # noqa: E402, F403
