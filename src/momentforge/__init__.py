"""momentforge: exact reconstruction of measures on finite abelian groups
from their surjection moments, with certified rational brackets.

Every closed-form count in the package is paired with an independent
brute-force oracle, and truncated inversion always returns a two-sided
exact-rational interval rather than a point estimate. The oracles live in
momentforge.oracle and momentforge.nonab_oracle and are not exported here,
so importing the package loads no oracle.

The sampler names load `momentforge.sampler`, and with it numpy, on first
use, so importing the package stays cheap for the closed-form commands.
"""

from .budget import Budget, budget_from_env
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    InfeasibleMomentsError,
    InputError,
    MomentforgeError,
)
from .finab import (
    FinAbGroup,
    Measure,
    aut_count,
    enumerate_groups,
    extension_class_count,
    hom_count,
    sur_count,
)
from .inversion import Bracket, MomentTable, multi_invert_zero
from .localize import ModuleMomentTable, localized_moments, reconstruct_probability
from .qseries import SimpleType, inversion_coefficient, q_binomial, q_pochhammer
from .surjcount import MultiIndex, sur_product, sur_single

__all__ = [
    "Budget",
    "budget_from_env",
    "MomentforgeError",
    "InputError",
    "InfeasibleMomentsError",
    "ConsistencyError",
    "BudgetExceededError",
    "SimpleType",
    "q_pochhammer",
    "q_binomial",
    "inversion_coefficient",
    "MultiIndex",
    "sur_single",
    "sur_product",
    "FinAbGroup",
    "Measure",
    "enumerate_groups",
    "hom_count",
    "aut_count",
    "sur_count",
    "extension_class_count",
    "MomentTable",
    "Bracket",
    "multi_invert_zero",
    "ModuleMomentTable",
    "localized_moments",
    "reconstruct_probability",
    "SamplerConfig",
    "sample_cokernel",
    "empirical_moments",
    "convergence_report",
]

_SAMPLER_NAMES = ("SamplerConfig", "sample_cokernel", "empirical_moments", "convergence_report")


def __getattr__(name: str):
    if name in _SAMPLER_NAMES:
        from . import sampler

        return getattr(sampler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
