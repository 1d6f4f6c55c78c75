"""wvlab: a numerical laboratory for weak-value-amplification metrology.

Modules
-------
qsys         states, observables, the weak value
meter        Gaussian, grid, and Fock meters; quadrature marginals
coupling     impulsive system-meter evolution, post-selection, shift formulas
infometrics  Fisher information, the post-selection budget, generator moments
noise        correlated noise, beam jitter, pixelation, saturating detectors
schemes      the catalog of complete WVA measurement protocols
estimate     seeded sampling, AMR/MLE estimators, Cramér-Rao experiments
cli          scenario-driven command line emitting CSV/JSON artifacts

Every number the CLI writes comes from closed forms, the conditioning
kernels of `infometrics` and a meter's generator spectrum. The FFT grid
chain (`to_grid`, `evolve_joint`, `postselect`, `quadrature_marginal`) stays
exported as the independent oracle of the tests; no command calls it.

scipy is imported inside the functions that use it, so `import wvlab` loads
numpy alone, and none of the five CLI commands loads scipy on the shipped
scenarios.
"""

from . import coupling, estimate, infometrics, meter, noise, qsys, schemes
from .coupling import (
    CouplingConfig,
    JointState,
    PostSelectedMeter,
    RegimeLabel,
    classify_regime,
    evolve_joint,
    postselect,
    trapped_ion_shift,
)
from .infometrics import (
    InfoBudget,
    ParamDistribution,
    classical_fisher,
    info_budget,
    qfi_joint,
    scaling_bounds,
)
from .meter import (
    FockMeter,
    GaussianMeter,
    GridMeter,
    optimal_quadrature_angle,
    quadrature_marginal,
    to_grid,
)
from .qsys import (
    DensityState,
    Observable,
    SystemState,
    bloch_state,
    optimal_postselection,
    weak_value,
)

__version__ = "0.1.0"
