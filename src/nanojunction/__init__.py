"""Steady-state transport and counting statistics for a two-site nanojunction.

Three Born-Markov treatments of the same junction between two fermionic
leads and a phonon environment, all with the electronic states set by
``ModelParams.U`` (U = inf, the default, excludes double occupancy):

* ``assemble_wcme``   -- weak coupling to the phonons (golden-rule rates);
* ``assemble_rcme``   -- the phonon mode absorbed into the system as a
  reaction coordinate, leads filtered at the dressed frequencies;
* ``assemble_arcme``  -- same augmented space, but strictly additive lead
  dissipators built on the bare electronic problem.

``build_generator`` builds any of the three by method name.  On top of any
of them: steady states with solve certificates, the first two counting
cumulants at either lead, energy flows, engine efficiency and the stopping
voltage.
"""

__version__ = "0.1.0"

from .fcs import cumulants, mean_current, zero_frequency_noise
from .model import ModelParams
from .model import drude_lorentz, fermi, regime_params
from .rc import AugmentedSystem, LadderCertificate
from .rc import assemble_arcme, assemble_rcme, build_augmented_hamiltonian
from .rc import build_generator, converge_in_levels
from .superop import ConvergenceFailure, Liouvillian, NonUniqueSteadyState
from .superop import Space, SteadyState, TaggedTerm
from .superop import restricted_pseudo_inverse_apply, steady_state
from .thermo import BracketError, TransportReport, carnot_efficiency
from .thermo import converge_report, energy_currents, stopping_voltage, transport_report
from .wcme import assemble_wcme

__all__ = [
    "AugmentedSystem", "BracketError", "ConvergenceFailure",
    "LadderCertificate", "Liouvillian", "ModelParams",
    "NonUniqueSteadyState", "Space", "SteadyState", "TaggedTerm",
    "TransportReport", "assemble_arcme", "assemble_rcme", "assemble_wcme",
    "build_augmented_hamiltonian", "build_generator",
    "carnot_efficiency", "converge_in_levels", "converge_report", "cumulants",
    "drude_lorentz", "energy_currents", "fermi", "mean_current", "regime_params",
    "restricted_pseudo_inverse_apply", "steady_state", "stopping_voltage",
    "transport_report", "zero_frequency_noise",
]
