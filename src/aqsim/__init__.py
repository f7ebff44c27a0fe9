"""Desk-scale analogue-experiment toolkit.

Tight-binding site networks, Lindblad transport with dephasing/trapping/
recombination, stochastic-phase quantum walks, Bose-Hubbard exact
diagonalization with modulation spectroscopy, and model-correspondence
validation reports.
"""

__version__ = "0.1.0"

from .bose_hubbard import (AbsorptionSpectrum, BasisSizeError,
                           BoseHubbardParams, DriveCouplingError,
                           EigenConvergenceError, FockBasis,
                           NegativeAbsorptionError, build_bh,
                           chain_edges, condensate_fraction,
                           drive_coupled_gap, enumerate_basis, low_spectrum,
                           modulation_absorption, one_body_density_matrix,
                           onsite_pair_count, plaquette_edges,
                           reflection_sector)
from .hamiltonians import (Hamiltonian, MappingError, MappingRecord,
                           NetworkError, SiteNetwork, apply_static_disorder,
                           build_tight_binding, map_network)
from .netfiles import (NetfileError, load_mapping, load_network, save_mapping,
                       save_network)
from .open_system import (DensityMatrix, EfficiencyCurve, Liouvillian,
                          NoSinkError, StateInvariantError, TransportSpec,
                          build_liouvillian, evolve, goldilocks_sweep,
                          initial_excitation, transport_efficiency)
from .validation import (CorrespondenceCheck, ReportRoleError, SpeedupClass,
                         ValidationReport, approximation_bound,
                         check_isomorphism, classify_speedup,
                         report_from_json, report_to_json)
from .walk import (SPEED_OF_LIGHT, DephasingEnsembleSpec, WalkState,
                   dephased_walk, equivalent_dephasing_rate, evolve_unitary,
                   length_to_time, propagator, spreading_stats,
                   time_to_length)
