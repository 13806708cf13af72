"""sal: shortcuts-to-adiabaticity lab.

Counter-diabatic driving for two universal quantum-computation primitives,
teleportation-based gates and controlled evolutions, with the associated
energy-cost, quantum-speed-limit, and probabilistic-computation analysis.
Units are hbar = omega = 1 throughout: a runtime tau is the dimensionless
omega*tau, and energies and costs are in units of hbar*omega.
"""

from .schedules import Schedule, make_schedule
from .hamiltonians import (
    CNOT,
    GATES,
    HADAMARD,
    PI_8,
    TOFFOLI,
    ControlledSpec,
    SuperadiabaticHamiltonian,
    TeleportSpec,
    TimeDepHamiltonian,
    X,
    Y,
    Z,
    adiabatic_time_estimate,
    axis_projectors,
    bell_state,
    controlled_hamiltonian,
    gate,
    h_xi,
    parity_operators,
    teleport_energies,
    teleport_gap,
    teleport_hamiltonian,
    teleport_sector_hamiltonian,
)
from .counterdiabatic import (
    cd_controlled,
    cd_generic,
    cd_rotate,
    cd_teleport,
    cd_teleport_block,
    cd_tensor_sum,
)
from .dynamics import (
    EvolutionResult,
    MeasurementOutcome,
    controlled_initial_state,
    controlled_target_state,
    evolve,
    fidelity,
    measure_ancilla,
    teleport_initial_state,
    teleport_target_state,
)
from .metrics import (
    QslReport,
    energy_cost,
    probabilistic_cost,
    qsl_check,
    qsl_report,
    qsl_ground_chi,
    sce_controlled_cost,
    sce_single_gate_cost,
    teleport_cost,
    teleport_cost_scale,
    teleport_sigma_sing,
    theta_opt,
    theta_opt_adiabatic,
)

__version__ = "0.1.0"
