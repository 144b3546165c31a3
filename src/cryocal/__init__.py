"""Cryogenic drive-line S-parameter analysis and qubit fidelity simulation.

Pipeline: Touchstone I/O -> data-based SOL calibration -> time-domain
gating and insertion-loss extraction -> RSS uncertainty -> Fabry-Perot
pulse distortion -> two-level-system gate-fidelity sweeps.
"""

__version__ = "0.1.0"

from .traces import ComplexTrace, FrequencyGrid, GridError
from .touchstone import (
    TouchstoneParseError,
    parse_touchstone,
    read_touchstone_file,
    write_touchstone,
)
from .solcal import (
    CalibrationError,
    ErrorModelOnePort,
    StandardsSet,
    apply_correction,
    forward_model,
    solve_error_model,
)
from .timegate import (
    GATE_PRESETS,
    GateError,
    GateSpec,
    apply_gate,
    extract_insertion_loss,
    insertion_loss_db,
    to_time_domain,
)
from .uncertainty import (
    ErrorBudget,
    ReturnLossResult,
    UncertaintyError,
    UncertaintyTable,
    combine_rss,
    format_return_loss,
    interp_ecal_sigma,
    to_return_loss,
)
from .distortion import (
    DistortionError,
    ImpulseResponse,
    MismatchModel,
    PulseWaveform,
    distort,
    impulse_response_fourier,
    impulse_response_taps,
)
from .qubitsim import (
    ALLXY_GATES,
    DEFAULT_PAIRS,
    XY_PAIR,
    FidelitySweepResult,
    GateOp,
    QubitParams,
    QubitState,
    SimulationError,
    calibrate_amplitude,
    evolve,
    run_allxy,
    sweep_length,
    sweep_return_loss,
    synth_gate_pulse,
)
