"""All-optical simulator of a four-stroke quantum Otto engine.

The working substance is a polarization qubit; the thermal strokes are
realized by a dephasing channel on a path ancilla and its inverse, the work
strokes by polarization rotations.  The package compiles circuit
descriptions to channel pipelines, runs the cycle, and reports work, heat,
energy balance and entropy production, validated against closed-form
results and bundled experimental density matrices.
"""

__version__ = "0.1.0"

from .qcore import (
    DensityOperator,
    KrausSet,
    QuantumValueError,
    SupportError,
    apply_kraus,
    eig_herm,
    fidelity,
    partial_trace_path,
    relative_entropy,
    tensor,
    von_neumann_entropy,
)
from .optics import (
    ChannelBlock,
    OpticalElement,
    compression_unitary,
    expansion_unitary,
    hwp,
    ipd_block,
    pd_block,
    qwp,
    rotation,
)
from .thermo import (
    CycleLedger,
    EngineParams,
    ThermalState,
    closed_form_energetics,
    entropy_production,
    heat_from_states,
    hot_x_from_kappa,
    thermal_state,
    work_from_states,
)
from .tomography import (
    IntensityRecord,
    StokesVector,
    load_golden_data,
    measure,
    reconstruct,
    stokes_from_intensities,
)
from .circuit import (
    CircuitProgram,
    CircuitSyntaxError,
    compile_program,
    format_program,
    parse,
)
from .runner import (
    SweepConfig,
    SweepReport,
    compare_golden,
    emit,
    load_report,
    run_cycle,
    run_sweep,
)
