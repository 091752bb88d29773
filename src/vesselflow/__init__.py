"""vesselflow: 1D pulse-wave simulation on vessel networks.

A characteristics-based solver for the pressure/flow wave system on a
graph of compliant vessels, with branching-junction and lumped
microcirculation closures, solvability condition checks, and an
oracle-backed verification toolkit.
"""

from .compiled import CompiledNetwork, compile_network
from .constitutive import (
    CoefficientSet,
    EigenData,
    PrimitiveState,
    coefficients,
    eigen,
    from_riemann,
    pressure_from_radius,
    radius_from_pressure,
    to_riemann,
)
from .errors import (
    CFLViolation,
    CollapsedVesselError,
    ConfigError,
    HyperbolicityViolation,
    PicardDivergence,
    SimulationError,
    SingularJunction,
    TubeLawError,
    WellPosednessFailure,
)
from .network import (
    BranchAttachment,
    Branching,
    Diagnostic,
    ExternalFlow,
    ExternalPressure,
    Network,
    PowerLaw,
    SyntheticCoefficients,
    TabulatedLaw,
    TransAttachment,
    Transitional,
    Vessel,
    endpoints_of,
    validate_network,
)
from .output import CsvSink, ListSink, ProbeRecord, ProbeSpec, write_records
from .signals import ConstantSignal, SineSignal, TableSignal, eval_signal
from .solver import (
    InitSpec,
    NetworkState,
    SimConfig,
    SimReport,
    VesselInit,
    initial_state,
    picard_step,
    run,
)
from .wellposedness import ConditionReport, check_envelope, check_state

__version__ = "0.1.0"
