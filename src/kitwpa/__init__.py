"""Kinetic-inductance traveling-wave parametric amplifier toolkit.

Models lumped-element (artificial) nonlinear transmission lines, their
Floquet-Bloch dispersion and stopbands, and degenerate-pump four-wave-mixing
gain, for the two phase-matching architectures: periodic impedance loading
and embedded resonator phase shifters.
"""

__version__ = "0.1.0"

from .circuit import (
    FishboneSpec,
    LadderNetwork,
    LeafSpec,
    SeriesInductor,
    ShuntCapacitor,
    UnitCellSpec,
    characteristic_impedance,
    cutoff_frequency,
    expand_fishbone,
    expand_leaf,
    read_netlist,
    uniform_line,
    write_netlist,
)
from .twoport import (
    FrequencyGrid,
    SParameterSet,
    TwoPortMatrix,
    network_matrix,
    read_touchstone,
    to_s_parameters,
    write_touchstone,
)
from .dispersion import (
    DispersionCurve,
    Stopband,
    bloch_dispersion,
    device_dispersion,
    find_stopbands,
    resonator_phase_shift,
)
from .fwm import (
    GainProfile,
    IntegrationOptions,
    integrate_gain,
    kerr_coefficient,
    third_harmonic_scan,
)
from .analysis import (
    CalibrationResult,
    CalibrationSpec,
    GainMetrics,
    SweepAxis,
    calibrate_istar,
    gain_metrics,
    sweep,
)
from .config import RunConfig, load_config
from .errors import ConfigError, KitwpaError, NumericError
