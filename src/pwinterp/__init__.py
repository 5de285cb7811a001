"""Numerical toolkit for complete interpolating sequences in Paley-Wiener
spaces and band-limited reconstruction from nonuniform samples.

The package decides, with explicit finite-window evidence, whether a node
sequence supports stable interpolation of L^p band-limited functions, and
reconstructs such functions from samples through the generating-function
series.  See the README for the library tour and the CLI.
"""
from .nodes import (
    FamilySpec,
    Node,
    NodeSequence,
    integer_lattice,
    make_family,
    load_nodes,
    save_nodes,
    separation,
    relative_density,
)
from .genfn import (
    Exponents,
    GeneratingFunction,
    build_generating_function,
    fit_weight_exponent,
    comparability_stats,
)
from .criteria import (
    WeightSequence,
    IntervalFamily,
    AnchorSelection,
    carleson_sum,
    discrete_ap,
    continuous_ap,
    select_subsequence,
    select_probe_points,
    Thresholds,
    CriteriaReport,
    full_verdict,
)
from .hilbert import (
    DiscreteHilbertOperator,
    probe_norm,
)
from .interp import (
    SampleSet,
    GridSpec,
    GridFunction,
    weighted_data_norm,
    reconstruct,
    stability_ratio,
    round_trip,
)

__version__ = "0.1.0"
