import importlib
import pkgutil
import types

import pytest

import pwinterp

MODULES = sorted(m.name for m in pkgutil.iter_modules(pwinterp.__path__))

# everything ``from pwinterp import ...`` offers; a name dropped from the
# library must leave this list, and one added must join it
PUBLIC = [
    "AnchorSelection", "CriteriaReport", "DiscreteHilbertOperator",
    "Exponents", "FamilySpec", "GeneratingFunction", "GridFunction",
    "GridSpec", "IntervalFamily", "Node", "NodeSequence", "SampleSet",
    "Thresholds", "WeightSequence", "build_generating_function",
    "carleson_sum", "comparability_stats", "continuous_ap", "discrete_ap",
    "fit_weight_exponent", "full_verdict", "integer_lattice", "load_nodes",
    "make_family", "probe_norm", "reconstruct", "relative_density",
    "round_trip", "save_nodes", "select_probe_points", "select_subsequence",
    "separation", "stability_ratio", "weighted_data_norm",
]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"pwinterp.{module}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_offers_exactly_the_public_names():
    offered = sorted(n for n, v in vars(pwinterp).items()
                     if not n.startswith("_")
                     and not isinstance(v, types.ModuleType))
    assert offered == sorted(PUBLIC)
    for name in PUBLIC:
        obj = getattr(pwinterp, name)
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"{obj.__module__}.{name}"
