"""Preferential-attachment multigraph simulator with triangle steps.

Generation (shifted preferential attachment + edge-copy), exact graph
metrics, closed-form degree/neighbor-degree theory, recurrence-based
numeric oracles and a figure-reproduction experiment harness.  The names
below are the public entry points; everything else lives in its module.
"""

from .params import (
    GeneratorParams,
    ModelParams,
    derive_generator_params,
    derive_model_params,
    make_model_params,
)
from .graphgen import child_seed, export_edge_list, generate, import_edge_list
from .metrics import clustering, degree_profile, pearson_assortativity
from .theory import (
    M_exact,
    build_theory_curve,
    dnn_asymptotic,
    dnn_overlay,
    dnn_theory,
    theory_tables,
)
from .oracle import compare_closed_form, integrate_S
from .experiments import PRESETS, Scenario, ScenarioResult, make_preset, run_scenario

__version__ = "0.1.0"
