"""Intertemporal evaluation criteria over eventually periodic streams.

Exponential, worst-case (maxmin) and variational discounting, patient
(non-discounting) criteria, an axiom property-test harness, invariant
discount structures of positive operators, and expert-panel aggregation
with conjugate cost recovery.

Each public name loads with its submodule on first lookup (PEP 562).
"""

import importlib

__version__ = "0.1.0"

#: Each public name, listed under the submodule that defines it.
_API = {
    "streams": """Constant Periodic Stream TailSpec add canonicalize_tail constant_stream delay
                  make_stream pairwise_swap permute scale_translate shift_left
                  stream_from_dict stream_to_dict sup_distance value_at""",
    "discounting": """BanachWindow Cesaro CostFunction Criterion Edu IndicatorSet Inf Liminf
                      Maxmin Quadratic Tabulated Variational cost_eval discounted_value
                      evaluate evaluate_many""",
    "minimizer": "discounted_values minimize_over_delta",
    "patient": "banach_window_value cesaro_value inf_value liminf_value window_oracle",
    "eigen": """DiscountVector EigenResult OperatorMatrix adjoint builtin_operator
                geometric_invariance_check invariant_structure uniform_vector verify_eigen""",
    "axioms": """AXIOM_IDS AxiomReport DelayTransform MatrixTransform PairwiseSwapTransform
                 PermuteTransform ScaleTransform check_axiom check_unanimity improving_pair
                 mixtures parse_axiom_id parse_transform random_stream replay_violation
                 run_counterexamples""",
    "panel": """ExpertPanel panel_criterion panel_from_rates rate_to_factor recover_cost
                unanimity_probe weitzman_panel""",
}
_HOME = {name: module for module, names in _API.items() for name in names.split()}
__all__ = [*_HOME, "errors"]


def __getattr__(name: str):
    if name not in _HOME and name not in (*_API, "errors", "jsonio", "cli"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    value = globals()[name] = getattr(module, name) if name in _HOME else module
    return value        # bound in the namespace, so later lookups skip this hook


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
