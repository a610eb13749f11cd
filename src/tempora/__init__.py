"""Intertemporal evaluation criteria over eventually periodic streams.

Exponential, worst-case (maxmin) and variational discounting, patient
(non-discounting) criteria, an axiom property-test harness, invariant
discount structures of positive operators, and expert-panel aggregation
with conjugate cost recovery.
"""

from .streams import (Constant, Periodic, Stream, TailSpec, add,
                      canonicalize_tail, constant_stream, delay, make_stream,
                      mixtures, pairwise_swap, permute, scale_translate,
                      shift_left, stream_from_dict, stream_to_dict,
                      sup_distance, value_at)
from .discounting import (BanachWindow, Cesaro, CostFunction, Criterion, Edu,
                          IndicatorSet, Inf, Liminf, Maxmin, Quadratic,
                          Tabulated, Variational, cost_eval, discounted_value,
                          evaluate, evaluate_many, minimize_over_delta)
from .patient import (banach_window_value, cesaro_value, inf_value,
                      liminf_value, window_oracle)
from .eigen import (DiscountVector, EigenResult, OperatorMatrix, adjoint,
                    builtin_operator, geometric_invariance_check,
                    invariant_structure, uniform_vector, verify_eigen)
from .axioms import (AXIOM_IDS, AxiomReport, DelayTransform, MatrixTransform,
                     PairwiseSwapTransform, PermuteTransform, ScaleTransform,
                     check_axiom, improving_pair, parse_axiom_id,
                     parse_transform, random_stream, replay_violation,
                     run_counterexamples)
from .panel import (ExpertPanel, check_unanimity, panel_criterion,
                    panel_from_rates, rate_to_factor, recover_cost,
                    unanimity_probe, weitzman_panel)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Constant", "Periodic", "Stream", "TailSpec", "add", "canonicalize_tail",
    "constant_stream", "delay", "make_stream", "mixtures", "pairwise_swap", "permute",
    "scale_translate", "shift_left", "stream_from_dict", "stream_to_dict",
    "sup_distance", "value_at",
    "BanachWindow", "Cesaro", "CostFunction", "Criterion", "Edu",
    "IndicatorSet", "Inf", "Liminf", "Maxmin", "Quadratic", "Tabulated",
    "Variational", "cost_eval", "discounted_value", "evaluate",
    "evaluate_many", "minimize_over_delta",
    "banach_window_value", "cesaro_value", "inf_value", "liminf_value",
    "window_oracle",
    "DiscountVector", "EigenResult", "OperatorMatrix", "adjoint",
    "builtin_operator", "geometric_invariance_check", "invariant_structure",
    "uniform_vector", "verify_eigen",
    "AXIOM_IDS", "AxiomReport", "DelayTransform", "MatrixTransform",
    "PairwiseSwapTransform", "PermuteTransform", "ScaleTransform",
    "check_axiom", "improving_pair", "parse_axiom_id", "parse_transform",
    "random_stream", "replay_violation", "run_counterexamples",
    "ExpertPanel", "check_unanimity", "panel_criterion", "panel_from_rates",
    "rate_to_factor", "recover_cost", "unanimity_probe", "weitzman_panel",
    "errors",
]
