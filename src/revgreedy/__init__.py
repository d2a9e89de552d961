"""Reverse greedy for k-center: algorithms, adversarial instances, and
approximation-ratio verification at desk scale."""

from .consolidation import (GammaCapError, critical_indices, gamma,
                            is_consolidation, verify_gamma_decrement)
from .exact import (OptimalSolution, OracleCapError, exact_opt, opt_value,
                    optimal_solution)
from .kcenter import (ScriptedStepError, TiePolicy, Trace, cost, marginal_costs,
                      reverse_greedy, serves)
from .lowerbound import (LowerBoundInstance, PhaseSchedule,
                         build_lower_bound_instance, export_dot, known_opt,
                         scripted_schedule, size_formula, verify_schedule)
from .metric import (DisconnectedGraphError, MetricSpace, WeightedGraph,
                     metric_from_graph, random_metric, validate_metric)

__all__ = [
    "GammaCapError", "critical_indices", "gamma", "is_consolidation",
    "verify_gamma_decrement",
    "OptimalSolution", "OracleCapError", "exact_opt", "opt_value",
    "optimal_solution",
    "ScriptedStepError", "TiePolicy", "Trace", "cost",
    "marginal_costs", "reverse_greedy", "serves",
    "LowerBoundInstance", "PhaseSchedule", "build_lower_bound_instance",
    "export_dot", "known_opt", "scripted_schedule", "size_formula",
    "verify_schedule",
    "DisconnectedGraphError", "MetricSpace", "WeightedGraph",
    "metric_from_graph", "random_metric", "validate_metric",
]
