"""Minimum-expected-bits computation of Boolean threshold functions.

n nodes share a collision-free broadcast channel; node i holds an
independent Bernoulli(p_i) bit and everyone must learn, with zero error,
whether at least theta of the bits are 1.  This package computes the
cheapest transmission strategy in expectation (an exact subset-table
solver), exposes the closed-form optimal order (it depends only on the
sorted position of each marginal), verifies the inequalities behind that
optimality numerically, and runs single- and multi-instance simulations,
the latter with Huffman-coded blocks that push the cost per instance
below one bit per transmission round.
"""

from .core import (
    CapacityError,
    DecisionTree,
    InputError,
    Leaf,
    Node,
    ProbabilityProfile,
    ThresholdSpec,
    TreeInvalidError,
    tree_states,
    validate_tree,
    walk_tree,
)
from .dp import (
    CostTable,
    optimal_cost,
    optimal_tree,
    strategy_cost,
)
from .huffman import BernoulliBlockCode, bernoulli_entropy, build_block_code
from .io import (
    IngestedProfile,
    ingest_values,
    load_profile,
    parse_profile_text,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
)
from .policy import (
    annotate_reachable_states,
    build_index_tree,
    index_policy_cost,
)
from .sim import (
    BlockExperimentReport,
    ReplicationSummary,
    RoundRecord,
    SimulationReport,
    draw_measurements,
    run_block_replications,
    run_block_strategy,
    simulate_tree,
    strategy_dag,
)
from .verify import (
    ExhaustiveReport,
    LemmaRecord,
    LemmaReport,
    LemmaViolation,
    check_lemma_inequalities,
    enumerate_trees,
    exhaustive_strategy_check,
    lemma_record,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliBlockCode",
    "BlockExperimentReport",
    "CapacityError",
    "CostTable",
    "DecisionTree",
    "ExhaustiveReport",
    "IngestedProfile",
    "InputError",
    "Leaf",
    "LemmaRecord",
    "LemmaReport",
    "LemmaViolation",
    "Node",
    "ProbabilityProfile",
    "ReplicationSummary",
    "RoundRecord",
    "SimulationReport",
    "ThresholdSpec",
    "TreeInvalidError",
    "annotate_reachable_states",
    "bernoulli_entropy",
    "build_block_code",
    "build_index_tree",
    "check_lemma_inequalities",
    "draw_measurements",
    "enumerate_trees",
    "exhaustive_strategy_check",
    "index_policy_cost",
    "ingest_values",
    "lemma_record",
    "load_profile",
    "optimal_cost",
    "optimal_tree",
    "parse_profile_text",
    "run_block_replications",
    "run_block_strategy",
    "simulate_tree",
    "strategy_dag",
    "strategy_cost",
    "tree_from_dict",
    "tree_states",
    "tree_to_dict",
    "tree_to_dot",
    "validate_tree",
    "walk_tree",
]
