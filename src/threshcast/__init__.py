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

The package root exports the entry points and the types they take, raise
and return; everything else is imported from its module.
"""

from .core import (
    CapacityError,
    DecisionTree,
    InputError,
    Leaf,
    Node,
    ProbabilityProfile,
    TreeInvalidError,
    walk_tree,
)
from .dp import (
    optimal_cost,
    optimal_tree,
    strategy_cost,
)
from .io import tree_from_dict
from .policy import (
    annotate_reachable_states,
    build_index_tree,
    index_policy_cost,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DecisionTree",
    "InputError",
    "Leaf",
    "Node",
    "ProbabilityProfile",
    "TreeInvalidError",
    "annotate_reachable_states",
    "build_index_tree",
    "index_policy_cost",
    "optimal_cost",
    "optimal_tree",
    "strategy_cost",
    "tree_from_dict",
    "walk_tree",
]
