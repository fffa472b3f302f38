"""Command line front end.

Subcommands: solve (exact optimum + one optimal tree), policy (the
closed-form order, optionally checked against the exact table), verify
(inequality sweeps and brute-force cross-checks), simulate (Monte Carlo
walks of the policy tree), block (lockstep multi-instance runs with
Huffman-coded blocks).

Output is deterministic byte for byte for a fixed command line: floats
are printed to 12 significant digits, JSON keys are sorted, and nothing
time- or path-dependent is ever emitted.  Exit codes: 0 success, 2 bad
input, 3 capacity exceeded, 4 a verification check failed, 5 a
simulation disagreed with the function.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    CapacityError,
    InputError,
    Leaf,
    ProbabilityProfile,
    ThresholdSpec,
    tree_states,
)
# strategy_cost is not called here: perfbench/tracing.py wraps it under this module's name
from .dp import DEFAULT_NODE_CAP, DEFAULT_TIE_TOL, CostTable, optimal_tree, strategy_cost
# nor is tree_to_dict, for the same reason
from .io import IngestedProfile, load_profile, parse_probs_arg, render_json, tree_to_dict, tree_to_dot
from .policy import StateAnnotation, annotate_reachable_states, build_index_tree, index_policy_cost
from .sim import run_block_replications, simulate_tree
from .verify import (
    DEFAULT_LEMMA_TOL,
    EXHAUSTIVE_MAX_N,
    check_lemma_inequalities,
    exhaustive_strategy_check,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4
EXIT_SIM = 5

SEED_ENV_VAR = "THRESHCAST_SEED"


def fmt(x: float) -> str:
    return "%.12g" % x


def jround(x: float) -> float:
    """Round to the printed precision so JSON numbers match text output."""
    return float(fmt(x))


class VerificationFailure(Exception):
    """A requested check did not hold; carries the already-rendered output."""

    def __init__(self, text: str):
        super().__init__("verification failed")
        self.text = text


class SimulationFailure(Exception):
    def __init__(self, text: str):
        super().__init__("simulation disagreed with the function")
        self.text = text


# ---------------------------------------------------------------------------
# Configuration resolution: command line > config file > environment > default


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise InputError(f"cannot read config file: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"config file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise InputError("config file must hold a JSON object of option defaults")
    return data


def _parse_order(v) -> Union[str, tuple[int, ...]]:
    """'conjectured', or a rank permutation given as comma separated integers."""
    return "conjectured" if v == "conjectured" else tuple(int(s) for s in str(v).split(","))


def _flag(v) -> bool:
    """A boolean option's value: only a JSON true or false, never a string such as "false"."""
    if not isinstance(v, bool):
        raise ValueError("expected true or false")
    return v


def _text(v) -> str:
    """A string option's value: a JSON number or list is refused, not coerced."""
    if not isinstance(v, str):
        raise ValueError("expected a string")
    return v


def _convert(name: str, v, kind, low=None):
    """`kind(v)`, at least `low` and finite; otherwise an InputError naming the option."""
    try:
        v = kind(v)
    except (TypeError, ValueError) as e:
        raise InputError(f"bad {name} value {v!r}: {e}") from e
    if isinstance(v, float) and not math.isfinite(v):
        raise InputError(f"{name} must be a finite number, got {v!r}")
    if low is not None and v < low:
        raise InputError(f"{name} must be at least {low}, got {v!r}")
    return v


def resolve(args: argparse.Namespace, config: dict, key: str, default=None, kind=None, low=None):
    """Option `key` from the command line, else the config file, else `default`
    (a JSON null counts as unset), converted by `kind` when given and not None."""
    v = getattr(args, key, None)
    if v is None:
        v = config.get(key)
    if v is None:
        v = default
    return v if kind is None or v is None else _convert(f"--{key.replace('_', '-')}", v, kind, low)


def require_theta(args: argparse.Namespace, config: dict) -> int:
    v = resolve(args, config, "theta", kind=int)
    if v is None:
        raise InputError("--theta is required")
    return v


def resolve_seed(args: argparse.Namespace, config: dict) -> Optional[int]:
    v = resolve(args, config, "seed", kind=int, low=0)
    env = os.environ.get(SEED_ENV_VAR)
    if v is None and env is not None:
        v = _convert(SEED_ENV_VAR, env, int, low=0)
    return v


def resolve_profile(args: argparse.Namespace, config: dict) -> IngestedProfile:
    if getattr(args, "probs", None) is not None:
        return parse_probs_arg(args.probs)
    if getattr(args, "probs_file", None) is not None:
        return load_profile(args.probs_file)
    if "probs" in config:
        return parse_probs_arg(str(config["probs"]))
    raise InputError("no probabilities given: pass --probs or --probs-file")


def rank_map_items(ingested: IngestedProfile) -> Optional[list[tuple[int, int]]]:
    """(rank, original 0-based position) pairs, or None if input was sorted."""
    items = [(r + 1, pos) for r, pos in enumerate(ingested.original_index)]
    if all(r - 1 == pos for r, pos in items):
        return None
    return items


def rank_labels(ingested: IngestedProfile, labels_arg: Optional[str]) -> Optional[list[str]]:
    """Display names per rank, mapped through the ingestion permutation."""
    if labels_arg is None:
        return None
    labels = [s.strip() for s in labels_arg.split(",")]
    n = ingested.profile.n
    if len(labels) != n:
        raise InputError(f"--labels has {len(labels)} names for {n} probabilities")
    return [labels[ingested.original_position(r)] for r in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Rendering helpers


def render_csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def text_value(v) -> str:
    """A record value as printed: floats by `fmt`, booleans lower case, None empty."""
    if v is None or isinstance(v, bool):
        return "" if v is None else str(v).lower()
    return fmt(v) if isinstance(v, float) else str(v)


def json_value(v):
    return jround(v) if isinstance(v, float) else v


def render_record(record: list[tuple[str, object]], out_format: str, **json_extra) -> str:
    """One flat record as key=value lines, a header-and-values csv, or json.

    `json_extra` entries go into the json object only, as given: a strategy
    there is rendered from its DAG (see `render_json`).
    """
    if out_format == "json":
        return render_json({**{k: json_value(v) for k, v in record}, **json_extra})
    pairs = [(k, text_value(v)) for k, v in record]
    if out_format == "table":
        return "".join(f"{k}={v}\n" for k, v in pairs)
    if out_format == "csv":
        return render_csv([[k for k, _ in pairs], [v for _, v in pairs]])
    raise InputError(f"unknown format {out_format!r}")


def profile_fields(ingested: IngestedProfile) -> list[tuple[str, str]]:
    pairs = [("probs", ";".join(fmt(p) for p in ingested.profile.probs))]
    rmap = rank_map_items(ingested)
    if rmap is not None:
        pairs.append(("rank_map", ";".join(f"{r}:{pos}" for r, pos in rmap)))
    return pairs


def annotation_rows(annotations: list[StateAnnotation], n: int) -> list[list[str]]:
    """Csv header and rows of policy states, remaining ranks joined by "|".

    A policy state's remaining set is [1, a] and [b, n] around the block
    of b - a - 1 ranks already spoken, and its transmitter is a or b, so
    the column is cut from one "1|2|...|n|" string in two slices.
    """
    joined = "".join(f"{r}|" for r in range(1, n + 1))
    starts = list(accumulate((len(str(r)) + 1 for r in range(1, n + 1)), initial=0))  # rank r at starts[r - 1]
    rows = [["remaining", "residual_theta", "transmitter", "reach_probability", "expected_remaining_cost"]]
    for s in annotations:
        rem, t = s.remaining, s.transmitter
        spoken = n - len(rem)
        # a ends the low run; the high run starts at b = a + spoken + 1
        a = t if t <= len(rem) and rem[t - 1] == t else t - spoken - 1
        remaining = (joined[: starts[a]] + joined[starts[a + spoken] :])[:-1]
        rows.append([remaining, str(s.residual_theta), str(t),
                     fmt(s.reach_probability), fmt(s.expected_remaining_cost)])
    return rows


def profile_json(ingested: IngestedProfile) -> dict:
    obj: dict = {"probs": [jround(p) for p in ingested.profile.probs]}
    rmap = rank_map_items(ingested)
    if rmap is not None:
        obj["rank_map"] = {str(r): pos for r, pos in rmap}
    return obj


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args: argparse.Namespace, config: dict) -> str:
    ingested = resolve_profile(args, config)
    profile = ingested.profile
    theta = require_theta(args, config)
    node_cap = resolve(args, config, "max_n", DEFAULT_NODE_CAP, int)
    tol = resolve(args, config, "tol", DEFAULT_TIE_TOL, float, low=0)
    exact = resolve(args, config, "exact", False, _flag)

    table = CostTable(profile, node_cap=node_cap, exact=exact, theta=theta)
    full = (1 << profile.n) - 1
    cost = table.cost(full, theta)
    cost_f = float(cost)
    tree = optimal_tree(profile, theta, table=table, tol=tol)
    if 1 <= theta <= profile.n:
        first = table.minimizers(full, theta, tol=tol)
    else:
        first = ()

    out_format = resolve(args, config, "format", "table")
    if out_format == "dot":
        return tree_to_dot(tree, labels=rank_labels(ingested, resolve(args, config, "labels", kind=_text)))
    record = [("n", profile.n), ("theta", theta), ("optimal_cost", cost_f)]
    if out_format == "json":
        return render_record(record, "json", optimal_first_transmitters=list(first), tree=tree,
                             **profile_json(ingested))
    record.append(("optimal_first_transmitters", ";".join(str(r) for r in first)))
    if out_format == "table":
        record[2:2] = profile_fields(ingested)
        record.append(("tree", render_json(tree, compact=True)))
    return render_record(record, out_format)


def cmd_policy(args: argparse.Namespace, config: dict) -> str:
    ingested = resolve_profile(args, config)
    profile = ingested.profile
    theta = require_theta(args, config)
    spec = ThresholdSpec(profile.n, theta)
    cost = index_policy_cost(profile, theta)
    out_format = resolve(args, config, "format", "table")
    checked = resolve(args, config, "check", False, _flag)
    tree = build_index_tree(profile.n, theta) if checked or out_format in ("json", "dot") else None

    check: Optional[dict] = None
    check_failed = False
    if checked:
        node_cap = resolve(args, config, "max_n", DEFAULT_NODE_CAP, int)
        tol = resolve(args, config, "tol", DEFAULT_TIE_TOL, float, low=0)
        table = CostTable(profile, node_cap=node_cap, theta=spec.theta)
        table_cost = table.cost((1 << profile.n) - 1, theta)
        cost_ok = abs(table_cost - cost) <= tol
        bad_states = 0
        for node, mask, t in tree_states(tree, spec):
            if not isinstance(node, Leaf) and node.transmitter not in table.minimizers(mask, t, tol=tol):
                bad_states += 1
        check_failed = not cost_ok or bad_states > 0
        check = {
            "table_cost": table_cost,
            "cost_matches_table": cost_ok,
            "states_off_policy": bad_states,
            "check": "failed" if check_failed else "passed",
        }

    annotate = resolve(args, config, "annotate", False, _flag)
    annotations = annotate_reachable_states(profile, theta) if annotate else None
    if out_format == "dot":
        return tree_to_dot(tree, labels=rank_labels(ingested, resolve(args, config, "labels", kind=_text)))
    record = [("n", profile.n), ("theta", theta), ("policy_cost", cost), *(check or {}).items()]
    if out_format == "table":
        text = render_record(record[:2] + profile_fields(ingested) + record[2:], "table")
        if annotations is not None:
            text += render_csv(annotation_rows(annotations, profile.n))
    elif out_format == "json":
        states = {}
        if annotations is not None:
            states["states"] = [{k: json_value(v) for k, v in vars(a).items()} for a in annotations]
        text = render_record(record, "json", tree=tree, **profile_json(ingested), **states)
    else:
        text = render_record(record, out_format)
    if check_failed:
        raise VerificationFailure(text)
    return text


def _sweep_profiles(rng: np.random.Generator, sweeps: int, max_n: int) -> list[ProbabilityProfile]:
    out = []
    for _ in range(sweeps):
        m = int(rng.integers(2, max_n + 1))
        probs = np.sort(rng.uniform(0.01, 0.99, size=m))
        out.append(ProbabilityProfile(tuple(float(p) for p in probs)))
    return out


_WORST_COLUMNS = [
    ("worst_T", "T<=0"),
    ("worst_S1", "S1<=0"),
    ("worst_S2", "S2<=0"),
    ("worst_T_minus_S1", "T<=S1"),
    ("worst_T_minus_S2", "T<=S2"),
    ("worst_T_at_kp1", "T=0@i=k+1"),
]


def cmd_verify(args: argparse.Namespace, config: dict) -> str:
    tolerance = resolve(args, config, "tolerance", DEFAULT_LEMMA_TOL, float)
    exhaustive = resolve(args, config, "exhaustive", False, _flag)
    explicit = (
        getattr(args, "probs", None) is not None
        or getattr(args, "probs_file", None) is not None
        or "probs" in config
    )
    out_format = resolve(args, config, "format", "table")

    if explicit:
        ingested = resolve_profile(args, config)
        profiles = [ingested.profile]
    else:
        sweeps = resolve(args, config, "sweeps", 100, int, low=1)
        max_n = resolve(args, config, "max_n", 8, int, low=2)
        seed = resolve_seed(args, config)
        if seed is None:
            raise InputError("sweep mode needs --seed (or the seed env var) for reproducibility")
        profiles = _sweep_profiles(np.random.default_rng(seed), sweeps, max_n)

    total_violations = 0
    exhaustive_failures = 0
    exhaustive_runs = 0
    summary_rows = [
        ["m", "probs", "violations"]
        + [name for name, _ in _WORST_COLUMNS]
        + ["exhaustive_trees", "exhaustive_ok"]
    ]
    reports = []
    for profile in profiles:
        table = CostTable(profile)
        report = check_lemma_inequalities(profile, tolerance=tolerance, table=table)
        reports.append(report)
        total_violations += len(report.violations)
        ex_trees = ""
        ex_ok = ""
        if exhaustive:
            if profile.n > EXHAUSTIVE_MAX_N and explicit:
                raise CapacityError(
                    f"--exhaustive enumerates every strategy tree and is capped at "
                    f"n={EXHAUSTIVE_MAX_N}, got n={profile.n}"
                )
            if profile.n <= EXHAUSTIVE_MAX_N:
                trees = 0
                ok = True
                for theta in range(1, profile.n + 1):
                    ex = exhaustive_strategy_check(profile, theta, tolerance=tolerance, table=table)
                    trees += ex.tree_count
                    ok = ok and ex.passed
                    exhaustive_runs += 1
                    if not ex.passed:
                        exhaustive_failures += 1
                ex_trees = str(trees)
                ex_ok = str(ok).lower()
        summary_rows.append(
            [str(report.m), ";".join(fmt(p) for p in report.probs), str(len(report.violations))]
            + [fmt(report.worst.get(fam, 0.0)) for _, fam in _WORST_COLUMNS]
            + [ex_trees, ex_ok]
        )

    passed = total_violations == 0 and exhaustive_failures == 0
    worst = [(name, max((r.worst.get(fam, 0.0) for r in reports), default=0.0)) for name, fam in _WORST_COLUMNS]
    record = [("profiles", len(profiles)), ("tolerance", tolerance), ("violations", total_violations)]
    exhaustive_fields = [("exhaustive_checks", exhaustive_runs), ("exhaustive_failures", exhaustive_failures)]
    if out_format == "csv" and explicit:
        lemma_rows = [[text_value(v) for v in vars(rec).values()] for rec in reports[0].records]
        text = render_csv([["k", "i", "T", "S1", "S2"]] + lemma_rows)
    elif out_format == "csv":
        text = render_csv(summary_rows)
    elif out_format == "json":
        text = render_record(record + exhaustive_fields + [("passed", passed)], "json", worst={k: jround(v) for k, v in worst})
    else:
        verdict = [("verify", "passed" if passed else "failed")]
        text = render_record(record + worst + (exhaustive_fields if exhaustive else []) + verdict, out_format)

    if not passed:
        raise VerificationFailure(text)
    return text


def cmd_simulate(args: argparse.Namespace, config: dict) -> str:
    ingested = resolve_profile(args, config)
    profile = ingested.profile
    theta = require_theta(args, config)
    trials = resolve(args, config, "trials", 10000, int)
    seed = resolve_seed(args, config)
    tree = build_index_tree(profile.n, theta)
    report = simulate_tree(tree, profile, theta, trials, seed=seed)
    z = (report.mean_bits - report.expected_bits) / report.std_error if report.std_error else 0.0

    record = [
        ("n", report.n),
        ("theta", report.theta),
        ("trials", report.trials),
        ("seed", seed),
        ("expected_bits", report.expected_bits),
        ("mean_bits", report.mean_bits),
        ("std_error", report.std_error),
        ("z", z),
        ("error_count", report.error_count),
    ]
    text = render_record(record, resolve(args, config, "format", "table"))
    if report.error_count > 0:
        raise SimulationFailure(text)
    return text


def cmd_block(args: argparse.Namespace, config: dict) -> str:
    ingested = resolve_profile(args, config)
    profile = ingested.profile
    theta = require_theta(args, config)
    N = resolve(args, config, "N", 1024, int)
    reps = resolve(args, config, "reps", 10, int)
    seed = resolve_seed(args, config)
    order = resolve(args, config, "order", "conjectured", _parse_order)

    reports, summary = run_block_replications(profile, theta, N, reps, seed=seed, order=order)
    single = index_policy_cost(profile, theta)

    record = [
        ("n", summary.n),
        ("theta", summary.theta),
        ("N", summary.N),
        ("reps", summary.reps),
        ("seed", seed),
        ("order", summary.order),
        ("single_instance_cost", single),
        ("mean_bits_per_instance", summary.mean_bits_per_instance),
        ("se_bits_per_instance", summary.se_bits_per_instance),
        ("mean_first_round_per_instance", summary.mean_first_round_per_instance),
        ("se_first_round_per_instance", summary.se_first_round_per_instance),
        ("error_count", summary.error_count),
    ]
    transcript = {}
    if resolve(args, config, "transcript", False, _flag):
        transcript["replications"] = [
            {
                "total_bits": r.total_bits,
                "bits_per_instance": jround(r.bits_per_instance),
                "error_count": r.error_count,
                "rounds": [vars(rd) for rd in r.rounds],
            }
            for r in reports
        ]
    text = render_record(record, resolve(args, config, "format", "table"), **transcript)
    if summary.error_count > 0:
        raise SimulationFailure(text)
    return text


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshcast",
        description="Minimum-expected-bits threshold computation over a broadcast channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, theta: bool = True) -> None:
        p.add_argument("--probs", help="comma separated marginals, e.g. 0.3,0.6")
        p.add_argument("--probs-file", help="JSON array or one-column CSV of marginals")
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if theta:
            p.add_argument("--theta", type=int, help="threshold: function is 1 iff at least theta ones")

    p_solve = sub.add_parser("solve", help="exact optimal cost and one optimal strategy tree")
    add_common(p_solve)
    p_solve.add_argument("--format", choices=["table", "json", "csv", "dot"])
    p_solve.add_argument("--max-n", dest="max_n", type=int, help="node-count cap for the subset table")
    p_solve.add_argument("--tol", type=float, help="tie tolerance for reporting co-optimal transmitters")
    p_solve.add_argument("--exact", action="store_true", default=None, help="rational arithmetic (exact ties)")
    p_solve.add_argument("--labels", help="comma separated node names, in input order (dot output)")
    p_solve.set_defaults(func=cmd_solve)

    p_policy = sub.add_parser("policy", help="closed-form transmission order and its cost")
    add_common(p_policy)
    p_policy.add_argument("--format", choices=["table", "json", "csv", "dot"])
    p_policy.add_argument("--check", action="store_true", default=None, help="verify the order against the exact table")
    p_policy.add_argument("--annotate", action="store_true", default=None, help="list reachable states with reach probability and onward cost")
    p_policy.add_argument("--max-n", dest="max_n", type=int)
    p_policy.add_argument("--tol", type=float)
    p_policy.add_argument("--labels", help="comma separated node names, in input order (dot output)")
    p_policy.set_defaults(func=cmd_policy)

    p_verify = sub.add_parser("verify", help="inequality sweeps; optionally brute-force tree enumeration")
    add_common(p_verify, theta=False)
    p_verify.add_argument("--format", choices=["table", "json", "csv"])
    p_verify.add_argument("--sweeps", type=int, help="number of random profiles (when no --probs)")
    p_verify.add_argument("--max-n", dest="max_n", type=int, help="largest random profile size")
    p_verify.add_argument("--seed", type=int, help="sweep RNG seed")
    p_verify.add_argument("--tolerance", type=float, help="inequality slack treated as rounding")
    p_verify.add_argument("--exhaustive", action="store_true", default=None, help="also enumerate all trees (n <= 4)")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo walks of the policy strategy")
    add_common(p_sim)
    p_sim.add_argument("--format", choices=["table", "json", "csv"])
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.set_defaults(func=cmd_simulate)

    p_block = sub.add_parser("block", help="lockstep multi-instance runs with coded blocks")
    add_common(p_block)
    p_block.add_argument("--format", choices=["table", "json", "csv"])
    p_block.add_argument("--N", type=int, help="instances per replication")
    p_block.add_argument("--reps", type=int)
    p_block.add_argument("--seed", type=int)
    p_block.add_argument("--order", help="'conjectured' or an explicit rank permutation like 2,1")
    p_block.add_argument("--transcript", action="store_true", default=None, help="include per-round records (json)")
    p_block.set_defaults(func=cmd_block)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(getattr(args, "config", None))
        text = args.func(args, config)
        code = EXIT_OK
    except VerificationFailure as e:
        text = e.text
        code = EXIT_VERIFY
    except SimulationFailure as e:
        text = e.text
        code = EXIT_SIM
    except (InputError, CapacityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY if isinstance(e, CapacityError) else EXIT_INPUT

    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
