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
import errno
import functools
import json
import math
import os
import sys
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    CapacityError,
    InputError,
    Leaf,
    Node,
    ProbabilityProfile,
    ThresholdSpec,
    tree_states,
)
# strategy_cost is not called here: perfbench/tracing.py wraps it under this module's name
from .dp import DEFAULT_NODE_CAP, DEFAULT_TIE_TOL, CostTable, optimal_cost, optimal_tree, strategy_cost
# nor is tree_to_dict, for the same reason
from .io import (FLOAT_FORMAT, IngestedProfile, check_strategy_size, load_profile, parse_probs_arg, read_text_file,
                 render_json, tree_to_dict, tree_to_dot)
from .policy import StateAnnotation, annotate_reachable_states, build_index_tree, index_policy_cost
from .sim import BLOCK_MAX_N, run_block_replications, simulate_tree
from .verify import DEFAULT_LEMMA_TOL, EXHAUSTIVE_MAX_N, FAMILIES, check_lemma_inequalities, exhaustive_strategy_check

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4
EXIT_SIM = 5

SEED_ENV_VAR = "THRESHCAST_SEED"


def fmt(x: float) -> str:
    return FLOAT_FORMAT % x


# ---------------------------------------------------------------------------
# Options: command line > config file > THRESHCAST_SEED (for --seed) > default


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    text = read_text_file(path, "config file")
    try:
        data = json.loads(text)
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
    """`kind(v)`, at least `low` and finite; otherwise an InputError naming the option.

    A number option refuses a JSON true or false, and an integer option a
    number with a fractional part, where `kind(v)` would truncate them.
    """
    try:
        if kind in (int, float) and isinstance(v, bool):
            raise ValueError("expected a number, not true or false")
        if kind is int and isinstance(v, float) and not v.is_integer():
            raise ValueError("expected an integer")
        v = kind(v)
    except (TypeError, ValueError) as e:
        raise InputError(f"bad {name} value {v!r}: {e}") from e
    if isinstance(v, float) and not math.isfinite(v):
        raise InputError(f"{name} must be a finite number, got {v!r}")
    if low is not None and v < low:
        raise InputError(f"{name} must be at least {low}, got {v!r}")
    return v


# The default of an option that has none
REQUIRED = object()

# option: (kind, lower bound, help).  The config key is the option name with
# "_" for "-"; `int` and `float` are also the command line's argparse types,
# and `_flag` options are store_true flags.
OPTIONS = {
    "format": (_text, None, "output format"),
    "theta": (int, None, "threshold: function is 1 iff at least theta ones"),
    "max_n": (int, None, "solve, policy: node-count cap for the subset table; verify: largest random profile size"),
    "tol": (float, 0, "tie tolerance for co-optimal transmitters and --check"),
    "exact": (_flag, None, "rational arithmetic (exact ties)"),
    "check": (_flag, None, "verify the order against the exact table"),
    "annotate": (_flag, None, "list reachable states with reach probability and onward cost"),
    "labels": (_text, None, "comma separated node names, in input order (dot output)"),
    "sweeps": (int, 1, "number of random profiles (when no --probs)"),
    "seed": (int, 0, f"RNG seed (else the {SEED_ENV_VAR} environment variable)"),
    "tolerance": (float, None, "inequality slack treated as rounding"),
    "exhaustive": (_flag, None, f"also enumerate all trees (n <= {EXHAUSTIVE_MAX_N})"),
    "trials": (int, None, "Monte Carlo walks"),
    "N": (int, None, f"instances per replication (at most {BLOCK_MAX_N})"),
    "reps": (int, None, "replications"),
    "order": (_parse_order, None, "'conjectured' or an explicit rank permutation like 2,1"),
    "transcript": (_flag, None, "include per-round records (json)"),
}


def resolve(args: argparse.Namespace, config: dict, command: Command) -> argparse.Namespace:
    """The profile and every option of `command`, converted and checked.

    Each option comes from the command line, else the config file (a JSON
    null counts as unset), else SEED_ENV_VAR for `seed`, else the command's
    default; an option whose default is REQUIRED must be given.
    """
    values = {"profile": resolve_profile(args, config, command.needs_probs)}
    for key, default in {"format": "table", **command.options}.items():
        kind, low, _ = OPTIONS[key]
        name = f"--{key.replace('_', '-')}"
        v = getattr(args, key)
        if v is None:
            v = config.get(key)
        if v is None and key == "seed" and SEED_ENV_VAR in os.environ:
            name, v = SEED_ENV_VAR, os.environ[SEED_ENV_VAR]
        if v is None:
            v = default
        if v is REQUIRED:
            raise InputError(f"{name} is required")
        values[key] = None if v is None else _convert(name, v, kind, low)
    if values["format"] not in command.formats:
        raise InputError(f"--format must be one of {', '.join(command.formats)}, got {values['format']!r}")
    return argparse.Namespace(**values)


def resolve_profile(args: argparse.Namespace, config: dict, required: bool) -> Optional[IngestedProfile]:
    if args.probs is not None:
        return parse_probs_arg(args.probs)
    if args.probs_file is not None:
        return load_profile(args.probs_file)
    if config.get("probs") is not None:
        return parse_probs_arg(_convert("--probs", config["probs"], _text))
    if required:
        raise InputError("no probabilities given: pass --probs or --probs-file")
    return None


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


def text_value(v) -> str:
    """A record value as table and csv print it: a float by `fmt`, a bool lower
    case, None empty, a tuple or list as its items joined by ";", a mapping
    as its "k:v" items joined by ";", and a strategy as compact JSON."""
    if v is None or isinstance(v, bool):
        return "" if v is None else str(v).lower()
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, (list, tuple)):
        return ";".join(map(text_value, v))
    if isinstance(v, dict):
        return ";".join(f"{k}:{text_value(x)}" for k, x in v.items())
    return render_json(v, compact=True) if isinstance(v, (Node, Leaf)) else str(v)


def render_csv(rows: Iterable[Sequence]) -> str:
    """Rows of raw values as csv lines, each cell printed by `text_value`."""
    return "".join(",".join(map(text_value, row)) + "\n" for row in rows)


def render_record(record: list[tuple[str, object]], out_format: str) -> str:
    """One record of (key, raw value) pairs as key=value lines, a
    header-and-values csv, or a json object (see `render_json`)."""
    if out_format == "json":
        return render_json(dict(record))
    if out_format == "table":
        return "".join(f"{k}={text_value(v)}\n" for k, v in record)
    return render_csv(zip(*record))  # the keys, then the values


def profile_fields(ingested: IngestedProfile) -> list[tuple[str, object]]:
    """The sorted marginals, and unless the input was sorted, each rank's 0-based input position."""
    fields: list[tuple[str, object]] = [("probs", ingested.profile.probs)]
    if any(r != pos for r, pos in enumerate(ingested.original_index)):
        fields.append(("rank_map", {str(r): pos for r, pos in enumerate(ingested.original_index, 1)}))
    return fields


# The printed fields of a policy state, in csv column order
STATE_COLUMNS = ("remaining", "residual_theta", "transmitter", "reach_probability", "expected_remaining_cost")
# The printed fields of a lemma record, in csv column order
LEMMA_COLUMNS = ("k", "i", "T", "S1", "S2")


# A policy state's csv row in STATE_COLUMNS order, the one row a handler formats itself
STATE_ROW = "%s,%d,%d," + FLOAT_FORMAT + "," + FLOAT_FORMAT + "\n"


def annotation_rows(annotations: list[StateAnnotation], n: int) -> str:
    """Csv text of policy states: the header, then one `STATE_ROW` per state, its remaining
    ranks (1..n less the spoken block) cut from one "1|2|...|n|" string in two slices."""
    joined = "".join(f"{r}|" for r in range(1, n + 1))
    starts = list(accumulate((len(str(r)) + 1 for r in range(1, n + 1)), initial=0))  # rank r at starts[r - 1]
    return ",".join(STATE_COLUMNS) + "\n" + "".join([
        STATE_ROW % ((joined[: starts[spoken.start - 1]] + joined[starts[spoken.stop - 1] :])[:-1], t, rank, reach, cost)
        for spoken, _, t, rank, reach, cost in annotations
    ])


# ---------------------------------------------------------------------------
# Subcommands: each takes the resolved options and returns (output, exit code)


def cmd_solve(opts: argparse.Namespace) -> tuple[str, int]:
    ingested, theta = opts.profile, opts.theta
    profile = ingested.profile
    # the table's n-cap, then the labels, then the size of the tree that
    # table, json and dot print, all before the table is filled
    table = CostTable(profile, node_cap=opts.max_n, exact=opts.exact, theta=theta)
    labels = rank_labels(ingested, opts.labels) if opts.format == "dot" else None
    if opts.format in ("table", "json", "dot"):
        check_strategy_size(profile.n, theta)
    cost = optimal_cost(profile, theta, table)
    # csv prints no tree, so none is extracted
    tree = None if opts.format == "csv" else optimal_tree(profile, theta, table=table, tol=opts.tol)
    first = table.minimizers((1 << profile.n) - 1, theta, tol=opts.tol) if 1 <= theta <= profile.n else ()

    if opts.format == "dot":
        return tree_to_dot(tree, labels=labels), EXIT_OK
    record = [("n", profile.n), ("theta", theta), ("optimal_cost", float(cost)), ("optimal_first_transmitters", first)]
    if opts.format != "csv":
        record[2:2] = profile_fields(ingested)
        record.append(("tree", tree))
    return render_record(record, opts.format), EXIT_OK


def cmd_policy(opts: argparse.Namespace) -> tuple[str, int]:
    ingested, theta, out_format = opts.profile, opts.theta, opts.format
    profile = ingested.profile
    spec = ThresholdSpec(profile.n, theta)
    # the table's n-cap, then the labels, then the tree's size, before the tree is built
    table = CostTable(profile, node_cap=opts.max_n, theta=spec.theta) if opts.check else None
    labels = rank_labels(ingested, opts.labels) if out_format == "dot" else None
    if out_format in ("json", "dot"):
        check_strategy_size(profile.n, theta)
    # the root state's onward cost is the policy cost, from the same sweep
    states = annotate_reachable_states(profile, theta) if opts.annotate and out_format in ("table", "json") else []
    cost = states[0].expected_remaining_cost if states else index_policy_cost(profile, theta)
    tree = build_index_tree(profile.n, theta) if opts.check or out_format in ("json", "dot") else None

    check, code = {}, EXIT_OK
    if opts.check:
        table_cost = optimal_cost(profile, theta, table)
        cost_ok = abs(table_cost - cost) <= opts.tol
        bad_states = sum(isinstance(node, Node) and node.transmitter not in table.minimizers(mask, t, tol=opts.tol)
                         for node, mask, t in tree_states(tree, spec))
        passed = cost_ok and bad_states == 0
        check = {
            "table_cost": table_cost,
            "cost_matches_table": cost_ok,
            "states_off_policy": bad_states,
            "check": "passed" if passed else "failed",
        }
        code = EXIT_OK if passed else EXIT_VERIFY

    if out_format == "dot":
        return tree_to_dot(tree, labels=labels), code
    record = [("n", profile.n), ("theta", theta), ("policy_cost", cost), *check.items()]
    if out_format != "csv":
        record[2:2] = profile_fields(ingested)
    if out_format == "json":
        record.append(("tree", tree))
        if opts.annotate:
            record.append(("states", [{key: getattr(a, key) for key in STATE_COLUMNS} for a in states]))
    text = render_record(record, out_format)
    if out_format == "table" and opts.annotate:
        text += annotation_rows(states, profile.n)
    return text, code


def _sweep_profiles(rng: np.random.Generator, sweeps: int, max_n: int) -> list[ProbabilityProfile]:
    out = []
    for _ in range(sweeps):
        m = int(rng.integers(2, max_n + 1))
        probs = np.sort(rng.uniform(0.01, 0.99, size=m))
        out.append(ProbabilityProfile(tuple(float(p) for p in probs)))
    return out


def cmd_verify(opts: argparse.Namespace) -> tuple[str, int]:
    tolerance, exhaustive, out_format = opts.tolerance, opts.exhaustive, opts.format
    explicit = opts.profile is not None
    if explicit:
        profiles = [opts.profile.profile]
        if exhaustive and profiles[0].n > EXHAUSTIVE_MAX_N:
            raise CapacityError(
                f"--exhaustive enumerates every strategy tree and is capped at "
                f"n={EXHAUSTIVE_MAX_N}, got n={profiles[0].n}"
            )
    else:
        # a random profile has at least 2 nodes
        max_n = _convert("--max-n", opts.max_n, int, low=2)
        if opts.seed is None:
            raise InputError("sweep mode needs --seed (or the seed env var) for reproducibility")
        profiles = _sweep_profiles(np.random.default_rng(opts.seed), opts.sweeps, max_n)

    total_violations = exhaustive_failures = exhaustive_runs = 0
    summary_rows = [["m", "probs", "violations", *FAMILIES.values(), "exhaustive_trees", "exhaustive_ok"]]
    reports = []
    for profile in profiles:
        table = CostTable(profile)
        report = check_lemma_inequalities(profile, tolerance=tolerance, table=table)
        reports.append(report)
        total_violations += len(report.violations)
        ex_trees = ex_ok = None
        if exhaustive and profile.n <= EXHAUSTIVE_MAX_N:
            checks = [exhaustive_strategy_check(profile, theta, tolerance=tolerance, table=table)
                      for theta in range(1, profile.n + 1)]
            ex_trees = sum(ex.tree_count for ex in checks)
            ex_ok = all(ex.passed for ex in checks)
            exhaustive_runs += len(checks)
            exhaustive_failures += sum(not ex.passed for ex in checks)
        summary_rows.append([report.m, report.probs, len(report.violations),
                             *(report.worst.get(f, 0.0) for f in FAMILIES), ex_trees, ex_ok])

    passed = total_violations == 0 and exhaustive_failures == 0
    worst = {col: max((r.worst.get(fam, 0.0) for r in reports), default=0.0) for fam, col in FAMILIES.items()}
    record = [("profiles", len(profiles)), ("tolerance", tolerance), ("violations", total_violations)]
    exhaustive_fields = [("exhaustive_checks", exhaustive_runs), ("exhaustive_failures", exhaustive_failures)]
    if out_format == "csv" and explicit:
        rows = [[getattr(rec, key) for key in LEMMA_COLUMNS] for rec in reports[0].records]
        text = render_csv([LEMMA_COLUMNS, *rows])
    elif out_format == "csv":
        text = render_csv(summary_rows)
    elif out_format == "json":
        text = render_record(record + exhaustive_fields + [("passed", passed), ("worst", worst)], "json")
    else:
        verdict = [("verify", "passed" if passed else "failed")]
        text = render_record(record + list(worst.items()) + (exhaustive_fields if exhaustive else []) + verdict,
                             out_format)
    return text, EXIT_OK if passed else EXIT_VERIFY


def cmd_simulate(opts: argparse.Namespace) -> tuple[str, int]:
    profile, theta, seed = opts.profile.profile, opts.theta, opts.seed
    tree = build_index_tree(profile.n, theta)
    report = simulate_tree(tree, profile, theta, opts.trials, seed=seed)
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
    return render_record(record, opts.format), EXIT_SIM if report.error_count > 0 else EXIT_OK


def cmd_block(opts: argparse.Namespace) -> tuple[str, int]:
    profile, theta, seed = opts.profile.profile, opts.theta, opts.seed
    reports, summary = run_block_replications(profile, theta, opts.N, opts.reps, seed=seed, order=opts.order)

    record = [
        ("n", summary.n),
        ("theta", summary.theta),
        ("N", summary.N),
        ("reps", summary.reps),
        ("seed", seed),
        ("order", summary.order),
        ("single_instance_cost", index_policy_cost(profile, theta)),
        ("mean_bits_per_instance", summary.mean_bits_per_instance),
        ("se_bits_per_instance", summary.se_bits_per_instance),
        ("mean_first_round_per_instance", summary.mean_first_round_per_instance),
        ("se_first_round_per_instance", summary.se_first_round_per_instance),
        ("error_count", summary.error_count),
    ]
    if opts.transcript and opts.format == "json":
        record.append(("replications", [
            {"total_bits": r.total_bits, "bits_per_instance": r.bits_per_instance, "error_count": r.error_count,
             "rounds": [vars(rd) for rd in r.rounds]}
            for r in reports
        ]))
    return render_record(record, opts.format), EXIT_SIM if summary.error_count > 0 else EXIT_OK


# ---------------------------------------------------------------------------
# Parser


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace], tuple[str, int]]
    help: str
    formats: tuple[str, ...]
    options: dict  # option -> default, in OPTIONS
    needs_probs: bool = True


FORMATS = ("table", "json", "csv")

COMMANDS = {
    "solve": Command(cmd_solve, "exact optimal cost and one optimal strategy tree", FORMATS + ("dot",), {
        "theta": REQUIRED, "max_n": DEFAULT_NODE_CAP, "tol": DEFAULT_TIE_TOL, "exact": False, "labels": None}),
    "policy": Command(cmd_policy, "closed-form transmission order and its cost", FORMATS + ("dot",), {
        "theta": REQUIRED, "check": False, "annotate": False, "max_n": DEFAULT_NODE_CAP, "tol": DEFAULT_TIE_TOL,
        "labels": None}),
    "verify": Command(cmd_verify, "inequality sweeps; optionally brute-force tree enumeration", FORMATS, {
        "sweeps": 100, "max_n": 8, "seed": None, "tolerance": DEFAULT_LEMMA_TOL, "exhaustive": False},
        needs_probs=False),
    "simulate": Command(cmd_simulate, "Monte Carlo walks of the policy strategy", FORMATS, {
        "theta": REQUIRED, "trials": 10000, "seed": None}),
    "block": Command(cmd_block, "lockstep multi-instance runs with coded blocks", FORMATS, {
        "theta": REQUIRED, "N": 1024, "reps": 10, "seed": None, "order": "conjectured", "transcript": False}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    `main` call; parsing never changes it, and nothing else may."""
    parser = argparse.ArgumentParser(
        prog="threshcast",
        description="Minimum-expected-bits threshold computation over a broadcast channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--probs", help="comma separated marginals, e.g. 0.3,0.6")
        p.add_argument("--probs-file", help="JSON array or one-column CSV of marginals")
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=command.formats, help=OPTIONS["format"][2])
        for key in command.options:
            kind, _, help_text = OPTIONS[key]
            flag = f"--{key.replace('_', '-')}"
            if kind is _flag:
                p.add_argument(flag, action="store_true", default=None, help=help_text)
            else:
                p.add_argument(flag, type=kind if kind in (int, float) else None, help=help_text)
    return parser


def check_out(path: str) -> None:
    """Raise the error `write_out` would meet opening `path`, without creating the file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise InputError(f"cannot write --out file: {OSError(err, os.strerror(err), path)}")


def write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise InputError(f"cannot write --out file: {e}") from e


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        opts = resolve(args, load_config(args.config), command)
        if args.out:
            check_out(args.out)
        text, code = command.handler(opts)
        if args.out:
            write_out(args.out, text)
        else:
            sys.stdout.write(text)
    except (InputError, CapacityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY if isinstance(e, CapacityError) else EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
