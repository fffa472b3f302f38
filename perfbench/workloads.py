"""Op mixes for the three workloads and the oracle that checks each op.

A workload is a fixed list of slots, and one rotation runs the ops of
every slot once.  A slot names a subcommand and the (n, theta) of each of
its ops, so every rotation has the same sizes on every seed; only the
probabilities and the CLI seeds are drawn from the seed, afresh for each
rotation.  Sizes are fixed because op cost grows exponentially in n and
the subset-table fill costs ten times more at theta = n/2 than at theta
= 1 or n: random sizes made throughput and median latency spread by a
third across seeds.  The sizes also put a group of alike ops of about
the same cost near the top of each mix, several per rotation, so that the
tail latency (the 11th largest op time of a run) falls inside that group
and holds still from run to run.

Probabilities are a Latin-hypercube draw: the n values fall one in each
of n equal strata of (0.01, 0.99), then are shuffled, so the CLI always
receives them unsorted.  The k-th op of a slot in a run draws the value
of stratum s in part (k + s) mod 16 of 16 equal parts of the stratum, so
that a run's ops cover each stratum evenly: block costs and bits depend
on the values, and this keeps a run's total alike from seed to seed.
Block ops use 3, 4 or 5 reps in turn.

Set-up warm-ups are the same on every seed, so that set-up time depends
on the program alone.

Each op's oracle runs outside the timed interval and returns whether the
op's output is right, plus the broadcast bits and instances it reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

P_LO, P_HI = 0.01, 0.99
SUBSTRATA = 16  # equal parts of each stratum; see draw_probs
# criterion-1 tolerance between the exact optimum and the rank policy
COST_TOL = 1e-12
SIM_TRIALS = 100_000
SIM_MAX_Z = 5.0
# block entropy check: allowed deviation of the realized self-information,
# in standard deviations, and the prefix-code (Kraft) slack in bits
BLOCK_Z = 6.0
BLOCK_KRAFT_BITS = 30.0


@dataclass(frozen=True)
class Outcome:
    ok: bool
    bits: float = 0.0
    instances: float = 0.0
    why: str = ""


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[str, object], Outcome]  # (stdout, threshcast package) -> Outcome


@dataclass(frozen=True)
class Slot:
    kind: str  # solve | check | verify-probs | verify-sweeps | table | annotate | json | dot | simulate | block
    sizes: tuple[tuple[int, int], ...]  # (n, theta) of each op; theta is unused by verify
    N: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    warmup: tuple[Slot, ...]  # one small op per subcommand, run during set-up
    rotation_s: float  # about the wall seconds of one rotation, checks included, on the reference core


def draw_probs(rng: random.Random, n: int, k: int) -> list[str]:
    """n probabilities for the k-th op of its slot in a run: the value in
    stratum s falls in part (k + s) mod SUBSTRATA of that stratum."""
    strata = list(range(n))
    rng.shuffle(strata)
    units = [(s + ((k + s) % SUBSTRATA + rng.random()) / SUBSTRATA) / n for s in strata]
    return ["%.6f" % (P_LO + (P_HI - P_LO) * u) for u in units]


def make_op(slot: Slot, n: int, theta: int, rng: random.Random, k: int, reps: int) -> Op:
    if slot.kind == "verify-sweeps":
        argv = ("verify", "--sweeps", str(rng.randint(3, 5)), "--max-n", "4",
                "--seed", str(rng.randrange(2**31)), "--exhaustive")
        return Op(slot.kind, argv, partial(check_kv, key="verify", want="passed"))
    probs = draw_probs(rng, n, k)
    arg = ",".join(probs)
    if slot.kind == "verify-probs":
        return Op(slot.kind, ("verify", "--probs", arg, "--format", "csv"), partial(check_lemma_csv, n=n))
    base = ("--probs", arg, "--theta", str(theta))
    sorted_probs = tuple(sorted(float(p) for p in probs))
    if slot.kind == "solve":
        return Op(slot.kind, ("solve",) + base, partial(check_solve, probs=sorted_probs, theta=theta))
    if slot.kind == "check":
        return Op(slot.kind, ("policy",) + base + ("--check",), partial(check_kv, key="check", want="passed"))
    if slot.kind in ("table", "annotate"):
        extra = ("--annotate",) if slot.kind == "annotate" else ()
        return Op(slot.kind, ("policy",) + base + extra, check_policy_table)
    if slot.kind == "json":
        return Op(slot.kind, ("policy",) + base + ("--format", "json"),
                  partial(check_policy_json, probs=sorted_probs, theta=theta))
    if slot.kind == "dot":
        return Op(slot.kind, ("policy",) + base + ("--format", "dot"), check_dot)
    seed = ("--seed", str(rng.randrange(2**31)))
    if slot.kind == "simulate":
        return Op(slot.kind, ("simulate",) + base + ("--trials", str(SIM_TRIALS)) + seed, check_simulate)
    if slot.kind == "block":
        argv = ("block",) + base + ("--N", str(slot.N), "--reps", str(reps)) + seed
        return Op(slot.kind, argv, partial(check_block, probs=sorted_probs, theta=theta))
    raise ValueError(f"unknown slot kind {slot.kind!r}")


def slot_ops(slots: tuple[Slot, ...], rng: random.Random, index: int) -> list[Op]:
    ops = []
    for slot in slots:
        for j, (n, theta) in enumerate(slot.sizes):
            k = index * len(slot.sizes) + j
            ops.append(make_op(slot, n, theta, rng, k, reps=3 + (len(ops) + index) % 3))
    return ops


def rotation_ops(workload: Workload, seed: int, index: int) -> list[Op]:
    """The ops of rotation `index`, in shuffled order; each rotation has its
    own stream, so it never depends on how many rotations ran before it.
    The shuffle spreads a slot's alike ops over the rotation, so that one
    slow spell of the host does not slow all of them at once."""
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    ops = slot_ops(workload.slots, rng, index)
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: Workload) -> list[Op]:
    return slot_ops(workload.warmup, random.Random(f"{workload.name}:warmup"), 0)


# ---------------------------------------------------------------------------
# Oracles


def kv_lines(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            break
        out[key] = value
    return out


def print_tol(x: float) -> float:
    """Half a unit in the 12th significant digit, the CLI's print precision."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


def check_kv(text: str, tc, key: str, want: str) -> Outcome:
    kv = kv_lines(text)
    if kv.get(key) != want:
        return Outcome(False, why=f"{key}={kv.get(key)!r}")
    cost = kv.get("policy_cost")
    return Outcome(True, float(cost), 1.0) if cost is not None else Outcome(True)


def check_solve(text: str, tc, probs: tuple[float, ...], theta: int) -> Outcome:
    cost = float(kv_lines(text)["optimal_cost"])
    policy = tc.index_policy_cost(tc.ProbabilityProfile(probs), theta)
    if abs(cost - policy) > COST_TOL + print_tol(policy):
        return Outcome(False, why=f"optimal_cost {cost!r} != policy cost {policy!r}")
    return Outcome(True, cost, 1.0)


def check_lemma_csv(text: str, tc, n: int) -> Outcome:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[:1] != [["k", "i", "T", "S1", "S2"]] or len(rows) != 1 + n * n:
        return Outcome(False, why=f"{len(rows)} lemma rows for m={n}")
    return Outcome(True)


def check_policy_table(text: str, tc) -> Outcome:
    return Outcome(True, float(kv_lines(text)["policy_cost"]), 1.0)


def check_policy_json(text: str, tc, probs: tuple[float, ...], theta: int) -> Outcome:
    obj = json.loads(text)
    tree = tc.tree_from_dict(obj["tree"])
    cost = tc.strategy_cost(tree, tc.ProbabilityProfile(probs), theta)
    if abs(cost - obj["policy_cost"]) > print_tol(cost):
        return Outcome(False, why=f"tree cost {cost!r} != policy_cost {obj['policy_cost']!r}")
    return Outcome(True, obj["policy_cost"], 1.0)


def check_dot(text: str, tc) -> Outcome:
    ok = text.startswith("digraph strategy {\n") and text.endswith("}\n")
    return Outcome(ok, why="" if ok else "not a digraph")


def check_simulate(text: str, tc) -> Outcome:
    kv = kv_lines(text)
    errors, z = int(kv["error_count"]), float(kv["z"])
    if errors or abs(z) > SIM_MAX_Z:
        return Outcome(False, why=f"error_count={errors} z={z}")
    trials = int(kv["trials"])
    return Outcome(True, float(kv["mean_bits"]) * trials, trials)


def self_information(tc, profile, theta: int) -> tuple[float, float]:
    """Mean and variance of one instance's self-information, in bits, along
    the rank policy: the sum of -log2 P(bit) over the bits it broadcasts.

    The mean is the conditional-entropy bound sum(reach * h(p_transmitter)).
    """
    states = tc.annotate_reachable_states(profile, theta)
    onward: dict[tuple[tuple[int, ...], int], tuple[float, float]] = {}
    for a in reversed(states):  # deepest states first
        p = profile.p(a.transmitter)
        rest = tuple(r for r in a.remaining if r != a.transmitter)
        m1 = m2 = 0.0
        for q, t in ((1.0 - p, a.residual_theta), (p, a.residual_theta - 1)):
            i = -math.log2(q)
            f, g = onward.get((rest, t), (0.0, 0.0))
            m1 += q * (i + f)
            m2 += q * (i * i + 2.0 * i * f + g)
        onward[(a.remaining, a.residual_theta)] = (m1, m2)
    if not states:
        return 0.0, 0.0
    m1, m2 = onward[(states[0].remaining, states[0].residual_theta)]
    return m1, max(m2 - m1 * m1, 0.0)


def check_block(text: str, tc, probs: tuple[float, ...], theta: int) -> Outcome:
    """error_count must be 0, and the bits sent must not undercut the
    conditional-entropy bound.

    The realized mean is random and falls below the bound's expectation on
    many runs, so the bound is applied to the realized self-information:
    the transcript is a prefix code, hence (Kraft) it is shorter than the
    realized self-information by c bits with probability at most 2**-c, and
    the realized self-information lies within BLOCK_Z standard deviations
    of its mean.
    """
    kv = kv_lines(text)
    errors = int(kv["error_count"])
    instances = int(kv["N"]) * int(kv["reps"])
    mean = float(kv["mean_bits_per_instance"])
    bound, var = self_information(tc, tc.ProbabilityProfile(probs), theta)
    slack = (BLOCK_Z * math.sqrt(var * instances) + BLOCK_KRAFT_BITS) / instances
    if errors or mean < bound - slack:
        return Outcome(False, why=f"error_count={errors} mean={mean} bound={bound} slack={slack}")
    return Outcome(True, mean * instances, instances)


# ---------------------------------------------------------------------------
# The workloads; README.md gives why each exists and its op mix per rotation


EXACT = Workload(
    name="exact",
    slots=(
        Slot("solve", ((16, 1), (16, 16), (15, 2), (15, 14), (14, 4), (14, 11),
                       (13, 3), (13, 7), (13, 11), (12, 2), (12, 6), (12, 10))),
        Slot("check", ((15, 1), (15, 15), (14, 3), (14, 12), (13, 4), (13, 9), (12, 3), (12, 8))),
        Slot("verify-probs", ((8, 0), (9, 0), (10, 0), (11, 0), (12, 0))),
        Slot("verify-sweeps", ((4, 0), (4, 0))),
    ),
    warmup=(Slot("solve", ((8, 4),)), Slot("check", ((8, 4),)), Slot("verify-probs", ((6, 0),))),
    rotation_s=4.8,
)

BLOCK = Workload(
    name="block",
    slots=(
        Slot("block", ((2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)), N=128),
        Slot("block", ((3, 2),), N=256),
    ),
    warmup=(Slot("block", ((2, 1),), N=32),),
    rotation_s=3.0,
)

POLICY_TREE = Workload(
    name="policy-tree",
    slots=(
        Slot("table", ((80, 8), (104, 70), (128, 30), (152, 120), (176, 60), (200, 150))),
        Slot("annotate", ((40, 20), (56, 8), (72, 50), (88, 30), (104, 80), (120, 45))),
        Slot("json", ((10, 5), (11, 2), (12, 9), (13, 4), (14, 11), (15, 7))),
        Slot("dot", ((10, 3), (11, 8), (12, 6), (13, 11), (14, 2), (15, 9))),
        Slot("simulate", ((12, 6), (13, 3), (14, 10), (15, 8), (16, 4), (17, 12))),
    ),
    warmup=(Slot("table", ((20, 10),)), Slot("simulate", ((6, 3),))),
    rotation_s=3.7,
)

WORKLOADS = {w.name: w for w in (EXACT, BLOCK, POLICY_TREE)}
