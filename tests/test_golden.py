"""Golden CLI output: pinned sha256 digests of stdout for fixed command lines,
and of the trees `enumerate_trees` and `optimal_tree` build.

Criterion 7 only compares two runs of the same code; these digests were
captured once and pin the bytes across versions, so a refactor that
changes any printed digit, key order, tree shape or block codeword
length fails here.  To see the full text of a mismatch, run the command
with `python -m threshcast.cli` and diff it against the same command on
an older checkout.
"""

import hashlib

import pytest

from threshcast.cli import main
from threshcast.core import ProbabilityProfile
from threshcast.dp import CostTable, optimal_tree
from threshcast.io import parse_probs_arg, render_json
from threshcast.verify import enumerate_trees


def probs_arg(n: int, step: int, modulus: int) -> str:
    """Distinct marginals in (0, 1), in a scrambled (unsorted) input order."""
    return ",".join(f"{(i * step % modulus + 0.5) / modulus:.6f}" for i in range(1, n + 1))


P8 = probs_arg(8, 5, 13)
P10 = probs_arg(10, 7, 23)
P12 = probs_arg(12, 7, 29)
P3 = probs_arg(3, 2, 7)
P4 = probs_arg(4, 3, 11)
P200 = probs_arg(200, 37, 211)
P30 = probs_arg(30, 11, 31)
P120 = probs_arg(120, 49, 127)
P13 = probs_arg(13, 5, 17)
P15 = probs_arg(15, 4, 19)
P16 = probs_arg(16, 7, 17)
P18 = probs_arg(18, 5, 19)
P10_11 = probs_arg(10, 3, 11)
P17 = probs_arg(17, 5, 19)

GOLDEN = [
    (
        "policy-annotate-table-n12",
        ["policy", "--probs", P12, "--theta", "5", "--annotate"],
        "72eef615ed7233dc33f97a18cff96ce24d178b0300bfa645cc8540adab90023b",
    ),
    (
        "policy-annotate-json-n12",
        ["policy", "--probs", P12, "--theta", "5", "--annotate", "--format", "json"],
        "c3f050c78dd9436595783fe0754f84f42430303ab4bb40dbfb06171ab6bd4734",
    ),
    # theta 1 and theta n: every spoken block touches rank 1 or rank n
    (
        "policy-annotate-table-n30-theta1",
        ["policy", "--probs", P30, "--theta", "1", "--annotate"],
        "078f955a963e19f467541a1d855e86f3b9c24cb01aff4b146d7355ec1a37f13c",
    ),
    (
        "policy-annotate-json-n30-theta1",
        ["policy", "--probs", P30, "--theta", "1", "--annotate", "--format", "json"],
        "8ca4b21ef5d097d472a749a8a51897ae8bfa7b4d1893b21a9a68d7dbef642b1b",
    ),
    (
        "policy-annotate-table-n30-theta30",
        ["policy", "--probs", P30, "--theta", "30", "--annotate"],
        "511a46084e9c39f2c9147106049b9b4fe6164d00a7d3b09108e13d06b5480bd0",
    ),
    (
        "policy-annotate-json-n30-theta30",
        ["policy", "--probs", P30, "--theta", "30", "--annotate", "--format", "json"],
        "ae54a7cbb5235921947c4fcc41cf8396235df252820d23a99662f8e8800321db",
    ),
    (
        "policy-json-n8",
        ["policy", "--probs", P8, "--theta", "3", "--format", "json"],
        "62036b669d5da76af3a19d8b7ddae0abe0c404ff348d92eb019e2a169dcd8884",
    ),
    (
        "policy-dot-n8",
        ["policy", "--probs", P8, "--theta", "3", "--format", "dot", "--labels", "a,b,c,d,e,f,g,h"],
        "a73195f7edb84541dac99d235cd6c376f9c107cb1ea2244c0a14e00f7322c203",
    ),
    (
        "policy-check-csv-n8",
        ["policy", "--probs", P8, "--theta", "6", "--check", "--format", "csv"],
        "3d970937589b2fd0e0c0069930834be4fe7996865ccc5ce15533443c46fa2e46",
    ),
    (
        "policy-table-n200",
        ["policy", "--probs", P200, "--theta", "83"],
        "873c73efe69a11c9fbfa8c6f09bbb885cb0fff0b33af4be40db657ba8eaa3264",
    ),
    (
        "simulate-n10",
        ["simulate", "--probs", P10, "--theta", "4", "--trials", "20000", "--seed", "7"],
        "52b9925230e4e02a364dc6f5e902541ad65f7699367819cbbdfeb6dc7c20048c",
    ),
    (
        "block-table-n3",
        ["block", "--probs", P3, "--theta", "2", "--N", "128", "--reps", "3", "--seed", "11"],
        "ab133ec5f0a6dcdb287536de296d7cd8a4ff0886c3df69b9ea6d81c621fcb024",
    ),
    (
        "block-json-transcript-n4",
        ["block", "--probs", P4, "--theta", "2", "--N", "96", "--reps", "2", "--seed", "5",
         "--format", "json", "--transcript"],
        "2702e15c552fbece1f501ebc02a4754d00207991ea85a9a4ac4b1fe9374548b6",
    ),
    (
        "solve-json-n8",
        ["solve", "--probs", P8, "--theta", "3", "--format", "json"],
        "83b09e211a1a8eead95e26da6e7d06983f84d5d0cd0b34b13da971123d3accab",
    ),
    (
        "policy-json-n12",
        ["policy", "--probs", P12, "--theta", "6", "--format", "json"],
        "a3020d1d85c7fcc09d90d352536954429b3265262c69868a45c630326be339b8",
    ),
    (
        # remaining sets cross the 9|10 and 99|100 digit boundaries
        "policy-annotate-table-n120",
        ["policy", "--probs", P120, "--theta", "57", "--annotate"],
        "167487451bead12820e31800fc0573d875e4768141cf127fc35018cdd8251002",
    ),
    (
        "simulate-n30-100k",
        ["simulate", "--probs", P30, "--theta", "14", "--trials", "100000", "--seed", "2024"],
        "972e5e223d782cdc5093d7bbf34daa9fb4690c4c799ca25a472db7a6fbdc9f29",
    ),
    (
        "solve-exact-n8",
        ["solve", "--probs", P8, "--theta", "3", "--exact"],
        "12b18650838345e7dba83e655d8a3e765e57aed1b394642d3ffc3ac27d8bed0d",
    ),
    (
        # theta 0 and n + 1 are constant functions: no table entry is undetermined
        "solve-theta0-n8",
        ["solve", "--probs", P8, "--theta", "0"],
        "81eb1127631c4adf8e6bc1d4ea43dcd2255d073cf5e8483a5ac03c4dcbf85ead",
    ),
    (
        "solve-theta9-n8",
        ["solve", "--probs", P8, "--theta", "9"],
        "ba8e2803ab0dc60336842218032f2f4b3f3b8217a4a7e225dac28a5ceec40e54",
    ),
    (
        "policy-check-csv-n12-theta1",
        ["policy", "--probs", P12, "--theta", "1", "--check", "--format", "csv"],
        "9b15c00380ca69ec6c6a0e126ae9039308564e25b9d3a58a6664fd867f7d725c",
    ),
    (
        # a fixed order runs its own strategy DAG, not the policy's
        "block-json-transcript-order-n4",
        ["block", "--probs", P4, "--theta", "2", "--N", "64", "--reps", "2", "--seed", "3",
         "--order", "3,1,4,2", "--format", "json", "--transcript"],
        "a3b7b5180f5c5191b0629db6f59fac58135cc4ab8f3840cb3bd4210af2421292",
    ),
    (
        # the subset-table fill at the sizes the benchmark's solve and --check ops reach
        "solve-n16-theta1",
        ["solve", "--probs", P16, "--theta", "1"],
        "7da2f0966c1ec250fe27dbc05621a47e1d59f7261e8b7ab2b23d071605e6f54b",
    ),
    (
        "solve-n16-theta16",
        ["solve", "--probs", P16, "--theta", "16"],
        "e7f8ef4e882beccaa40697b932ce52b32f0152471b18de6b4a647cfa1170b358",
    ),
    (
        "solve-n13-theta7",
        ["solve", "--probs", P13, "--theta", "7"],
        "701fc6646a648210daa51ba8226fea6c2e59b3ff23197e2c8b80e183a8ec06c4",
    ),
    (
        "policy-check-n15-theta1",
        ["policy", "--probs", P15, "--theta", "1", "--check"],
        "cef234e264154fd42b938723eac2e7ed54455278b0f4f2cdd866d1a4361d121c",
    ),
    (
        # a 5.1 MB compact tree line
        "solve-n18-theta9",
        ["solve", "--probs", P18, "--theta", "9"],
        "e23174d219a28b99a4cdff3997e1a7bc025f407e2cd50d99c676eb3fe6d2d5c1",
    ),
    (
        # tied marginals: ties are broken toward the lowest rank
        "solve-tied-n10",
        ["solve", "--probs", "0.4,0.4,0.4,0.7,0.7,0.2,0.2,0.9,0.4,0.7", "--theta", "5"],
        "a53f6bee97d539cef93dbbde82e897ff881271c0c280e2116478eb177c98423d",
    ),
    (
        "solve-exact-n10",
        ["solve", "--probs", P10_11, "--theta", "5", "--exact"],
        "6edcea13ab80e48343226f4f2e0219c9fe89ef59d7dcb7857b7c1bdf7f6f1267",
    ),
    (
        "verify-exhaustive-sweep-table",
        ["verify", "--sweeps", "6", "--max-n", "4", "--seed", "3", "--exhaustive"],
        "8141c5c00d65a9c4d36cf98fffd6d6f766486cde78d15f88c3c873e6d7eb196a",
    ),
    (
        "verify-exhaustive-sweep-json",
        ["verify", "--sweeps", "6", "--max-n", "4", "--seed", "3", "--exhaustive", "--format", "json"],
        "9be45eacd844054e6ea6edf53cc0b2f43c88c6fa9dc291bb117a79aff2e669c3",
    ),
    (
        "verify-exhaustive-sweep-csv",
        ["verify", "--sweeps", "6", "--max-n", "4", "--seed", "3", "--exhaustive", "--format", "csv"],
        "fd787d76ea09512057a16ca058972309eff2f982e64cde2e5c6a9d4b647607b4",
    ),
    (
        # every (k, i) lemma record of one explicit profile
        "verify-csv-n8",
        ["verify", "--probs", P8, "--format", "csv"],
        "888c4d6e3140cc431e10c649d2839e7b28c18a82410f3c78aeabce4491955a93",
    ),
    # one pin for each (subcommand, format) pair the lines above leave open
    (
        "solve-csv-n8",
        ["solve", "--probs", P8, "--theta", "3", "--format", "csv"],
        "b01df70f892a365b05e111ce21c3e8d09b58f648d8201998d50ab5cfa37db74f",
    ),
    (
        "solve-dot-n8",
        ["solve", "--probs", P8, "--theta", "5", "--format", "dot", "--labels", "a,b,c,d,e,f,g,h"],
        "0d91e6a960af9ca844a059b14331cd6c57f366471794da0f3f094b14a75e591a",
    ),
    (
        "simulate-json-n10",
        ["simulate", "--probs", P10, "--theta", "4", "--trials", "5000", "--seed", "7", "--format", "json"],
        "419a46f78eb4cf612289dbcdcb1c7c89275092290b9a786137a0ab0d93756a9d",
    ),
    (
        "simulate-csv-n10",
        ["simulate", "--probs", P10, "--theta", "4", "--trials", "5000", "--seed", "7", "--format", "csv"],
        "8f85219ea0a7eefeb82e4c64fa734626ff57727394760b36fc8eb844cbc6fd4e",
    ),
    (
        "block-csv-n3",
        ["block", "--probs", P3, "--theta", "2", "--N", "128", "--reps", "3", "--seed", "11", "--format", "csv"],
        "a63d3f372bc2b4325faa7f3483113ac4978ea47b667fe4c5d72e9ca0200bf221",
    ),
    (
        "block-json-n4",
        ["block", "--probs", P4, "--theta", "2", "--N", "96", "--reps", "2", "--seed", "5", "--format", "json"],
        "b6533bfa1046df8c726a1860934ee2ff99627bcaf53b64e7327003b5f685a0bd",
    ),
    (
        "verify-table-n8",
        ["verify", "--probs", P8],
        "78744885cd04ddf63f0edef3d23c0d62465efd506127aae01d9cc659ec1c2436",
    ),
    (
        "verify-json-n8",
        ["verify", "--probs", P8, "--format", "json"],
        "cc5eb4432fdfd9b92a00bd445ddbb1be5aee47269bbd8299d94a496c6fe5b65e",
    ),
    (
        "policy-check-json-n8",
        ["policy", "--probs", P8, "--theta", "3", "--check", "--format", "json"],
        "1e8acee7c26fe735bcbaa2de61c7311b3345e11bb0805a1457c5c1066481757d",
    ),
    # the Monte Carlo walk at the benchmark's simulate sizes, in every format
    (
        "simulate-n12-theta6-100k",
        ["simulate", "--probs", P12, "--theta", "6", "--trials", "100000", "--seed", "21"],
        "92c0dbd51dba9ec5240771ef2b06a6ed91b58698dfe65fdf6385ff8abfa8fb66",
    ),
    (
        "simulate-json-n12-theta6-100k",
        ["simulate", "--probs", P12, "--theta", "6", "--trials", "100000", "--seed", "21", "--format", "json"],
        "d397ef2e7ec0e80c1d533ff71a78da758f8f4b02f8afad367a25bf105051d89f",
    ),
    (
        "simulate-csv-n12-theta6-100k",
        ["simulate", "--probs", P12, "--theta", "6", "--trials", "100000", "--seed", "21", "--format", "csv"],
        "87198cb8f494772c4fe248e031916c7deb8f49da5b1638fcbfcf6a046a1067ce",
    ),
    (
        "simulate-n17-theta12-100k",
        ["simulate", "--probs", P17, "--theta", "12", "--trials", "100000", "--seed", "21"],
        "2bd61fa3f4b15c3c462a3682e1132b0ef93258f3917ab197653a48edc43e7e10",
    ),
    (
        "simulate-json-n17-theta12-100k",
        ["simulate", "--probs", P17, "--theta", "12", "--trials", "100000", "--seed", "21", "--format", "json"],
        "b46eea12cc24c27a38fc279a4e1c0018eb52967671b7ea5e272b654084536834",
    ),
    (
        "simulate-csv-n17-theta12-100k",
        ["simulate", "--probs", P17, "--theta", "12", "--trials", "100000", "--seed", "21", "--format", "csv"],
        "a81b571a8a00407eca56597ecf38583c4a2632df73c92b009cd1bc74bfb0f43e",
    ),
]


@pytest.mark.parametrize("argv,digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_stdout_matches_pinned_digest(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def tree_lines_digest(trees) -> str:
    """The digest of the trees' compact JSON, one line per tree."""
    return hashlib.sha256("".join(render_json(t, compact=True) + "\n" for t in trees).encode("utf-8")).hexdigest()


# every tree of enumerate_trees(n, theta), in order, for theta 0..n+1: the
# exhaustive check's witness is the first cheapest tree, so order is behaviour
ENUMERATION_DIGESTS = {
    1: "fb322e9284c492f4d5ab6a4faa2f936e24a68181fe36bf8762238a09f0de164e",
    2: "b6ca83c29f7b499e4136894c0e529b5381890c50647a17bfa055260fa16b609d",
    3: "f2e6f8761f1d3debf82fd99cd9775b0fa05306680f23e16418adabb0affc8cfa",
    4: "42b3d9da8d39dbb1dab48e1cbd7d3ce00d90d1d879174bc1e73daa227d8f6463",
}


@pytest.mark.parametrize("n", sorted(ENUMERATION_DIGESTS))
def test_enumeration_matches_pinned_digest(n):
    trees = [t for theta in range(n + 2) for t in enumerate_trees(n, theta)]
    assert tree_lines_digest(trees) == ENUMERATION_DIGESTS[n]


# optimal_tree at every theta 0..n+1, ties broken toward the lowest rank: (name, probs, exact table, digest)
OPTIMAL_TREES = [
    ("half-n1", (0.5,), False,
     "fb322e9284c492f4d5ab6a4faa2f936e24a68181fe36bf8762238a09f0de164e"),
    ("half-n7", (0.5,) * 7, False,
     "b3b5fbd169f84ba7805d87071d01e5df45f63e09f2aadd53f860020420121539"),
    ("tied-n4", (0.17, 0.29, 0.29, 0.83), False,
     "e73e2fd66d9cffd31b980e329977c7d64de17dd38759b0938bf8268be4c97b3b"),
    ("tied-n10", (0.2, 0.2, 0.4, 0.4, 0.4, 0.4, 0.7, 0.7, 0.7, 0.9), False,
     "4d54030b4211d5737057e72d3a0ee544061b42fc91f322b66d6668874405f99e"),
    ("distinct-n12", parse_probs_arg(P12).profile.probs, False,
     "b38856c68b9adca4d1ed1b46320794a026d95fe890854689e5fdc9c6b661f7fb"),
    ("exact-tied-n8", (0.25, 0.25, 0.5, 0.5, 0.5, 0.75, 0.75, 0.9), True,
     "fc86395ec221d2302c11549e5a32fc95fcb7ea272a7c47e223bb5b66bb4e2dac"),
]


@pytest.mark.parametrize("probs,exact,digest", [c[1:] for c in OPTIMAL_TREES], ids=[c[0] for c in OPTIMAL_TREES])
def test_optimal_trees_match_pinned_digest(probs, exact, digest):
    profile = ProbabilityProfile(probs)
    table = CostTable(profile, exact=True) if exact else None
    trees = [optimal_tree(profile, theta, table=table) for theta in range(profile.n + 2)]
    assert tree_lines_digest(trees) == digest
