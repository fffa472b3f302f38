"""Command line behavior: formats, precedence, exit codes, determinism."""

import argparse
import csv
import dataclasses
import errno
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

import threshcast
from threshcast import io as tio
from threshcast.cli import COMMANDS, SEED_ENV_VAR, annotation_rows, build_parser, fmt, main, render_record
from threshcast.core import Leaf, Node, ProbabilityProfile, dag_postorder
from threshcast.dp import DEFAULT_NODE_CAP, MAX_TABLE_N, CostTable
from threshcast.huffman import BLOCK_CODE_MAX_WORK, BernoulliBlockCode
from threshcast.policy import _reachable_states, annotate_reachable_states
from threshcast.sim import (BLOCK_MAX_N, MAX_DAG_NODES, SIM_MAX_CELLS, BlockExperimentReport,
                            ReplicationSummary, RoundRecord, SimulationReport)
from threshcast.verify import LemmaRecord


TWO_CORES = pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                               reason="code builds go to worker processes only with two usable cores")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            out[k] = v
    return out


class TestSolve:
    def test_table_output(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--probs", "0.3,0.6", "--theta", "1")
        assert code == 0 and err == ""
        fields = kv(out)
        assert fields["n"] == "2"
        assert fields["theta"] == "1"
        assert fields["probs"] == "0.3;0.6"
        assert fields["optimal_cost"] == "1.4"
        assert fields["optimal_first_transmitters"] == "2"
        assert "rank_map" not in fields
        tree = json.loads(fields["tree"])
        assert tree["transmitter"] == 2
        assert tree["on_one"] == {"value": 1}

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--probs", "0.3,0.6", "--theta", "2", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["optimal_cost"] == 1.3
        assert obj["optimal_first_transmitters"] == [1]
        assert obj["probs"] == [0.3, 0.6]
        assert obj["tree"]["transmitter"] == 1

    def test_unsorted_input_reports_rank_map(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--probs", "0.9,0.2,0.5", "--theta", "1", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["probs"] == [0.2, 0.5, 0.9]
        assert obj["rank_map"] == {"1": 1, "2": 2, "3": 0}

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--probs", "0.3,0.6", "--theta", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,theta,optimal_cost,optimal_first_transmitters"
        assert lines[1] == "2,1,1.4,2"

    def test_csv_extracts_no_tree(self, capsys, monkeypatch):
        argv = ["solve", "--probs", "0.9,0.2,0.5,0.35,0.7,0.1", "--theta", "3"]
        fields = kv(run_cli(capsys, *argv)[1])
        monkeypatch.setattr("threshcast.cli.optimal_tree", lambda *a, **k: pytest.fail("csv extracted a tree"))
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        keys = ("n", "theta", "optimal_cost", "optimal_first_transmitters")
        assert out == ",".join(keys) + "\n" + ",".join(fields[k] for k in keys) + "\n"

    def test_dot_output_with_labels(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--probs", "0.6,0.3", "--theta", "1",
            "--format", "dot", "--labels", "alpha,beta",
        )
        assert code == 0
        assert out.startswith("digraph")
        # rank 2 holds 0.6, which came first in the input: label alpha
        assert '[label="alpha", shape=ellipse]' in out

    def test_exact_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--probs", "0.5,0.5", "--theta", "1", "--exact"
        )
        assert code == 0
        assert kv(out)["optimal_first_transmitters"] == "1;2"

    def test_missing_theta(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--probs", "0.3,0.6")
        assert code == 2
        assert "theta" in err and out == ""

    def test_missing_probs(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--theta", "1")
        assert code == 2
        assert "probs" in err

    def test_capacity_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--probs", "0.1,0.2,0.3,0.4", "--theta", "1", "--max-n", "3"
        )
        assert code == 3
        assert "error:" in err

    def test_table_ceiling_holds_above_max_n(self, capsys):
        probs = ",".join(f"{(i + 0.5) / 31:.4f}" for i in range(31))
        code, out, err = run_cli(capsys, "solve", "--probs", probs, "--theta", "3", "--max-n", "40")
        assert code == 3 and out == ""
        assert f"above the cap of {MAX_TABLE_N}" in err

    def test_table_ceiling_is_refused_before_the_fill(self, capsys, monkeypatch):
        monkeypatch.setattr(CostTable, "_fill", lambda self: pytest.fail("the table was filled"))
        argv = ("--probs", scrambled_probs(26), "--theta", "13", "--max-n", "30", "--format", "csv")
        code, out, err = run_cli(capsys, "solve", *argv)
        assert code == 3 and out == ""
        assert "above the cap of 25" in err

    def test_bad_probs_value(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--probs", "0.3,1.5", "--theta", "1")
        assert code == 2

    def test_wrong_label_count(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve", "--probs", "0.3,0.6", "--theta", "1",
            "--format", "dot", "--labels", "a,b,c",
        )
        assert code == 2

    def test_bad_format_choice_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--probs", "0.3,0.6", "--theta", "1", "--format", "yaml"])
        assert exc.value.code == 2


class TestPolicy:
    def test_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "policy", "--probs", "0.3,0.6", "--theta", "1", "--check"
        )
        assert code == 0
        fields = kv(out)
        assert fields["policy_cost"] == "1.4"
        assert fields["cost_matches_table"] == "true"
        assert fields["states_off_policy"] == "0"
        assert fields["check"] == "passed"

    def test_check_csv_has_the_check_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "policy", "--probs", "0.3,0.6", "--theta", "1", "--check", "--format", "csv"
        )
        assert code == 0
        assert out == (
            "n,theta,policy_cost,table_cost,cost_matches_table,states_off_policy,check\n"
            "2,1,1.4,1.4,true,0,passed\n"
        )

    @pytest.mark.parametrize("out_format", ["table", "json", "csv", "dot"])
    def test_failed_check_exits_4(self, capsys, monkeypatch, out_format):
        monkeypatch.setattr(CostTable, "minimizers", lambda self, mask, t, tol=0.0: (99,))
        code, out, _ = run_cli(
            capsys, "policy", "--probs", "0.2,0.5,0.7", "--theta", "2", "--check", "--format", out_format
        )
        assert code == 4
        if out_format == "dot":
            assert out.startswith("digraph")
            return
        if out_format == "json":
            row = json.loads(out)
            assert row["check"] == "failed" and row["cost_matches_table"] is True
            assert row["states_off_policy"] > 0
            return
        if out_format == "csv":
            header, values = (line.split(",") for line in out.splitlines())
            row = dict(zip(header, values))
        else:
            row = kv(out)
        assert row["check"] == "failed"
        assert row["cost_matches_table"] == "true"
        assert int(row["states_off_policy"]) > 0

    def test_annotate_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "policy", "--probs", "0.3,0.6", "--theta", "1", "--annotate"
        )
        assert code == 0
        lines = out.splitlines()
        assert "remaining,residual_theta,transmitter,reach_probability,expected_remaining_cost" in lines
        assert "1|2,1,2,1,1.4" in lines
        assert "1,1,1,0.4,1" in lines

    def test_annotate_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "policy", "--probs", "0.2,0.5,0.7", "--theta", "2",
            "--format", "json", "--annotate", "--check",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["check"] == "passed"
        assert obj["states"][0]["reach_probability"] == 1.0
        assert obj["states"][0]["transmitter"] == 2
        assert obj["policy_cost"] == 2.25

    def test_annotation_rows_join_the_remaining_ranks(self, capsys):
        # every row, template and two-piece rank column, must equal formatting
        # each field of `annotate_reachable_states`' states on its own, across the
        # 9|10 digit boundary; theta 0 and n + 1 print the header alone
        header = "remaining,residual_theta,transmitter,reach_probability,expected_remaining_cost"

        def joined(states):
            return "".join(row + "\n" for row in [header] + [
                ",".join(["|".join(map(str, s.remaining)), str(s.residual_theta), str(s.transmitter),
                          fmt(s.reach_probability), fmt(s.expected_remaining_cost)])
                for s in states
            ])

        for n in (1, 2, 5, 9, 10, 11, 13):
            profile = ProbabilityProfile(tuple((i + 0.5) / n for i in range(n)))
            for theta in range(n + 2):
                states = annotate_reachable_states(profile, theta)
                assert annotation_rows(_reachable_states(profile, theta), n) == joined(states), (n, theta)
                assert len(states) > 0 or theta in (0, n + 1)
        # unsorted input through the command line, past the 99|100 boundary
        probs = scrambled_probs(120)
        profile = ProbabilityProfile(tuple(sorted(float(p) for p in probs.split(","))))
        code, out, err = run_cli(capsys, "policy", "--probs", probs, "--theta", "45", "--annotate")
        states = annotate_reachable_states(profile, 45)
        assert (code, err) == (0, "") and kv(out)["policy_cost"] == fmt(states[0].expected_remaining_cost)
        assert out[out.index(header):] == joined(states)

    def test_large_profile_without_check(self, capsys):
        probs = ",".join(str(round(0.02 + 0.019 * i, 6)) for i in range(50))
        code, out, _ = run_cli(capsys, "policy", "--probs", probs, "--theta", "25")
        assert code == 0
        assert float(kv(out)["policy_cost"]) > 1.0

    def test_far_past_the_recursion_limit(self, capsys):
        n = 1200
        probs = ",".join(f"{(i * 37 % (n + 1) + 0.5) / (n + 1):.6f}" for i in range(1, n + 1))
        code, out, err = run_cli(capsys, "policy", "--probs", probs, "--theta", "600")
        assert code == 0 and err == ""
        assert 1.0 < float(kv(out)["policy_cost"]) <= n


class TestRenderRecord:
    """`render_record` decides how every kind of raw value prints, in each format."""

    TREE = Node(1, Leaf(0), Leaf(1))
    RECORD = [("none", None), ("flag", True), ("count", 3), ("cost", 2 / 3), ("np_cost", np.float64(1 / 7)),
              ("ranks", (2, 1)), ("rank_map", {"1": 1, "2": 0}), ("tree", TREE)]
    TREE_TEXT = '{"on_one": {"value": 1}, "on_zero": {"value": 0}, "transmitter": 1}'

    def test_table(self):
        assert render_record(self.RECORD, "table") == (
            "none=\nflag=true\ncount=3\ncost=0.666666666667\nnp_cost=0.142857142857\nranks=2;1\n"
            f"rank_map=1:1;2:0\ntree={self.TREE_TEXT}\n"
        )

    def test_csv(self):
        # a cell is quoted per RFC 4180 only when it holds a comma, a double quote or a line break, as the
        # strategy's does; no csv the CLI prints holds a strategy
        quoted = '"' + self.TREE_TEXT.replace('"', '""') + '"'
        assert render_record(self.RECORD, "csv") == (
            "none,flag,count,cost,np_cost,ranks,rank_map,tree\n"
            f",true,3,0.666666666667,0.142857142857,2;1,1:1;2:0,{quoted}\n"
        )
        assert next(csv.reader([render_record(self.RECORD, "csv").splitlines()[1]]))[-1] == self.TREE_TEXT

    def test_json(self):
        expected = {"none": None, "flag": True, "count": 3, "cost": 0.666666666667, "np_cost": 0.142857142857,
                    "ranks": [2, 1], "rank_map": {"1": 1, "2": 0}, "tree": json.loads(self.TREE_TEXT)}
        assert render_record(self.RECORD, "json") == json.dumps(expected, sort_keys=True, indent=2) + "\n"


BLOCK_RUN = ("block", "--probs", "0.3,0.6", "--theta", "1", "--N", "8", "--reps", "2", "--seed", "1")


@pytest.mark.parametrize("argv", [
    ("solve", "--probs", "0.3,0.6", "--theta", "1"),
    ("policy", "--probs", "0.3,0.6", "--theta", "1", "--check"),
    ("verify", "--probs", "0.3,0.6"),
    ("verify", "--seed", "1", "--sweeps", "3"),
    ("simulate", "--probs", "0.3,0.6", "--theta", "1", "--trials", "100", "--seed", "1"),
    BLOCK_RUN,
    BLOCK_RUN + ("--order", "2,1"),
], ids=["solve", "policy-check", "verify-probs", "verify-sweeps", "simulate", "block", "block-order"])
def test_every_csv_the_cli_prints_parses(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    header, *rows = csv.reader(out.splitlines())
    assert rows and all(len(row) == len(header) for row in rows)
    if "order" in header:
        assert [row[header.index("order")] for row in rows] == ["(2, 1)" if "--order" in argv else "conjectured"]


def test_printed_keys_are_the_report_fields(capsys):
    """simulate and block print their report's fields, in order, and verify's lemma csv LemmaRecord's."""
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    for argv, cls in ((("simulate", "--trials", "100"), SimulationReport),
                      (("block", "--N", "8", "--reps", "2"), ReplicationSummary)):
        code, out, _ = run_cli(capsys, *argv, "--probs", "0.3,0.6", "--theta", "1", "--seed", "1")
        assert code == 0 and [line.partition("=")[0] for line in out.splitlines()] == names(cls)
    code, out, _ = run_cli(capsys, "verify", "--probs", "0.3,0.6", "--format", "csv")
    assert code == 0 and out.splitlines()[0].split(",") == names(LemmaRecord)


def test_transcript_prints_every_report_field_but_the_values(capsys):
    report_fields = [f.name for f in dataclasses.fields(BlockExperimentReport)]
    assert report_fields == ["total_bits", "bits_per_instance", "rounds", "error_count", "values"]
    round_fields = {f.name for f in dataclasses.fields(RoundRecord)}
    for order in ("conjectured", "2,1"):
        code, out, _ = run_cli(capsys, *BLOCK_RUN, "--order", order, "--format", "json", "--transcript")
        replications = json.loads(out)["replications"]
        assert code == 0 and len(replications) == 2
        for rep in replications:
            assert set(rep) == set(report_fields) - {"values"}
            assert rep["rounds"] and all(set(rd) == round_fields for rd in rep["rounds"])


def scrambled_probs(n: int) -> str:
    return ",".join(f"{(i * 37 % (n + 1) + 0.5) / (n + 1):.6f}" for i in range(1, n + 1))


class TestStrategyDagCap:
    """simulate and block refuse an (n, theta) whose policy DAG is over the cap, before building it."""

    AT, PAST = (200, 100), (201, 91)  # 20,000 and 20,001 lattice points
    RUNS = {"simulate": ("--trials", "100"), "block": ("--N", "8", "--reps", "2")}

    @pytest.mark.parametrize("command", ["simulate", "block"])
    def test_a_dag_at_the_cap_runs(self, capsys, command):
        n, theta = self.AT
        assert sum(isinstance(v, Node) for v in dag_postorder(threshcast.build_index_tree(n, theta))) == MAX_DAG_NODES
        code, out, err = run_cli(capsys, command, "--probs", scrambled_probs(n), "--theta", str(theta),
                                 "--seed", "3", *self.RUNS[command])
        assert (code, err) == (0, "") and kv(out)["error_count"] == "0"

    @pytest.mark.parametrize("command", ["simulate", "block"])
    def test_one_node_past_the_cap_exits_3_before_the_dag_is_built(self, capsys, monkeypatch, command):
        def build(*a, **k):
            pytest.fail("the DAG was built")

        monkeypatch.setattr("threshcast.cli.build_index_tree", build)
        monkeypatch.setattr("threshcast.sim.strategy_dag", build)
        n, theta = self.PAST
        code, out, err = run_cli(capsys, command, "--probs", scrambled_probs(n), "--theta", str(theta),
                                 "--seed", "3", *self.RUNS[command])
        assert code == 3 and out == ""
        assert err == f"error: the strategy DAG has {MAX_DAG_NODES + 1} nodes, over the DAG cap of {MAX_DAG_NODES}\n"


class TestTreeRenderingCaps:
    """Rendering expands the policy DAG; deep or huge trees exit 3, never crash."""

    def test_dot_deeper_than_the_recursion_limit(self, capsys):
        code, out, err = run_cli(
            capsys, "policy", "--probs", scrambled_probs(1100), "--theta", "1", "--format", "dot"
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        # theta = 1 asks ranks in turn until a one: 1100 questions, 1101 leaves
        assert sum("shape=ellipse" in ln for ln in lines) == 1100
        assert sum("shape=box" in ln for ln in lines) == 1101
        assert lines[0] == "digraph strategy {" and lines[-1] == "}"

    def test_json_past_the_depth_cap_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "policy", "--probs", scrambled_probs(1100), "--theta", "1", "--format", "json"
        )
        assert code == 3 and out == ""
        assert "1100 levels deep" in err and "cap of 900" in err

    def test_json_at_the_depth_cap_renders(self, capsys):
        code, out, _ = run_cli(
            capsys, "policy", "--probs", scrambled_probs(900), "--theta", "1", "--format", "json"
        )
        assert code == 0
        node, depth = json.loads(out)["tree"], 0
        while "on_zero" in node:
            node, depth = node["on_zero"], depth + 1
        assert depth == 900

    def test_json_of_a_wide_deep_tree_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "policy", "--probs", scrambled_probs(1100), "--theta", "5", "--format", "json"
        )
        assert code == 3 and out == ""
        assert "cap of 1000000" in err

    def test_json_past_the_byte_cap_exits_3(self, capsys):
        # 640,799 nodes and 800 levels pass the node and depth caps; the text would be 2.08 GB
        code, out, err = run_cli(
            capsys, "policy", "--probs", scrambled_probs(800), "--theta", "799", "--format", "json"
        )
        assert code == 3 and out == ""
        assert "2076496258 bytes" in err and f"cap of {1 << 28} bytes" in err

    def test_json_at_the_byte_cap_renders(self, capsys, monkeypatch):
        argv = ("policy", "--probs", scrambled_probs(8), "--theta", "3", "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        # the tree's text opens at nesting 1: two more spaces after each line break
        tree_text = json.dumps(json.loads(out)["tree"], indent=2, sort_keys=True).replace("\n", "\n  ")
        assert f'"tree": {tree_text}' in out
        nbytes = len(tree_text)
        monkeypatch.setattr(tio, "MAX_JSON_BYTES", nbytes)
        assert run_cli(capsys, *argv) == (code, out, "")
        monkeypatch.setattr(tio, "MAX_JSON_BYTES", nbytes - 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert f"cap of {nbytes - 1} bytes" in err

    def test_solve_table_tree_line_at_the_byte_cap(self, capsys, monkeypatch):
        # the compact tree line is refused where the tree's indented text would be
        argv = ("solve", "--probs", scrambled_probs(7), "--theta", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        tree = json.loads(kv(out)["tree"])
        nbytes = len(json.dumps(tree, indent=2, sort_keys=True))
        monkeypatch.setattr(tio, "MAX_JSON_BYTES", nbytes)
        assert run_cli(capsys, *argv) == (code, out, "")
        monkeypatch.setattr(tio, "MAX_JSON_BYTES", nbytes - 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert f"JSON is {nbytes} bytes, over the output cap of {nbytes - 1} bytes" in err

    def test_mid_theta_dot_at_n24_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "policy", "--probs", scrambled_probs(24), "--theta", "12", "--format", "dot"
        )
        assert code == 3 and out == ""
        assert "10400599 tree nodes" in err and "cap of 1000000" in err

    @pytest.mark.parametrize("out_format", ["json", "dot"])
    def test_oversized_policy_tree_is_refused_before_it_is_built(self, capsys, out_format):
        argv = ("policy", "--probs", scrambled_probs(800), "--theta", "400", "--format", out_format)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == (f"error: the strategy expands to {2 * comb(801, 400) - 1} tree nodes, "
                       "over the rendering cap of 1000000\n")

    @pytest.mark.parametrize("argv, code, message", [
        # the table's n-cap is checked first under solve and policy --check
        (("solve", "--theta", "12", "--format", "json"), 3, "above the cap of 20"),
        (("policy", "--theta", "12", "--format", "json", "--check"), 3, "above the cap of 20"),
        # a wrong label count is reported before the tree's size
        (("solve", "--theta", "12", "--format", "dot", "--max-n", "24", "--labels", "a"), 2, "--labels has 1 names"),
        (("policy", "--theta", "12", "--format", "dot", "--labels", "a"), 2, "--labels has 1 names"),
        # csv prints no tree and table no policy tree, so neither is refused
        (("policy", "--theta", "12", "--format", "table"), 0, ""),
        (("policy", "--theta", "12", "--format", "csv"), 0, ""),
    ], ids=["solve-n-cap", "check-n-cap", "solve-labels", "policy-labels", "policy-table", "policy-csv"])
    def test_earlier_errors_still_win_over_the_size_refusal(self, capsys, argv, code, message):
        got, _, err = run_cli(capsys, *argv[:1], "--probs", scrambled_probs(24), *argv[1:])
        assert got == code and message in err

    def test_solve_past_the_node_cap_is_refused_before_the_fill(self, capsys, monkeypatch):
        monkeypatch.setattr(CostTable, "_fill", lambda self: pytest.fail("the table was filled"))
        code, out, err = run_cli(capsys, "solve", "--probs", scrambled_probs(21), "--theta", "10", "--max-n", "21")
        assert code == 3 and out == ""
        assert f"expands to {2 * comb(22, 10) - 1} tree nodes" in err


class TestVerify:
    def test_explicit_profile_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--probs", "0.3,0.6", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,i,T,S1,S2"
        rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
        assert rows[("0", "2")][2] == "-0.3"
        assert rows[("0", "1")][2] == "0"  # exact zero at the reference node

    def test_sweep_requires_seed(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, _, err = run_cli(capsys, "verify", "--sweeps", "5")
        assert code == 2
        assert "seed" in err

    def test_sweep_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--sweeps", "10", "--max-n", "6", "--seed", "3"
        )
        assert code == 0
        fields = kv(out)
        assert fields["verify"] == "passed"
        assert fields["violations"] == "0"
        assert fields["worst_T_at_kp1"] == "0"

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--sweeps", "8", "--max-n", "5", "--seed", "4", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert obj["violations"] == 0
        assert obj["profiles"] == 8
        assert obj["worst"]["worst_T_at_kp1"] == 0.0

    def test_negative_tolerance_fails_with_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--probs", "0.3,0.6", "--tolerance", "-1"
        )
        assert code == 4
        assert kv(out)["verify"] == "failed"

    def test_exhaustive_explicit_too_large(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--probs", "0.1,0.2,0.3,0.4,0.5", "--exhaustive"
        )
        assert code == 3
        assert "exhaustive" in err

    def test_exhaustive_explicit_too_large_is_refused_before_the_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr("threshcast.cli.CostTable", lambda *a, **k: pytest.fail("the table was filled"))
        code, out, err = run_cli(capsys, "verify", "--probs", scrambled_probs(18), "--exhaustive")
        assert code == 3 and out == ""
        assert err == "error: --exhaustive enumerates every strategy tree and is capped at n=4, got n=18\n"

    def test_exhaustive_sweep_restricts_size(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--sweeps", "6", "--max-n", "6", "--seed", "9", "--exhaustive",
        )
        assert code == 0
        fields = kv(out)
        assert int(fields["exhaustive_checks"]) > 0
        assert fields["exhaustive_failures"] == "0"

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "3")
        code, out_env, _ = run_cli(capsys, "verify", "--sweeps", "10", "--max-n", "6")
        assert code == 0
        code, out_flag, _ = run_cli(
            capsys, "verify", "--sweeps", "10", "--max-n", "6", "--seed", "3"
        )
        assert code == 0
        assert out_env == out_flag

    def test_seed_env_var_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "pi")
        code, _, err = run_cli(capsys, "verify", "--sweeps", "5")
        assert code == 2
        assert SEED_ENV_VAR in err

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1")
        code, out_a, _ = run_cli(
            capsys, "verify", "--sweeps", "10", "--max-n", "6", "--seed", "3"
        )
        monkeypatch.delenv(SEED_ENV_VAR)
        code, out_b, _ = run_cli(
            capsys, "verify", "--sweeps", "10", "--max-n", "6", "--seed", "3"
        )
        assert out_a == out_b


class TestSimulate:
    def test_table_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--probs", "0.3,0.6", "--theta", "1",
            "--trials", "5000", "--seed", "0",
        )
        assert code == 0
        fields = kv(out)
        assert fields["expected_bits"] == "1.4"
        assert fields["error_count"] == "0"
        assert abs(float(fields["z"])) < 5.0

    def test_json_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--probs", "0.2,0.5,0.7", "--theta", "2",
            "--trials", "2000", "--seed", "1", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["expected_bits"] == 2.25
        assert obj["error_count"] == 0
        assert obj["seed"] == 1

    def test_tree_deeper_than_the_recursion_limit(self, capsys):
        n = 1100
        probs = ",".join(f"{(i * 37 % (n + 1) + 0.5) / (n + 1):.6f}" for i in range(1, n + 1))
        code, out, err = run_cli(
            capsys, "simulate", "--probs", probs, "--theta", "5", "--trials", "100", "--seed", "1"
        )
        assert code == 0 and err == ""
        fields = kv(out)
        assert fields["error_count"] == "0"
        assert 5.0 <= float(fields["expected_bits"]) <= n

    def test_disagreement_exits_5(self, capsys, monkeypatch):
        def broken(tree, profile, theta, trials, seed=None):
            return SimulationReport(
                n=profile.n, theta=theta, trials=trials, seed=seed,
                expected_bits=1.4, mean_bits=1.4, std_error=0.01, z=0.0, error_count=3,
            )

        monkeypatch.setattr("threshcast.cli.simulate_tree", broken)
        code, out, _ = run_cli(
            capsys, "simulate", "--probs", "0.3,0.6", "--theta", "1", "--seed", "0"
        )
        assert code == 5
        assert kv(out)["error_count"] == "3"

    def test_trials_over_the_cap_exit_3_before_the_draw(self, capsys, monkeypatch):
        class Drew(Exception):
            pass

        def drew(*a, **k):
            raise Drew

        monkeypatch.setattr("threshcast.sim.draw_measurements", drew)
        argv = ("simulate", "--probs", "0.3,0.6", "--theta", "1", "--seed", "7")
        over = SIM_MAX_CELLS // 2 + 1
        code, out, err = run_cli(capsys, *argv, "--trials", str(over))
        assert code == 3 and out == ""
        assert err == f"error: trials x n = {2 * over} is over the simulation cap of {SIM_MAX_CELLS} cells\n"
        for trials in (1_000_000, SIM_MAX_CELLS // 2):
            with pytest.raises(Drew):
                main([*argv, "--trials", str(trials)])


class TestBlock:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "block", "--probs", "0.3,0.6", "--theta", "1",
            "--N", "16", "--reps", "3", "--seed", "5",
        )
        assert code == 0
        fields = kv(out)
        assert fields["error_count"] == "0"
        assert fields["order"] == "conjectured"
        assert fields["single_instance_cost"] == "1.4"
        assert 0.5 < float(fields["mean_bits_per_instance"]) < 2.0

    def test_transcript_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "block", "--probs", "0.3,0.6", "--theta", "1",
            "--N", "8", "--reps", "2", "--seed", "5",
            "--format", "json", "--transcript",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["replications"]) == 2
        first = obj["replications"][0]["rounds"][0]
        assert first["transmitter"] == 2
        assert first["live_count"] == 8

    def test_explicit_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "block", "--probs", "0.3,0.6", "--theta", "1",
            "--N", "8", "--reps", "2", "--seed", "5", "--order", "1,2",
            "--format", "json", "--transcript",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == "(1, 2)"
        assert obj["replications"][0]["rounds"][0]["transmitter"] == 1

    def test_invalid_order(self, capsys):
        code, _, err = run_cli(
            capsys,
            "block", "--probs", "0.3,0.6", "--theta", "1",
            "--N", "8", "--reps", "2", "--seed", "5", "--order", "1,1",
        )
        assert code == 2


    def test_subnormal_probability(self, capsys):
        # 1 / p overflows to inf at p = 5e-324; the block code's scale must not
        code, out, err = run_cli(
            capsys,
            "block", "--probs", "5e-324,0.5,0.7", "--theta", "2",
            "--N", "8", "--reps", "2", "--seed", "1",
        )
        assert code == 0 and err == ""
        assert kv(out)["error_count"] == "0"

    def test_failed_decode_replay_exits_5(self, capsys, monkeypatch):
        decode = BernoulliBlockCode.decode_block

        def flip_first_bit(self, stream, pos=0):
            block, end = decode(self, stream, pos)
            return [1 - block[0]] + list(block[1:]), end

        monkeypatch.setattr(BernoulliBlockCode, "decode_block", flip_first_bit)
        code, out, err = run_cli(
            capsys,
            "block", "--probs", "0.2,0.45,0.6,0.8", "--theta", "1",
            "--N", "48", "--reps", "2", "--seed", "1", "--order", "3,1,4,2",
        )
        assert code == 5 and err == ""
        assert int(kv(out)["error_count"]) > 0

    def test_block_length_over_the_cap_is_refused_before_any_replication(self, capsys, monkeypatch):
        class Ran(Exception):
            pass

        def ran(*a, **k):
            raise Ran

        monkeypatch.setattr("threshcast.sim.draw_measurements", ran)
        argv = ("block", "--probs", "0.3,0.6", "--theta", "1", "--reps", "2", "--seed", "5")
        code, out, err = run_cli(capsys, *argv, "--N", str(BLOCK_MAX_N + 1))
        assert code == 3 and out == ""
        assert err == f"error: N={BLOCK_MAX_N + 1} is over the block length cap of {BLOCK_MAX_N}\n"
        for n in (1024, BLOCK_MAX_N):
            with pytest.raises(Ran):
                main([*argv, "--N", str(n)])

    def test_block_code_width_over_the_cap_is_refused_before_any_replication(self, capsys, monkeypatch):
        class Ran(Exception):
            pass

        def ran(*a, **k):
            raise Ran

        monkeypatch.setattr("threshcast.sim.draw_measurements", ran)
        argv = ("block", "--theta", "1", "--reps", "2", "--seed", "5")
        # a rare outcome at either end: p near 0, or p near 1; L**3 log2(1 / min(p, 1 - p)) is over the cap
        for probs, N in (("1e-300,0.5", "512"), ("5e-324,0.5", "328"), ("0.001,0.5", "2048"), ("0.5,0.9999", "2048")):
            code, out, err = run_cli(capsys, *argv, "--probs", probs, "--N", N)
            assert code == 3 and out == ""
            assert err.startswith("error: L**3 log2(1 / ") and f") at L={N} is over" in err
            assert err.endswith(f"over the block code build cap of {BLOCK_CODE_MAX_WORK}\n")
        # just under the cap, the subnormal case of test_subnormal_probability, and two cases that the
        # width cap of 9000 bits this cap replaced refused: N log2(1 / min(p, 1 - p)) is 10,205 and 13,606
        for probs, N in (("0.048,0.5", "2048"), ("0.01,0.99", "1024"), ("5e-324,0.5,0.7", "8"), ("5e-324,0.5", "327"),
                         ("0.001,0.5", "1024"), ("0.5,0.9999", "1024")):
            with pytest.raises(Ran):
                main([*argv, "--probs", probs, "--N", N])

    @pytest.mark.parametrize("theta", ["0", "3"])
    def test_block_code_width_is_not_capped_where_no_block_is_sent(self, capsys, theta):
        # theta 0 and n + 1 are decided before anyone speaks; at theta 1 this
        # profile and N are refused by the test above
        code, out, err = run_cli(capsys, "block", "--probs", "1e-300,0.5", "--theta", theta,
                                 "--N", "512", "--reps", "2", "--seed", "1")
        assert (code, err) == (0, "")
        assert kv(out)["mean_bits_per_instance"] == "0" and kv(out)["error_count"] == "0"

    WORKER_RUN = ["block", "--probs", "0.3,0.6,0.45", "--theta", "2", "--N", "128", "--reps", "2", "--seed", "3"]

    def start_worker_run(self, then: str) -> subprocess.Popen:
        """A `block` run that builds its long codes on workers, in a session of its own;
        it prints where the codes were built, then runs `then`."""
        code = ("import sys, time; from threshcast import cli, sim; code = cli.main(sys.argv[1:]); "
                f"print('workers' if sim._build_pool else 'in-process', file=sys.stderr, flush=True); {then}")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.Popen([sys.executable, "-c", code, *self.WORKER_RUN], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env, start_new_session=True)

    @TWO_CORES
    def test_a_run_on_workers_leaves_no_process_behind(self, capsys, monkeypatch):
        proc = self.start_worker_run("sys.exit(code)")
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, "workers\n")
        with pytest.raises(ProcessLookupError):  # the session, whose leader was proc, is empty
            os.killpg(proc.pid, 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_cli(capsys, *self.WORKER_RUN) == (0, out, "")

    @TWO_CORES
    def test_the_workers_end_with_a_killed_run(self):
        # SIGKILL runs no exit handler, so only the workers themselves can notice
        proc = self.start_worker_run("time.sleep(120)")
        with proc.stdout, proc.stderr:
            try:
                assert proc.stderr.readline() == "workers\n"
            finally:
                proc.kill()
                proc.wait(timeout=30)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    return
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail("a worker outlived its killed run by 30 s")

    @pytest.mark.parametrize("order", ["x,y", "", "1,,2"])
    def test_malformed_order_exits_2(self, capsys, order):
        code, out, err = run_cli(
            capsys,
            "block", "--probs", "0.3,0.6", "--theta", "1",
            "--N", "8", "--reps", "2", "--seed", "5", "--order", order,
        )
        assert code == 2 and out == ""
        assert "--order" in err


class TestMalformedValues:
    """Values that parse as the wrong thing exit 2 with the option's name, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--probs", "0.3,0.6", "--theta", "1", "--seed", "-1"],
        ["block", "--probs", "0.3,0.6", "--theta", "1", "--N", "8", "--reps", "2", "--seed", "-1"],
        ["verify", "--sweeps", "3", "--seed", "-2"],
    ])
    def test_negative_seed(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("command", ["simulate", "block"])
    def test_negative_seed_from_env(self, capsys, monkeypatch, command):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        code, out, err = run_cli(capsys, command, "--probs", "0.3,0.6", "--theta", "1")
        assert code == 2 and out == ""
        assert SEED_ENV_VAR in err

    @pytest.mark.parametrize("sweeps", ["0", "-3"])
    def test_sweeps_below_one(self, capsys, tmp_path, sweeps):
        code, out, err = run_cli(capsys, "verify", "--sweeps", sweeps, "--seed", "1")
        assert code == 2 and out == ""
        assert "--sweeps must be at least 1" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweeps": int(sweeps), "seed": 1}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "--sweeps must be at least 1" in err

    def test_sweep_max_n_below_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--sweeps", "3", "--max-n", "1", "--seed", "1")
        assert code == 2 and out == ""
        assert "--max-n" in err

    def test_sweep_max_n_above_the_node_cap_is_refused_before_any_profile(self, capsys, monkeypatch):
        monkeypatch.setattr("threshcast.cli._sweep_profiles", lambda *a: pytest.fail("a profile was drawn"))
        over = DEFAULT_NODE_CAP + 5
        code, out, err = run_cli(capsys, "verify", "--sweeps", "5", "--max-n", str(over), "--seed", "1")
        assert code == 3 and out == ""
        assert err == f"error: --max-n is capped at {DEFAULT_NODE_CAP}, the node cap of verify's tables, got {over}\n"

    INT_KEYS = [("solve", "theta"), ("policy", "max_n"), ("simulate", "trials"), ("block", "N"), ("block", "seed")]
    FLOAT_KEYS = [("solve", "tol"), ("verify", "tolerance")]

    # a config number is refused, not truncated: true is no number, and 1.5 no integer
    @pytest.mark.parametrize("command,key,value", [
        *(pytest.param(c, k, "abc", id=f"{c}-{k}") for c, k in INT_KEYS + FLOAT_KEYS),
        *(pytest.param(c, k, True, id=f"{c}-{k}-true") for c, k in INT_KEYS + FLOAT_KEYS),
        *(pytest.param(c, k, 1.5, id=f"{c}-{k}-1.5") for c, k in INT_KEYS),
    ])
    def test_config_value_not_a_number(self, capsys, tmp_path, command, key, value):
        cfg = tmp_path / "cfg.json"
        settings = {"probs": "0.3,0.6", "theta": 1, "seed": 1, "check": True, key: value}
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"bad --{key.replace('_', '-')} value {value!r}" in err

    def test_config_integer_valued_float_is_an_integer(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probs": "0.3,0.6", "theta": 2.0}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert kv(out)["theta"] == "2" and kv(out)["optimal_cost"] == "1.3"

    @pytest.mark.parametrize("argv,config,option", [
        (["policy", "--probs", "0.3,0.6", "--theta", "1", "--tol=-1"], None, "--tol"),
        (["verify", "--probs", "0.3,0.6", "--seed", "-1"], None, "--seed"),
        (["solve", "--probs", "0.3,0.6", "--theta", "1"], {"labels": 5}, "--labels"),
    ], ids=["policy-tol-without-check", "verify-seed-with-probs", "solve-labels-with-table"])
    def test_unused_option_is_still_checked(self, capsys, tmp_path, argv, config, option):
        # every option of the subcommand is resolved before it runs, used or not
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert option in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--probs", "0.3,0.6", "--theta", "1", "--tol=-1"],
        ["policy", "--probs", "0.3,0.6", "--theta", "1", "--check", "--tol=-1"],
    ])
    def test_negative_tie_tolerance(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "--tol must be at least 0" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["solve", "--probs", "0.3,0.6", "--theta", "1", "--tol"],
        ["policy", "--probs", "0.3,0.6", "--theta", "1", "--check", "--tol"],
        ["verify", "--probs", "0.3,0.6", "--tolerance"],
        ["verify", "--probs", "0.3,0.6", "--exhaustive", "--tolerance"],
    ])
    def test_non_finite_tolerance(self, capsys, argv, value):
        # a NaN tolerance would pass every check, since no comparison with it holds
        code, out, err = run_cli(capsys, *argv[:-1], f"{argv[-1]}={value}")
        assert code == 2 and out == ""
        assert f"{argv[-1]} must be a finite number" in err

    @pytest.mark.parametrize("command,key", [("solve", "tol"), ("policy", "tol"), ("verify", "tolerance")])
    def test_config_tolerance_not_finite(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probs": "0.3,0.6", "theta": 1, "check": True, key: float("nan")}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"--{key} must be a finite number" in err

    @pytest.mark.parametrize("command", ["solve", "policy"])
    @pytest.mark.parametrize("labels", [5, ["a", "b"]])
    def test_config_labels_not_a_string(self, capsys, tmp_path, command, labels):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"labels": labels, "format": "dot"}))
        code, out, err = run_cli(capsys, command, "--probs", "0.3,0.6", "--theta", "1", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "bad --labels value" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("probs", [[0.3, 0.6], 0.5])
    def test_config_probs_not_a_string(self, capsys, tmp_path, command, probs):
        # a list is not parsed from its text, and a number is no one-node profile
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probs": probs, "theta": 1}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert "bad --probs value" in err


class TestConfigAndOutput:
    def test_config_null_probs_counts_as_unset(self, capsys, tmp_path):
        # verify then sweeps random profiles, as with no probs key at all
        settings = {"sweeps": 2, "max_n": 4, "seed": 3}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        unset = run_cli(capsys, "verify", "--config", str(cfg))
        cfg.write_text(json.dumps({**settings, "probs": None}))
        assert run_cli(capsys, "verify", "--config", str(cfg)) == unset
        assert unset[0] == 0 and kv(unset[1])["profiles"] == "2"

    @pytest.mark.parametrize("command,flag,shows", [
        ("policy", "check", "check=passed\n"),
        ("policy", "annotate", "remaining,residual_theta,transmitter"),
        ("verify", "exhaustive", "exhaustive_checks=2\n"),
    ])
    def test_config_sets_flags(self, capsys, tmp_path, command, flag, shows):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probs": "0.3,0.6", "theta": 1, flag: True}))
        code, out, _ = run_cli(capsys, command, "--config", str(cfg))
        assert code == 0
        assert shows in out
        cfg.write_text(json.dumps({"probs": "0.3,0.6", "theta": 1, flag: False}))
        code, out, _ = run_cli(capsys, command, "--config", str(cfg))
        assert code == 0
        assert shows not in out

    @pytest.mark.parametrize("command,flag", [("policy", "check"), ("solve", "exact"), ("block", "transcript")])
    def test_config_flag_must_be_boolean(self, capsys, tmp_path, command, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probs": "0.3,0.6", "theta": 1, "seed": 1, flag: "false"}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"bad --{flag} value 'false'" in err

    def test_config_sets_transcript(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probs": "0.3,0.6", "theta": 1, "N": 8, "reps": 2, "seed": 5,
                                   "format": "json", "transcript": True}))
        code, out, _ = run_cli(capsys, "block", "--config", str(cfg))
        assert code == 0
        assert len(json.loads(out)["replications"]) == 2


    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probs": "0.3,0.6", "theta": 1, "format": "json"}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["optimal_cost"] == 1.4

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probs": "0.3,0.6", "theta": 1}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--theta", "2")
        assert code == 0
        assert kv(out)["optimal_cost"] == "1.3"

    @pytest.mark.parametrize("argv,fmt,allowed", [
        (["block", "--N", "512", "--reps", "3"], "dot", "table, json, csv"),
        (["solve"], "yaml", "table, json, csv, dot"),
    ])
    def test_config_format_is_checked_before_the_command_runs(self, capsys, tmp_path, monkeypatch, argv, fmt,
                                                              allowed):
        for name in ("run_block_replications", "CostTable"):
            monkeypatch.setattr(f"threshcast.cli.{name}", lambda *a, **k: pytest.fail("the command ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": fmt}))
        code, out, err = run_cli(capsys, *argv, "--probs", "0.3,0.6", "--theta", "1", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: --format must be one of {allowed}, got {fmt!r}\n"

    def test_config_unknown_key_is_refused_before_the_command_runs(self, capsys, tmp_path, monkeypatch):
        # one config can serve several subcommands: simulate takes no sweeps and no check
        settings = {"probs": "0.3,0.6", "theta": 1, "seed": 2, "trials": 100, "sweeps": 3, "check": True}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, "trails": 100000, "sed": 3}))
        with monkeypatch.context() as m:
            m.setattr("threshcast.cli.simulate_tree", lambda *a, **k: pytest.fail("the command ran"))
            code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: config file has unknown keys 'trails', 'sed'; it holds probs and options\n"
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert kv(out)["trials"] == "100" and kv(out)["seed"] == "2"

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--theta", "1")
        assert code == 2

    def test_config_not_json_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"theta": 1,')
        code, out, err = run_cli(capsys, "solve", "--probs", "0.3,0.6", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: config file is not valid JSON: ") and err.count("\n") == 1

    def test_config_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--config", "/nonexistent/cfg.json", "--theta", "1")
        assert code == 2

    @staticmethod
    def unreadable(tmp_path, kind: str) -> Path:
        path = tmp_path / f"{kind}.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"[0.3, \xff0.6]")
        return path

    @pytest.mark.parametrize("option", ["--probs-file", "--config"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_input_file_exits_2(self, capsys, tmp_path, option, kind):
        path = self.unreadable(tmp_path, kind)
        probs = () if option == "--probs-file" else ("--probs", "0.3,0.6")
        code, out, err = run_cli(capsys, "solve", *probs, "--theta", "1", option, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
        assert repr(str(path)) in err

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, kind):
        target = tmp_path / "no" / "x" if kind == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, "solve", "--probs", "0.3,0.6", "--theta", "1", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out file: ") and err.count("\n") == 1
        assert repr(str(target)) in err

    def test_unwritable_out_is_refused_before_the_command_runs(self, capsys, tmp_path, monkeypatch):
        entered = []
        monkeypatch.setitem(COMMANDS, "policy", COMMANDS["policy"]._replace(handler=entered.append))
        target = tmp_path / "no" / "x"
        code, out, err = run_cli(
            capsys, "policy", "--probs", ",".join(["0.5"] * 20), "--theta", "10", "--check", "--format", "csv",
            "--out", str(target),
        )
        assert code == 2 and out == "" and entered == []
        assert err == f"error: cannot write --out file: [Errno 2] No such file or directory: {str(target)!r}\n"

    @pytest.mark.parametrize("argv,code", [
        (["solve", "--probs", "0.3,0.6", "--theta", "5"], 2),
        (["policy", "--probs", ",".join(["0.5"] * 30), "--theta", "15", "--format", "json"], 3),
        (["verify", "--probs", "0.3,0.6", "--tolerance", "-1"], 4),
    ])
    def test_out_is_written_only_with_output(self, capsys, tmp_path, argv, code):
        # checking --out up front creates no file: a failed command leaves none behind
        target = tmp_path / "result.txt"
        assert run_cli(capsys, *argv, "--out", str(target))[:2] == (code, "")
        if code == 4:
            assert target.read_text() == run_cli(capsys, *argv)[1] != ""
        else:
            assert not target.exists()

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run_cli(
            capsys,
            "solve", "--probs", "0.3,0.6", "--theta", "1", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert kv(target.read_text())["optimal_cost"] == "1.4"

    def test_probs_file_json(self, capsys, tmp_path):
        pf = tmp_path / "probs.json"
        pf.write_text("[0.6, 0.3]")
        code, out, _ = run_cli(
            capsys, "solve", "--probs-file", str(pf), "--theta", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["rank_map"] == {"1": 1, "2": 0}

    def test_probs_file_csv_with_header(self, capsys, tmp_path):
        pf = tmp_path / "probs.csv"
        pf.write_text("probability\n0.3\n0.6\n")
        code, out, _ = run_cli(capsys, "solve", "--probs-file", str(pf), "--theta", "1")
        assert code == 0
        assert kv(out)["optimal_cost"] == "1.4"

    def test_probs_file_json_not_valid_exits_2(self, capsys, tmp_path):
        pf = tmp_path / "probs.json"
        pf.write_text("[0.3, 0.6")
        code, out, err = run_cli(capsys, "solve", "--probs-file", str(pf), "--theta", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: invalid JSON profile: ") and err.count("\n") == 1

    @pytest.mark.parametrize("digits,says", [
        (400, "error: probability 1" + "0" * 400 + " outside the open interval (0, 1)\n"),  # past the float range
        (5000, "error: invalid JSON profile: Exceeds the limit"),  # past the interpreter's digit limit
    ], ids=["too-large-for-a-float", "too-long-to-parse"])
    def test_probs_file_json_huge_integer_exits_2(self, capsys, tmp_path, digits, says):
        pf = tmp_path / "probs.json"
        pf.write_text(f"[1{'0' * digits}, 0.5]")
        code, out, err = run_cli(capsys, "solve", "--probs-file", str(pf), "--theta", "1")
        assert code == 2 and out == ""
        assert err.startswith(says) and err.count("\n") == 1

    def test_probs_file_csv_blank_rows_are_skipped(self, capsys, tmp_path):
        pf = tmp_path / "probs.csv"
        pf.write_text("p\n0.3\n\n,\n0.6\n")
        code, out, err = run_cli(capsys, "solve", "--probs-file", str(pf), "--theta", "1")
        assert (code, err) == (0, "")
        pf.write_text("0.3\n0.6")
        assert out == run_cli(capsys, "solve", "--probs-file", str(pf), "--theta", "1")[1]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_out_write_failure_exits_2(self, capsys):
        # /dev/full is writable, so it passes the up-front check, and every write to it fails
        code, out, err = run_cli(capsys, "solve", "--probs", "0.3,0.6", "--theta", "1", "--out", "/dev/full")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --out file: [Errno {errno.ENOSPC}] ") and err.count("\n") == 1

    @pytest.mark.parametrize("option,text", [
        ("--probs-file", "0.3\n0.6\n0.8\n"),  # a one-column CSV whose first value is no header
        ("--probs-file", "[0.3, 0.6, 0.8]"),
        ("--config", '{"probs": "0.3,0.6,0.8"}'),
    ], ids=["csv", "json", "config"])
    def test_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, option, text):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, out, err = run_cli(capsys, "solve", "--theta", "1", option, str(path))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "solve", "--theta", "1", "--probs", "0.3,0.6,0.8")[1]
        assert kv(out)["n"] == "3"


class TestDeterminism:
    CASES = [
        ("solve", "--probs", "0.3,0.6", "--theta", "1", "--format", "json"),
        ("policy", "--probs", "0.2,0.5,0.7", "--theta", "2", "--check", "--annotate"),
        ("verify", "--sweeps", "5", "--max-n", "5", "--seed", "11", "--format", "csv"),
        ("simulate", "--probs", "0.3,0.6", "--theta", "1", "--trials", "1000", "--seed", "2"),
        ("block", "--probs", "0.3,0.6", "--theta", "1", "--N", "16", "--reps", "2",
         "--seed", "6", "--format", "json", "--transcript"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_identical_bytes_across_runs(self, capsys, argv):
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a


class TestSharedParser:
    """`main` parses every command line with one parser per process."""

    def test_one_parser_for_many_calls(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            for argv in TestDeterminism.CASES:
                assert run_cli(capsys, *argv)[0] == 0
        # the top-level parser and one per subcommand
        assert len(built) == 1 + len(COMMANDS)
        assert build_parser() is build_parser()

    def command_lines(self, tmp_path) -> list[tuple[str, ...]]:
        config = tmp_path / "config.json"
        config.write_text('{"theta": 2, "exact": true, "format": "json"}')
        # ranks 1 and 2 tie within the float tolerance but not exactly, so --exact changes the output
        near_tie = "0.3,0.30000000000001,0.6"
        return [
            ("solve", "--probs", near_tie, "--theta", "2", "--exact"),
            ("solve", "--probs", near_tie, "--theta", "2"),
            ("policy", "--probs", "0.2,0.5,0.7", "--theta", "2", "--check", "--format", "csv"),
            ("policy", "--probs", "0.2,0.5,0.7", "--theta", "2", "--format", "csv"),
            ("solve", "--probs", "0.3,0.6,0.9", "--config", str(config)),
            ("solve", "--probs", "0.3,0.6,0.9", "--theta", "1"),
            ("policy", "--probs", "0.3,0.6", "--theta", "1", "--no-such-option"),
            ("verify", "--probs", "0.3,0.6,0.9", "--format", "json"),
            ("simulate", "--help"),
            ("simulate", "--probs", "0.3,0.6", "--theta", "1", "--trials", "200", "--seed", "4"),
            ("block", "--probs", "0.3,0.6", "--theta", "1", "--N", "8", "--reps", "2", "--seed", "5"),
            ("solve", "--probs", "0.3,0.6", "--theta", "7"),
        ]

    def test_interleaved_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        # help text wraps at the terminal width, which COLUMNS fixes for both sides
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(threshcast.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        lines = self.command_lines(tmp_path)
        fresh = {}
        for argv in lines:
            proc = subprocess.run([sys.executable, "-m", "threshcast.cli", *argv],
                                  capture_output=True, text=True, env=env)
            fresh[argv] = (proc.returncode, proc.stdout, proc.stderr)
        assert {code for code, _, _ in fresh.values()} == {0, 2}

        for order in (lines, lines[::-1]):
            for argv in order:
                try:
                    code = main(list(argv))
                except SystemExit as e:  # argparse's --help and usage errors
                    code = e.code
                captured = capsys.readouterr()
                assert (code, captured.out, captured.err) == fresh[argv], argv


ROOT = Path(__file__).resolve().parents[1]
ROUND_TRIP_ARGV = ["solve", "--probs", "0.3,0.6", "--theta", "1", "--format", "json"]


def installed_entry_point():
    return shutil.which("threshcast")


def console_script_target() -> tuple[str, str]:
    """Module and function of the `threshcast` console script in pyproject.toml."""
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^threshcast\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert match, "pyproject.toml declares no threshcast console script"
    return match.group(1), match.group(2)


def assert_round_trip(argv, env=None):
    a = subprocess.run(argv, capture_output=True, text=True, env=env)
    b = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["optimal_cost"] == 1.4
    assert sys.version_info >= (3, 9)


@pytest.mark.skipif(installed_entry_point() is None, reason="console script not on PATH")
def test_installed_entry_point_round_trip():
    assert_round_trip([installed_entry_point(), *ROUND_TRIP_ARGV])


def test_declared_entry_point_round_trip():
    # the console script's target, run as the generated wrapper would run it,
    # from the source tree
    module, func = console_script_target()
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert_round_trip([sys.executable, "-c", code, *ROUND_TRIP_ARGV], env=env)
