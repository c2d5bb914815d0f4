"""Smoke test of tools/sstar_answers.py on a three-joint corpus."""

import json
import sys

import numpy as np
import pytest

from sdpibounds import JointDistribution, quantized_gaussian_joint
from conftest import load_sstar_answers


@pytest.fixture
def tool(monkeypatch):
    module = load_sstar_answers()
    three = [
        ("dsbs", JointDistribution([[0.45, 0.05], [0.05, 0.45]]), "x_to_y"),
        ("3x3", JointDistribution(np.array([[3, 1, 5], [3, 0, 1], [4, 4, 3]]) / 24), "y_to_x"),
        ("gauss5", quantized_gaussian_joint(0.5, 5), "x_to_y"),
    ]
    monkeypatch.setitem(module.CORPORA, "three", lambda: iter(three))
    monkeypatch.setitem(module.CORPORA, "one", lambda: iter(three[:1]))
    return module


def test_a_dump_diffs_empty_against_itself_and_shows_a_fall(tool, tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert tool.dump(out, ["three"]) == 3
    [d] = tool.compare(tool.read(a), tool.read(b)).values()
    assert d.changes() == []
    assert d.matched == d.identical == 3
    assert d.evaluations[0] == d.evaluations[1] > 0

    # Lower the 3x3 joint's value, which has a witness, drop the witness,
    # and move its rho_m^2.
    records = [json.loads(line) for line in b.read_text().splitlines()]
    assert records[1]["key"] == "3x3" and records[1]["argmax_q"] is not None
    records[1]["value"] *= 1 - 1e-9
    records[1]["argmax_q"] = None
    records[1]["rho_m_squared"] *= 1 + 1e-14
    b.write_text("".join(json.dumps(r) + "\n" for r in records))
    [d] = tool.compare(tool.read(a), tool.read(b)).values()
    assert len(d.falls) == 1 and "3x3 y_to_x" in d.falls[0]
    assert len(d.lost) == 1 and "3x3 y_to_x" in d.lost[0]
    assert d.rises == d.gained == d.methods == d.only_in_one == []
    assert d.identical == 2
    assert d.rho_moved == 1 and d.rho_largest_move == pytest.approx(1e-14, rel=1e-3)

    assert tool.main(["diff", str(a), str(b)]) == 0
    printed = capsys.readouterr().out
    assert "0 rises and 1 falls" in printed and "1 lost" in printed
    assert "1 rho_m^2 values changed bits, largest move 1e-14 relative" in printed


def test_dump_takes_several_corpus_names_after_one_flag(tool, tmp_path, monkeypatch):
    # main loads the tree, which puts its src and bench first on sys.path.
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "two.jsonl"
    # A name given twice is dumped once.
    assert tool.main(["dump", str(out), "--corpus", "three", "one", "three"]) == 0
    corpora = [json.loads(line)["corpus"] for line in out.read_text().splitlines()]
    assert corpora == ["three"] * 3 + ["one"]


def test_diff_shows_witness_gaps_that_cross_1e_6_either_way(tool, tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    tool.dump(a, ["three"])
    records = [json.loads(line) for line in a.read_text().splitlines()]
    # dsbs has no witness (rho_m^2 wins); the 3x3 joint has one.
    assert records[0]["argmax_q"] is None and records[1]["argmax_q"] is not None
    assert records[1]["first_order_gap"] <= 1e-6
    was, value = records[1]["first_order_gap"], records[1]["value"]
    records[0]["first_order_gap"] = 1.0
    records[1]["first_order_gap"] = 3e-6
    records[1]["value"] *= 1 + 1e-14
    b.write_text("".join(json.dumps(r) + "\n" for r in records))
    [up] = tool.compare(tool.read(a), tool.read(b)).values()
    [down] = tool.compare(tool.read(b), tool.read(a)).values()
    up_move, down_move = (tool._relative_move(*pair) for pair in
                          ((value, records[1]["value"]), (records[1]["value"], value)))
    assert up.gaps == [f"gap up: 3x3 y_to_x {was:.3g} -> 3e-06, value move {up_move:.3g}"]
    assert down.gaps == [f"gap down: 3x3 y_to_x 3e-06 -> {was:.3g}, value move {down_move:.3g}"]
    assert up.changes() == up.gaps and down.changes() == down.gaps

    assert tool.main(["diff", str(a), str(b)]) == 0
    assert "1 witness gaps across 1e-06" in capsys.readouterr().out


def test_a_record_that_differs_only_in_evaluations_is_not_identical(tool, tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    tool.dump(a, ["three"])
    records = [json.loads(line) for line in a.read_text().splitlines()]
    was = records[2]["evaluations"]
    records[2]["evaluations"] += 1
    b.write_text("".join(json.dumps(r) + "\n" for r in records))
    [d] = tool.compare(tool.read(a), tool.read(b)).values()
    assert d.matched == d.same_values == 3 and d.identical == 2
    assert d.changes() == d.recounted == [
        f"evaluations at an unchanged value: gauss5 x_to_y {was:,} -> {was + 1:,}"]

    assert tool.main(["diff", str(a), str(b)]) == 0
    printed = capsys.readouterr().out
    assert "3 results, 2 identical in every result field, 3 values bit-identical" in printed
    assert "1 evaluation counts changed at an unchanged value" in printed


def test_diff_breaks_evaluations_and_seconds_down_by_input_alphabet_size(tool, tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    tool.dump(a, ["three"])
    records = [json.loads(line) for line in a.read_text().splitlines()]
    # dsbs x_to_y, the 3x3 joint y_to_x and the 5-level Gaussian x_to_y.
    assert [r["inputs"] for r in records] == [2, 3, 5]
    was = records[0]["evaluations"]
    records[0]["evaluations"] += 10
    records[0]["seconds"] += 1.0
    b.write_text("".join(json.dumps(r) + "\n" for r in records))
    [d] = tool.compare(tool.read(a), tool.read(b)).values()
    assert sorted(d.by_inputs) == [2, 3, 5]
    ea, eb, sa, sb = d.by_inputs[2]
    assert (ea, eb) == (was, was + 10) and sb == pytest.approx(sa + 1.0)
    for k in (3, 5):
        ea, eb, sa, sb = d.by_inputs[k]
        assert ea == eb and sa == sb
    assert [sum(v[i] for v in d.by_inputs.values()) for i in (0, 1)] == d.evaluations

    assert tool.main(["diff", str(a), str(b)]) == 0
    printed = capsys.readouterr().out
    assert f"  2 inputs: evaluations {was:,} -> {was + 10:,}, seconds " in printed
    assert "  3 inputs: " in printed and "  5 inputs: " in printed
