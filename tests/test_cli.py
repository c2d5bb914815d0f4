import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sdpibounds
from sdpibounds import quantized_gaussian_joint
from sdpibounds.cli import _build_parser, main

DSBS = {"x_size": 2, "y_size": 2, "probs": [0.45, 0.05, 0.05, 0.45]}
UNIFORM_BINARY = {"probs": [0.5, 0.5]}
HAMMING_2 = {"x_size": 2, "xhat_size": 2, "costs": [0.0, 1.0, 1.0, 0.0]}
HAMMING_4 = {
    "x_size": 4,
    "xhat_size": 4,
    "costs": [0.0 if i == k else 1.0 for i in range(4) for k in range(4)],
}
QUATERNARY = {
    "x_size": 4,
    "y_size": 4,
    "probs": [0.1 if i == k else 0.05 for i in range(4) for k in range(4)],
}


def jfile(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSstar:
    def test_dsbs(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", DSBS)
        code, out, _ = run(capsys, "sstar", joint)
        assert code == 0
        payload = json.loads(out)
        assert payload["rho_star"] == pytest.approx(0.64, abs=1e-9)
        assert payload["x_to_y"]["value"] == payload["y_to_x"]["value"]
        assert payload["x_to_y"]["method"] in ("grid", "multistart", "combined", "vertex")

    def test_deterministic_output_file(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", DSBS)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "sstar", joint, "--out", str(a))[0] == 0
        assert run(capsys, "sstar", joint, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_global_flags_both_positions(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", DSBS)
        pre, post = tmp_path / "pre.json", tmp_path / "post.json"
        assert run(capsys, "--out", str(pre), "sstar", joint) == (0, "", "")
        assert run(capsys, "sstar", joint, "--out", str(post)) == (0, "", "")
        assert pre.read_bytes() == post.read_bytes()

    def test_large_alphabet_caveat(self, tmp_path, capsys):
        joint = jfile(tmp_path, "q5.json", quantized_gaussian_joint(0.5, 5).to_dict())
        code, out, err = run(capsys, "sstar", joint)
        assert code == 0
        assert "caveat" in err
        assert json.loads(out)["x_to_y"]["gap_note"] != ""

    @pytest.mark.parametrize("flag, position", [
        ("--seed", "before"), ("--seed", "after"), ("--config", "before"), ("--config", "after"),
    ], ids=["before", "after", "config-before", "config-after"])
    def test_seed_flag_is_gone(self, tmp_path, capsys, flag, position):
        # The search has no random starts, so there is no seed to set, and
        # no solver setting to read from a file.
        joint = jfile(tmp_path, "j.json", DSBS)
        argv = [flag, jfile(tmp_path, "f.json", {"seed": 7}), "sstar", joint]
        if position == "after":
            argv = argv[2:] + argv[:2]
        assert run(capsys, *argv) == (2, "", f"error: unrecognized arguments: {flag}\n")

    @pytest.mark.parametrize("flag", ["--seed", "--bogus", "-x"])
    def test_unknown_flag_before_the_subcommand_is_named(self, tmp_path, capsys, flag):
        # Not "invalid choice" for the flag's value, read as the subcommand.
        joint = jfile(tmp_path, "j.json", DSBS)
        code, out, err = run(capsys, "--out", str(tmp_path / "o.json"), flag, "3", "sstar", joint)
        assert code == 2
        assert out == ""
        assert err == f"error: unrecognized arguments: {flag}\n"
        assert not (tmp_path / "o.json").exists()

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "sstar", str(path))[0] == 2

    def test_missing_field(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", {"probs": [0.5, 0.5]})
        assert run(capsys, "sstar", joint)[0] == 2

    def test_zero_marginal(self, tmp_path, capsys):
        joint = jfile(
            tmp_path, "j.json",
            {"x_size": 2, "y_size": 2, "probs": [0.5, 0.5, 0.0, 0.0]},
        )
        assert run(capsys, "sstar", joint)[0] == 3

    def test_missing_file(self, tmp_path, capsys):
        assert run(capsys, "sstar", str(tmp_path / "absent.json"))[0] == 4

    def test_mass_past_the_float_range(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", {"x_size": 1, "y_size": 3, "probs": [1e308] * 3})
        assert run(capsys, "sstar", joint) == (
            3, "", "error: JointDistribution: total mass inf is not 1\n")


class TestRd:
    def test_target(self, tmp_path, capsys):
        source = jfile(tmp_path, "src.json", UNIFORM_BINARY)
        code, out, _ = run(capsys, "rd", source, "--target", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(0.5310044064107188, abs=1e-5)
        assert payload["distortion"] == pytest.approx(0.1, abs=1e-6)

    def test_explicit_matrix(self, tmp_path, capsys):
        source = jfile(tmp_path, "src.json", UNIFORM_BINARY)
        d = jfile(tmp_path, "d.json", HAMMING_2)
        code, out, _ = run(capsys, "rd", source, d, "--target", "0.1")
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(0.5310044064107188, abs=1e-5)

    def test_curve(self, tmp_path, capsys):
        source = jfile(tmp_path, "src.json", {"probs": [0.7, 0.3]})
        code, out, _ = run(capsys, "rd", source, "--curve", "9")
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) >= 2
        rates = [p["rate"] for p in points]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))

    def test_target_and_curve_conflict(self, tmp_path, capsys):
        source = jfile(tmp_path, "src.json", UNIFORM_BINARY)
        assert run(capsys, "rd", source, "--target", "0.1", "--curve", "5")[0] == 2

    def test_neither_flag(self, tmp_path, capsys):
        source = jfile(tmp_path, "src.json", UNIFORM_BINARY)
        assert run(capsys, "rd", source)[0] == 2

    def test_infeasible_target(self, tmp_path, capsys):
        source = jfile(tmp_path, "src.json", UNIFORM_BINARY)
        d = jfile(tmp_path, "d.json",
                  {"x_size": 2, "xhat_size": 2, "costs": [1.0, 2.0, 2.0, 1.0]})
        assert run(capsys, "rd", source, d, "--target", "0.5")[0] == 3

    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_non_finite_target(self, tmp_path, capsys, target):
        source = jfile(tmp_path, "src.json", {"probs": [0.3, 0.7]})
        code, out, err = run(capsys, "rd", source, "--target", target)
        assert code == 3
        assert out == ""
        assert err == f"error: target distortion must be finite, got {target}\n"


class TestBounds:
    def test_report_list(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", QUATERNARY)
        dx = jfile(tmp_path, "dx.json", HAMMING_4)
        dy = jfile(tmp_path, "dy.json", HAMMING_4)
        code, out, _ = run(
            capsys, "bounds", joint, dx, dy,
            "--rx", "2", "--ry", "2", "--dx", "0", "--dy", "0",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["name"] for r in reports] == ["coupled-rate-x", "coupled-rate-y", "sum-rate"]
        assert all(r["satisfied"] for r in reports)
        assert reports[0]["inputs"]["rho_star"] == pytest.approx(0.0453, abs=2e-3)

    def test_violated_still_exits_zero(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", QUATERNARY)
        dx = jfile(tmp_path, "dx.json", HAMMING_4)
        dy = jfile(tmp_path, "dy.json", HAMMING_4)
        code, out, _ = run(
            capsys, "bounds", joint, dx, dy,
            "--rx", "1.9", "--ry", "1.9", "--dx", "0", "--dy", "0",
        )
        assert code == 0
        sum_rate = next(r for r in json.loads(out) if r["name"] == "sum-rate")
        assert not sum_rate["satisfied"]

    def test_one_symbol_alphabet(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", {"x_size": 1, "y_size": 2, "probs": [0.5, 0.5]})
        dx = jfile(tmp_path, "dx.json", {"x_size": 1, "xhat_size": 1, "costs": [0.0]})
        dy = jfile(tmp_path, "dy.json", HAMMING_2)
        code, out, _ = run(capsys, "sstar", joint)
        assert code == 0
        assert json.loads(out)["rho_star"] == 0.0
        code, out, _ = run(
            capsys, "bounds", joint, dx, dy,
            "--rx", "0", "--ry", "1", "--dx", "0", "--dy", "0",
        )
        assert code == 0
        assert json.loads(out)[0]["inputs"]["rho_star"] == 0.0

    def test_dimension_mismatch(self, tmp_path, capsys):
        joint = jfile(tmp_path, "j.json", DSBS)
        dx = jfile(tmp_path, "dx.json", HAMMING_4)
        dy = jfile(tmp_path, "dy.json", HAMMING_4)
        code, _, _ = run(
            capsys, "bounds", joint, dx, dy,
            "--rx", "1", "--ry", "1", "--dx", "0", "--dy", "0",
        )
        assert code == 3


class TestGaussFigures:
    def test_stdout_csv(self, capsys):
        code, out, err = run(capsys, "gauss-figures", "--rho", "0.2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dx,dy,exact,simple,cooperative,max_bound"
        assert lines[1] == "0.001,0.001,9.93633747144,9.5824848891,9.93633744014,9.93633744014"
        assert len(lines) == 81
        assert "80 rows" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fig.csv"
        code, out, _ = run(capsys, "gauss-figures", "--rho", "0.5", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("dx,dy,")

    def test_custom_grid(self, tmp_path, capsys):
        grid = jfile(tmp_path, "grid.json", [[0.1, 0.1], [0.5, 0.25]])
        code, out, _ = run(capsys, "gauss-figures", "--rho", "0.4", "--grid", grid)
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_malformed_grid(self, tmp_path, capsys):
        grid = jfile(tmp_path, "grid.json", {"dx": 0.1})
        assert run(capsys, "gauss-figures", "--rho", "0.4", "--grid", grid)[0] == 2

    def test_bad_rho(self, capsys):
        assert run(capsys, "gauss-figures", "--rho", "1.5")[0] == 3


class TestCeo:
    def test_satisfied(self, capsys):
        code, out, _ = run(
            capsys, "ceo", "--rates", "1.0,2.0", "--sstars", "0.5,0.25", "--target-rate", "0.9"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "ceo-sum"
        assert payload["lhs"] == pytest.approx(1.0)
        assert payload["satisfied"]

    def test_violated(self, capsys):
        code, out, _ = run(
            capsys, "ceo", "--rates", "1.0", "--sstars", "0.1", "--target-rate", "0.5"
        )
        assert code == 0
        assert not json.loads(out)["satisfied"]

    def test_length_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "ceo", "--rates", "1.0,2.0", "--sstars", "0.1", "--target-rate", "0.5"
        )
        assert code == 3

    def test_non_numeric(self, capsys):
        code, _, _ = run(
            capsys, "ceo", "--rates", "1.0,abc", "--sstars", "0.1,0.2", "--target-rate", "0.5"
        )
        assert code == 2


class TestCr:
    def test_finite_cap(self, capsys):
        code, out, _ = run(
            capsys, "cr", "--rate", "1.0", "--randomness", "1.5", "--sstar", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "cr-ratio"
        assert payload["lhs"] == pytest.approx(2.0)
        assert payload["rhs"] == pytest.approx(1.5)
        assert payload["satisfied"]

    def test_vacuous_cap_serializes_null(self, capsys):
        code, out, _ = run(
            capsys, "cr", "--rate", "1.0", "--randomness", "100.0", "--sstar", "1.0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lhs"] is None
        assert payload["rhs"] == pytest.approx(100.0)
        assert payload["satisfied"]

    def test_zero_rate(self, capsys):
        assert run(capsys, "cr", "--rate", "0", "--randomness", "1", "--sstar", "0.5")[0] == 3


class TestParsing:
    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    @pytest.mark.parametrize("kind, text", [
        ("joint", '{"x_size": "a", "y_size": 2, "probs": [0.45, 0.05, 0.05, 0.45]}'),
        ("joint", '{"x_size": 2.7, "y_size": 2, "probs": [0.45, 0.05, 0.05, 0.45]}'),
        ("joint", '{"x_size": 1e400, "y_size": 2, "probs": [0.45, 0.05, 0.05, 0.45]}'),
        ("joint", '{"x_size": 2, "y_size": 2, "probs": [[0.45, 0.05], [0.05, 0.45]]}'),
        ("joint", '{"x_size": 2, "y_size": 2, "probs": [0.45, "a", 0.05, 0.45]}'),
        ("source", '{"probs": ["a", 1]}'),
        ("source", '{"probs": 5}'),
        ("distortion", '{"x_size": 2, "xhat_size": "b", "costs": [0.0, 1.0, 1.0, 0.0]}'),
        ("grid", '[[true, 0.5]]'),
        ("grid", '[["0.1", "0.2"]]'),
    ], ids=["size-str", "size-float", "size-overflow", "probs-nested", "probs-str",
            "source-str", "source-scalar", "costs-size-str", "grid-bool", "grid-str"])
    def test_wrongly_typed_field(self, tmp_path, capsys, kind, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        joint = jfile(tmp_path, "j.json", DSBS)
        source = jfile(tmp_path, "src.json", UNIFORM_BINARY)
        argv = {
            "joint": ["sstar", str(path)],
            "source": ["rd", str(path), "--target", "0.1"],
            "distortion": ["rd", source, str(path), "--target", "0.1"],
            "grid": ["gauss-figures", "--rho", "0.8", "--grid", str(path)],
        }[kind]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("data", [
        b"[" * 100_000 + b"]" * 100_000,
        b"\xff\xfe{}",
    ], ids=["deep-nesting", "not-utf8"])
    def test_undecodable_json(self, tmp_path, capsys, data):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "sstar", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unwritable_out(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "cr", "--rate", "1", "--randomness", "1", "--sstar", "0.5",
            "--out", str(tmp_path / "no" / "such" / "dir.json"),
        )
        assert code == 4


def test_output_does_not_depend_on_blas_threads():
    package = Path(sdpibounds.__file__).parent
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(package.parent), "OMP_NUM_THREADS": threads,
               "OPENBLAS_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-m", "sdpibounds", "sstar", str(package / "data" / "quaternary.json")],
            capture_output=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


# Input files for the fuzz below, by the positional or flag that reads
# them: a valid file and a huge-valued one for each.  Every input also draws
# from the whole pool, with malformed files, a directory and a missing path.
FUZZ_FILES = {
    "joint": (DSBS, {"x_size": 1, "y_size": 3, "probs": [1e308] * 3}),
    "source": ({"probs": [0.7, 0.3]}, {"probs": [1e308, 1e308]}),
    "costs": (HAMMING_2, {"x_size": 2, "xhat_size": 2, "costs": [0.0, 1e308, 1e308, 0.0]}),
    "grid": ([[0.1, 0.1], [0.5, 0.25]], [[1e308, 1e308]]),
}
FUZZ_READERS = {"joint": "joint", "source": "source", "distortion": "costs",
                "dx_costs": "costs", "dy_costs": "costs", "grid": "grid"}
FUZZ_NUMBERS = (["0", "0.1", "0.5", "1", "2"], ["-1", "nan", "inf", "-inf", "1e308", "x"])
FUZZ_COUNTS = (["1", "2", "3"], ["-1", "0", "1e308", "x"])


def _fuzz_files(root):
    """({name: path} of the fuzz inputs, --out paths) under root."""
    files = {}
    for kind, payloads in FUZZ_FILES.items():
        for tag, payload in zip(("", "huge-"), payloads):
            files[tag + kind] = root / f"{tag}{kind}.json"
            files[tag + kind].write_text(json.dumps(payload))
    for name, text in (("broken", "{not json"), ("object", "{}"), ("scalar", "3"),
                       ("joint1", '{"x_size": 1, "y_size": 2, "probs": [0.5, 0.5]}')):
        files[name] = root / f"{name}.json"
        files[name].write_text(text)
    files["dir"] = root / "dir"
    files["dir"].mkdir()
    files["missing"] = root / "missing.json"
    outputs = [root / "dir", root / "out.json", root / "no" / "such" / "out.json"]
    return {name: str(path) for name, path in files.items()}, [str(path) for path in outputs]


def _fuzz_argv(rng, files, outputs):
    """A subcommand with its positionals and flags, each drawn from the
    parser itself, plus --out and the removed --seed and --config, in
    either position."""

    def number(pair):
        return rng.choice(pair[0] if rng.random() < 0.75 else pair[1])

    def path(reader):
        kind = FUZZ_READERS[reader]
        draw = rng.random()
        if draw < 0.5:
            return files[kind]
        return files["huge-" + kind] if draw < 0.75 else rng.choice(list(files.values()))

    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    command = rng.choice(sorted(sub.choices))
    argv = [command]
    for action in sub.choices[command]._actions:
        if not action.option_strings:
            if rng.random() < 0.9:
                argv.append(path(action.dest))
        elif action.dest in ("help", "out"):
            continue
        elif rng.random() < (0.9 if action.required else 0.5):
            if action.type is float:
                value = number(FUZZ_NUMBERS)
            elif action.type is int:
                value = number(FUZZ_COUNTS)
            elif action.dest in FUZZ_READERS:
                value = path(action.dest)
            else:
                value = ",".join(number(FUZZ_NUMBERS) for _ in range(rng.randrange(4)))
            argv += [action.option_strings[0], value]
    for flag, values, odds in (("--out", outputs, 0.25), ("--seed", ["7"], 0.05),
                               ("--config", list(files.values()), 0.05)):
        if rng.random() < odds:
            pair = [flag, rng.choice(values)]
            argv = pair + argv if rng.random() < 0.5 else argv + pair
    if rng.random() < 0.03:
        argv.append("-h")
    return argv


def test_input_contract_fuzz(tmp_path, capsys):
    # Whatever the flags and files, main exits 0, 2, 3 or 4, never with a
    # traceback or a warning, and a failure prints exactly one error line.
    files, outputs = _fuzz_files(tmp_path)
    rng = random.Random(20261019)
    for _ in range(250):
        argv = _fuzz_argv(rng, files, outputs)
        code, out, err = run(capsys, *argv)
        lines = err.splitlines()
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in out + err
        errors = [line for line in lines if line.startswith("error: ")]
        assert len(errors) == (code != 0), (argv, lines)
        assert all(line.startswith(("error: ", "caveat [")) or " rows at rho=" in line
                   for line in lines), (argv, lines)
