import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distshift
from distshift import MEASURE_NAMES, sample_uniform
from distshift.cli import main
from distshift.experiments import BLOCK, STREAM_VERSION

from test_shift import A33_CUMULATIVE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ds_inline_text(capsys):
    code, out, err = run(capsys, "ds", "--inline", "1,2,3")
    assert code == 0 and err == ""
    assert out == "ds = 0.2443  (z = 1.333, n = 6, k = 3)\n"


def test_ds_linear_text(capsys):
    code, out, _ = run(capsys, "ds", "--inline", "2,1,1", "--linear")
    assert code == 0
    assert out == "ds = 0.625  (z = 1, n = 4, k = 3)\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ds_linear_is_z_one(capsys, fmt):
    outputs = {
        run(capsys, "ds", "--inline", "3,1,2", *flags, "--format", fmt)
        for flags in (["--linear"], ["--z", "1"], ["--z", "1.0"])
    }
    assert len(outputs) == 1
    code, out, err = outputs.pop()
    assert code == 0 and err == "" and "0.5833" in out


def test_ds_linear_excludes_z(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ds", "--inline", "3,1,2", "--linear", "--z", "2"])
    assert info.value.code == 2
    assert "not allowed with argument --linear" in capsys.readouterr().err


def test_ds_explicit_exponent(capsys):
    code, out, _ = run(capsys, "ds", "--inline", "1,2,3", "--z", "2")
    assert code == 0
    assert out == "ds = 0.1389  (z = 2, n = 6, k = 3)\n"
    # read as uniq --z is: 3/2 and 1.5 name the same exponent
    for z in ("3/2", "1.5"):
        assert run(capsys, "ds", "--inline", "1,2,3", "--z", z) == (
            0, "ds = 0.2108  (z = 1.5, n = 6, k = 3)\n", ""
        )


@pytest.mark.parametrize("z", ["inf", "nan", "1e400", "-3/2", "0", "3/0", "abc"])
def test_ds_rejects_bad_exponent(capsys, z):
    code, out, err = run(capsys, "ds", "--inline", "1,2,3", f"--z={z}")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "exponent" in err


def test_ds_json_round_trip(capsys):
    code, out, _ = run(capsys, "ds", "--inline", "1,2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ds"] == 0.244285232175
    assert payload["n"] == 6 and payload["k"] == 3
    assert payload["z_used"] == pytest.approx(4 / 3, abs=1e-11)
    # twelve significant digits survive a render-parse cycle unchanged
    assert float(format(payload["ds"], ".12g")) == payload["ds"]


def test_ds_reads_csv_and_json_files(tmp_path, capsys):
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("1,2,3\n")
    code, out_csv, _ = run(capsys, "ds", "--input", str(csv_file))
    json_file = tmp_path / "d.json"
    json_file.write_text("[1, 2, 3]")
    code2, out_json, _ = run(
        capsys, "ds", "--input", str(json_file), "--input-format", "json"
    )
    assert code == 0 and code2 == 0
    assert out_csv == out_json == "ds = 0.2443  (z = 1.333, n = 6, k = 3)\n"


def test_ds_writes_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "ds", "--inline", "2,1,1", "--linear", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "ds = 0.625  (z = 1, n = 4, k = 3)\n"


def test_ds_expectation_checks(capsys):
    code, out, err = run(capsys, "ds", "--inline", "1,2,3", "--expect-n", "6", "--expect-k", "3")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "ds", "--inline", "1,2,3", "--expect-n", "9")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "expected n=9, parsed n=6" in err


def test_ds_rejects_negative_count(capsys):
    code, out, err = run(capsys, "ds", "--inline", "1,-2,3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "negative" in err


def test_ds_requires_exactly_one_input(capsys, tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("1,2,3\n")
    code, _, err = run(capsys, "ds", "--inline", "1,2,3", "--input", str(f))
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "ds")
    assert code == 1 and "exactly one" in err


def test_rds_text_and_json(capsys):
    code, out, _ = run(capsys, "rds", "--a", "3,0,0", "--b", "0,0,3")
    assert code == 0 and out == "rds = -1\n"
    code, out, _ = run(capsys, "rds", "--a", "3,0,0", "--b", "0,0,3", "--format", "json")
    payload = json.loads(out)
    assert payload == {"rds": -1.0, "k1": 3, "k2": 3}


def test_rds_unequal_k(capsys):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "rds", "--a", "1,1,1", "--b", "1,1,1,1", "--format", fmt)
        assert code == 1 and out == ""
        assert err == "error: bin counts differ (k=3 vs k=4)\n"


def test_compare_refuses_a_total_beyond_floats(capsys):
    code, out, err = run(capsys, "compare", "--a", "1,1", "--b", "1," + "9" * 401)
    assert code == 1 and out == ""
    assert err == "error: total observations must be below 2**1023\n"


@pytest.mark.parametrize(
    "text, fmt, message",
    [
        ("1," + "9" * 5000, "csv", "count too long at position 2"),
        ("[1," + "9" * 5000 + "]", "json", "count too long"),
        ("[" * 100_000 + "]" * 100_000, "json", "nested too deeply"),
    ],
    ids=["csv-long", "json-long", "json-deep"],
)
def test_ds_refuses_over_long_and_over_deep_input(tmp_path, text, fmt, message):
    # run as a program, so an escaped exception would print a traceback
    path = tmp_path / "input.txt"
    path.write_text(text)
    src = str(Path(distshift.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "distshift.cli", "ds", "--input", str(path), "--input-format", fmt],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert message in proc.stderr and "Traceback" not in proc.stderr


COMPARE_HEADER = "rds,abs_rds,chi_square,non_intersection,kl_sqrt,ks,emd,rps_sqrt"


def test_compare_text_undefined(capsys):
    code, out, err = run(capsys, "compare", "--a", "0,1,1", "--b", "0,2,2")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert len(lines) == 8
    cells = {line.split()[0]: line.split()[1] for line in lines}
    assert cells["chi_square"] == "undefined"
    assert cells["kl_sqrt"] == "undefined"
    assert cells["rds"] == "0"
    assert cells["emd"] == "0"


def test_compare_csv(capsys):
    code, out, _ = run(capsys, "compare", "--a", "0,1,1", "--b", "0,2,2", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == COMPARE_HEADER
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["chi_square"] == "undefined" and cells["kl_sqrt"] == "undefined"
    assert cells["ks"] == "0"


def test_compare_json(capsys):
    code, out, _ = run(capsys, "compare", "--a", "0,1,1", "--b", "0,2,2", "--format", "json")
    payload = json.loads(out)
    assert payload["chi_square"] == "undefined"
    assert payload["undefined_flags"] == ["chi_square", "kl_sqrt"]
    assert payload["rds"] == 0.0
    code, out, _ = run(capsys, "compare", "--a", "1,1,1", "--b", "1,0,2", "--format", "json")
    payload = json.loads(out)
    assert payload["kl_sqrt"] == "undefined" and payload["chi_square"] != "undefined"
    assert payload["undefined_flags"] == ["kl_sqrt"]


def test_card(capsys):
    assert run(capsys, "card", "-n", "3", "-k", "3") == (0, "10\n", "")
    assert run(capsys, "card", "-n", "10", "-k", "5") == (0, "1001\n", "")


def test_enum_cumulative_listing(capsys):
    code, out, _ = run(capsys, "enum", "-n", "3", "-k", "3", "--cumulative")
    assert code == 0
    rows = [tuple(int(c) for c in line.split(",")) for line in out.strip().split("\n")]
    assert rows == list(A33_CUMULATIVE)


def test_enum_counts_listing(capsys):
    code, out, _ = run(capsys, "enum", "-n", "3", "-k", "3")
    rows = [tuple(int(c) for c in line.split(",")) for line in out.strip().split("\n")]
    assert code == 0 and len(rows) == 10
    assert rows[0] == (0, 0, 3)
    assert all(sum(r) == 3 and len(r) == 3 for r in rows)
    assert len(set(rows)) == 10


def test_enum_writes_file_and_respects_cap(tmp_path, capsys):
    target = tmp_path / "members.csv"
    code, out, _ = run(capsys, "enum", "-n", "2", "-k", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "0,2\n1,1\n2,0\n"

    code, out, err = run(capsys, "enum", "-n", "100", "-k", "10", "--cap", "1000")
    assert code == 1 and out == ""
    assert "4263421511271" in err and "cap" in err


def test_sample_requires_seed():
    with pytest.raises(SystemExit) as info:
        main(["sample", "-n", "10", "-k", "3"])
    assert info.value.code == 2


def test_sample_requires_a_positive_count(capsys):
    for count in ["0", "-2"]:
        with pytest.raises(SystemExit) as info:
            main(["sample", "-n", "10", "-k", "3", "--count", count, "--seed", "1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "count must be at least 1" in captured.err


def test_sample_determinism_and_validity(capsys):
    code, first, _ = run(capsys, "sample", "-n", "10", "-k", "3", "--count", "5",
                         "--seed", "99")
    code2, second, _ = run(capsys, "sample", "-n", "10", "-k", "3", "--count", "5",
                           "--seed", "99")
    assert code == 0 and code2 == 0
    assert first == second
    rows = [tuple(int(c) for c in line.split(",")) for line in first.strip().split("\n")]
    assert len(rows) == 5
    assert all(sum(r) == 10 and len(r) == 3 and min(r) >= 0 for r in rows)


def test_sample_draws_its_count_in_one_batch(capsys, monkeypatch):
    calls = []

    def batch(*args, **kwargs):
        calls.append(kwargs.get("size"))
        return sample_uniform(*args, **kwargs)

    monkeypatch.setattr("distshift.cli.sample_uniform", batch)
    code, out, _ = run(capsys, "sample", "-n", "10", "-k", "3", "--count", "5", "--seed", "99")
    assert code == 0 and calls == [5]
    first = tuple(int(c) for c in out.split("\n")[0].split(","))
    assert first == tuple(sample_uniform(10, 3, 99, size=5)[0].tolist())


def test_uniq_text_report(capsys):
    code, out, err = run(capsys, "uniq", "-n", "3", "-k", "3", "--z", "1")
    assert code == 0 and err == ""
    assert out == (
        "7 unique / 10 (n=3, k=3, z=1)\n"
        "value 1.667 shared by 2: [0,2,3]; [1,1,3]\n"
        "value 2 shared by 2: [0,3,3]; [1,2,3]\n"
        "value 2.333 shared by 2: [1,3,3]; [2,2,3]\n"
    )
    code, out, _ = run(capsys, "uniq", "-n", "3", "-k", "3", "--z", "1.5")
    assert code == 0 and out == "10 unique / 10 (n=3, k=3, z=3/2)\n"


def test_uniq_csv_default_exponent(capsys):
    code, out, _ = run(capsys, "uniq", "-n", "3", "-k", "3", "--format", "csv")
    assert code == 0
    assert out == "n,k,z,total,unique\n3,3,4/3,10,10\n"
    code, out, _ = run(capsys, "uniq", "-n", "3", "-k", "3", "--z", "1", "--format", "csv")
    assert code == 0 and out == "n,k,z,total,unique\n3,3,1,10,7\n"
    code, out, _ = run(capsys, "uniq", "-n", "10", "-k", "5", "--format", "csv")
    assert code == 0 and out == "n,k,z,total,unique\n10,5,6/5,1001,1001\n"


def test_uniq_json(capsys):
    code, out, _ = run(capsys, "uniq", "-n", "3", "-k", "3", "--z", "1",
                       "--format", "json")
    payload = json.loads(out)
    assert list(payload) == [
        "n", "k", "z", "total", "unique_values", "collision_count", "collisions"
    ]
    assert payload["z"] == "1"
    assert payload["n"] == 3 and payload["total"] == 10 and payload["unique_values"] == 7
    assert payload["collision_count"] == 3
    assert payload["collisions"][0]["members"] == [[0, 2, 3], [1, 1, 3]]

    code, out, _ = run(capsys, "uniq", "-n", "10", "-k", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["z"] == "6/5"
    assert payload["unique_values"] == payload["total"] == 1001


def test_uniq_exact_fraction_exponent(capsys):
    code, out, err = run(capsys, "uniq", "-n", "60", "-k", "5", "--z", "3/2",
                         "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["z"] == "3/2"
    assert (payload["unique_values"], payload["total"]) == (635180, 635376)
    assert payload["collision_count"] == 196


def test_uniq_decimal_exponent_is_exact(capsys):
    decimal = run(capsys, "uniq", "-n", "12", "-k", "4", "--z", "1.1", "--format", "json")
    ratio = run(capsys, "uniq", "-n", "12", "-k", "4", "--z", "11/10", "--format", "json")
    assert decimal == ratio and decimal[0] == 0
    assert json.loads(decimal[1])["z"] == "11/10"
    # a decimal is not rounded to the nearest double: 2 + 1e-19 is not 2,
    # and it separates every member of A(5, 4), where z = 2 leaves 45 values
    code, out, _ = run(capsys, "uniq", "-n", "5", "-k", "4", "--z", "2.0000000000000000001",
                       "--format", "csv")
    assert code == 0
    assert out == "n,k,z,total,unique\n5,4,20000000000000000001/10000000000000000000,56,56\n"


@pytest.mark.parametrize("z", ["3/0", "-1/2", "abc", "inf", "nan"])
def test_uniq_rejects_bad_exponent(capsys, z):
    code, out, err = run(capsys, "uniq", "-n", "3", "-k", "3", f"--z={z}")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "exponent" in err


def test_uniq_rejects_negative_max_collisions(capsys):
    code, out, err = run(capsys, "uniq", "-n", "3", "-k", "3", "--max-collisions", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "max_collisions" in err


def test_uniq_respects_cap(capsys):
    code, out, err = run(capsys, "uniq", "-n", "100", "-k", "10", "--cap", "1000")
    assert code == 1 and out == "" and "cap" in err


EXPERIMENT_ARGS = ("--source", "feasible", "-n", "20", "-k", "5",
                   "--pairs", "200", "--seed", "42")


def test_experiment_csv_matrix(capsys):
    code, out, err = run(capsys, "experiment", *EXPERIMENT_ARGS)
    assert code == 0 and err == ""
    assert out.endswith("\n")
    lines = out.strip().split("\n")
    assert lines[0] == "measure," + ",".join(MEASURE_NAMES)
    assert len(lines) == 1 + len(MEASURE_NAMES)
    diag = lines[1].split(",")
    assert diag[0] == "abs_rds" and float(diag[1]) == 1.0


def test_experiment_outputs_are_byte_identical(tmp_path, capsys):
    # three blocks of the stream, the last one short
    spanning = ("--source", "feasible", "-n", "20", "-k", "5",
                "--pairs", str(2 * BLOCK + 7), "--seed", "42")
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, out, _ = run(capsys, "experiment", *spanning, "--csv-out", str(path))
        assert code == 0 and out == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # an experiment runs in one process, so there is no worker option
    for command in (["experiment"], ["fork", "--measure", "emd"]):
        with pytest.raises(SystemExit) as info:
            main([*command, *spanning, "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_experiment_json_output(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "experiment", *EXPERIMENT_ARGS,
                       "--csv-out", str(tmp_path / "m.csv"), "--json-out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert list(payload["config"]) == [
        "source", "n", "k", "num_pairs", "seed", "lam", "stream_version"
    ]
    assert payload["config"]["source"] == "feasible_set"
    assert payload["config"]["stream_version"] == STREAM_VERSION
    assert payload["config"]["num_pairs"] == 200
    assert payload["measure_names"] == list(MEASURE_NAMES)
    assert list(payload["r_squared"]["ks"]["emd"]) == [
        "slope", "r_squared", "sample_count", "dropped_count", "degenerate"
    ]
    assert payload["r_squared"]["ks"]["ks"]["r_squared"] == 1.0
    assert payload["r_squared"]["emd"]["emd"]["r_squared"] == 1.0


def test_experiment_poisson_requires_rate(capsys):
    code, out, err = run(capsys, "experiment", "--source", "poisson", "-n", "50",
                         "-k", "5", "--pairs", "20", "--seed", "1")
    assert code == 1 and out == "" and "lam" in err
    for lam in ("inf", "nan", "0"):
        code, out, err = run(capsys, "experiment", "--source", "poisson", "-n", "10",
                             "-k", "3", "--pairs", "5", "--seed", "1", "--lambda", lam)
        assert code == 1 and out == ""
        assert err == f"error: lam must be positive and finite, got {float(lam)}\n"
    code, out, err = run(capsys, "experiment", "--source", "poisson", "-n", "50",
                         "-k", "5", "--pairs", "20", "--seed", "1", "--lambda", "5")
    assert code == 0 and err == ""


def test_experiment_feasible_refuses_rate(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, err = run(capsys, "experiment", *EXPERIMENT_ARGS, "--lambda", "5",
                         "--json-out", str(target))
    assert code == 1 and out == "" and not target.exists()
    assert err == "error: lam applies only to the poisson source, got lam=5.0\n"


def test_negligible_poisson_mass_is_refused_before_outputs_open(tmp_path, capsys):
    target = tmp_path / "kept.txt"
    target.write_bytes(b"earlier output\n")
    poisson = ("--source", "poisson", "-n", "10", "-k", "3", "--pairs", "5",
               "--seed", "1", "--lambda", "1000")
    for extra in (["experiment", "--csv-out", str(target)],
                  ["fork", "--measure", "emd", "--out", str(target)]):
        code, out, err = run(capsys, extra[0], *poisson, *extra[1:])
        assert code == 1 and out == ""
        assert err == "error: Poisson(lam=1000.0) has negligible mass below k=3\n"
        assert target.read_bytes() == b"earlier output\n"


def test_experiment_refuses_one_file_for_both_outputs(tmp_path, capsys):
    target = tmp_path / "table.txt"
    target.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, "experiment", *EXPERIMENT_ARGS, "--csv-out", str(target),
                         "--json-out", str(tmp_path / "." / "table.txt"))
    assert code == 1 and out == ""
    assert err == f"error: --csv-out and --json-out name the same file: {target.resolve()}\n"
    assert target.read_bytes() == b"earlier output\n"


def test_experiment_opens_outputs_before_drawing(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pairs were drawn before the outputs were opened")

    monkeypatch.setattr("distshift.cli.run_experiment", refuse)
    missing = tmp_path / "missing" / "t.json"
    for command, flag in [("experiment", "--json-out"), ("experiment", "--csv-out"),
                          ("fork", "--out")]:
        extra = ["--measure", "emd"] if command == "fork" else []
        code, out, err = run(capsys, command, *EXPERIMENT_ARGS, *extra, flag, str(missing))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "t.json" in err


def test_fork_csv(capsys):
    code, out, err = run(capsys, "fork", *EXPERIMENT_ARGS, "--measure", "emd")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "emd,rds"
    assert len(lines) == 201
    signs = set()
    for line in lines[1:]:
        value, signed = line.split(",")
        assert float(value) >= 0.0
        signs.add(math.copysign(1, float(signed)))
    assert signs == {1.0, -1.0}


def test_fork_undefined_cells(capsys):
    code, out, _ = run(capsys, "fork", "--source", "feasible", "-n", "5", "-k", "5",
                       "--pairs", "300", "--seed", "7", "--measure", "kl_sqrt")
    assert code == 0
    cells = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert "undefined" in cells
    assert any(c != "undefined" for c in cells)


def test_fork_rejects_unknown_measure(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment ran before the measure was checked")

    monkeypatch.setattr("distshift.cli.run_experiment", refuse)
    with pytest.raises(SystemExit) as info:
        main(["fork", *EXPERIMENT_ARGS, "--measure", "bogus"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bogus" in captured.err
    assert all(name in captured.err for name in MEASURE_NAMES)


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return "sha256:" + hashlib.sha256(data).hexdigest()


# Exact bytes of one invocation per command and format; long outputs by digest.
# A change to the random stream updates the sample line and the experiment
# and fork digests together with STREAM_VERSION (these are version 3).
GOLDEN = [
    ("ds-text", ("ds", "--inline", "1,2,3"), "ds = 0.2443  (z = 1.333, n = 6, k = 3)\n"),
    ("ds-json", ("ds", "--inline", "1,2,3", "--format", "json"),
     '{\n  "ds": 0.244285232175,\n  "z_used": 1.33333333333,\n  "n": 6,\n  "k": 3\n}\n'),
    ("rds-text", ("rds", "--a", "3,0,1", "--b", "0,1,3"), "rds = -0.6027\n"),
    ("rds-json", ("rds", "--a", "3,0,1", "--b", "0,1,3", "--format", "json"),
     '{\n  "rds": -0.602675156694,\n  "k1": 3,\n  "k2": 3\n}\n'),
    ("compare-text", ("compare", "--a", "1,1,1", "--b", "1,0,2"),
     "rds                -0.1756\nabs_rds            0.1756\nchi_square         0.2222\n"
     "non_intersection   0.3333\nkl_sqrt            undefined\nks                 0.3333\n"
     "emd                0.3333\nrps_sqrt           0.3333\n"),
    ("compare-json", ("compare", "--a", "1,1,1", "--b", "1,0,2", "--format", "json"),
     '{\n  "rds": -0.175633275854,\n  "abs_rds": 0.175633275854,\n'
     '  "chi_square": 0.222222222222,\n  "non_intersection": 0.333333333333,\n'
     '  "kl_sqrt": "undefined",\n  "ks": 0.333333333333,\n  "emd": 0.333333333333,\n'
     '  "rps_sqrt": 0.333333333333,\n  "undefined_flags": [\n    "kl_sqrt"\n  ]\n}\n'),
    ("compare-csv", ("compare", "--a", "1,1,1", "--b", "1,0,2", "--format", "csv"),
     COMPARE_HEADER + "\n-0.175633275854,0.175633275854,0.222222222222,0.333333333333,"
     "undefined,0.333333333333,0.333333333333,0.333333333333\n"),
    ("uniq-text", ("uniq", "-n", "3", "-k", "3", "--z", "1"),
     "7 unique / 10 (n=3, k=3, z=1)\nvalue 1.667 shared by 2: [0,2,3]; [1,1,3]\n"
     "value 2 shared by 2: [0,3,3]; [1,2,3]\nvalue 2.333 shared by 2: [1,3,3]; [2,2,3]\n"),
    ("uniq-json", ("uniq", "-n", "3", "-k", "3", "--z", "1", "--format", "json"),
     "sha256:29cd0809d98c020381f87aa30a57551fc165f9d04dd8c84a0ed020c1f0fa2c34"),
    ("uniq-csv", ("uniq", "-n", "3", "-k", "3", "--z", "1", "--format", "csv"),
     "n,k,z,total,unique\n3,3,1,10,7\n"),
    ("enum", ("enum", "-n", "3", "-k", "3"),
     "0,0,3\n0,1,2\n0,2,1\n0,3,0\n1,0,2\n1,1,1\n1,2,0\n2,0,1\n2,1,0\n3,0,0\n"),
    ("sample", ("sample", "-n", "10", "-k", "3", "--count", "5", "--seed", "99"),
     "6,3,1\n5,5,0\n8,2,0\n6,4,0\n1,5,4\n"),
    ("card", ("card", "-n", "10", "-k", "5"), "1001\n"),
    ("fork", ("fork", *EXPERIMENT_ARGS, "--measure", "emd"),
     "sha256:98ee5cac5dd1fc965a72dba16899401838a931e3eb658271f103aebe45249185"),
]


@pytest.mark.parametrize("argv, expected", [case[1:] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_golden_bytes(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (_digest(out) if expected.startswith("sha256:") else out) == expected


def test_experiment_golden_bytes(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, err = run(capsys, "experiment", *EXPERIMENT_ARGS, "--json-out", str(target))
    assert (code, err) == (0, "")
    assert _digest(out) == "sha256:3fc9aab8671228e5fb25b0c475a88bdb87e2b6af8c262689d353c20608d0b994"
    assert _digest(target.read_bytes()) == (
        "sha256:d82fe27f1f05c1b229547a360bd2b2929e195929822a8faf1b184adb6d4efb74"
    )
