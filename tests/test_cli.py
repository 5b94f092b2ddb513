import json
import math
import xml.etree.ElementTree as ET

import pytest

from distshift.cli import build_parser, main

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


def test_ds_explicit_exponent(capsys):
    code, out, _ = run(capsys, "ds", "--inline", "1,2,3", "--z", "2")
    assert code == 0
    assert out == "ds = 0.1389  (z = 2, n = 6, k = 3)\n"


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
    code, out, err = run(capsys, "rds", "--a", "1,2,3", "--b", "1,2,3,4")
    assert code == 1 and out == ""
    assert "k=3 vs k=4" in err
    code, out, err = run(
        capsys, "rds", "--a", "1,2,3", "--b", "1,2,3,4", "--allow-unequal-k"
    )
    assert code == 0 and err == ""
    assert "[unvalidated: unequal k]" in out
    code, out, _ = run(
        capsys, "rds", "--a", "1,2,3", "--b", "1,2,3,4", "--allow-unequal-k",
        "--format", "json",
    )
    assert json.loads(out)["unvalidated_unequal_k"] is True


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


def test_compare_lenient_chi_square(capsys):
    code, out, _ = run(
        capsys, "compare", "--a", "0,1,1", "--b", "0,2,2",
        "--lenient-chi-square", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["chi_square"] == 0.0
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


def test_uniq_text_report(capsys):
    code, out, err = run(capsys, "uniq", "-n", "3", "-k", "3", "--z", "1")
    assert code == 0 and err == ""
    assert out == (
        "7 unique / 10 (n=3, k=3, z=1)\n"
        "value 1.667 shared by 2: [0,2,3]; [1,1,3]\n"
        "value 2 shared by 2: [0,3,3]; [1,2,3]\n"
        "value 2.333 shared by 2: [1,3,3]; [2,2,3]\n"
    )


def test_uniq_csv_default_exponent(capsys):
    code, out, _ = run(capsys, "uniq", "-n", "3", "-k", "3", "--format", "csv")
    assert code == 0
    assert out == "n,k,z,total,unique,suspects\n3,3,1.3333333333333333,10,10,0\n"


def test_uniq_json(capsys):
    code, out, _ = run(capsys, "uniq", "-n", "3", "-k", "3", "--z", "1",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["total"] == 10 and payload["unique_values"] == 7
    assert payload["collision_count"] == 3 and payload["exact"] is True
    assert payload["collisions"][0]["members"] == [[0, 2, 3], [1, 1, 3]]

    code, out, _ = run(capsys, "uniq", "-n", "10", "-k", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["unique_values"] == payload["total"] == 1001
    assert payload["exact"] is True and payload["suspect_count"] == 0


def test_uniq_exact_fraction_exponent(capsys):
    code, out, err = run(capsys, "uniq", "-n", "60", "-k", "5", "--z", "3/2",
                         "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["exact"] is True and payload["z"] == 1.5
    assert (payload["unique_values"], payload["total"]) == (635180, 635376)
    assert payload["collision_count"] == 196


@pytest.mark.parametrize("z", ["3/0", "-1/2", "abc"])
def test_uniq_rejects_bad_exponent(capsys, z):
    code, out, err = run(capsys, "uniq", "-n", "3", "-k", "3", f"--z={z}")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "exponent" in err


def test_uniq_respects_cap(capsys):
    code, out, err = run(capsys, "uniq", "-n", "100", "-k", "10", "--cap", "1000")
    assert code == 1 and out == "" and "cap" in err


EXPERIMENT_ARGS = ("--source", "feasible", "-n", "20", "-k", "5",
                   "--pairs", "200", "--seed", "42")


def test_experiment_csv_matrix(capsys):
    code, out, err = run(capsys, "experiment", *EXPERIMENT_ARGS)
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0].startswith("measure,abs_rds,")
    assert len(lines) == 8
    diag = lines[1].split(",")
    assert diag[0] == "abs_rds" and float(diag[1]) == 1.0


def test_experiment_outputs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, out, _ = run(capsys, "experiment", *EXPERIMENT_ARGS, "--csv-out", str(path))
        assert code == 0 and out == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()

    threaded = tmp_path / "threaded.csv"
    code, _, _ = run(capsys, "experiment", *EXPERIMENT_ARGS, "--threads", "2",
                     "--csv-out", str(threaded))
    assert code == 0
    assert threaded.read_bytes() == paths[0].read_bytes()


def test_experiment_json_output(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "experiment", *EXPERIMENT_ARGS,
                       "--csv-out", str(tmp_path / "m.csv"), "--json-out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["config"]["num_pairs"] == 200
    assert payload["measure_names"][0] == "abs_rds"
    assert payload["r_squared"]["ks"]["ks"]["r_squared"] == 1.0


def test_experiment_poisson_requires_rate(capsys):
    code, out, err = run(capsys, "experiment", "--source", "poisson", "-n", "50",
                         "-k", "5", "--pairs", "20", "--seed", "1")
    assert code == 1 and out == "" and "lam" in err
    code, out, err = run(capsys, "experiment", "--source", "poisson", "-n", "50",
                         "-k", "5", "--pairs", "20", "--seed", "1", "--lambda", "5")
    assert code == 0 and err == ""


def test_fork_csv_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "scatter.svg"
    code, out, err = run(capsys, "fork", *EXPERIMENT_ARGS, "--measure", "emd",
                         "--svg", str(svg_path))
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

    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 200


def test_fork_undefined_cells(capsys):
    code, out, _ = run(capsys, "fork", "--source", "feasible", "-n", "5", "-k", "5",
                       "--pairs", "300", "--seed", "7", "--measure", "kl_sqrt")
    assert code == 0
    cells = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert "undefined" in cells
    assert any(c != "undefined" for c in cells)


def test_fork_rejects_unknown_measure(capsys):
    code, out, err = run(capsys, "fork", *EXPERIMENT_ARGS, "--measure", "bogus")
    assert code == 1 and out == ""
    assert "abs_rds" in err


def test_threads_env_default(monkeypatch):
    monkeypatch.setenv("DISTSHIFT_THREADS", "3")
    args = build_parser().parse_args(["experiment", *EXPERIMENT_ARGS])
    assert args.threads == 3
    monkeypatch.setenv("DISTSHIFT_THREADS", "junk")
    args = build_parser().parse_args(["experiment", *EXPERIMENT_ARGS])
    assert args.threads == 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
