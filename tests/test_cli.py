import json
import os

import pytest

from freelines import fixtures
from freelines.arrangement import read_arrangement, write_arrangement
from freelines.certify import certificate_to_json, verify_free
from freelines.cli import main


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, arr in [
        ("boolean", fixtures.boolean_arrangement()),
        ("free13", fixtures.free_13()),
        ("generic4", fixtures.generic_four()),
        ("near_pencil5", fixtures.near_pencil(5)),
    ]:
        p = tmp_path / f"{name}.json"
        write_arrangement(p, arr)
        paths[name] = str(p)
    return paths


@pytest.fixture()
def bad_files(tmp_path):
    """Files whose values do not parse: coefficients and certificate scalars."""
    good_cert = certificate_to_json(verify_free(fixtures.boolean_arrangement(), 1, 1).certificate)
    texts = {
        "zero_denominator": '{"lines": [["1/0", 0, 0], [0, 1, 0], [0, 0, 1]]}',
        "overflow": '{"lines": [[1e400, 0, 0], [0, 1, 0], [0, 0, 1]]}',
        "dict_coefficient": '{"lines": [[{}, 0, 0], [0, 1, 0], [0, 0, 1]]}',
        "cert_zero_denominator": json.dumps(
            {**good_cert, "theta1": {**good_cert["theta1"], "f": {"1,0,0": "1/0"}}}
        ),
        "cert_c_zero_denominator": json.dumps({**good_cert, "c": "1/0"}),
        "huge_exponent": '{"lines": [["1e5000", 1, 0], [0, 1, 0], [0, 0, 1]]}',
        "billion_digit_exponent": '{"lines": [["1e999999999", 1, 0], [0, 1, 0], [0, 0, 1]]}',
        "long_mantissa_exponent": '{"lines": [["1%se1000", 1, 0], [0, 1, 0], [0, 0, 1]]}' % ("0" * 3500),
        "cert_huge_exponent": json.dumps(
            {**good_cert, "theta1": {**good_cert["theta1"], "f": {"1,0,0": "1e-999999999"}}}
        ),
        "cert_c_huge_exponent": json.dumps({**good_cert, "c": "2E+1_000_000"}),
        "cert_no_c": json.dumps({k: v for k, v in good_cert.items() if k != "c"}),
        "cert_no_theta2": json.dumps({k: v for k, v in good_cert.items() if k != "theta2"}),
        # each coefficient reads, but the certificate's products have 6000 digits
        "huge_certificate": '{"lines": [["1e3000", 1, 0], [0, "1e3000", 1], [0, 0, 1]]}',
    }
    paths = {}
    for name, text in texts.items():
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def usage_error(capsys, argv) -> dict:
    """The JSON error of a usage error, after checking exit 2 and an empty stdout."""
    # argument errors exit through SystemExit; main returns 2 for the others
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


def test_invariants_fixture(files, capsys):
    code, data = run(capsys, ["invariants", files["free13"]])
    assert code == 0
    p = data["payload"]
    assert p["b2"] == "48"
    assert p["exponents"] == ["6", "6"]
    assert p["t"] == {"2": "14", "3": "6", "4": "6", "5": "1"}
    assert p["tjurina"] == "108"
    assert all(isinstance(v, str) for v in p["chi_cubic"])


def test_invariants_boolean(files, capsys):
    code, data = run(capsys, ["invariants", files["boolean"]])
    assert code == 0
    assert data["payload"]["b2"] == "3"
    assert data["payload"]["exponents"] == ["1", "1"]


def test_invariants_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    err = usage_error(capsys, ["invariants", str(bad)])
    assert err["command"] == "invariants"
    assert str(bad) in err["error"]


def test_invariants_boolean_coefficient_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps({"lines": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert "boolean" in usage_error(capsys, ["invariants", str(bad)])["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "free13", "--exponents", "3,3"],
        ["saito", "free13", "--exponents", "0,12"],
        ["saito", "free13", "--exponents", "a,b"],
        ["cascade", "near_pencil5", "--n-max", "6", "--targets", "1;2"],
    ],
)
def test_bad_exponents_are_usage_errors(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == argv[0]
    assert err["error"]


def test_saito_boolean(files, capsys):
    code, data = run(capsys, ["saito", files["boolean"]])
    assert code == 0
    assert data["payload"]["loss"] <= 1e-9
    assert data["payload"]["k1"] == "3"


def test_saito_no_exponents_exits_one(files, capsys):
    code, data = run(capsys, ["saito", files["generic4"]])
    assert code == 1
    assert data["payload"]["reason"] == "delta-negative"


def test_verify_writes_certificate(files, tmp_path, capsys):
    cert_path = str(tmp_path / "b.cert.json")
    code, data = run(capsys, ["verify", files["boolean"], "--certificate-out", cert_path])
    assert code == 0
    assert data["payload"]["verdict"] == "certified"
    code, data = run(capsys, ["check", files["boolean"], cert_path])
    assert code == 0
    assert data["payload"]["verdict"] == "valid"


def test_check_detects_wrong_arrangement(files, tmp_path, capsys):
    cert_path = str(tmp_path / "b.cert.json")
    run(capsys, ["verify", files["boolean"], "--certificate-out", cert_path])
    code, data = run(capsys, ["check", files["near_pencil5"], cert_path])
    assert code == 1
    assert data["payload"]["first_failing_check"] == "hash-mismatch"


def test_check_detects_tampered_scalar(files, tmp_path, capsys):
    cert_path = tmp_path / "b.cert.json"
    run(capsys, ["verify", files["boolean"], "--certificate-out", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    from fractions import Fraction

    cert["c"] = str(Fraction(cert["c"]) * 2)
    cert_path.write_text(json.dumps(cert))
    code, data = run(capsys, ["check", files["boolean"], str(cert_path)])
    assert code == 1
    assert data["payload"]["first_failing_check"] == "determinant-mismatch"


def _two_entry_key(cert):
    cert["theta1"]["g"] = {"0,1": "1"}
    return cert


def _negative_exponent(cert):
    cert["theta2"]["h"] = {"0,-1,2": "1"}
    return cert


def _theta_not_object(cert):
    cert["theta1"] = ["f", "g", "h"]
    return cert


def _component_not_object(cert):
    cert["theta2"]["f"] = ["1"]
    return cert


def _top_level_not_object(cert):
    return [cert]


@pytest.mark.parametrize(
    "mutate",
    [_two_entry_key, _negative_exponent, _theta_not_object, _component_not_object, _top_level_not_object],
)
def test_check_malformed_certificate_is_usage_error(files, tmp_path, capsys, mutate):
    cert_path = tmp_path / "b.cert.json"
    run(capsys, ["verify", files["boolean"], "--certificate-out", str(cert_path)])
    cert_path.write_text(json.dumps(mutate(json.loads(cert_path.read_text()))))
    code = main(["check", files["boolean"], str(cert_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["command"] == "check"
    assert "expected a JSON object" in err["error"] or "nonnegative exponents" in err["error"]


def test_config_not_object_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        main(["search", "3", "1", "1", "--config", str(cfg)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"command": "config", "error": "expected a JSON object, got list"}


@pytest.mark.parametrize(
    "argv,config,named",
    [
        (["saito", "free13", "--exponents", "6,7"], None, None),
        (["search", "3", "1", "1", "--beam", "0"], None, None),
        (["extend", "near_pencil5", "1", "4", "--pool-bound", "0"], None, None),
        (["extend", "near_pencil5", "4", "1"], None, None),
        (["search", "3", "1", "1"], {"weights": {"w_alg": float("nan")}}, "w_alg"),
        (["search", "3", "1", "2"], None, None),
        (["search", "3", "1", "1"], {"weights": {"bogus": 1}}, "bogus"),
        (["search", "3", "1", "1"], {"weights": {"w_pen": True}}, "w_pen"),
        (["search", "3", "1", "1"], {"beam": 2}, "beam"),
        (["search", "2", "0", "1"], None, None),
        (["extend", "near_pencil5", "1", "4", "--delta-b2", "1"], None, "--delta-b2"),
        (["search", "3", "1", "1", "--seed", "0"], None, "--seed"),
        (["extend", "near_pencil5", "1"], None, "d2"),
        (["construct", "x", "2"], None, "d1"),
        ([], None, "command"),
        (["invariants", "zero_denominator"], None, "1/0"),
        (["invariants", "overflow"], None, "Infinity"),
        (["invariants", "dict_coefficient"], None, "{}"),
        (["check", "boolean", "cert_zero_denominator"], None, "theta1.f"),
        (["check", "boolean", "cert_c_zero_denominator"], None, "c: '1/0'"),
        (["invariants", "huge_exponent"], None, "'1e5000' expands"),
        (["verify", "billion_digit_exponent"], None, "'1e999999999' expands"),
        (["invariants", "long_mantissa_exponent"], None, "4000 digits"),
        (["check", "boolean", "cert_huge_exponent"], None, "theta1.f"),
        (["check", "boolean", "cert_c_huge_exponent"], None, "c: '2E+1_000_000' expands"),
        (["verify", "huge_certificate"], None, "more than 4000 digits"),
        (["search", "4", "1", "2"], {"weights": {"w_free": float("inf")}}, "w_free"),
        (["search", "4", "1", "2"], {"weights": {"w_free": [1]}}, "w_free"),
        (["check", "boolean", "cert_no_c"], None, "missing key 'c'"),
        (["check", "boolean", "cert_no_theta2"], None, "missing key 'theta2'"),
        (["extend", "near_pencil5", "1", "4", "--config", "cfg.json"], None, "--config"),
        (["cascade", "near_pencil5", "--n-max", "6", "--config", "cfg.json"], None, "--config"),
    ],
)
def test_bad_values_are_usage_errors(files, bad_files, tmp_path, capsys, argv, config, named):
    paths = {**files, **bad_files}
    argv = [paths.get(a, a) for a in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    err = usage_error(capsys, argv)
    assert err["error"]
    if named is not None:
        assert named in err["error"]


def test_verify_writes_no_certificate_it_cannot_print(bad_files, capsys):
    path = bad_files["huge_certificate"]
    assert main(["verify", path]) == 2
    assert json.loads(capsys.readouterr().err)["command"] == "verify"
    assert not os.path.exists(path + ".cert.json")


def test_verify_reads_exponents_in_either_order(files, tmp_path, capsys):
    # the exponents of a free arrangement are a multiset: 3,1 asks what 1,3 does
    paths = [str(tmp_path / f"{order}.cert.json") for order in ("forward", "backward")]
    _, forward = run(capsys, ["verify", files["near_pencil5"], "--exponents", "1,3", "--certificate-out", paths[0]])
    code, backward = run(capsys, ["verify", files["near_pencil5"], "--exponents", "3,1", "--certificate-out", paths[1]])
    assert code == 0
    assert backward["payload"]["verdict"] == "certified"
    assert backward["payload"]["exponents"] == forward["payload"]["exponents"] == ["1", "3"]
    assert open(paths[0]).read() == open(paths[1]).read()


def test_saito_exponent_order_swaps_nullities(tmp_path, capsys):
    path = str(tmp_path / "free20.json")
    write_arrangement(path, fixtures.free_20())
    _, forward = run(capsys, ["saito", path, "--exponents", "9,10"])
    code, backward = run(capsys, ["saito", path, "--exponents", "10,9"])
    assert code == 0
    assert (backward["payload"]["k1"], backward["payload"]["k2"]) == (forward["payload"]["k2"], forward["payload"]["k1"])
    assert forward["payload"]["k1"] != forward["payload"]["k2"]
    assert backward["payload"]["loss"] <= 1e-12


def test_construct_small(capsys, tmp_path):
    out = str(tmp_path / "cells")
    code, data = run(capsys, ["construct", "1", "1", "--out", out])
    assert code == 0
    arr = read_arrangement(tmp_path / "cells" / "two_pencil_1x1.json")
    assert arr.n == 3
    code, data = run(capsys, [
        "check",
        str(tmp_path / "cells" / "two_pencil_1x1.json"),
        str(tmp_path / "cells" / "two_pencil_1x1.cert.json"),
    ])
    assert code == 0


def test_construct_rejects_bad_exponents(capsys):
    assert main(["construct", "3", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["command"] == "construct"
    assert "d1 <= d2" in err["error"]


def test_argument_errors_name_their_command(capsys):
    for argv, command in [
        (["search", "3", "1", "1", "--seed", "0"], "search"),
        (["construct", "x", "2"], "construct"),
        ([], "freelines"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["command"] == command


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    assert "usage: freelines search" in capsys.readouterr().out


def test_extend_near_pencil(files, capsys):
    code, data = run(capsys, ["extend", files["near_pencil5"], "1", "4", "--pool-bound", "2"])
    assert code == 0
    assert len(data["payload"]["discoveries"]) >= 1


def test_extend_rejects_non_free_seed(files, capsys):
    code, data = run(capsys, ["extend", files["generic4"], "2", "2"])
    assert code == 1
    assert data["payload"]["error"] == "seed-not-certified"


def test_extend_unreachable_target_empty(tmp_path, capsys):
    from freelines.search import supersolvable_two_pencil

    seed = tmp_path / "tp22.json"
    write_arrangement(seed, supersolvable_two_pencil(2, 2))
    code, data = run(capsys, ["extend", str(seed), "1", "4"])
    assert code == 0
    assert data["payload"]["discoveries"] == []


def test_search_n3(capsys):
    code, data = run(capsys, ["search", "3", "1", "1", "--beam", "4"])
    assert code == 0
    assert data["payload"]["beam"][0]["verdict"] == "certified"


def test_survey(files, capsys):
    code, data = run(capsys, ["survey", files["boolean"], files["free13"], files["generic4"]])
    assert code == 0
    rows = data["payload"]["rows"]
    assert rows[0]["loss"] <= 1e-9
    assert rows[1]["loss"] < 1e-6
    assert rows[2]["loss"] is None and rows[2]["reason"] == "delta-negative"


def test_saito_and_survey_answer_a_refuted_input(tmp_path, capsys):
    # verify_free refutes the mutant, so the loss is 1 with no ALS run
    path = str(tmp_path / "mutant.json")
    write_arrangement(path, fixtures.disjoint_pencils(5, 2))
    code, data = run(capsys, ["saito", path])
    assert code == 0
    payload = data["payload"]
    assert payload["loss"] == 1.0
    assert payload["reason"] == "not-free-at-exponents"
    assert (payload["k1"], payload["k2"]) == ("9", "9")
    code, data = run(capsys, ["survey", path])
    assert code == 0
    assert data["payload"]["rows"][0]["loss"] == 1.0


def test_cascade_cli(files, tmp_path, capsys):
    out = str(tmp_path / "cat")
    code, data = run(
        capsys,
        [
            "cascade", files["near_pencil5"],
            "--n-max", "6", "--targets", "1,4", "--pool-bound", "2", "--out", out,
        ],
    )
    assert code == 0
    assert data["payload"]["levels"].get("6,1,4")
    index = json.loads((tmp_path / "cat" / "index.json").read_text())
    assert index


def test_round_trip_cli_files(tmp_path, files):
    arr = read_arrangement(files["free13"])
    again = tmp_path / "again.json"
    write_arrangement(again, arr)
    assert read_arrangement(again) == arr


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "1", "1", "--out", "{blocked}"],
        ["verify", "boolean", "--certificate-out", "{blocked}"],
        ["extend", "near_pencil5", "1", "4", "--out", "{blocked}"],
        ["cascade", "near_pencil5", "--n-max", "6", "--targets", "1,4", "--out", "{blocked}"],
    ],
    ids=["construct", "verify", "extend", "cascade"],
)
def test_unwritable_output_path_is_usage_error(files, tmp_path, capsys, argv):
    # a path below a regular file cannot be created, whoever runs the test
    (tmp_path / "plain").write_text("")
    blocked = str(tmp_path / "plain" / "out")
    argv = [blocked if a == "{blocked}" else files.get(a, a) for a in argv]
    err = usage_error(capsys, argv)
    assert err["command"] == argv[0]
    assert blocked in err["error"]


def test_construct_writes_its_pair_whole_or_not_at_all(tmp_path, capsys):
    # the certificate's path is a directory, so its open fails after the
    # arrangement's; one write_json call unlinks the arrangement file again
    (tmp_path / "two_pencil_2x3.cert.json").mkdir()
    err = usage_error(capsys, ["construct", "2", "3", "--out", str(tmp_path)])
    assert err["command"] == "construct"
    assert not (tmp_path / "two_pencil_2x3.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "{deep}"],
        ["check", "boolean", "{deep}"],
        ["search", "3", "1", "1", "--config", "{deep}"],
    ],
    ids=["invariants", "check", "search-config"],
)
def test_deeply_nested_json_is_usage_error(files, tmp_path, capsys, argv):
    # json.load raises RecursionError on this nesting, which is no ValueError
    deep = tmp_path / "deep.json"
    deep.write_text('{"lines": ' + "[" * 100000 + "]" * 100000 + "}")
    argv = [str(deep) if a == "{deep}" else files.get(a, a) for a in argv]
    err = usage_error(capsys, argv)
    assert err["command"] == argv[0]
    assert str(deep) in err["error"] and "recursion" in err["error"]


def test_delta_b2_flag_is_unknown(files, capsys):
    # the addition theorem fixes |A''| for each target, so no override exists
    with pytest.raises(SystemExit) as exc:
        main(["extend", files["near_pencil5"], "1", "4", "--delta-b2", "1"])
    assert exc.value.code == 2
