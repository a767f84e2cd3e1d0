import json

from canoninv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_verify_b3(capsys):
    code, out, err = run_cli(
        capsys, "build", "--type", "B", "--rank", "3", "--mode", "refined", "--verify"
    )
    assert code == 0
    data = json.loads(out)
    assert [e["degree"] for e in data["entries"]] == [2, 4, 6]
    assert data["verified"] is True
    assert data["verification"]["passed"] is True


def test_build_d4_refined_contains_monomial(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--type", "D", "--rank", "4", "--mode", "refined"
    )
    assert code == 0
    data = json.loads(out)
    polys = [e["poly"]["terms"] for e in data["entries"]]
    assert any(
        len(terms) == 1 and terms[0]["exp"] == [1, 1, 1, 1] and terms[0]["coef"] == "1"
        for terms in polys
    )


def test_build_rejects_e8(capsys):
    code, out, err = run_cli(capsys, "build", "--type", "E", "--rank", "8")
    assert code != 0
    assert "out of scope" in err
    assert out == ""


def test_build_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "build", "--type", "B", "--rank", "2", "--verify")
    _, out2, _ = run_cli(capsys, "build", "--type", "B", "--rank", "2", "--verify")
    assert out1 == out2


def test_build_summary_and_latex_formats(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--type", "B", "--rank", "2", "--format", "summary", "--verify"
    )
    assert code == 0 and "verification: pass" in out
    code, out, _ = run_cli(
        capsys, "build", "--type", "B", "--rank", "2", "--format", "latex"
    )
    assert code == 0 and out.splitlines()[0].startswith("f_{1} =")


def test_verify_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "build", "--type", "B", "--rank", "2", "--verify")
    assert code == 0
    path = tmp_path / "b2.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out2)["passed"] is True


def test_verify_corrupted_file_names_the_pair(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "build", "--type", "B", "--rank", "2", "--verify")
    data = json.loads(out)
    # corrupt the degree-4 entry: bump one coefficient
    terms = data["entries"][1]["poly"]["terms"]
    assert terms[0]["coef"] == "1"
    terms[0]["coef"] = "2"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    code, out2, err = run_cli(capsys, "verify", str(path))
    assert code != 0
    assert "i=1" in err and "j=2" in err
    report = json.loads(out2)
    assert report["passed"] is False
    assert report["pair_failures"]


def test_delta_command(capsys):
    code, out, _ = run_cli(capsys, "delta", "--type", "B", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["delta"]["vars"] == 2
    exps = sorted(tuple(t["exp"]) for t in data["delta"]["terms"])
    assert exps == [(1, 3), (3, 1)]


def test_oracle_compare_command(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "--type", "A", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["construction_verified"] and data["oracle_verified"]


def test_bench_command(capsys):
    code, out, _ = run_cli(capsys, "bench", "--type", "B", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    for key in ("delta_seconds", "transfer_seconds", "build_seconds", "verify_seconds"):
        assert key in data["timings"]
    assert data["timings"]["verified"] is True


def test_seed_file_selector(tmp_path, capsys):
    from canoninv.polys import Polynomial
    from canoninv.scalars import QQ

    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    seeds = {"seeds": [(x**2 + y**2).to_json(), (x**4 + y**4).to_json()]}
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(seeds))
    code, out, _ = run_cli(
        capsys, "build", "--type", "B", "--rank", "2",
        "--seed", f"file:{path}", "--verify",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["passed"] is True


def test_seed_file_invalid_rejected(tmp_path, capsys):
    from canoninv.groups import ReflectionGroup, build_root_system
    from canoninv.polys import Polynomial
    from canoninv.scalars import QQ
    from canoninv.seeds import seed_invariants

    x, y = (Polynomial.variable(i, 2, QQ) for i in range(2))
    q = x**2 + y**2
    # A3 with p4 replaced by p2^2
    p2, p3, _p4 = seed_invariants(ReflectionGroup(build_root_system("A", 3))).polynomials
    for type_label, rank, polys in [("B", "2", [q, q * q]), ("A", "3", [p2, p3, p2 * p2])]:
        path = tmp_path / f"bad-{type_label}.json"
        path.write_text(json.dumps({"seeds": [p.to_json() for p in polys]}))
        code, _, err = run_cli(
            capsys, "build", "--type", type_label, "--rank", rank, "--seed", f"file:{path}"
        )
        assert code != 0
        assert "dependent" in err


def test_missing_rank_reports_cleanly(capsys):
    code, _, err = run_cli(capsys, "build", "--type", "B")
    assert code != 0 and "rank" in err


def test_float_dihedral_build(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--type", "I2", "--m", "7", "--verify"
    )
    assert code == 0
    data = json.loads(out)
    assert data["group"]["field"] == "float"
    assert data["verification"]["passed"] is True


def test_i2_requires_m(capsys):
    code, _, err = run_cli(capsys, "build", "--type", "I2")
    assert code != 0


def _b3_system(capsys):
    code, out, _ = run_cli(capsys, "build", "--type", "B", "--rank", "3")
    assert code == 0
    return json.loads(out)


def test_verify_rejects_forged_norm(tmp_path, capsys):
    data = _b3_system(capsys)
    assert data["entries"][0]["norm"] == "6"
    data["entries"][0]["norm"] = "999"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "f_1: stored norm 999 != <f_1, f_1> = 6" in err
    report = json.loads(out)
    assert report["stored_norm_failures"] == ["f_1: stored norm 999 != <f_1, f_1> = 6"]
    assert report["degree_label_failures"] == [] and report["passed"] is False


def test_verify_rejects_swapped_entries(tmp_path, capsys):
    data = _b3_system(capsys)
    first, second = data["entries"][:2]
    first["poly"], second["poly"] = second["poly"], first["poly"]
    first["norm"], second["norm"] = second["norm"], first["norm"]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["degree_label_failures"] == [
        "f_1: degree label 2 != degree 4",
        "f_2: degree label 4 != degree 2",
    ]
    assert report["degree_ok"] is True and report["passed"] is False


def test_verify_float_norm_checked_to_relative_tolerance(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "build", "--type", "I2", "--m", "7")
    data = json.loads(out)
    norm = float(data["entries"][1]["norm"])
    for factor, expected in ((1 + 1e-12, 0), (1 + 1e-6, 1)):
        data["entries"][1]["norm"] = repr(norm * factor)
        path = tmp_path / "i2-7.json"
        path.write_text(json.dumps(data))
        code, out2, _ = run_cli(capsys, "verify", str(path))
        assert code == expected
        assert len(json.loads(out2)["stored_norm_failures"]) == expected


def _assert_one_line_error(code, out, err, *needles):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_verify_malformed_files_exit_2(tmp_path, capsys):
    data = _b3_system(capsys)
    no_entries = dict(data)
    del no_entries["entries"]
    bad_coef = json.loads(json.dumps(data))
    bad_coef["entries"][0]["poly"]["terms"][0]["coef"] = "1/0"
    bad_norm = json.loads(json.dumps(data))
    bad_norm["entries"][1]["norm"] = "1/0"
    for name, payload, needle in [("no-entries", no_entries, "'entries'"),
                                  ("bad-coef", bad_coef, "'1/0'"),
                                  ("bad-norm", bad_norm, "'1/0'"),
                                  ("not-an-object", [1, 2], "malformed system")]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        _assert_one_line_error(*run_cli(capsys, "verify", str(path)), needle)


def test_seed_file_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "seeds.json"
    seed = {"vars": 2, "field": "Q", "terms": [{"exp": [2, 0], "coef": "1/0"}]}
    for payload, needle in [({"seeds": [seed]}, "'1/0'"),
                            ({"seeds": [{"vars": 2, "field": "Q"}]}, "'terms'")]:
        path.write_text(json.dumps(payload))
        _assert_one_line_error(*run_cli(capsys, "build", "--type", "B", "--rank", "2",
                                        "--seed", f"file:{path}"), needle)
