import json

import pytest

from charstacks.cli import main, parse_multipartition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hlv_single_box(capsys):
    code, out, _ = run(capsys, "hlv", "--mu", "(1)", "--m", "3",
                       "--format", "text")
    assert code == 0
    assert out.strip() == "-1*w^3 + 3*z^1*w^2 + -3*z^2*w^1 + 1*z^3"


def test_hlv_m_zero(capsys):
    code, out, _ = run(capsys, "hlv", "--mu", "(1)", "--m", "0",
                       "--format", "text")
    assert code == 0 and out.strip() == "1"


def test_hlv_bad_partition(capsys):
    code, _, err = run(capsys, "hlv", "--mu", "(bogus", "--m", "2")
    assert code == 2 and "error" in err


def test_usage_error_exit_code(capsys):
    assert main(["nonsense-command"]) == 2


def test_eseries(capsys):
    code, out, _ = run(capsys, "eseries", "--nonorientable", "--r", "2",
                       "--mu", "(2)", "--format", "text")
    assert code == 0 and out.strip() == "-1 + 1*q^1"


def test_mixed_r1(capsys):
    code, out, _ = run(capsys, "mixed", "--nonorientable", "--r", "1",
                       "--k", "1", "--mu", "(1)", "--format", "text")
    assert code == 0
    assert out.strip() == "(1*t^1 + 1*q^1*t^2) / (-1 + 1*q^1*t^2)"


def test_mixed_orientable_json(capsys):
    code, out, _ = run(capsys, "mixed", "--orientable", "--g", "1",
                       "--mu", "(2)")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == \
        "(1*t^2 + 2*q^1*t^3 + 1*q^2*t^4) / (-1 + 1*q^1*t^2)"


def test_verify_counterexample(capsys):
    code, out, _ = run(capsys, "verify-counterexample", "--n", "2", "--d", "2")
    assert code == 0
    data = json.loads(out)
    assert data["confirmed"] is True
    assert all(data["checks"].values())


def test_verify_counterexample_bad_d(capsys):
    code, _, err = run(capsys, "verify-counterexample", "--n", "2", "--d", "1")
    assert code == 2 and "error" in err


def test_count_flagship(capsys):
    code, out, _ = run(capsys, "count", "--nonorientable", "--r", "2",
                       "--n", "2", "--zeta", "-1", "--q", "3")
    assert code == 0
    data = json.loads(out)
    assert data["groupoid_count"] == "2" and data["match"] is True


def test_count_n1(capsys):
    code, out, _ = run(capsys, "count", "--nonorientable", "--r", "3",
                       "--n", "1", "--q", "7", "--format", "text")
    assert code == 0 and "36" in out and "True" in out


def test_count_resource_cap(capsys):
    # 3 is a primitive cube root of unity mod 13, so the orbit is generic
    code, _, err = run(capsys, "count", "--nonorientable", "--r", "2",
                       "--n", "3", "--q", "13", "--zeta", "3")
    assert code == 3 and "cap" in err


def test_count_nongeneric_refused(capsys):
    # -I_3 has determinant -1 and (-1)^2 = 1 on a 2-dim subspace: the
    # formula is not claimed, so no verdict is given
    code, out, err = run(capsys, "count", "--nonorientable", "--r", "2",
                         "--n", "3", "--q", "3", "--zeta", "-1")
    assert code == 2 and out == ""
    assert "not generic" in err and "v = 2" in err
    code, out, err = run(capsys, "count", "--orientable", "--g", "1",
                         "--n", "2", "--q", "3", "--zeta", "1")
    assert code == 2 and out == "" and "not generic" in err


def test_json_deterministic(capsys):
    args = ["eseries", "--nonorientable", "--r", "2", "--mu", "(2)"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_parse_multipartition():
    assert parse_multipartition("(2,1)|(1,1,1)") == ((2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        parse_multipartition("(2)|(1)")
