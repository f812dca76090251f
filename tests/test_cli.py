import hashlib
import json
import os
import subprocess
import sys

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


@pytest.mark.parametrize("argv", [
    ["hlv", "--mu", "()", "--m", "1"],
    ["eseries", "--nonorientable", "--r", "2", "--mu", "()"],
])
def test_empty_multipartition_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "size >= 1" in err


def test_usage_error_exit_code(capsys):
    assert main(["nonsense-command"]) == 2


def test_eseries(capsys):
    code, out, _ = run(capsys, "eseries", "--nonorientable", "--r", "2",
                       "--mu", "(2)", "--format", "text")
    assert code == 0 and out.strip() == "-1 + 1*q^1"


def test_mixed_r1(capsys):
    code, out, _ = run(capsys, "mixed", "--nonorientable", "--r", "1",
                       "--mu", "(1)", "--format", "text")
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


@pytest.mark.parametrize("which", ["eseries", "mixed"])
def test_series_nongeneric_refused(capsys, which):
    # the orbit at angle 0 is I_2, with det 1 on a 1-dim subspace: no
    # formula is claimed, so no value is printed
    argv = [which, "--nonorientable", "--r", "2", "--mu", "(2)"]
    code, out, err = run(capsys, *argv, "--central-angle", "0")
    assert code == 2 and out == ""
    assert "not generic" in err and "v = 1, angle sum 0" in err
    code, out, _ = run(capsys, *argv, "--central-angle", "1/2")
    assert code == 0 and json.loads(out)["generic"] is True


@pytest.mark.parametrize("q, message", [
    (0, "q must be an odd prime <= 13: 0"),
    (2, "q must be an odd prime <= 13: 2"),
    (4, "q must be prime: 4"),
])
def test_count_bad_field_refused(capsys, q, message):
    # the field is checked before the orbit's genericity, which computes
    # mod q: q = 4 used to end in a KeyError (exit 1), q = 0 in a modulo
    # by zero and q = 2 in a non-generic verdict
    code, out, err = run(capsys, "count", "--nonorientable", "--r", "2",
                         "--n", "2", "--zeta", "-1", "--q", str(q))
    assert code == 2 and out == "" and message in err


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


# stdout of the commands, pinned literally: the stored forms of the values
# (term order, signs, coefficients) and their LaTeX must not drift
ESERIES_R2_3 = """\
{
  "checks": {
    "d_mu": 2,
    "half_integer_powers": false
  },
  "formula": "eseries-nonorientable",
  "generic": null,
  "log": [
    "HH_mu_m = 1*w^2 + -2*z^1*w^1 + 1*z^2"
  ],
  "mu": [
    [
      3
    ]
  ],
  "polynomial_in_q_t": true,
  "surface": {
    "k": 1,
    "kind": "nonorientable",
    "r": 2
  },
  "value": "-1 + 1*q^1"
}
"""

MIXED_R2_2_11 = """\
{
  "checks": {
    "d_mu": 4,
    "half_integer_powers": false
  },
  "formula": "mixed-nonorientable",
  "generic": null,
  "log": [
    "HH_mu_m = 1*w^2 + 1*w^4 + -2*z^1*w^1 + -2*z^1*w^3 + 1*z^2 + 2*z^2*w^2 \
+ -2*z^3*w^1 + 1*z^4"
  ],
  "mu": [
    [
      2
    ],
    [
      1,
      1
    ]
  ],
  "polynomial_in_q_t": false,
  "surface": {
    "k": 2,
    "kind": "nonorientable",
    "r": 2
  },
  "value": "(1*t^4 + 1*q^1*t^4 + 2*q^1*t^5 + 2*q^2*t^5 + 2*q^2*t^6 \
+ 1*q^3*t^6 + 2*q^3*t^7 + 1*q^4*t^8) / (-1 + 1*q^1*t^2)"
}
"""


VERIFY_N3_D2 = """\
{
  "checks": {
    "differs_from_gerbe_series": true,
    "matches_carlsson_value": true,
    "t_minus_one_matches_eseries": true
  },
  "confirmed": true,
  "d": 2,
  "eseries": "-1 + 1*q^1",
  "generic": true,
  "mixed_series": "(1*t^2 + 2*q^1*t^3 + 1*q^2*t^4) / (-1 + 1*q^1*t^2)",
  "n": 3
}
"""


@pytest.mark.parametrize("argv, expected", [
    (["eseries", "--nonorientable", "--r", "2", "--mu", "(3)"], ESERIES_R2_3),
    (["mixed", "--nonorientable", "--r", "2", "--mu", "(2)|(1,1)"],
     MIXED_R2_2_11),
    (["hlv", "--mu", "(2)", "--m", "1", "--format", "latex"],
     "\\frac{1}{1 + z^{2}}\n"),
    # the "+ -" of a negative term is rewritten to "- "
    (["eseries", "--orientable", "--g", "1", "--mu", "(2,1)",
      "--format", "latex"], "-1 + q^{2} - q^{3} + q^{5}\n"),
    (["mixed", "--nonorientable", "--r", "1", "--mu", "(2)",
      "--format", "latex"], "\\frac{q^{-1}t^{-2}}{-1 + q^{2}t^{4}}\n"),
    (["verify-counterexample", "--n", "3", "--d", "2"], VERIFY_N3_D2),
], ids=["eseries-r2-3", "mixed-r2-2-11", "hlv-2-m1-latex",
        "eseries-g1-21-latex", "mixed-r1-2-latex", "verify-n3-d2"])
def test_series_stdout_pinned(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == expected


COUNT_R2_Q3 = """\
{
  "formula_value": "2",
  "gl_order": 48,
  "groupoid_count": "2",
  "match": true,
  "n": 2,
  "orbits": [
    {
      "eigenvalues": [
        [
          2,
          2
        ]
      ]
    }
  ],
  "q": 3,
  "raw_count": 96,
  "surface": {
    "k": 1,
    "kind": "nonorientable",
    "r": 2
  }
}
"""


def test_count_stdout_pinned(capsys):
    code, out, err = run(capsys, "count", "--nonorientable", "--r", "2",
                         "--n", "2", "--zeta", "-1", "--q", "3")
    assert code == 0 and err == ""
    assert out == COUNT_R2_Q3


# sha256 of stdout for the largest stored forms the CLI prints: the
# genus-2 E-series and the r = 4 mixed series for (2,1)|(2,1)
@pytest.mark.parametrize("argv, digest", [
    (["eseries", "--orientable", "--g", "2"],
     "1e6bc49ea6155c9b0b9c2f2fa635cb0c3e4166b85ab6963e5e8693c748db43f3"),
    (["mixed", "--nonorientable", "--r", "4"],
     "865ecac65d59d29d0a6415961cf54773a741bcb2eab8be0b77c5652a237fba31"),
], ids=["eseries-g2-21-21", "mixed-r4-21-21"])
def test_large_series_stdout_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv, "--mu", "(2,1)|(2,1)")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for two multi-row jobs that truncate at mu below its
# degree: a cli-small series job and a text HH of two different shapes
@pytest.mark.parametrize("argv, digest", [
    (["eseries", "--nonorientable", "--r", "1", "--mu", "(2,1)|(2,1)"],
     "f7c2eb0bc801e1791b7c7c5b5137dae936103f762d57add6a2f73e2d8569619a"),
    (["--format", "text", "hlv", "--mu", "(2,1)|(1,1,1)", "--m", "1"],
     "dad22101da13314028a8c5d2826b9283d781c8a215b671c9fcae4d3dfed0524b"),
], ids=["eseries-r1-21-21", "hlv-m1-21-111"])
def test_multi_row_stdout_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_count_gl3_guard_names_itself(capsys):
    # the guard on enumerating GL_3(F_q), q > 3, is not the user's cap
    code, out, err = run(capsys, "count", "--nonorientable", "--r", "1",
                         "--n", "3", "--q", "7", "--zeta", "2",
                         "--cap", "1e12")
    assert code == 3 and out == ""
    assert "3e+05" not in err and "cap 1e+12" not in err
    assert "GL_3(F_7)" in err and "q = 3" in err


def test_count_cap_checked_before_formula(capsys, monkeypatch):
    def no_formula(*args, **kwargs):
        raise AssertionError("the formula was computed for a refused count")

    monkeypatch.setattr("charstacks.charstack.eseries", no_formula)
    code, _, err = run(capsys, "count", "--nonorientable", "--r", "2",
                       "--n", "3", "--q", "13", "--zeta", "3")
    assert code == 3 and "cap" in err


def test_count_size_checked_before_genericity(capsys, monkeypatch):
    # 1*I_3 is not generic, but the count is over the cap: the size is
    # refused first, and the E-series, which refuses the orbit, never runs
    def no_formula(*args, **kwargs):
        raise AssertionError("the formula was computed for a refused count")

    monkeypatch.setattr("charstacks.charstack.eseries", no_formula)
    code, out, err = run(capsys, "count", "--nonorientable", "--r", "2",
                         "--n", "3", "--zeta", "1", "--q", "13")
    assert code == 3 and out == "" and "cap" in err


@pytest.mark.parametrize("cap", [[], ["--cap", "1e40"]],
                         ids=["default-cap", "cap-1e40"])
def test_count_n4_refused_as_usage(capsys, monkeypatch, cap):
    # n outside 1..3 is a usage error, found before the cost estimate and
    # before the formula, whatever the cap
    def no_formula(*args, **kwargs):
        raise AssertionError("the formula was computed for a refused count")

    monkeypatch.setattr("charstacks.charstack.eseries", no_formula)
    code, out, err = run(capsys, "count", "--nonorientable", "--r", "2",
                         "--n", "4", "--zeta", "2", "--q", "5", *cap)
    assert code == 2 and out == "" and "n <= 3" in err


def test_count_nan_cap_refused_as_usage(capsys, monkeypatch):
    # est > nan is never true, so a NaN cap would let this count run
    def no_formula(*args, **kwargs):
        raise AssertionError("the formula was computed for a refused count")

    monkeypatch.setattr("charstacks.charstack.eseries", no_formula)
    code, out, err = run(capsys, "count", "--nonorientable", "--r", "300",
                         "--n", "2", "--q", "13", "--zeta", "-1",
                         "--cap", "nan")
    assert code == 2 and out == "" and "cost cap" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_count_n_below_1_refused_as_usage(capsys, monkeypatch, n):
    # the range of n is checked before the orbit is built from it
    def no_formula(*args, **kwargs):
        raise AssertionError("the formula was computed for a refused count")

    monkeypatch.setattr("charstacks.charstack.eseries", no_formula)
    code, out, err = run(capsys, "count", "--nonorientable", "--r", "2",
                         "--n", n, "--zeta", "2", "--q", "5")
    assert code == 2 and out == "" and "n <= 3" in err
    assert "multiplicities" not in err


def test_runs_without_sympy():
    """The package needs no sympy: a blocked import must not matter."""
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from charstacks.cli import main\n"
        "assert main(['verify-counterexample', '--n', '3', '--d', '2']) == 0\n"
        "assert main(['eseries', '--orientable', '--g', '2',\n"
        "             '--mu', '(2,1)|(2,1)']) == 0\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n, code, err", [("2", 0, ""),
                                          ("1", 2, "n must be >= 2")])
def test_module_entry_point_exit_code(n, code, err):
    """`python -m charstacks.cli` exits through `entry()` with main's code."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "charstacks.cli",
                           "verify-counterexample", "--n", n, "--d", "2"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert bool(proc.stdout) == (code == 0) and err in proc.stderr
