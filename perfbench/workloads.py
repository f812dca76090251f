"""The workloads: their jobs, what the seed chooses, and the output checks.

A job is a dict sent to worker.py.  The seed permutes the job order and
picks among inputs that must give the same answer: the angle d of the
counterexample orbit (any even d <= 4n with d/2 coprime to n), and, for
the genus-2 series, the orientable surface of genus 2 or the
non-orientable one with 4 cross-caps (both have m = 4).

Checks are semantic: series values are compared as exact RatFunc
equality against golden.json (the package's outputs when the benchmark
was added) or a closed form; verdicts, `match`, `groupoid_count` and
exit codes are compared exactly; the `log` field and formatting are not
checked.

`small=True` gives the shrunken variants the self-test runs: n = 2,
q = 3 and |mu| <= 3.
"""

import json
import math
import os
from fractions import Fraction

from charstacks import partitions as pt
from charstacks.exactalg import MPoly, RatFunc
from charstacks.symfunc import SymFunc

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "golden.json")) as fh:
    GOLDEN = json.load(fh)

EXIT_OK, EXIT_USAGE = 0, 2

LAYER_SPANS = {
    "cli": ["cli.main"],
    "series": ["charstack.series", "hlvkernel.omega", "hlvkernel.hook_H",
               "hlvkernel.hlv_HH", "symfunc.ple_log", "symfunc.mul",
               "symfunc.plethysm_pr", "symfunc.to_basis",
               "macdonald.modified_H", "macdonald.specialized_H",
               "exactalg.simplified", "exactalg.substitute",
               "exactalg.u_to_q"],
    "count": ["charstack.is_generic", "ffcount.enumerate_gl",
              "ffcount.orbit_members", "ffcount.count"],
    "macdonald": ["macdonald.modified_H", "macdonald.qt_inner",
                  "exactalg.simplified", "exactalg.substitute",
                  "symfunc.to_basis"],
}

# spans that must record calls in a workload's traced run
EXPECTED_SPANS = {
    "cli-small": LAYER_SPANS["cli"] + LAYER_SPANS["series"]
    + LAYER_SPANS["count"],
    "series-g2-k2": LAYER_SPANS["cli"] + LAYER_SPANS["series"],
    "macdonald-deg5": LAYER_SPANS["macdonald"],
}

NAMES = list(EXPECTED_SPANS)


def _var(name):
    return RatFunc(MPoly.var(name))


def _closed_forms():
    q, t, z, w = _var("q"), _var("t"), _var("z"), _var("w")
    gerbe = q * t * t + t
    return {
        "carlsson": gerbe * gerbe / (q * t * t - 1),
        "q-1": q - 1,
        "(z-w)^3": (z - w) ** 3,
    }


CLOSED = _closed_forms()


def _generic_d(n):
    return [d for d in range(2, 4 * n + 1, 2) if math.gcd(n, d // 2) == 1]


def _cli(job_id, argv, check, closed=None, probe=False):
    return {"id": job_id, "kind": "cli", "argv": argv, "check": check,
            "closed": closed, "probe": probe}


def _count(job_id, surface, zeta, q, probe=False):
    argv = ["count", *surface, "--n", "2", "--zeta", str(zeta), "--q", str(q)]
    return _cli(job_id, argv, "count", probe=probe)


def _cli_small(rng, small):
    r2, r3 = ["--nonorientable", "--r", "2"], ["--nonorientable", "--r", "3"]
    g1 = ["--orientable", "--g", "1"]
    verify = [("verify-n2", 2)] if small else [("verify-n2", 2), ("verify-n3", 3)]
    jobs = [_cli(job_id, ["verify-counterexample", "--n", str(n),
                          "--d", str(rng.choice(_generic_d(n)))],
                 "counterexample")
            for job_id, n in verify]
    jobs.append(_cli("hlv-1-m3", ["--format", "text", "hlv", "--mu", "(1)",
                                  "--m", "3"], "hlv", closed="(z-w)^3"))
    if small:
        jobs += [_count("count-r2-q3", r2, -1, 3),
                 _count("count-g1-q3", g1, -1, 3)]
    else:
        jobs += [
            _cli("eseries-r2-3", ["eseries", *r2, "--mu", "(3)"], "series",
                 closed="q-1"),
            _cli("mixed-r2-3", ["mixed", *r2, "--mu", "(3)"], "series",
                 closed="carlsson"),
            _cli("eseries-g1-21", ["eseries", *g1, "--mu", "(2,1)"], "series"),
            _cli("eseries-r1-21-21", ["eseries", "--nonorientable", "--r", "1",
                                      "--mu", "(2,1)|(2,1)"], "series"),
            _cli("mixed-r2-2-11", ["mixed", *r2, "--mu", "(2)|(1,1)"],
                 "series"),
            _count("count-r2-q5", r2, -1, 5),
            _count("count-r2-q7", r2, -1, 7),
            _count("count-r3-q5", r3, -1, 5),
            _count("count-g1-q5", g1, -1, 5),
        ]
    # zeta = 1 is a non-generic orbit, for which the formula is not claimed
    jobs += [_count("probe-r2-q3", r2, 1, 3, probe=True),
             _count("probe-g1-q3", g1, 1, 3, probe=True)]
    return jobs


def _series_g2_k2(rng, small):
    mu = "(2)|(1,1)" if small else "(2,1)|(2,1)"
    tag = "2-11" if small else "21-21"
    surfaces = [["--orientable", "--g", "2"], ["--nonorientable", "--r", "4"]]
    return [_cli(f"{which}-m4-{tag}",
                 [which, *rng.choice(surfaces), "--mu", mu], "series")
            for which in ("eseries", "mixed")]


def _macdonald_deg5(rng, small):
    top, orth_top = (3, 3) if small else (5, 4)
    shapes = [mu for n in range(1, top + 1) for mu in pt.enumerate_partitions(n)]
    pairs = [(a, b) for n in range(2, orth_top + 1)
             for i, a in enumerate(pt.enumerate_partitions(n))
             for b in pt.enumerate_partitions(n)[i + 1:]]
    rng.shuffle(shapes)
    rng.shuffle(pairs)
    return [{"id": f"macdonald-{top}", "kind": "macdonald", "shapes": shapes,
             "pairs": pairs, "check": "macdonald", "probe": False}]


BUILDERS = {"cli-small": _cli_small, "series-g2-k2": _series_g2_k2,
            "macdonald-deg5": _macdonald_deg5}


def jobs(name, rng, small=False):
    """The workload's jobs, probes last, with inputs chosen by `rng`."""
    return BUILDERS[name](rng, small)


# -- checks ------------------------------------------------------------------

def _series_fields(report):
    return {key: report[key] for key in ("generic", "polynomial_in_q_t",
                                         "checks")}


def _check_counterexample(job, report):
    n, d = (int(job["argv"][i]) for i in (2, 4))
    if (report["n"], report["d"]) != (n, d):
        return "n or d differs from the input"
    if not (report["confirmed"] and report["generic"]
            and all(report["checks"].values())):
        return "verdict is not confirmed"
    if not RatFunc.parse(report["mixed_series"]) == CLOSED["carlsson"]:
        return "mixed series differs from the Carlsson value"
    if not RatFunc.parse(report["eseries"]) == CLOSED["q-1"]:
        return "E-series differs from q - 1"
    return None


def _check_series(job, report):
    golden = GOLDEN["cli"][job["id"]]
    if not RatFunc.parse(report["value"]) == RatFunc.parse(golden["value"]):
        return "value differs from the golden value"
    if job["closed"] and not RatFunc.parse(report["value"]) == \
            CLOSED[job["closed"]]:
        return f"value differs from {job['closed']}"
    if _series_fields(report) != _series_fields(golden):
        return "verdicts differ from the golden ones"
    return None


def _check_count(job, report):
    count = Fraction(report["groupoid_count"])
    if count != Fraction(GOLDEN["cli"][job["id"]]["groupoid_count"]):
        return "groupoid count differs from the golden count"
    if job["probe"]:
        if report["match"] is not None:
            return "formula verdict reported for a non-generic orbit"
        return None
    if report["match"] is not True or report["formula_value"] is None or \
            Fraction(report["formula_value"]) != count:
        return "count does not equal the formula at q"
    return None


def _check_macdonald(job, report):
    if report["failed_certificates"]:
        return "; ".join(report["failed_certificates"])
    golden = GOLDEN["macdonald"]
    for mu in job["shapes"]:
        key = pt.partition_text(tuple(mu))
        n = sum(mu)
        got = SymFunc.parse(report["H"].get(key, ""), 1, n)
        if not got == SymFunc.parse(golden[key], 1, n):
            return f"modified H_{key} differs from the golden table"
    return None


def check(job, result):
    """None if the worker's result is correct, else the reason it is not."""
    if result is None:
        return "the job crashed or timed out"
    code, output = result["exit"], result["output"]
    kind = job["check"]
    if job["probe"] and code == EXIT_USAGE:
        return None  # refused: the formula is not claimed here
    if code != EXIT_OK:
        return f"exit code {code}"
    try:
        if kind == "hlv":
            ok = RatFunc.parse(output) == CLOSED[job["closed"]]
            return None if ok else "HH differs from (z-w)^3"
        return {"counterexample": _check_counterexample,
                "series": _check_series,
                "count": _check_count,
                "macdonald": _check_macdonald}[kind](job, json.loads(output))
    except Exception as exc:  # any malformed output is a failed job
        return f"unreadable output ({type(exc).__name__}: {exc})"
