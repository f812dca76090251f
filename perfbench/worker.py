"""Run one benchmark job in a fresh interpreter and print one JSON line.

Usage: python3 perfbench/worker.py '<job spec as JSON>'

The spec names the job kind, its inputs and whether to trace; kind
"import" runs no job and only reports the import.  The JSON line holds
the time `import charstacks` took, the exit code, the job's output (what
`cli.main` printed, or the Macdonald tables as text), the wall and CPU
time from the entry call to its return, this process's peak RSS and,
when traced, the span tallies.

Host speed on a shared machine drifts by tens of percent over seconds to
minutes, so every interval also reports `speed`: the mean duration of a
fixed pure-Python loop (`spin`) sampled in this process around and
every SPIN_PERIOD_S during the interval.  The samples' own time is taken
out of the interval's time and of any span open at the time.  run.py
divides by this speed.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
SPIN_PERIOD_S = 0.1


def spin():
    """Fixed work that depends on nothing but the host's speed: sums of
    Fractions in a dict keyed by tuples, the inner loop of the package's
    polynomial arithmetic, tracks its speed better than integer work."""
    terms, c = {}, Fraction(1, 3)
    for i in range(1000):
        key = (i % 37, i % 11)
        terms[key] = terms.get(key, 0) + c * i
    return terms


def timed(work, rec=None):
    """(work(), wall s, CPU s, mean sample durations), the samples taken
    out of the times and, when `rec` records spans, out of its spans."""
    walls, cpus = [], []

    def sample(*_):
        w, c = time.perf_counter(), time.process_time()
        spin()
        walls.append(time.perf_counter() - w)
        cpus.append(time.process_time() - c)
        if rec is not None:
            rec.pause(walls[-1])

    sample()
    signal.signal(signal.SIGALRM, sample)
    t0, c0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, SPIN_PERIOD_S, SPIN_PERIOD_S)
    try:
        result = work()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        inside = slice(1, len(walls))
        wall -= sum(walls[inside])
        cpu -= sum(cpus[inside])
    sample()
    speed = {"wall_s": sum(walls) / len(walls), "cpu_s": sum(cpus) / len(cpus)}
    return result, wall, cpu, speed


def cli_job(spec):
    """Run `cli.main` on the generated argv; output is what it printed."""
    from charstacks import cli

    def work():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(spec["argv"]))
        return code, buf.getvalue()

    return work, lambda result: result


def macdonald_job(spec):
    """The certificate tables: H, Schur expansion, q<->t symmetry, and
    pairwise orthogonality of P under the (q,t) form."""
    from charstacks import macdonald as md
    from charstacks import partitions as pt
    from charstacks.exactalg import ONE, Q, T

    swap = {"q": T, "t": Q}

    def work():
        tables, bad = {}, []
        for mu in map(tuple, spec["shapes"]):
            H = md.modified_H(mu)
            tables[mu] = H
            schur = md.schur_coefficients(mu)
            if not schur[(sum(mu),)] == ONE:
                bad.append(f"schur top coefficient of {mu}")
            for c in schur.values():
                p = c.simplified().as_mpoly()
                if p is None or not all(x.denominator == 1 and x > 0
                                        for x in p.terms.values()):
                    bad.append(f"schur positivity of {mu}")
            if not H.map_coefficients(lambda c: c.substitute(swap)) == \
                    md.modified_H(pt.conjugate(mu)):
                bad.append(f"q<->t symmetry of {mu}")
        for a, b in spec["pairs"]:
            if not md.qt_inner(md.macdonald_P(tuple(a)),
                               md.macdonald_P(tuple(b))).is_zero():
                bad.append(f"orthogonality of {a}, {b}")
        return (1 if bad else 0), (tables, bad)

    def render(result):
        tables, bad = result
        return json.dumps({
            "H": {pt.partition_text(mu): H.text()
                  for mu, H in sorted(tables.items())},
            "failed_certificates": bad,
        }, sort_keys=True)

    return work, render


JOBS = {"cli": cli_job, "macdonald": macdonald_job}


def import_package():
    sys.path.insert(0, SRC)
    import charstacks
    if not os.path.abspath(charstacks.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"charstacks imported from {charstacks.__file__}")


def main():
    spec = json.loads(sys.argv[1])
    _, import_s, _, import_speed = timed(import_package)
    out = {"import_s": import_s, "import_speed": import_speed}
    if spec["kind"] != "import":
        import charstacks.cli  # noqa: F401  (every module before wrapping)
        import spans
        rec = None
        if spec["trace"]:
            rec = spans.Recorder()
            spans.install(rec)
        else:
            spans.assert_untouched()
        work, render = JOBS[spec["kind"]](spec)
        (code, result), wall, cpu, speed = timed(work, rec)
        out.update({
            "exit": code,
            "output": render(result),
            "wall_s": wall,
            "cpu_s": cpu,
            "speed": speed,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "trace": rec.summary() if rec else None,
        })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
