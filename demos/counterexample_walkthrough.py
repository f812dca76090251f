"""Step-by-step walkthrough of the flagship example: the non-orientable
surface with two cross-caps and one puncture, with the generic central orbit
in GL_2, where the conjectural mixed Poincare series formula disagrees with
the actual mixed Poincare series of the character stack.

Run:  python3 demos/counterexample_walkthrough.py
"""

import json
from fractions import Fraction

from charstacks.exactalg import ONE, Q, T
from charstacks.hlvkernel import hlv_HH
from charstacks.macdonald import modified_H
from charstacks.charstack import (OrbitSpec, nonorientable, is_generic,
                                  d_mu, eseries, mixed_series,
                                  counterexample_report)

n, d = 2, 2
surface = nonorientable(r=2, k=1)
mus = ((n,),)

print("=== 1. The orbit and its genericity ===")
orbit = OrbitSpec.central(Fraction(d, 2 * n), n)
print(f"central orbit: eigenvalue angle {Fraction(d, 2*n)} (i.e. e^(pi i d/n)),"
      f" multiplicity {n}")
ok, witness = is_generic([orbit])
print(f"generic: {ok}")

print("\n=== 2. Macdonald input ===")
for mu in ((2,), (1, 1)):
    print(f"H~_{mu} = ", end="")
    print(", ".join(f"{k[0]}: {c.text()}"
                    for k, c in sorted(modified_H(mu).to_basis('s').items())))

print("\n=== 3. The kernel function ===")
HH = hlv_HH(mus, surface.m)
print(f"HH_((2)),2(z,w) = {HH.text()}")

print("\n=== 4. Dimension and the two series ===")
print(f"d_mu = {d_mu(surface, mus)}")
ese = eseries(surface, mus, orbits=[orbit])
mix = mixed_series(surface, mus, orbits=[orbit])
print(f"E-series        = {ese.value.text()}")
print(f"mixed (formula) = {mix.value.text()}")

print("\n=== 5. The three verdicts ===")
qt2 = Q * T * T
carlsson = (qt2 + T) ** 2 / (qt2 - ONE)
gerbe = qt2 + T  # the true mixed Poincare series of the mu_2-gerbe over C*
print(f"(a) formula == (qt^2+t)^2/(qt^2-1):      {mix.value == carlsson}")
print(f"(b) formula != qt^2+t (true series):     {mix.value != gerbe}")
from charstacks.exactalg import RatFunc
print(f"(c) formula at t=-1 == E-series (q-1):   "
      f"{mix.value.substitute({'t': RatFunc(-1)}) == ese.value}")

print("\n=== 6. Packaged report ===")
report = counterexample_report(n, d)
print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
