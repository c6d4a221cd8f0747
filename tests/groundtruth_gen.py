"""Regenerate tests/data/groundtruth_jets.json (not collected by pytest).

For a handful of exact metrics, every 1+3 variable is derived from first
principles with sympy: frame commutators give the connection variables, the
Riemann tensor gives the Weyl parts, and the Einstein tensor defines the
matter so that each case is an exact solution by construction.  The frozen
jets give the test suite metric-level ground truth without paying the
computer-algebra cost at test time.

Usage: python3 tests/groundtruth_gen.py
"""

import json
import pathlib
import sys

import numpy as np
import sympy as sp

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from conftest import densified  # noqa: E402

from f13.frame_equations import JetArrays  # noqa: E402

ETA = sp.diag(-1, 1, 1, 1)
# 4D orientation fixed by eta_{0123} = -1 for a right-handed frame,
# matching eps_{123} = +1 in the package conventions
S4 = -1

_FIELDS = ("mu", "p", "Lam", "Theta", "q", "udot", "omega", "Omega", "a",
           "pi", "sigma", "n", "E", "H")


def lc3(i, j, k):
    return int(sp.LeviCivita(i, j, k))


def lc4(a, b, c, d):
    return int(sp.LeviCivita(a, b, c, d))


def build_jet(coords, frame, subs, Lam=0):
    E = sp.Matrix.hstack(*frame)
    ginv = E * ETA * E.T
    g = ginv.inv()
    for a in range(4):
        for b in range(4):
            val = complex(sp.N((frame[a].T * g * frame[b])[0].subs(subs)))
            assert abs(val - complex(ETA[a, b])) < 1e-12, (a, b, val)
    det = float(sp.N(E.det().subs(subs)))
    assert det > 0, "frame must be right-handed for the fixed orientation"

    def bracket(u, v):
        return sp.Matrix([
            sum(u[nu] * sp.diff(v[m], coords[nu]) - v[nu] * sp.diff(u[m], coords[nu])
                for nu in range(4)) for m in range(4)])

    Einv = E.inv()
    gamma = {}
    for a in range(4):
        for b in range(a + 1, 4):
            coeffs = Einv * bracket(frame[a], frame[b])
            for c in range(4):
                gamma[(c, a, b)] = coeffs[c]
                gamma[(c, b, a)] = -coeffs[c]
    G = lambda c, a, b: gamma.get((c, a, b), sp.S(0))

    udot = [G(0, 0, al) for al in (1, 2, 3)]
    M = sp.Matrix(3, 3, lambda be, al: -G(be + 1, 0, al + 1))
    Theta = sp.trace(M)
    sigma = (M + M.T) / 2 - Theta * sp.eye(3) / 3
    A = (M - M.T) / 2
    X = [sum(lc3(g_, b, a) * A[b, a] for a in range(3) for b in range(3)) / 2
         for g_ in range(3)]
    omega = [-sp.Rational(1, 4) * sum(lc3(d, al, be) * G(0, al + 1, be + 1)
                                      for al in range(3) for be in range(3))
             for d in range(3)]
    Omega = [omega[i] - X[i] for i in range(3)]
    a_vec = [sum(G(gg, be + 1, gg) for gg in range(1, 4)) / 2 for be in range(3)]
    raw = sp.Matrix(3, 3, lambda d, al: sum(
        lc3(b, g_, d) * G(al + 1, b + 1, g_ + 1)
        for b in range(3) for g_ in range(3)) / 2)
    n_mat = (raw + raw.T) / 2

    Gam = [[[sum(ginv[m, d] * (sp.diff(g[d, b], coords[c]) + sp.diff(g[d, c], coords[b])
                               - sp.diff(g[b, c], coords[d])) / 2 for d in range(4))
             for c in range(4)] for b in range(4)] for m in range(4)]
    Riem = [[[[sp.diff(Gam[m][b][d], coords[c]) - sp.diff(Gam[m][b][c], coords[d])
               + sum(Gam[m][e][c] * Gam[e][b][d] - Gam[m][e][d] * Gam[e][b][c]
                     for e in range(4))
               for d in range(4)] for c in range(4)] for b in range(4)] for m in range(4)]
    Rlow = [[[[sum(g[m, w] * Riem[w][b][c][d] for w in range(4))
               for d in range(4)] for c in range(4)] for b in range(4)] for m in range(4)]
    Ric = sp.Matrix(4, 4, lambda b, d: sum(Riem[a][b][a][d] for a in range(4)))
    Rs = sum(ginv[i, j] * Ric[i, j] for i in range(4) for j in range(4))

    def fR(a, b, c, d):
        return sum(Rlow[m][nn][r][s] * frame[a][m] * frame[b][nn] * frame[c][r] * frame[d][s]
                   for m in range(4) for nn in range(4) for r in range(4) for s in range(4))

    Ric_f = sp.Matrix(4, 4, lambda a, b: sum(
        Ric[m, nn] * frame[a][m] * frame[b][nn] for m in range(4) for nn in range(4)))
    G_f = sp.Matrix(4, 4, lambda a, b: Ric_f[a, b] - Rs * ETA[a, b] / 2)

    def weyl(a, b, c, d):
        t1 = (ETA[a, c] * Ric_f[d, b] - ETA[a, d] * Ric_f[c, b]
              - ETA[b, c] * Ric_f[d, a] + ETA[b, d] * Ric_f[c, a]) / 2
        t2 = Rs * (ETA[a, c] * ETA[d, b] - ETA[a, d] * ETA[c, b]) / 6
        return fR(a, b, c, d) - t1 + t2

    E_t = sp.Matrix(3, 3, lambda al, be: weyl(al + 1, 0, be + 1, 0))
    H_t = sp.Matrix(3, 3, lambda al, be: sum(
        S4 * lc4(al + 1, 0, e, f) * ETA[e, e] * ETA[f, f] * weyl(e, f, be + 1, 0)
        for e in range(4) for f in range(4)) / 2)

    mu = G_f[0, 0] - Lam
    q = [-G_f[0, al + 1] for al in range(3)]
    p = sum(G_f[al + 1, al + 1] for al in range(3)) / 3 + Lam
    pi = sp.Matrix(3, 3, lambda i, j: G_f[i + 1, j + 1]
                   + (Lam if i == j else 0) - (p if i == j else 0))

    entries = {("Lam", ()): np.asarray(float(Lam))}

    def ev(expr):
        return float(sp.N(sp.sympify(expr).subs(subs)))

    def eder(expr, a):
        d = sum(frame[a][m] * sp.diff(sp.sympify(expr), coords[m]) for m in range(4))
        return float(sp.N(d.subs(subs)))

    def put(name, index, expr):
        entries[(name, index)] = np.asarray(ev(expr))
        for a in range(4):
            entries[("d" + name, (a,) + index)] = np.asarray(eder(expr, a))

    for name, expr in (("mu", mu), ("p", p), ("Theta", Theta)):
        put(name, (), expr)
    for name, exprs in (("q", q), ("udot", udot), ("omega", omega),
                        ("Omega", Omega), ("a", a_vec)):
        for i in range(3):
            put(name, (i,), exprs[i])
    for name, m in (("pi", pi), ("sigma", sigma), ("n", n_mat),
                    ("E", E_t), ("H", H_t)):
        for i in range(3):
            for j in range(3):
                put(name, (i, j), m[i, j])
    return JetArrays((), entries)


def cases():
    t, x, y, z = sp.symbols('t x y z', real=True)
    coords = [t, x, y, z]
    out = {}

    # Kasner vacuum (2/3, 2/3, -1/3): shear and electric Weyl active
    p1, p2, p3 = sp.Rational(2, 3), sp.Rational(2, 3), sp.Rational(-1, 3)
    frame = [sp.Matrix([1, 0, 0, 0]), sp.Matrix([0, t**-p1, 0, 0]),
             sp.Matrix([0, 0, t**-p2, 0]), sp.Matrix([0, 0, 0, t**-p3])]
    out["kasner"] = (coords, frame, {t: sp.Rational(7, 5), x: 0, y: 0, z: 0}, 0)

    # generic diagonal metric: q, pi, udot, sigma, a, n, E, H all nonzero
    A = 1 + x**2 / 8 + t**2 / 10
    B = 1 + t**2 / 7 + y**2 / 9
    C = 1 + z**2 / 6 + t * x / 20
    D = 1 + y**2 / 5 + t / 4
    frame = [sp.Matrix([1 / A, 0, 0, 0]), sp.Matrix([0, 1 / B, 0, 0]),
             sp.Matrix([0, 0, 1 / C, 0]), sp.Matrix([0, 0, 0, 1 / D])]
    out["generic_diagonal"] = (coords, frame,
                               {t: sp.Rational(3, 10), x: sp.Rational(7, 10),
                                y: sp.Rational(-2, 5), z: sp.Rational(1, 5)}, 0)

    # Goedel universe: rotating dust with negative cosmological constant
    ag = sp.Rational(3, 4)
    frame = [sp.Matrix([1, 0, 0, 0]), sp.Matrix([0, 1, 0, 0]),
             sp.Matrix([-sp.sqrt(2), 0, sp.sqrt(2) * sp.exp(-ag * x), 0]),
             sp.Matrix([0, 0, 0, 1])]
    out["godel"] = (coords, frame, {t: 0, x: sp.Rational(1, 3), y: 0, z: 0},
                    -float(ag**2) / 2)

    # vacuum pp-wave (A = x^2 - y^2): magnetic Weyl active
    s = (x**2 - y**2) / 2
    frame = [sp.Matrix([(2 + s) / 2, 0, 0, s / 2]),
             sp.Matrix([0, 1, 0, 0]),
             sp.Matrix([0, 0, 1, 0]),
             sp.Matrix([-s / 2, 0, 0, (2 - s) / 2])]
    out["pp_wave"] = (coords, frame,
                      {t: 0, x: sp.Rational(2, 5), y: sp.Rational(1, 5), z: 0}, 0)
    return out


def main():
    data = {}
    for name, (coords, frame, subs, Lam) in cases().items():
        print(f"building {name} ...", flush=True)
        ja = densified(build_jet(coords, frame, subs, Lam=Lam))
        entry = {}
        for f in _FIELDS:
            entry[f] = np.asarray(getattr(ja, f)).tolist()
            if f != "Lam":
                entry["d" + f] = np.asarray(getattr(ja, "d" + f)).tolist()
        data[name] = entry
    out_path = pathlib.Path(__file__).parent / "data" / "groundtruth_jets.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
