"""Benchmark problems: seeded SIF generators and closed-form references.

Every reference here is written from the mathematical definition of its
problem with plain numpy.  None of it imports sifgps, so a wrong decode or a
wrong evaluation cannot also make the reference wrong.

A reference answers the questions the benchmark asks of an evaluator:
objective value ``f``, gradient ``g``, objective Hessian times a vector
``hv``, constraint values ``c`` (in the decoder's order: ``<=`` rows, then
``==``, then ``>=``, file order within each), ``jv`` = J v, ``jty`` = J^T y,
and ``chv`` = (sum_i y_i Hess c_i) v.
"""

from __future__ import annotations

import numpy as np


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _const(rng: np.random.Generator, low: float, high: float) -> float:
    """A seeded constant, rounded so that its SIF text reads back exactly."""
    return float(f"{rng.uniform(low, high):.6f}")


def _rec(*fields: str) -> str:
    """One fixed-format SIF record: fields start at columns 2, 5, 15, 25, 40, 50."""
    line = ""
    for column, text in zip((1, 4, 14, 24, 39, 49), fields):
        if text:
            line = line.ljust(max(column, len(line) + 1)) + text
    return line


class PairRows:
    """Rows r_k(x_lo[k], x_hi[k]) of two variables composed with an outer h_k.

    ``r`` and its partials ``ra``, ``rb`` (first) and ``raa``, ``rab``, ``rbb``
    (second) are per-row arrays; ``h``, ``h1``, ``h2`` are the outer function
    and its derivatives evaluated at ``r``.  Row k's value is ``h[k]``.
    """

    def __init__(self, lo, hi, r, ra, rb, raa, rab, rbb, outer):
        self.lo, self.hi = lo, hi
        self.ra, self.rb = ra, rb
        self.raa, self.rab, self.rbb = raa, rab, rbb
        self.h, self.h1, self.h2 = outer(r)

    def jv(self, v):
        return self.h1 * (self.ra * v[self.lo] + self.rb * v[self.hi])

    def jty(self, y, n):
        out = np.zeros(n)
        np.add.at(out, self.lo, y * self.h1 * self.ra)
        np.add.at(out, self.hi, y * self.h1 * self.rb)
        return out

    def hv(self, y, v, n):
        vl, vh = v[self.lo], v[self.hi]
        rank_one = y * self.h2 * (self.ra * vl + self.rb * vh)
        curv = y * self.h1
        out = np.zeros(n)
        np.add.at(out, self.lo, rank_one * self.ra
                  + curv * (self.raa * vl + self.rab * vh))
        np.add.at(out, self.hi, rank_one * self.rb
                  + curv * (self.rab * vl + self.rbb * vh))
        return out


def _square(r):
    return r * r, 2.0 * r, np.full_like(r, 2.0)


class Reference:
    """Base: an objective made of PairRows, no constraints."""

    m = 0
    linear = np.zeros(0, dtype=bool)

    def __init__(self, n: int):
        self.n = n

    def _obj(self, x) -> PairRows:
        raise NotImplementedError

    def f(self, x):
        return float(np.sum(self._obj(x).h))

    def g(self, x):
        return self._obj(x).jty(np.ones(self.n - 1), self.n)

    def hv(self, x, v):
        return self._obj(x).hv(np.ones(self.n - 1), v, self.n)

    def lag(self, x, y):
        return self.f(x) + float(np.dot(y, self.c(x)))

    def lag_g(self, x, y):
        return self.g(x) + self.jty(x, y)

    def lag_hv(self, x, y, v):
        return self.hv(x, v) + self.chv(x, y, v)


# -- LOOPQD (corpus) -----------------------------------------------------------


class LoopqdReference(Reference):
    """f = sum_{i<N} (x_{i+1} - x_i^2 - beta_i)^2 with beta_1 = RHO, else 0."""

    def __init__(self, n: int, rho: float):
        super().__init__(n)
        self.beta = np.zeros(n - 1)
        self.beta[0] = rho
        self.lo = np.arange(n - 1)
        self.hi = self.lo + 1

    def _obj(self, x):
        xl, xh = x[self.lo], x[self.hi]
        ones = np.ones(self.n - 1)
        zeros = np.zeros(self.n - 1)
        return PairRows(self.lo, self.hi, xh - xl * xl - self.beta, -2.0 * xl,
                        ones, -2.0 * ones, zeros, zeros, _square)


def loopqd_rho(seed: int) -> float:
    """Seeded first residual shift passed to LOOPQD as its RHO parameter."""
    return _const(_rng(seed, 1), 0.1, 0.9)


# -- ROSENBR (corpus) ----------------------------------------------------------


class RosenbrReference(Reference):
    """f = 100 (x2 - x1^2)^2 + (x1 - 1)^2."""

    def __init__(self):
        super().__init__(2)

    def f(self, x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (x[0] - 1.0) ** 2)

    def g(self, x):
        r = x[1] - x[0] ** 2
        return np.array([-400.0 * r * x[0] + 2.0 * (x[0] - 1.0), 200.0 * r])

    def hv(self, x, v):
        h = np.array([[1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
                      [-400.0 * x[0], 200.0]])
        return h @ v


# -- CHNCON: generated constrained chain ---------------------------------------


class ChnconReference(Reference):
    """Generated constrained chain with M = N - 1 rows of each kind.

    Objective rows, i = 1..M:
        r_i = CA x_{i+1} + (x_i - x_{i+1})^2 + WS x_i^2 - b_i,  f = sum r_i^2,
        b_1 = B1, b_i = B0 otherwise.
    Constraint rows, i = 1..M, with p_i = P0 + PS (i mod 7):
        a_i = x_i + CB x_{i+1} + CP p_i sin(x_{i+1}) - CC
        i = 1 mod 3:  c_i = GW1 a_i^2        (<=, ranged by RL when i = 1 mod 6)
        i = 2 mod 3:  c_i = a_i              (==)
        i = 0 mod 3:  c_i = GW2 a_i^2 / 2    (>=, ranged by RG when i = 3 mod 6)
    """

    def __init__(self, n: int, k: dict):
        super().__init__(n)
        self.k = k
        m = n - 1
        self.m = m
        self.lo = np.arange(m)
        self.hi = self.lo + 1
        self.b = np.full(m, k["B0"])
        self.b[0] = k["B1"]
        rows = np.arange(1, m + 1)
        order = np.concatenate([rows[rows % 3 == 1], rows[rows % 3 == 2],
                                rows[rows % 3 == 0]])
        self.rows = order                       # 1-based SIF index per constraint
        self.clo = order - 1
        self.chi = order
        self.p = k["P0"] + k["PS"] * (order % 7)
        kind = order % 3
        self.weight = np.where(kind == 1, k["GW1"], np.where(kind == 0, k["GW2"] / 2.0, 0.0))
        self.squared = kind != 2
        self.linear = np.zeros(m, dtype=bool)
        self.clower = np.where(kind == 1, -np.inf, 0.0)
        self.cupper = np.where(kind == 0, np.inf, 0.0)
        self.clower[(kind == 1) & (order % 6 == 1)] = k["RL"]
        self.cupper[(kind == 0) & (order % 6 == 3)] = k["RG"]

    def _obj(self, x):
        k = self.k
        xl, xh = x[self.lo], x[self.hi]
        u = xl - xh
        r = k["CA"] * xh + u * u + k["WS"] * xl * xl - self.b
        ones = np.ones(self.m)
        return PairRows(self.lo, self.hi, r, 2.0 * u + 2.0 * k["WS"] * xl,
                        k["CA"] - 2.0 * u, (2.0 + 2.0 * k["WS"]) * ones,
                        -2.0 * ones, 2.0 * ones, _square)

    def _cons(self, x):
        k = self.k
        xl, xh = x[self.clo], x[self.chi]
        s, co = np.sin(xh), np.cos(xh)
        a = xl + k["CB"] * xh + k["CP"] * self.p * s - k["CC"]
        zeros = np.zeros(self.m)

        def outer(a):
            w = self.weight
            h = np.where(self.squared, w * a * a, a)
            h1 = np.where(self.squared, 2.0 * w * a, 1.0)
            h2 = np.where(self.squared, 2.0 * w, 0.0)
            return h, h1, h2

        return PairRows(self.clo, self.chi, a, np.ones(self.m),
                        k["CB"] + k["CP"] * self.p * co, zeros, zeros,
                        -k["CP"] * self.p * s, outer)

    def c(self, x):
        return self._cons(x).h

    def jv(self, x, v):
        return self._cons(x).jv(v)

    def jty(self, x, y):
        return self._cons(x).jty(y, self.n)

    def chv(self, x, y, v):
        return self._cons(x).hv(y, v, self.n)


def chncon(seed: int) -> tuple[str, dict]:
    """SIF text of the constrained chain and its seeded constants."""
    rng = _rng(seed, 2)
    k = {name: _const(rng, low, high) for name, low, high in (
        ("CA", 0.5, 1.5), ("WS", 0.1, 0.5), ("B0", 0.1, 0.5), ("B1", 0.5, 1.0),
        ("CB", 0.5, 1.5), ("CP", 0.2, 0.8), ("CC", 0.1, 0.5), ("P0", 0.5, 1.5),
        ("PS", 0.05, 0.2), ("GW1", 0.5, 2.0), ("GW2", 0.5, 2.0),
        ("RL", -2.0, -0.5), ("RG", 0.5, 2.0))}
    lines = [
        "NAME          CHNCON",
        "",
        f"*   Generated constrained chain (seed {seed}): mixed <=, == and >=",
        "*   rows, some ranged; element types with a range transformation and",
        "*   with an elemental parameter; a parametrized group type.",
        "",
        "*   classification OOR2-AN-V-V",
        "",
        _rec("IE", "N", "", "10") + "             $-PARAMETER number of variables",
    ]
    lines += [_rec("RE", name, "", str(value)) for name, value in k.items()]
    lines += [_rec("IA", "M", "N", "-1"), _rec("IE", "SEVEN", "", "7"), ""]

    def loop(start, step, body):
        out = [_rec("DO", "I", start, "", "M")]
        if step != 1:
            out.append(_rec("DI", "I", str(step)))
        out.append(_rec("IA", "I+1", "I", "1"))
        return out + body + [_rec("ND"), ""]

    lines += ["VARIABLES", "", _rec("DO", "I", "1", "", "N"), _rec("X", "X(I)"),
              _rec("ND"), "", "GROUPS", ""]
    lines += loop("1", 1, [_rec("ZN", "O(I)", "X(I+1)", "", "CA")])
    for code, start in (("L", "1"), ("E", "2"), ("G", "3")):
        body = [_rec("X" + code, "C(I)", "X(I)", "1.0"),
                _rec("Z" + code, "C(I)", "X(I+1)", "", "CB")]
        if code == "G":
            body.append(_rec("XG", "C(I)", "'SCALE'", "2.0"))
        lines += loop(start, 3, body)
    lines += ["CONSTANTS", "", _rec("Z", "CHNCON", "O(1)", "", "B1"), ""]
    lines += loop("2", 1, [_rec("Z", "CHNCON", "O(I)", "", "B0")])
    lines += loop("1", 1, [_rec("Z", "CHNCON", "C(I)", "", "CC")])
    lines += ["RANGES", ""]
    lines += loop("1", 6, [_rec("Z", "CHNCON", "C(I)", "", "RL")])
    lines += loop("3", 6, [_rec("Z", "CHNCON", "C(I)", "", "RG")])
    lines += ["BOUNDS", "", _rec("FR", "CHNCON", "'DEFAULT'"), "",
              "START POINT", "", _rec("XV", "CHNCON", "'DEFAULT'", "0.5"), "",
              "ELEMENT TYPE", "",
              _rec("EV", "SQ", "V1"),
              _rec("EV", "DIFSQ", "V1", "", "V2"),
              _rec("IV", "DIFSQ", "U1"),
              _rec("EV", "PSIN", "W1"),
              _rec("EP", "PSIN", "P1"), "", "ELEMENT USES", ""]
    lines += loop("1", 1, [
        _rec("XT", "D(I)", "DIFSQ"),
        _rec("ZV", "D(I)", "V1", "", "X(I)"),
        _rec("ZV", "D(I)", "V2", "", "X(I+1)"),
        _rec("XT", "S(I)", "SQ"),
        _rec("ZV", "S(I)", "V1", "", "X(I)"),
        _rec("XT", "P(I)", "PSIN"),
        _rec("ZV", "P(I)", "W1", "", "X(I+1)"),
        _rec("I/", "Q", "I", "", "SEVEN"),
        _rec("I*", "Q", "Q", "", "SEVEN"),
        _rec("I-", "IMOD7", "I", "", "Q"),
        _rec("RI", "RMOD7", "IMOD7"),
        _rec("R*", "PV", "RMOD7", "", "PS"),
        _rec("R+", "PV", "PV", "", "P0"),
        _rec("ZP", "P(I)", "P1", "", "PV")])
    lines += ["GROUP TYPE", "", _rec("GV", "L2", "GVAR"), _rec("GV", "PL2", "GVAR"),
              _rec("GP", "PL2", "PW"), "", "GROUP USES", ""]
    lines += loop("1", 1, [_rec("XT", "O(I)", "L2"),
                           _rec("XE", "O(I)", "D(I)", "1.0"),
                           _rec("ZE", "O(I)", "S(I)", "", "WS"),
                           _rec("ZE", "C(I)", "P(I)", "", "CP")])
    for start, weight in (("1", "GW1"), ("3", "GW2")):
        lines += loop(start, 3, [_rec("XT", "C(I)", "PL2"),
                                 _rec("ZP", "C(I)", "PW", "", weight)])
    lines += ["ENDATA", "", "ELEMENTS      CHNCON", "", "INDIVIDUALS", "",
              _rec("T", "SQ"),
              _rec("F", "", "", "V1 * V1"),
              _rec("G", "V1", "", "V1 + V1"),
              _rec("H", "V1", "V1", "2.0"), "",
              _rec("T", "DIFSQ"),
              _rec("R", "U1", "V1", "1.0", "V2", "-1.0"),
              _rec("F", "", "", "U1 * U1"),
              _rec("G", "U1", "", "U1 + U1"),
              _rec("H", "U1", "U1", "2.0"), "",
              _rec("T", "PSIN"),
              _rec("F", "", "", "P1 * SIN( W1 )"),
              _rec("G", "W1", "", "P1 * COS( W1 )"),
              _rec("H", "W1", "W1", "- P1 * SIN( W1 )"), "",
              "ENDATA", "", "GROUPS        CHNCON", "", "INDIVIDUALS", "",
              _rec("T", "L2"),
              _rec("F", "", "", "GVAR * GVAR"),
              _rec("G", "", "", "GVAR + GVAR"),
              _rec("H", "", "", "2.0"), "",
              _rec("T", "PL2"),
              _rec("F", "", "", "PW * GVAR * GVAR"),
              _rec("G", "", "", "2.0 * PW * GVAR"),
              _rec("H", "", "", "2.0 * PW"), "",
              "ENDATA"]
    return "\n".join(lines) + "\n", k


# -- WIDELN: one linear group over every variable -------------------------------


class WidelnReference(Reference):
    """f = sum_i x_i + (WQ sum_j x_{k_j}^2 - BQ)^2,  c = sum_i x_i - CS (==).

    k_j = j * (N / 10) - OFF for j = 1..10 (1-based, integer division).
    """

    def __init__(self, n: int, k: dict):
        super().__init__(n)
        self.k = k
        self.m = 1
        self.linear = np.ones(1, dtype=bool)
        step = n // 10
        self.idx = np.arange(1, 11) * step - k["OFF"] - 1
        self.clower = np.zeros(1)
        self.cupper = np.zeros(1)

    def _q(self, x):
        return self.k["WQ"] * float(np.sum(x[self.idx] ** 2)) - self.k["BQ"]

    def f(self, x):
        return float(np.sum(x)) + self._q(x) ** 2

    def g(self, x):
        out = np.ones(self.n)
        out[self.idx] += 4.0 * self._q(x) * self.k["WQ"] * x[self.idx]
        return out

    def hv(self, x, v):
        wq, xs = self.k["WQ"], x[self.idx]
        out = np.zeros(self.n)
        out[self.idx] = (8.0 * wq * wq * float(np.dot(xs, v[self.idx])) * xs
                         + 4.0 * self._q(x) * wq * v[self.idx])
        return out

    def c(self, x):
        return np.array([float(np.sum(x)) - self.k["CS"]])

    def jv(self, x, v):
        return np.array([float(np.sum(v))])

    def jty(self, x, y):
        return np.full(self.n, float(y[0]))

    def chv(self, x, y, v):
        return np.zeros(self.n)


def wideln(seed: int) -> tuple[str, dict]:
    """SIF text of the wide linear-group problem and its seeded constants."""
    rng = _rng(seed, 3)
    k = {name: _const(rng, low, high) for name, low, high in (
        ("WQ", 0.5, 1.5), ("BQ", 0.5, 2.0), ("CS", 1.0, 2.0))}
    k["OFF"] = int(rng.integers(0, 10))
    lines = [
        "NAME          WIDELN",
        "",
        f"*   Generated wide problem (seed {seed}): one linear group over all",
        "*   variables in the objective and as an equality constraint, plus",
        "*   one L2 group over ten SQ elements.",
        "",
        "*   classification QLR2-AN-V-1",
        "",
        _rec("IE", "N", "", "100") + "            $-PARAMETER number of variables",
        _rec("IE", "NQ", "", "10"),
        _rec("I/", "STEP", "N", "", "NQ"),
        _rec("IE", "OFF", "", str(k["OFF"])),
    ]
    lines += [_rec("RE", name, "", str(k[name])) for name in ("WQ", "BQ", "CS")]
    lines += ["", "VARIABLES", "", _rec("DO", "I", "1", "", "N"), _rec("X", "X(I)"),
              _rec("ND"), "", "GROUPS", "",
              _rec("DO", "I", "1", "", "N"),
              _rec("XN", "OBJ", "X(I)", "1.0"),
              _rec("XE", "CSUM", "X(I)", "1.0"),
              _rec("ND"),
              _rec("N", "QSQ"), "",
              "CONSTANTS", "",
              _rec("Z", "WIDELN", "CSUM", "", "CS"),
              _rec("Z", "WIDELN", "QSQ", "", "BQ"), "",
              "BOUNDS", "", _rec("FR", "WIDELN", "'DEFAULT'"), "",
              "START POINT", "", _rec("XV", "WIDELN", "'DEFAULT'", "0.5"), "",
              "ELEMENT TYPE", "", _rec("EV", "SQ", "V1"), "",
              "ELEMENT USES", "",
              _rec("DO", "J", "1", "", "NQ"),
              _rec("I*", "K", "J", "", "STEP"),
              _rec("I-", "K", "K", "", "OFF"),
              _rec("XT", "Q(J)", "SQ"),
              _rec("ZV", "Q(J)", "V1", "", "X(K)"),
              _rec("ND"), "",
              "GROUP TYPE", "", _rec("GV", "L2", "GVAR"), "",
              "GROUP USES", "",
              _rec("XT", "QSQ", "L2"),
              _rec("DO", "J", "1", "", "NQ"),
              _rec("ZE", "QSQ", "Q(J)", "", "WQ"),
              _rec("ND"), "",
              "ENDATA", "", "ELEMENTS      WIDELN", "", "INDIVIDUALS", "",
              _rec("T", "SQ"),
              _rec("F", "", "", "V1 * V1"),
              _rec("G", "V1", "", "V1 + V1"),
              _rec("H", "V1", "V1", "2.0"), "",
              "ENDATA", "", "GROUPS        WIDELN", "", "INDIVIDUALS", "",
              _rec("T", "L2"),
              _rec("F", "", "", "GVAR * GVAR"),
              _rec("G", "", "", "GVAR + GVAR"),
              _rec("H", "", "", "2.0"), "",
              "ENDATA"]
    return "\n".join(lines) + "\n", k
