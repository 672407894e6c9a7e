"""Deterministic random generators for property sweeps and CLI probes.

All randomness flows through `random.Random` instances derived from a seed;
the QP_SEED environment variable overrides the default so sweeps are
reproducible across runs and machines.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from .errors import ModelFileError
from .linalg import RationalMatrix, rank
from .maps import QPFlow, QPMap, State, mmatrix
from .transforms import QMTransform

DEFAULT_SEED = 20260808


def seed_from_env() -> int:
    value = os.environ.get("QP_SEED", DEFAULT_SEED)
    try:
        return int(value)
    except ValueError as err:
        raise ModelFileError(f"not an integer: {value!r}",
                             field="QP_SEED") from err


def make_rng(tag: str = "", seed: int | None = None) -> random.Random:
    base = seed_from_env() if seed is None else seed
    return random.Random(f"{base}:{tag}")


def random_fraction(rng: random.Random, max_num: int = 3, max_den: int = 4,
                    nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def random_rational_matrix(rng: random.Random, rows: int, cols: int,
                           max_num: int = 3, max_den: int = 4) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[random_fraction(rng, max_num, max_den) for _ in range(cols)]
         for _ in range(rows)], cols=cols)


def random_unimodular_matrix(rng: random.Random, n: int,
                             shears: int = 6, k_max: int = 2) -> RationalMatrix:
    """Product of integer shear/swap/sign operations; determinant is +-1."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if n < 2:
        if n == 1 and rng.random() < 0.5:
            rows[0][0] = -rows[0][0]
        return RationalMatrix.from_rows(rows, cols=max(n, 0)) if n else \
            RationalMatrix.identity(0)
    for _ in range(shears):
        op = rng.random()
        i, j = rng.sample(range(n), 2)
        if op < 0.7:
            k = rng.choice([v for v in range(-k_max, k_max + 1) if v])
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif op < 0.85:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return RationalMatrix.from_rows(rows, cols=n)


def random_invertible_transform(rng: random.Random, n: int) -> QMTransform:
    """Unimodular core times a mild rational diagonal: exact, tame inverse."""
    core = random_unimodular_matrix(rng, n)
    scales = [rng.choice([Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2)])
              for _ in range(n)]
    diag = RationalMatrix.from_rows(
        [[scales[i] if i == j else Fraction(0) for j in range(n)]
         for i in range(n)], cols=n)
    return QMTransform(core @ diag)


def _distinct_row_matrix(rng: random.Random, rows: int, cols: int,
                         max_num: int, max_den: int) -> RationalMatrix:
    # widen the entry range when it cannot host enough distinct rows
    while (2 * max_num + 1) ** max(cols, 1) < 4 * rows:
        max_num += 1
    seen: set[tuple[Fraction, ...]] = set()
    out = []
    guard = 0
    while len(out) < rows:
        guard += 1
        if guard > 200 * rows:
            raise RuntimeError("could not sample distinct exponent rows")
        row = tuple(random_fraction(rng, max_num, max_den) for _ in range(cols))
        if row not in seen:
            seen.add(row)
            out.append(row)
    return RationalMatrix.from_rows(out, cols=cols)


def random_qp_map(rng: random.Random, n: int, m: int, max_num: int = 2,
                  max_den: int = 2, b_int: bool = True) -> QPMap:
    lam = tuple(random_fraction(rng, max_num, max_den) for _ in range(n))
    a = random_rational_matrix(rng, n, m, max_num, max_den)
    if b_int:
        b = _distinct_row_matrix(rng, m, n, 1, 1)
    else:
        b = _distinct_row_matrix(rng, m, n, max_num, max_den)
    return QPMap(lam=lam, A=a, B=b)


def random_nonredundant_map(rng: random.Random, n: int, m: int,
                            max_num: int = 3, max_den: int = 4) -> QPMap:
    """Resample until both rank conditions of the non-redundant form hold."""
    if m < n:
        raise ValueError("non-redundant form needs m >= n")
    for _ in range(500):
        lam = tuple(random_fraction(rng, max_num, max_den) for _ in range(n))
        a = random_rational_matrix(rng, n, m, max_num, max_den)
        b = _distinct_row_matrix(rng, m, n, 2, 2)
        qp = QPMap(lam=lam, A=a, B=b)
        if rank(qp.B) == n and rank(mmatrix(qp)) == n:
            return qp
    raise RuntimeError("failed to sample a non-redundant map")


def random_flow(rng: random.Random, n: int, m: int, max_num: int = 2,
                max_den: int = 2) -> QPFlow:
    lam = tuple(random_fraction(rng, max_num, max_den) for _ in range(n))
    a = random_rational_matrix(rng, n, m, max_num, max_den)
    b = _distinct_row_matrix(rng, m, n, 1, 1)
    return QPFlow(lam_star=lam, A_star=a, B=b)


def random_positive_state(rng: random.Random, n: int, lo: float = 0.5,
                          hi: float = 2.0) -> State:
    return State(tuple(rng.uniform(lo, hi) for _ in range(n)))
