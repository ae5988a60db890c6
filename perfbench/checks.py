"""Correctness checks, computed apart from the program under test.

Each check returns a list of error strings (empty = pass).  None of them
calls into ``repro``'s discovery or scoring code: moments are recomputed
with two-pass numpy, and violations are evaluated from the constraint's
atoms with the formula of the paper's Section 3.2 / Appendix G.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd

#: relative agreement required between a reported moment and two-pass numpy
MOMENT_RTOL = 1e-6
#: Chebyshev: with C = 4, at most 1/C^2 of the training rows fall outside
CHEBYSHEV_SHARE = 1.0 / 16.0
#: absolute agreement required between a reported and a recomputed violation
VIOLATION_ATOL = 1e-9
#: floor on sigma when it is used as the scale 1/sigma (paper: "a large number")
SIGMA_FLOOR = 1e-9


def _atom_matrix(simple) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    atoms = simple.conjuncts
    w = np.array([a.weights for a in atoms], dtype=np.float64).reshape(len(atoms), -1)
    field = lambda name: np.array([getattr(a, name) for a in atoms], dtype=np.float64)
    return w, field("mean"), field("std"), field("lb"), field("ub"), field("gamma")


def check_simple(simple, pdf: pd.DataFrame, where: str) -> list[str]:
    """Moments of every atom agree with two-pass numpy on ``pdf``, and each
    atom leaves at most 1/16 of ``pdf`` outside [lb, ub]."""
    if not simple.conjuncts:
        return []
    w, mean, std, lb, ub, _ = _atom_matrix(simple)
    f = pdf[list(simple.cols)].to_numpy(dtype=np.float64) @ w.T
    mu = f.mean(axis=0)
    sigma = np.sqrt(((f - mu) ** 2).mean(axis=0))
    errors = []
    scale = np.abs(mu) + sigma
    bad_mean = np.abs(mean - mu) > MOMENT_RTOL * scale
    bad_std = np.abs(std - sigma) > MOMENT_RTOL * sigma
    outside = ((f < lb) | (f > ub)).mean(axis=0)
    for k in np.flatnonzero(bad_mean):
        errors.append(f"{where} atom {k}: mean {mean[k]!r} != two-pass {mu[k]!r}")
    for k in np.flatnonzero(bad_std):
        errors.append(f"{where} atom {k}: sigma {std[k]!r} != two-pass {sigma[k]!r}")
    for k in np.flatnonzero(outside > CHEBYSHEV_SHARE):
        errors.append(f"{where} atom {k}: {outside[k]:.3f} of its training rows outside [lb, ub]")
    return errors


def check_profile(
    constraint,
    pdf: pd.DataFrame,
    switch_cols: Sequence[str],
    planted_direction: np.ndarray,
    num_cols: Sequence[str],
) -> list[str]:
    """The compound constraint ``discover`` learned on its own table ``pdf``."""
    from repro.core.constraints import DisjunctiveConstraint, SimpleConstraint

    errors: list[str] = []
    simple = [p for p in constraint.parts if isinstance(p, SimpleConstraint)]
    disj = [p for p in constraint.parts if isinstance(p, DisjunctiveConstraint)]
    if len(simple) != 1 or sorted(p.attr for p in disj) != sorted(switch_cols):
        return [f"unexpected parts: {len(simple)} simple, switches {[p.attr for p in disj]}"]
    glob = simple[0]
    errors += check_simple(glob, pdf, "global")
    x = pdf[list(num_cols)].to_numpy(dtype=np.float64)
    planted_sigma = float((x @ planted_direction).std())
    smallest = min(a.std for a in glob.conjuncts)
    if not smallest <= planted_sigma:
        errors.append(f"smallest global sigma {smallest!r} > planted invariant's {planted_sigma!r}")
    for part in disj:
        counts = pdf[part.attr].astype(str).value_counts()
        if set(part.branches) != set(counts.index):
            errors.append(f"{part.attr}: branches {sorted(part.branches)} != values {sorted(counts.index)}")
            continue
        keys = pdf[part.attr].astype(str)
        for v, branch in part.branches.items():
            if branch.n != counts[v]:
                errors.append(f"{part.attr}={v}: n {branch.n} != value_counts {counts[v]}")
            errors += check_simple(branch, pdf[keys == v], f"{part.attr}={v}")
    return errors


def _simple_violation(simple, pdf: pd.DataFrame) -> np.ndarray:
    if not simple.conjuncts:
        return np.zeros(len(pdf))
    w, _, std, lb, ub, gamma = _atom_matrix(simple)
    f = pdf[list(simple.cols)].to_numpy(dtype=np.float64) @ w.T
    dev = np.maximum(0.0, np.maximum(f - ub, lb - f))
    return (gamma * -np.expm1(-dev / np.maximum(std, SIGMA_FLOOR))).sum(axis=1)


def part_violations(constraint, pdf: pd.DataFrame) -> np.ndarray:
    """(rows, parts) violation of each part of a compound constraint; a
    switch value with no branch scores 1 for its part."""
    from repro.core.constraints import DisjunctiveConstraint

    out = np.empty((len(pdf), len(constraint.parts)))
    for j, part in enumerate(constraint.parts):
        if isinstance(part, DisjunctiveConstraint):
            keys = pdf[part.attr].astype(str).to_numpy()
            col = np.ones(len(pdf))
            for v, branch in part.branches.items():
                mask = keys == v
                if mask.any():
                    col[mask] = _simple_violation(branch, pdf[mask])
            out[:, j] = col
        else:
            out[:, j] = _simple_violation(part, pdf)
    return out


def violation(constraint, pdf: pd.DataFrame) -> np.ndarray:
    """The Section 3.2 violation of every row: the mean of its part scores."""
    return part_violations(constraint, pdf).mean(axis=1)


def check_scored_rows(
    constraint, rows: pd.DataFrame, reported: np.ndarray, unseen_attr: str, unseen_value: str
) -> list[str]:
    """Sampled rows: the reported violation equals the recomputed one, and
    rows with an unseen switch value score 1 for that part."""
    from repro.core.constraints import DisjunctiveConstraint

    errors = []
    parts = part_violations(constraint, rows)
    expected = parts.mean(axis=1)
    off = np.abs(np.asarray(reported) - expected) > VIOLATION_ATOL
    for i in np.flatnonzero(off)[:5]:
        errors.append(f"row {i}: violation {reported[i]!r} != recomputed {expected[i]!r}")
    unseen = (rows[unseen_attr].astype(str) == unseen_value).to_numpy()
    j = [k for k, p in enumerate(constraint.parts)
         if isinstance(p, DisjunctiveConstraint) and p.attr == unseen_attr]
    if not unseen.any() or len(j) != 1:
        errors.append(f"sample holds no row with unseen {unseen_attr}={unseen_value}")
    else:
        others = np.delete(parts, j[0], axis=1)
        with_one = (others.sum(axis=1) + 1.0) / parts.shape[1]
        if np.any(np.abs(np.asarray(reported)[unseen] - with_one[unseen]) > VIOLATION_ATOL):
            errors.append(f"unseen {unseen_attr}={unseen_value} does not score 1 for its part")
    return errors


def check_responsibilities(resp: pd.Series, window: int, expected_leds: Sequence[int]) -> list[str]:
    """Every responsibility lies in [0, 1]; in a malfunction window the two
    top attributes are the malfunctioning LEDs."""
    errors = []
    values = resp.to_numpy()
    if not np.all((values >= 0.0) & (values <= 1.0)):
        errors.append(f"window {window}: responsibility outside [0, 1]: {values}")
    if expected_leds:
        top2 = set(resp.sort_values(ascending=False).index[:2])
        want = {f"led_{i}" for i in expected_leds}
        if top2 != want:
            errors.append(f"window {window}: top-2 {sorted(top2)} != malfunctioning {sorted(want)}")
    return errors
