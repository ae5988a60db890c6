"""Each correctness check of the benchmark passes on the program's own
output and fails on a deliberately broken one.  Constraints are learned
from numpy Gram matrices here, so no Spark session is needed."""
from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd
import pytest

import checks
import inputs
from workloads import PROFILE_ROWS
from repro.core.constraints import CompoundConstraint, DisjunctiveConstraint, SimpleConstraint
from repro.core.discovery import DEFAULT_C, simple_from_gram
from repro.core.gram import GramResult
from repro.datasets.led import LED_COLS, MALFUNCTION_PHASES, led_window_pdf, malfunctioning_leds
from repro.explain.extune import _batch_responsibilities, _global_means


def _simple(pdf: pd.DataFrame, cols: list[str], two_pass: bool = False) -> SimpleConstraint:
    """Algorithm 1 on the uncentered augmented Gram matrix, as ``discover``
    runs it; with ``two_pass`` every atom's moments and bounds are then
    replaced by two-pass numpy ones."""
    x = pdf[cols].to_numpy(dtype=np.float64)
    xa = np.hstack([np.ones((len(x), 1)), x])
    simple = simple_from_gram(GramResult(cols=tuple(cols), n=len(x), g=xa.T @ xa))
    if not two_pass:
        return simple
    atoms = []
    for a in simple.conjuncts:
        f = x @ np.asarray(a.weights)
        mean, std = float(f.mean()), float(f.std())
        atoms.append(dataclasses.replace(
            a, mean=mean, std=std, lb=mean - DEFAULT_C * std, ub=mean + DEFAULT_C * std
        ))
    return dataclasses.replace(simple, conjuncts=tuple(atoms))


def _compound(pdf, cols, switches, include_global=True, two_pass=False) -> CompoundConstraint:
    parts = [_simple(pdf, cols, two_pass)] if include_global else []
    for attr in switches:
        branches = {str(v): _simple(g, cols, two_pass) for v, g in pdf.groupby(attr)}
        parts.append(DisjunctiveConstraint(attr=attr, branches=branches))
    return CompoundConstraint(parts=tuple(parts))


def _scale_sigma(simple: SimpleConstraint, factor: float) -> SimpleConstraint:
    atoms = tuple(
        dataclasses.replace(
            a, std=a.std * factor, lb=a.mean - DEFAULT_C * a.std * factor,
            ub=a.mean + DEFAULT_C * a.std * factor,
        )
        for a in simple.conjuncts
    )
    return dataclasses.replace(simple, conjuncts=atoms)


@pytest.fixture(scope="module")
def airline():
    pdf = inputs.airline_table(4_000, seed=3)
    return pdf, _compound(pdf, inputs.AIRLINE_NUM_COLS, inputs.SWITCH_COLS)


def _profile_errors(constraint, pdf, direction=inputs.PLANTED_DIRECTION):
    return checks.check_profile(
        constraint, pdf, inputs.SWITCH_COLS, direction, inputs.AIRLINE_NUM_COLS
    )


def test_profile_check_passes_on_learned_constraint(airline):
    pdf, constraint = airline
    assert _profile_errors(constraint, pdf) == []


def test_profile_check_fails_when_sigma_is_scaled_by_a_tenth(airline):
    pdf, constraint = airline
    glob, *rest = constraint.parts
    broken = CompoundConstraint(parts=(_scale_sigma(glob, 0.1), *rest))
    errors = _profile_errors(broken, pdf)
    assert any("sigma" in e and "two-pass" in e for e in errors)
    assert any("outside [lb, ub]" in e for e in errors)


@pytest.fixture(scope="module")
def timestamp_table():
    return inputs.airline_table(PROFILE_ROWS, inputs.EPOCH_TABLE_SEED, epoch=True)


def test_profile_check_fails_on_the_timestamp_table(timestamp_table):
    constraint = _compound(timestamp_table, inputs.AIRLINE_NUM_COLS, inputs.SWITCH_COLS)
    errors = _profile_errors(constraint, timestamp_table, inputs.EPOCH_PLANTED_DIRECTION)
    assert any("two-pass" in e for e in errors)


def test_timestamp_table_fails_the_smallest_sigma_check_with_two_pass_moments(timestamp_table):
    # correct moments alone do not mend the op: the uncentered eigensolve
    # misses the planted invariant's direction
    constraint = _compound(
        timestamp_table, inputs.AIRLINE_NUM_COLS, inputs.SWITCH_COLS, two_pass=True
    )
    errors = _profile_errors(constraint, timestamp_table, inputs.EPOCH_PLANTED_DIRECTION)
    assert errors and all(e.startswith("smallest global sigma") for e in errors)


@pytest.fixture(scope="module")
def led():
    constraint = _compound(led_window_pdf(0, n=2_000, seed=6), LED_COLS, ["digit"], include_global=False)
    probe = inputs.with_unseen(led_window_pdf(17, n=1_000, seed=6), "digit", 50, inputs.UNSEEN_DIGIT)
    return constraint, probe


def _scored_errors(constraint, probe, reported):
    return checks.check_scored_rows(constraint, probe, reported, "digit", str(inputs.UNSEEN_DIGIT))


def test_scored_rows_check_passes_on_recomputed_violations(led):
    constraint, probe = led
    assert _scored_errors(constraint, probe, checks.violation(constraint, probe)) == []


def test_scored_rows_check_fails_when_a_violation_is_off_by_one_gamma(led):
    constraint, probe = led
    reported = checks.violation(constraint, probe)
    branch = constraint.parts[0].branches[str(probe["digit"].iloc[7])]
    reported[7] += branch.conjuncts[0].gamma / len(constraint.parts)
    assert any(e.startswith("row 7:") for e in _scored_errors(constraint, probe, reported))


def test_scored_rows_check_fails_when_an_unseen_digit_scores_0(led):
    constraint, probe = led
    parts = checks.part_violations(constraint, probe)
    parts[(probe["digit"] == inputs.UNSEEN_DIGIT).to_numpy(), 0] = 0.0
    errors = _scored_errors(constraint, probe, parts.mean(axis=1))
    assert any("does not score 1" in e for e in errors)


@pytest.fixture(scope="module")
def led_responsibilities():
    cols = LED_COLS
    constraint = _compound(led_window_pdf(0, n=2_000, seed=6), cols, ["digit"], include_global=False)
    means = _global_means(constraint, cols)
    out = {}
    for w in (7, 12, 17):
        pdf = led_window_pdf(w, n=1_000, seed=6)
        r = _batch_responsibilities(pdf, constraint, cols, ["digit"], means, 1e-9, 8)
        out[w] = pd.Series(r.mean(axis=0), index=cols)
    return out


def test_responsibility_check_passes_on_the_planted_schedule(led_responsibilities):
    for w, resp in led_responsibilities.items():
        assert checks.check_responsibilities(resp, w, malfunctioning_leds(w)) == []


def test_responsibility_check_fails_on_a_shuffled_schedule(led_responsibilities):
    phases = MALFUNCTION_PHASES[1:]
    shuffled = dict(zip(phases, phases[1:] + phases[:1]))
    for w, resp in led_responsibilities.items():
        errors = checks.check_responsibilities(resp, w, shuffled[malfunctioning_leds(w)])
        assert any("top-2" in e for e in errors)
