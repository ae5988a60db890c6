"""Seeded inputs the benchmark makes itself.

Plain numpy/pandas: the program under test only ever sees the finished
frames, and the same ``seed`` always gives the same inputs.  The LED
windows come straight from the repository's dataset generators
(``repro.datasets``), which make inputs and are not a layer being measured.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

# --- profile: airlines-like tables ------------------------------------------

CARRIERS = [f"C{i:02d}" for i in range(10)]
STATES = [f"S{i:02d}" for i in range(40)]

#: 12 numerical attributes.  Three linear invariants are planted:
#: arr = dep + duration + jitter (jitter ~ N(0, 1)) is the tightest;
#: air_time ~ duration - 22 and duration ~ distance / 8 + 25 are looser.
#: Every other attribute spreads by 20 or more, so the planted arrival
#: invariant is by far the lowest-variance direction of the table.  The
#: jitter has mean 0 on the seeded tables; the timestamp table plants a
#: gap with a non-zero mean (see README, "The failing timestamp table").
AIRLINE_NUM_COLS = [
    "dep",
    "arr",
    "duration",
    "distance",
    "air_time",
    "taxi_in",
    "taxi_out",
    "flight_num",
    "origin_id",
    "dest_id",
    "day_of_year",
    "seats",
]
SWITCH_COLS = ["carrier", "origin_state"]


def _unit_direction(dep: float, arr: float, duration: float) -> np.ndarray:
    w = np.zeros(len(AIRLINE_NUM_COLS))
    w[[0, 1, 2]] = [dep, arr, duration]
    return w / np.linalg.norm(w)


#: unit direction of the planted arrival invariant over AIRLINE_NUM_COLS:
#: arr - dep - duration on the seeded tables ...
PLANTED_DIRECTION = _unit_direction(-1.0, 1.0, -1.0)
#: ... and arr - dep - 60 * duration on the timestamp table (seconds)
EPOCH_PLANTED_DIRECTION = _unit_direction(-1.0, 1.0, -60.0)

#: the timestamp table: epoch seconds around 1.7e9
EPOCH_OFFSET = 1.7e9
#: the timestamp table never depends on --seed: its ops fail on every run
EPOCH_TABLE_SEED = 20_250_101


def airline_table(n: int, seed: int, epoch: bool = False) -> pd.DataFrame:
    """``n`` flights; with ``epoch`` the dep/arr attributes are epoch seconds.

    In the timestamp variant ``arr = dep + 60 * duration + gap`` with the gap
    in seconds, so the same invariant holds on a scale of 1.7e9.
    """
    g = np.random.default_rng(seed)
    distance = g.uniform(200.0, 2500.0, n)
    duration = distance / 8.0 + 25.0 + g.normal(0.0, 5.0, n)
    if epoch:
        dep = EPOCH_OFFSET + g.uniform(0.0, 30 * 86_400.0, n)
        arr = dep + 60.0 * duration + g.normal(300.0, 60.0, n)
    else:
        dep = g.uniform(360.0, 1200.0, n)
        arr = dep + duration + g.normal(0.0, 1.0, n)
    return pd.DataFrame(
        {
            "dep": dep,
            "arr": arr,
            "duration": duration,
            "distance": distance,
            "air_time": duration - 22.0 + g.normal(0.0, 3.0, n),
            "taxi_in": g.normal(360.0, 120.0, n),
            "taxi_out": g.normal(960.0, 300.0, n),
            "flight_num": g.uniform(1.0, 8000.0, n),
            "origin_id": g.uniform(1.0, 300.0, n),
            "dest_id": g.uniform(1.0, 300.0, n),
            "day_of_year": g.uniform(1.0, 365.0, n),
            "seats": g.uniform(50.0, 300.0, n),
            "carrier": g.choice(CARRIERS, n),
            "origin_state": g.choice(STATES, n),
        }
    )


# --- explain: rows with an unseen switch value -------------------------------

#: a digit no LED window holds
UNSEEN_DIGIT = 10


def with_unseen(pdf: pd.DataFrame, attr: str, every: int, value) -> pd.DataFrame:
    """A copy with a ``row_id`` in which every ``every``-th row's ``attr`` is
    set to ``value``."""
    out = pdf.copy()
    out.loc[out.index % every == 0, attr] = value
    out.insert(0, "row_id", np.arange(len(out), dtype=np.int64))
    return out
