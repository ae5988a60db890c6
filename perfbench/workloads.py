"""The two workloads: profile and explain.

Each workload is a closed loop of ops.  ``setup`` ingests the generated
inputs into cached frames and learns the reference models; ``round`` lists
the ops of one round, which the runner cycles through; ``check`` compares the
outputs of every op with computations made apart from the program.

Calls into ``repro`` go through module attributes (``discovery.discover``,
not a name imported once) so that the traced run's wrappers are seen.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

import checks
import inputs
from repro.core import discovery, scoring
from repro.datasets.led import LED_COLS, led_window_pdf, malfunctioning_leds
from repro.explain import extune

# Sizes.  A run has to fit start-up, three set-ups and the timed loop into
# about 40 s on four cores, so the inputs are smaller than the paper's
# tables; README.md lists what each size means.
PROFILE_ROWS = 15_000
KERNEL_REPEATS = 5
EXPLAIN_REF_ROWS = 2_000
EXPLAIN_ROWS = 5_000
EXPLAIN_WINDOWS = (3, 7, 12, 17)  # one window per phase of the LED schedule
EXPLAIN_UNSEEN_EVERY = 50


@dataclass
class Op:
    label: str
    key: int  # which input of the workload the op reads
    rows: int
    run: Callable[[], object]
    #: a program fault makes this op's output wrong on every run; a failed
    #: check then counts the op as failed instead of the run as incorrect
    known_fault: bool = False


class Workload:
    name = ""

    def __init__(self, spark: SparkSession, tracer):
        self.spark = spark
        self.tracer = tracer
        self._cached: list[DataFrame] = []

    def ingest(self, pdf: pd.DataFrame, keep: bool = True) -> DataFrame:
        """pandas -> Arrow -> JVM: one cached, materialised frame; ``keep``
        leaves it cached until ``teardown``."""
        with self.tracer.span("ingress"):
            df = self.spark.createDataFrame(pdf).cache()
            df.count()
        if keep:
            self._cached.append(df)
        return df

    def teardown(self) -> None:
        for df in self._cached:
            df.unpersist()
        self._cached.clear()

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def check(self, results: list[tuple[Op, object]]) -> dict[int, list[str]]:
        """Errors per index into ``results``."""
        raise NotImplementedError

    def traced_extras(self) -> dict[str, float]:
        return {}


class Profile(Workload):
    name = "profile"

    def __init__(self, spark, tracer, seed):
        super().__init__(spark, tracer)
        # (table, unit direction of its planted arrival invariant); the
        # timestamp table comes last and its op fails on every run (README)
        self.tables = [
            (inputs.airline_table(PROFILE_ROWS, 100 * seed), inputs.PLANTED_DIRECTION),
            (
                inputs.airline_table(PROFILE_ROWS, inputs.EPOCH_TABLE_SEED, epoch=True),
                inputs.EPOCH_PLANTED_DIRECTION,
            ),
        ]

    def setup(self):
        self.frames = [self.ingest(t) for t, _ in self.tables]

    def round(self):
        last = len(self.tables) - 1
        return [
            Op(f"table {k}", k, len(t), lambda df=df: discovery.discover(df), known_fault=k == last)
            for k, ((t, _), df) in enumerate(zip(self.tables, self.frames))
        ]

    def check(self, results):
        errors: dict[int, list[str]] = {}
        for i, (op, constraint) in enumerate(results):
            table, direction = self.tables[op.key]
            errs = checks.check_profile(
                constraint, table, inputs.SWITCH_COLS, direction, inputs.AIRLINE_NUM_COLS
            )
            if errs:
                errors[i] = errs
        return errors


class Explain(Workload):
    name = "explain"

    def __init__(self, spark, tracer, seed):
        super().__init__(spark, tracer)
        self.reference = led_window_pdf(0, n=EXPLAIN_REF_ROWS, seed=seed)
        self.targets = [led_window_pdf(w, n=EXPLAIN_ROWS, seed=seed) for w in EXPLAIN_WINDOWS]
        # scored row by row after the timed loop: the last window, with some
        # rows carrying a digit the reference never saw
        self.probe = inputs.with_unseen(
            self.targets[-1], "digit", EXPLAIN_UNSEEN_EVERY, inputs.UNSEEN_DIGIT
        )

    def setup(self):
        ref = self.ingest(self.reference)
        self.constraint = discovery.discover(
            ref, cols=LED_COLS, partition_attrs=["digit"], include_global=False
        )
        self.frames = [self.ingest(t) for t in self.targets]

    def round(self):
        return [
            Op(f"window {w}", w, len(pdf),
               lambda df=df: extune.responsibilities(df, self.constraint, LED_COLS))
            for w, pdf, df in zip(EXPLAIN_WINDOWS, self.targets, self.frames)
        ]

    def check(self, results):
        errors: dict[int, list[str]] = {}
        for i, (op, resp) in enumerate(results):
            errs = checks.check_responsibilities(resp, op.key, malfunctioning_leds(op.key))
            if errs:
                errors[i] = errs
        scored = (
            scoring.score(self.ingest(self.probe), self.constraint)
            .select("row_id", "violation")
            .toPandas()
            .sort_values("row_id")
        )
        errs = checks.check_scored_rows(
            self.constraint, self.probe, scored["violation"].to_numpy(), "digit",
            str(inputs.UNSEEN_DIGIT),
        )
        if errs:
            errors.setdefault(len(results) - 1, []).extend(f"score(): {e}" for e in errs)
        return errors

    def traced_extras(self):
        """Rows per second of the numpy scoring kernel alone, in the driver."""
        batch = pd.concat(self.targets, ignore_index=True)
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            scoring.violation_numpy(self.constraint, batch)
            times.append(time.perf_counter() - t0)
        return {"core.scoring.kernel_rows_per_s": len(batch) / float(np.median(times))}


WORKLOADS = {w.name: w for w in (Profile, Explain)}
