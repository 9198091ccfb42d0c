"""The four workloads: seeded inputs, one timed pass, and the output gates.

Every workload is a single-threaded closed loop: the next call into the
package starts when the previous one returns.  A pass is the workload's
fixed unit of work; the runner repeats passes until the run's time is up.
Inputs depend only on the seed and the size, never on timing.  Every call
into the package is timed as a raw segment; the runner scales segments by
the host's speed around them (see hostspeed.py) once the pass is over.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

SIZES = ("full", "tiny")


class GateError(Exception):
    """The program produced a wrong or unexpected output."""


@dataclass
class Pass:
    segments: list[tuple[float, float]] = field(default_factory=list)  # raw (start, seconds) per timed call
    mean_latency: bool = False  # report the pass mean per item instead of each item's own time
    seconds: float = 0.0  # normalised, set by finish()
    raw_seconds: float = 0.0  # set by finish()
    latencies: list[float] = field(default_factory=list)  # normalised seconds per item sample
    items: int = 0  # items completed
    skipped: int = 0  # items skipped or raised inside a successful call
    calls: int = 0  # calls into the package
    failed_calls: int = 0  # calls that exited nonzero or raised
    rows_out: int = 0
    bytes_out: int = 0
    outputs: list[str] = field(default_factory=list)
    _digest: object = field(default_factory=hashlib.sha256)

    def record(self, *chunks: str) -> None:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            self._digest.update(len(data).to_bytes(8, "big"))
            self._digest.update(data)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def finish(self, speed) -> None:
        """Scale the segments by the host speed around each; the last one must be followed by a calibration."""
        normalised = [speed.normalise(start, seconds) for start, seconds in self.segments]
        self.raw_seconds = sum(seconds for _, seconds in self.segments)
        self.seconds = sum(normalised)
        self.latencies = [self.seconds / max(self.items, 1)] if self.mean_latency else normalised


def call_cli(dp, argv: list[str], into: Pass) -> tuple[int, str, str]:
    """Run `dpcount argv` in-process, capturing both streams, as one timed segment of `into`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = dp.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        elapsed = time.perf_counter() - start
    stdout, stderr = out.getvalue(), err.getvalue()
    into.segments.append((start, elapsed))
    into.calls += 1
    into.failed_calls += code != 0
    into.rows_out += stdout.count("\n")
    into.bytes_out += len(stdout.encode("utf-8"))
    into.record(stdout, stderr)
    return code, stdout, stderr


def permuted(rng: random.Random, literal: str) -> str:
    """The same class with its multiplicities in a seeded order, as a user may type it."""
    d, _, ms = literal.partition(";")
    m = ms.split(",") if ms else []
    rng.shuffle(m)
    return f"{d};{','.join(m)}"


class Workload:
    name = ""
    ks: tuple[int, ...] = ()
    varies_by_pass = False  # do passes of one run get different inputs?

    def __init__(self, dp, seed: int, size: str, workdir: str, reference: dict):
        self.dp = dp
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.reference = reference[self.name]

    def prepare(self, index: int) -> None:
        """Untimed, untraced work needed before pass `index` runs."""

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def check(self, passes: list[Pass]) -> None:
        raise NotImplementedError


class TableSweep(Workload):
    """`dpcount table --k 6 --dmax D`: the bulk-table path, no cache.

    The sweep is the whole input, so the seed does not change it.  D (in
    reference.json) keeps one pass well under a second, so a run holds
    enough passes for a steady median.  The rows that `c_beta` skips at its
    domain edge are counted as failed items, not hidden.
    """

    name = "table_sweep"
    ks = (6,)

    def __init__(self, *args):
        super().__init__(*args)
        self.ref = self.reference[self.size]
        self.argv = ["table", "--k", "6", "--dmax", str(self.ref["dmax"])]

    def run_pass(self, index: int) -> Pass:
        # rows come back in one batch, so a row's latency is the pass mean
        result = Pass(mean_latency=True)
        code, out, err = call_cli(self.dp, self.argv, result)
        result.outputs.append(out)
        result.skipped = err.count("note: skipped")
        result.items = out.count("\n")
        return result

    def check(self, passes: list[Pass]) -> None:
        for p in passes:
            if p.failed_calls:
                raise GateError(f"table exited nonzero: {' '.join(self.argv)}")
            out = p.outputs[0]
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if digest != self.ref["sha256"]:
                raise GateError(f"table stdout digest {digest} != reference {self.ref['sha256']}")
            if (p.items, p.skipped) != (self.ref["rows"], self.ref["skipped"]):
                raise GateError(f"table gave {p.items} rows and {p.skipped} skips")
        rows = {}
        for line in passes[0].outputs[0].splitlines():
            _, cls, n, c, _ = line.split("\t")
            rows[cls] = (int(n), int(c))
        dmax = self.ref["dmax"]
        plane = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304}
        extra = Pass()
        for d, expected in plane.items():
            if d <= dmax:
                got = rows.get(f"{d};0,0,0,0,0,0", (None,))[0]
            else:
                _, out, _ = call_cli(self.dp, ["nbeta", f"{d};"], extra)
                got = int(out.strip().removeprefix("N="))
            if got != expected:
                raise GateError(f"N({d}L) = {got}, expected {expected}")
        if dmax >= 4:
            got = rows["4;0,0,0,0,0,0"][1]
        else:
            _, out, _ = call_cli(self.dp, ["cbeta", "4;"], extra)
            got = int(out.split()[0].removeprefix("C="))
        if got != 2304:
            raise GateError(f"C(4L) = {got}, expected 2304")


class ColdNbeta(Workload):
    """One fresh `dpcount nbeta CLASS` per query: the memo-miss recursion path.

    Every query list holds the two anchors plus a seeded draw from a pool of
    nonvanishing k = 6..8 classes of degree 6 and 7: one class from each
    stratum, a pair of pool classes of near-equal cold cost (measured on a
    2-vCPU x86 host), so the draw moves the totals and the median little from
    seed to seed.  All answers are pinned in reference.json.
    """

    name = "cold_nbeta"
    ks = (6, 7, 8)

    def __init__(self, *args):
        super().__init__(*args)
        ref = self.reference[self.size]
        rng = random.Random(f"cold_nbeta/{self.seed}")
        drawn = [rng.choice(stratum) for stratum in ref["strata"]]
        queries = list(ref["anchors"]) + drawn
        rng.shuffle(queries)
        pinned = {**ref["anchors"], **ref["pool"]}
        self.queries = [(permuted(rng, lit), pinned[lit]) for lit in queries]

    def run_pass(self, index: int) -> Pass:
        result = Pass()
        for literal, _ in self.queries:
            code, out, _ = call_cli(self.dp, ["nbeta", literal], result)
            result.outputs.append(out)
            if code == 0:
                result.items += 1
            else:
                result.skipped += 1
        return result

    def check(self, passes: list[Pass]) -> None:
        for p in passes:
            for (literal, expected), out in zip(self.queries, p.outputs):
                if out != f"N={expected}\n":
                    raise GateError(f"nbeta {literal} printed {out!r}, pinned N={expected}")


class ConsistencyFuzz(Workload):
    """`verify.consistency_suite` over random classes with k <= 4 and delta <= 10.

    Per-class cost is heavy-tailed (a few k = 4 classes cost a hundred times
    the median), so a plain random sample makes run-to-run throughput swing
    with the draw.  Each pass therefore takes a fixed number of classes from
    every (k, delta) cell, in proportion to how often the suite's own
    sampler produces that cell; which classes fill a cell depends on the
    seed.  Each class is one suite call with samples=1 on the pass's shared
    engine.  Per-item percentiles belong to the query workloads; here, as
    for table_sweep, an item's latency is the mean time per class, because
    the median class sits among k = 1 classes whose cost moves with the draw.
    """

    name = "consistency_fuzz"
    ks = (0, 1, 2, 3, 4)
    varies_by_pass = True
    K_MAX = 4
    DELTA_MAX = 10

    def __init__(self, *args):
        super().__init__(*args)
        self.per_pass = self.reference[self.size]["classes_per_pass"]
        self._probe = self.dp.GWEngine()
        self.quotas = self._quotas(self.reference["census_size"])
        self._slot_rng = random.Random(f"consistency_fuzz/{self.seed}")
        self._passes: list[list[int]] = []

    def _cells(self, rng: random.Random, count: int) -> list[tuple[int, int]]:
        """(k, delta) of the classes the suite's sampler draws from rng."""
        dp = self.dp
        classes = dp.verify.random_classes(
            rng, count, k_max=self.K_MAX, delta_max=self.DELTA_MAX, engine=self._probe
        )
        return [(beta.k, dp.delta(beta)) for beta in classes]

    def _quotas(self, census_size: int) -> dict[tuple[int, int], int]:
        """Largest-remainder allocation of the pass size over the (k, delta) cells."""
        census: dict[tuple[int, int], int] = {}
        for cell in self._cells(random.Random(0), census_size):
            census[cell] = census.get(cell, 0) + 1
        shares = {cell: self.per_pass * n / census_size for cell, n in census.items()}
        quotas = {cell: int(share) for cell, share in shares.items()}
        by_remainder = sorted(shares, key=lambda cell: (quotas[cell] - shares[cell], cell))
        for cell in by_remainder[: self.per_pass - sum(quotas.values())]:
            quotas[cell] += 1
        return {cell: q for cell, q in quotas.items() if q}

    def prepare(self, index: int) -> None:
        """Pick the suite seeds of pass `index`: fill every cell's quota, first come first served."""
        while len(self._passes) <= index:
            left = dict(self.quotas)
            seeds = []
            while left:
                suite_seed = self._slot_rng.getrandbits(48)
                (cell,) = self._cells(random.Random(suite_seed), 1)
                if cell in left:
                    seeds.append(suite_seed)
                    left[cell] -= 1
                    if not left[cell]:
                        del left[cell]
            self._passes.append(seeds)

    def run_pass(self, index: int) -> Pass:
        seeds = self._passes[index]
        verify = self.dp.verify
        engine = self.dp.GWEngine()
        result = Pass(mean_latency=True)
        for suite_seed in seeds:
            start = time.perf_counter()
            ok, lines = verify.consistency_suite(
                engine, samples=1, seed=suite_seed, k_max=self.K_MAX, delta_max=self.DELTA_MAX
            )
            result.segments.append((start, time.perf_counter() - start))
            result.calls += 1
            result.record("\n".join(lines))
            result.outputs.append("ok" if ok else "\n".join(lines))
            result.items += 1
        return result

    def check(self, passes: list[Pass]) -> None:
        for p in passes:
            for out in p.outputs:
                if out != "ok":
                    raise GateError(f"inconsistent relations: {out}")


class CachedQueries(Workload):
    """`dpcount --cache-path F nbeta CLASS` against a prebuilt cache, many times.

    Every invocation loads the cache, answers, and atomically rewrites it.
    Most queries hit classes already in the cache (in a seeded multiplicity
    order); a seeded minority are cheap misses on another surface, which
    grow the file as the pass goes on.  Each pass starts from a fresh copy
    of the prebuilt cache.
    """

    name = "cached_queries"

    def __init__(self, *args):
        super().__init__(*args)
        ref = self.reference[self.size]
        self.ks = (ref["cache_k"], ref["miss_k"])
        self.base = os.path.join(self.workdir, "base-cache.tsv")
        self.path = os.path.join(self.workdir, "cache.tsv")
        built = Pass()
        code, _, err = call_cli(
            self.dp,
            ["--cache-path", self.base, "table", "--k", str(ref["cache_k"]), "--dmax", str(ref["cache_dmax"])],
            built,
        )
        if code != 0:
            raise GateError(f"building the cache failed: {err}")
        with open(self.base, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh]
        # the cache also holds recursion by-products (negative degrees, zeros);
        # users query the classes that have curves
        cached = [row[2] for row in rows if int(row[3]) > 0]
        misses = self._miss_pool(ref["miss_k"], ref["miss_dmax"])
        rng = random.Random(f"cached_queries/{self.seed}")
        n_miss = ref["invocations"] // ref["miss_every"]
        queries = [rng.choice(cached) for _ in range(ref["invocations"] - n_miss)]
        queries += rng.sample(misses, n_miss)
        rng.shuffle(queries)
        self.queries = [permuted(rng, lit) for lit in queries]

    def _miss_pool(self, k: int, dmax: int) -> list[str]:
        """Nonvanishing canonical classes on a surface the cache does not cover."""
        dp = self.dp
        probe = dp.GWEngine()
        pool = []
        for beta in dp.cli.sweep_classes(k, dmax, None):
            if beta == dp.canonical_form(beta) and not probe.quick_vanishing(beta):
                pool.append(dp.format_class_literal(beta))
        return pool

    def run_pass(self, index: int) -> Pass:
        shutil.copyfile(self.base, self.path)
        result = Pass()
        for literal in self.queries:
            code, out, err = call_cli(self.dp, ["--cache-path", self.path, "nbeta", literal], result)
            result.outputs.append(out + err)
            if code == 0:
                result.items += 1
            else:
                result.skipped += 1
        with open(self.path, encoding="utf-8") as fh:
            result.record(fh.read())
        return result

    def check(self, passes: list[Pass]) -> None:
        cold = self.dp.GWEngine()
        expected = {
            lit: f"N={cold.n_beta(self.dp.parse_class_literal(lit))}\n" for lit in set(self.queries)
        }
        for p in passes:
            for literal, out in zip(self.queries, p.outputs):
                if out != expected[literal]:
                    raise GateError(f"cached nbeta {literal} printed {out!r}, cold {expected[literal]!r}")


WORKLOADS = {w.name: w for w in (TableSweep, ColdNbeta, ConsistencyFuzz, CachedQueries)}
