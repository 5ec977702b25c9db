"""Tabular-benchmark queries and architecture search.

A TabularBenchmark holds metric columns over architecture strings; searches
maximize a scalar objective (accuracy, negated ECE, or the harmonic
accuracy/calibration score) by querying it.  All three algorithms are
seed-deterministic, count memoized re-evaluations against their budget,
and record the incumbent objective value after every evaluation.
"""
from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .analysis import _float_columns, hcs
from .archspace import (SPACES, SSS_CHANNELS, TSS_OPS, SssArch, TssArch,
                        parse_arch, sss_string, tss_string)
from .predictions import (_check_count, _check_index, _check_positive,
                          _check_seed, atomic_output)
from .suite import _SPACES, MeasurementRecord, read_records, write_records

OBJECTIVES = ("acc", "ece", "hcs")
# the bin count of the ECE a benchmark file gives its architectures
ECE_BINS = 15
# regularized evolution: members alive at once, and the tournament size
POPULATION_SIZE = 20
SAMPLE_SIZE = 5
# an objective maps a metrics dict to the score to maximize; it must also
# work elementwise on a dict of NumPy columns (``TabularBenchmark.scores``)
_Objective = Callable[[Dict[str, float]], float]


@dataclass(eq=False)
class TabularBenchmark:
    """Metric name -> float64 column, entry i for ``archs[i]``, in a space."""

    space: str
    metrics: Dict[str, np.ndarray]
    archs: List[str]

    def __post_init__(self):
        if self.space not in _SPACES:
            raise ValueError(f"bad space {self.space!r}")
        self.metrics = _float_columns(
            self.metrics, len(self.archs),
            lambda name, i: f"metric {name!r} is not finite for "
                            f"architecture {self.archs[i]!r}")
        self._row = {a: i for i, a in enumerate(self.archs)}
        if len(self._row) != len(self.archs):
            raise ValueError("an architecture is listed twice")

    def __len__(self) -> int:
        return len(self.archs)

    def query(self, arch) -> Dict[str, float]:
        key = arch if isinstance(arch, str) else arch.to_string()
        try:
            i = self._row[key]
        except KeyError:
            raise KeyError(f"architecture {key!r} not in benchmark") \
                from None
        return {name: float(col[i]) for name, col in self.metrics.items()}

    def scores(self, objective: _Objective) -> Dict[str, float]:
        """The objective of every architecture, keyed by arch.

        One call of ``objective`` over the metric columns scores them all,
        so an out-of-range value anywhere fails here.
        """
        values = np.broadcast_to(
            np.asarray(objective(self.metrics), dtype=np.float64),
            (len(self.archs),))
        return dict(zip(self.archs, values.tolist()))


def make_objective(kind: str, beta: float = 1.0) -> _Objective:
    """acc maximizes accuracy, ece minimizes ECE, hcs blends the two."""
    if kind == "acc":
        return lambda m: m["accuracy"]
    if kind == "ece":
        return lambda m: -m["ece"]
    if kind == "hcs":
        _check_positive("beta", beta)  # before any scoring
        return lambda m: hcs(m["accuracy"], m["ece"], beta)
    raise ValueError(f"unknown objective {kind!r}; pick from {OBJECTIVES}")


def _unit_hash(seed: int, tag: str, arch: str) -> float:
    h = hashlib.sha256(f"{seed}|{tag}|{arch}".encode()).digest()
    return int.from_bytes(h[:8], "big") / 2.0 ** 64


def synth_benchmark(space: str = "tss", seed: int = 0,
                    planted: Optional[str] = None) -> TabularBenchmark:
    """Deterministic synthetic benchmark over the full space.

    Without planting, accuracy and ECE are seeded-hash noise.  With a
    planted architecture, accuracy decreases strictly with edit distance
    from it, so the planted arch is the unique argmax and every other arch
    has a strictly improving neighbor (a hill-climbable landscape).
    """
    TabularBenchmark(space, {}, [])  # a bad space, refused before enumerating
    archs = [a.to_string() for a in SPACES[space]()]
    plant_parts = None
    if planted is not None:
        if planted not in set(archs):
            raise ValueError("planted architecture must belong to the space")
        plant_parts = _encoding(parse_arch(planted))[0]
    accs, eces = [], []
    for s in archs:
        if plant_parts is None:
            acc = _unit_hash(seed, "acc", s)
            ece = 0.25 * _unit_hash(seed, "ece", s)
        else:
            d = sum(x != y for x, y in zip(_encoding(parse_arch(s))[0],
                                           plant_parts))
            acc = 1.0 if d == 0 else \
                1.0 - 0.12 * d - 0.02 * _unit_hash(seed, "acc", s)
            ece = 0.02 + 0.2 * _unit_hash(seed, "ece", s)
        accs.append(acc)
        eces.append(ece)
    return TabularBenchmark(space, {"accuracy": accs, "ece": eces}, archs)


def write_benchmark(bench: TabularBenchmark, records_path: str) -> None:
    """Persist a benchmark as suite-style JSONL plus an arch-index file at
    ``default_index_path(records_path)``."""
    cells = (("accuracy", None), ("ece", ECE_BINS))
    records = [MeasurementRecord("benchmark", bench.space, i, metric, bins,
                                 "pre", "test", bench.metrics[metric][i])
               for i in range(len(bench)) for metric, bins in cells]
    write_records(records, records_path)
    with atomic_output(default_index_path(records_path)) as fh:
        json.dump({a: i for i, a in enumerate(bench.archs)}, fh,
                  sort_keys=True)


def default_index_path(records_path: str) -> str:
    base = records_path[:-len(".jsonl")] \
        if records_path.endswith(".jsonl") else records_path
    return base + ".index.json"


def _read_index(index_path: str) -> Dict[int, str]:
    """arch_index -> arch string, from a JSON object {arch: arch_index}."""
    with open(index_path, "rb") as fh:
        try:
            index = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{index_path}: not a JSON index: {exc}") \
                from None
    if not isinstance(index, dict):
        raise ValueError(f"{index_path}: not a JSON object of "
                         "arch: arch_index")
    # a message for the first bad entry only; a good value there repeats
    by_index: Dict[int, str] = {}
    for arch, i in index.items():
        if type(i) is not int or not 0 <= i < 2**63 or i in by_index:
            _check_index(f"{index_path}: arch_index of {arch!r}", i)
            raise ValueError(f"{index_path}: {by_index[i]!r} and {arch!r} "
                             f"share arch_index {i}")
        by_index[i] = arch
    return by_index


def load_benchmark(records_path: str) -> TabularBenchmark:
    """Join suite JSONL records, pivoted by ``read_records``, with the
    arch-string index at ``default_index_path(records_path)``.

    Accuracy comes from "accuracy" records and ECE from "ece" records at
    ``ECE_BINS`` bins, both of the pre stage on the test split; every
    architecture needs both once, and an index entry.  Other records are
    checked and ignored.  The records are read before the index.
    """
    index_path = default_index_path(records_path)
    keys = ("accuracy_pre", f"ece_{ECE_BINS}_pre")
    space, table = read_records(records_path, keys)
    if not set(keys) <= table.columns.keys():
        raise ValueError(f"{records_path}: no architecture has both accuracy "
                         f"and ece records at {ECE_BINS} bins")
    by_index = _read_index(index_path)
    try:
        names = [by_index[i] for i in table.arch_index.tolist()]
    except KeyError as exc:
        raise ValueError(f"{index_path}: no architecture for arch_index "
                         f"{exc.args[0]} of {records_path}") from None
    order = sorted(range(len(names)), key=names.__getitem__)
    return TabularBenchmark(space, {
        "accuracy": table.columns[keys[0]][order],
        "ece": table.columns[keys[1]][order]}, [names[i] for i in order])


@dataclass(frozen=True)
class SearchConfig:
    budget: int
    seed: int = 0

    def __post_init__(self):
        _check_count("budget", self.budget)
        _check_seed(self.seed)


@dataclass
class SearchResult:
    best_arch: str
    best_value: float
    evaluations: int
    trajectory: List[float]
    is_local_optimum: bool = False

    def to_dict(self) -> dict:
        return {"best_arch": self.best_arch, "best_value": self.best_value,
                "evaluations": self.evaluations,
                "trajectory": self.trajectory}


class _Evaluator:
    """Memoized benchmark queries; every call counts against the budget.

    The objective is scored for the whole benchmark up front; the first
    visit of an architecture still goes through ``bench.query``, which
    raises KeyError for one it does not hold.  That call is also where a
    subclass sees which architectures a search visits: ``CountingBenchmark``
    in ``bench/tracing.py`` overrides ``query`` to count the distinct ones
    for ``search.unique_ratio``, and a lookup in ``scores`` alone would
    leave that count at 0.
    """

    def __init__(self, bench: TabularBenchmark, objective: _Objective,
                 budget: int):
        self.bench = bench
        self.scores = bench.scores(objective)
        self.budget = budget
        self.memo: Dict[str, float] = {}
        self.count = 0
        self.trajectory: List[float] = []
        self.best: Optional[str] = None
        self.best_value = -np.inf

    def exhausted(self) -> bool:
        return self.count >= self.budget

    def __call__(self, arch: str) -> float:
        if self.exhausted():
            raise RuntimeError("budget exhausted")
        value = self.memo.get(arch)
        if value is None:
            self.bench.query(arch)
            value = self.memo[arch] = self.scores[arch]
        self.count += 1
        if value > self.best_value:
            self.best_value = value
            self.best = arch
        self.trajectory.append(self.best_value)
        return value

    def result(self, is_local_optimum: bool = False) -> SearchResult:
        return SearchResult(self.best, float(self.best_value), self.count,
                            list(self.trajectory), is_local_optimum)


def _encoding(arch):
    """(parts, alphabet, to-string function) of a parsed architecture."""
    if isinstance(arch, TssArch):
        return arch.ops, TSS_OPS, tss_string
    if isinstance(arch, SssArch):
        return arch.channels, SSS_CHANNELS, sss_string
    raise TypeError(f"cannot mutate {type(arch).__name__} or take its "
                    "neighborhood")


def _mutate_parts(parts: tuple, alphabet: tuple,
                  rng: np.random.Generator) -> tuple:
    pos = int(rng.integers(len(parts)))
    options = [x for x in alphabet if x != parts[pos]]
    x = options[int(rng.integers(len(options)))]
    return parts[:pos] + (x,) + parts[pos + 1:]


def _neighbor_parts(parts: tuple, alphabet: tuple):
    for pos in range(len(parts)):
        for x in alphabet:
            if x != parts[pos]:
                yield parts[:pos] + (x,) + parts[pos + 1:]


def mutate(arch, rng: np.random.Generator):
    """Change exactly one edge op (TSS) or one layer's channels (SSS)."""
    parts, alphabet, _ = _encoding(arch)
    return type(arch)(_mutate_parts(parts, alphabet, rng))


def neighbors(arch) -> list:
    """All single-change variants in deterministic order."""
    parts, alphabet, _ = _encoding(arch)
    return [type(arch)(p) for p in _neighbor_parts(parts, alphabet)]


def random_search(bench: TabularBenchmark, objective: _Objective,
                  config: SearchConfig) -> SearchResult:
    """Uniform sampling without replacement up to the budget."""
    if config.budget > len(bench):
        raise ValueError(f"budget {config.budget} exceeds space size "
                         f"{len(bench)} for sampling without replacement")
    rng = np.random.default_rng(config.seed)
    ev = _Evaluator(bench, objective, config.budget)
    order = rng.permutation(len(bench))
    for i in order[:config.budget]:
        ev(bench.archs[int(i)])
    return ev.result()


def regularized_evolution(bench: TabularBenchmark, objective: _Objective,
                          config: SearchConfig) -> SearchResult:
    """Aging evolution: tournament parent selection, FIFO population.

    The initial population is sampled without replacement and counts
    against the budget; afterwards each cycle mutates the best of a
    random sample and retires the oldest member.
    """
    rng = np.random.default_rng(config.seed)
    ev = _Evaluator(bench, objective, config.budget)
    n_init = min(POPULATION_SIZE, config.budget, len(bench))
    init_idx = rng.choice(len(bench), size=n_init, replace=False)
    # members are (value, parts, alphabet, to-string function): parents
    # are mutated without parsing their strings again
    population = deque()
    for i in init_idx:
        arch = bench.archs[int(i)]
        value = ev(arch)
        population.append((value, *_encoding(parse_arch(arch))))
    while not ev.exhausted():
        k = min(SAMPLE_SIZE, len(population))
        picks = rng.choice(len(population), size=k, replace=False)
        _, parts, alphabet, fmt = max((population[int(p)] for p in picks),
                                      key=lambda member: member[0])
        child = _mutate_parts(parts, alphabet, rng)
        population.append((ev(fmt(child)), child, alphabet, fmt))
        population.popleft()
    return ev.result()


def local_search(bench: TabularBenchmark, objective: _Objective,
                 config: SearchConfig) -> SearchResult:
    """Best-improvement hill climbing from a random start.

    Moves only on strict improvement, so it cannot cycle; when a full
    neighbor scan finds nothing better the result is flagged as a
    verified local optimum.
    """
    rng = np.random.default_rng(config.seed)
    ev = _Evaluator(bench, objective, config.budget)
    current = bench.archs[int(rng.integers(len(bench)))]
    current_value = ev(current)
    parts, alphabet, fmt = _encoding(parse_arch(current))
    at_optimum = False
    while not ev.exhausted():
        best_n, best_v = None, current_value
        scan_done = True
        for n in _neighbor_parts(parts, alphabet):
            if ev.exhausted():
                scan_done = False
                break
            v = ev(fmt(n))
            if v > best_v:
                best_n, best_v = n, v
        if not scan_done:
            break
        if best_n is None:
            at_optimum = True
            break
        parts, current_value = best_n, best_v
    return ev.result(is_local_optimum=at_optimum)
