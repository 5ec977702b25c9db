"""Tabular-benchmark queries and architecture search.

A TabularBenchmark maps architecture strings to measured metrics; searches
maximize a scalar objective (accuracy, negated ECE, or the harmonic
accuracy/calibration score) by querying it.  All three algorithms are
seed-deterministic, count memoized re-evaluations against their budget,
and record the incumbent objective value after every evaluation.
"""
from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .analysis import hcs
from .archspace import (SSS_CHANNELS, TSS_OPS, SssArch, TssArch,
                        enumerate_sss, enumerate_tss, parse_arch, sss_string,
                        tss_string)
from .suite import (MeasurementRecord, _is_int, atomic_output, iter_records,
                    write_records)

OBJECTIVES = ("acc", "ece", "hcs")
# the bin count of the ECE a benchmark file gives its architectures
ECE_BINS = 15


@dataclass
class TabularBenchmark:
    """Architecture string -> metrics lookup over a declared space."""

    space: str
    metrics: Dict[str, Dict[str, float]]
    archs: List[str] = field(default_factory=list)

    def __post_init__(self):
        if self.space not in ("tss", "sss"):
            raise ValueError(f"bad space {self.space!r}")
        if not self.archs:
            self.archs = sorted(self.metrics)
        for a in self.archs:
            if a not in self.metrics:
                raise ValueError(f"declared arch {a!r} has no metrics")

    def __len__(self) -> int:
        return len(self.archs)

    def query(self, arch) -> Dict[str, float]:
        key = arch if isinstance(arch, str) else arch.to_string()
        try:
            return self.metrics[key]
        except KeyError:
            raise KeyError(f"architecture {key!r} not in benchmark") \
                from None

    def scores(self, objective: "Objective") -> Dict[str, float]:
        """The objective of every architecture with metrics, keyed by arch.

        One call of ``objective.fn`` over whole metric columns scores them
        all, so an out-of-range value anywhere fails here.
        """
        values = objective.fn(_Columns(self.metrics.values()))
        values = np.broadcast_to(np.asarray(values, dtype=np.float64),
                                 (len(self.metrics),))
        return dict(zip(self.metrics, values.tolist()))

    def argmax(self, objective: "Objective"):
        scores = self.scores(objective)
        best = max(self.archs, key=scores.__getitem__)
        return best, scores[best]


class _Columns(dict):
    """Metric name -> float64 column over metrics dicts, built on first use."""

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __missing__(self, name: str) -> np.ndarray:
        column = self[name] = np.array([m[name] for m in self.rows],
                                       dtype=np.float64)
        return column


@dataclass(frozen=True)
class Objective:
    """A named scalar to maximize, computed from a metrics dict.

    ``fn`` must also work elementwise when each metric is a NumPy column:
    searches score every architecture with one call
    (``TabularBenchmark.scores``).
    """

    name: str
    fn: Callable[[Dict[str, float]], float]

    def __call__(self, metrics: Dict[str, float]) -> float:
        return float(self.fn(metrics))


def make_objective(kind: str, beta: float = 1.0) -> Objective:
    """acc maximizes accuracy, ece minimizes ECE, hcs blends the two."""
    if kind == "acc":
        return Objective("acc", lambda m: m["accuracy"])
    if kind == "ece":
        return Objective("ece", lambda m: -m["ece"])
    if kind == "hcs":
        return Objective(f"hcs(beta={beta:g})",
                         lambda m: hcs(m["accuracy"], m["ece"], beta))
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
    archs = [a.to_string() for a in
             (enumerate_tss() if space == "tss" else enumerate_sss())]
    plant_parts = None
    if planted is not None:
        if planted not in set(archs):
            raise ValueError("planted architecture must belong to the space")
        plant_parts = _arch_parts(planted, space)
    metrics = {}
    for s in archs:
        if plant_parts is None:
            acc = _unit_hash(seed, "acc", s)
            ece = 0.25 * _unit_hash(seed, "ece", s)
        else:
            d = sum(x != y for x, y in zip(_arch_parts(s, space),
                                           plant_parts))
            acc = 1.0 if d == 0 else \
                1.0 - 0.12 * d - 0.02 * _unit_hash(seed, "acc", s)
            ece = 0.02 + 0.2 * _unit_hash(seed, "ece", s)
        metrics[s] = {"accuracy": acc, "ece": ece}
    return TabularBenchmark(space, metrics, archs)


def _arch_parts(s: str, space: str):
    a = parse_arch(s)
    return a.ops if space == "tss" else a.channels


def write_benchmark(bench: TabularBenchmark, records_path: str,
                    index_path: Optional[str] = None) -> None:
    """Persist a benchmark as suite-style JSONL plus an arch-index file."""
    if index_path is None:
        index_path = default_index_path(records_path)
    index = {a: i for i, a in enumerate(bench.archs)}
    records = []
    for a in bench.archs:
        m = bench.query(a)
        records.append(MeasurementRecord("benchmark", bench.space, index[a],
                                         "accuracy", None, "pre", "test",
                                         m["accuracy"]))
        records.append(MeasurementRecord("benchmark", bench.space, index[a],
                                         "ece", ECE_BINS, "pre", "test",
                                         m["ece"]))
    write_records(records, records_path)
    with atomic_output(index_path) as tmp, open(tmp, "w") as fh:
        json.dump(index, fh, sort_keys=True)


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
    by_index: Dict[int, str] = {}
    for arch, i in index.items():
        if not _is_int(i) or i < 0:
            raise ValueError(f"{index_path}: arch_index of {arch!r} must be "
                             f"an integer >= 0, got {i!r}")
        if i in by_index:
            raise ValueError(f"{index_path}: {by_index[i]!r} and {arch!r} "
                             f"share arch_index {i}")
        by_index[i] = arch
    return by_index


def load_benchmark(records_path: str,
                   index_path: Optional[str] = None) -> TabularBenchmark:
    """Join suite JSONL records with the arch-string index.

    Accuracy comes from "accuracy" records and ECE from "ece" records at
    ``ECE_BINS`` bins, both of the pre stage on the test split; other
    records are ignored.  The records are streamed: every line is checked,
    none is kept.
    """
    if index_path is None:
        index_path = default_index_path(records_path)
    by_index = _read_index(index_path)
    spaces = set()
    metrics: Dict[str, Dict[str, float]] = {}
    for rec in iter_records(records_path):
        spaces.add(rec["search_space"])
        if rec["stage"] != "pre" or rec["split"] != "test" \
                or rec["arch_index"] not in by_index:
            continue
        arch = by_index[rec["arch_index"]]
        slot = metrics.setdefault(arch, {})
        if rec["metric"] == "accuracy":
            slot["accuracy"] = rec["value"]
        elif rec["metric"] == "ece" and rec["bin_count"] == ECE_BINS:
            slot["ece"] = rec["value"]
    if len(spaces) != 1:
        raise ValueError(f"records mix search spaces {sorted(spaces)}")
    complete = sorted(a for a, m in metrics.items()
                      if "accuracy" in m and "ece" in m)
    if not complete:
        raise ValueError("no architecture has both accuracy and ece records "
                         f"at {ECE_BINS} bins")
    return TabularBenchmark(spaces.pop(),
                            {a: metrics[a] for a in complete}, complete)


@dataclass(frozen=True)
class SearchConfig:
    budget: int
    seed: int = 0
    population_size: int = 20
    sample_size: int = 5

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.population_size < 1 or self.sample_size < 1:
            raise ValueError("population and sample sizes must be positive")
        if self.sample_size > self.population_size:
            raise ValueError("sample size cannot exceed population size")


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
    visit of an architecture still queries the benchmark, which raises
    KeyError for one it does not hold.
    """

    def __init__(self, bench: TabularBenchmark, objective: Objective,
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


def random_search(bench: TabularBenchmark, objective: Objective,
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


def regularized_evolution(bench: TabularBenchmark, objective: Objective,
                          config: SearchConfig) -> SearchResult:
    """Aging evolution: tournament parent selection, FIFO population.

    The initial population is sampled without replacement and counts
    against the budget; afterwards each cycle mutates the best of a
    random sample and retires the oldest member.
    """
    rng = np.random.default_rng(config.seed)
    ev = _Evaluator(bench, objective, config.budget)
    n_init = min(config.population_size, config.budget, len(bench))
    init_idx = rng.choice(len(bench), size=n_init, replace=False)
    # members are (value, parts, alphabet, to-string function): parents
    # are mutated without parsing their strings again
    population = deque()
    for i in init_idx:
        arch = bench.archs[int(i)]
        value = ev(arch)
        population.append((value, *_encoding(parse_arch(arch))))
    while not ev.exhausted():
        k = min(config.sample_size, len(population))
        picks = rng.choice(len(population), size=k, replace=False)
        _, parts, alphabet, fmt = max((population[int(p)] for p in picks),
                                      key=lambda member: member[0])
        child = _mutate_parts(parts, alphabet, rng)
        population.append((ev(fmt(child)), child, alphabet, fmt))
        population.popleft()
    return ev.result()


def local_search(bench: TabularBenchmark, objective: Objective,
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
