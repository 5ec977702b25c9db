"""Measurement-suite runner: one predictions file in, a record sweep out.

The default sweep covers 5 bin-based metrics at 9 bin counts for the raw
and temperature-scaled stages (90 records), 5 binning-free metrics at both
stages (10), and, when out-of-distribution confidence sets are supplied,
2 AUROC measurements -- 102 records total.  Records serialize to JSONL.
"""
from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import binning, continuous
from .analysis import MetricTable
from .predictions import PredictionSet, SplitSpec, as_probabilities, split
from .temperature import apply_temperature, fit_temperature

DEFAULT_BIN_SIZES = (5, 10, 15, 20, 25, 50, 100, 200, 500)
BIN_METRICS = ("ece", "ece_em", "cwce", "cwce_em", "mce")
CONTINUOUS_METRICS = ("nll", "brier", "ksce", "mmce", "kdece")
STAGES = ("pre", "post")
SPLITS = ("val", "test")


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement of one metric on one architecture's predictions."""

    benchmark_dataset: str
    search_space: str
    arch_index: int
    metric: str
    bin_count: Optional[int]
    stage: str
    split: str
    value: float
    temperature: Optional[float] = None

    def __post_init__(self):
        if self.search_space not in ("tss", "sss"):
            raise ValueError(f"bad search_space {self.search_space!r}")
        if self.stage not in STAGES:
            raise ValueError(f"bad stage {self.stage!r}")
        if self.split not in SPLITS:
            raise ValueError(f"bad split {self.split!r}")
        if (self.metric in BIN_METRICS) != (self.bin_count is not None):
            raise ValueError("bin_count must be present exactly for "
                             f"bin-based metrics (metric={self.metric!r})")
        if not np.isfinite(self.value):
            raise ValueError("value must be finite")

    def to_dict(self) -> dict:
        return {"benchmark_dataset": self.benchmark_dataset,
                "search_space": self.search_space,
                "arch_index": self.arch_index, "metric": self.metric,
                "bin_count": self.bin_count, "stage": self.stage,
                "split": self.split, "value": self.value,
                "temperature": self.temperature}

    @classmethod
    def from_dict(cls, d: dict) -> "MeasurementRecord":
        return cls(**d)


@dataclass
class SuiteConfig:
    """What to measure and how to tag the records."""

    bin_sizes: Tuple[int, ...] = DEFAULT_BIN_SIZES
    bin_metrics: Tuple[str, ...] = BIN_METRICS
    continuous_metrics: Tuple[str, ...] = CONTINUOUS_METRICS
    ood_inputs: Optional[Tuple[Sequence[float], Sequence[float]]] = None
    temperature_scale: bool = True
    split: SplitSpec = field(default_factory=lambda: SplitSpec(0.2, seed=0))
    include_accuracy: bool = False
    benchmark_dataset: str = "synthetic"
    search_space: str = "tss"
    arch_index: int = 0

    def __post_init__(self):
        sizes = tuple(int(b) for b in self.bin_sizes)
        if any(b < 1 for b in sizes):
            raise ValueError("bin sizes must be positive")
        if list(sizes) != sorted(set(sizes)):
            raise ValueError("bin sizes must be sorted and unique")
        self.bin_sizes = sizes
        for m in self.bin_metrics:
            if m not in BIN_METRICS:
                raise ValueError(f"unknown bin metric {m!r}")
        for m in self.continuous_metrics:
            if m not in CONTINUOUS_METRICS:
                raise ValueError(f"unknown continuous metric {m!r}")
        if self.ood_inputs is not None and len(self.ood_inputs) != 2:
            raise ValueError("ood_inputs must hold exactly two "
                             "confidence sequences")


# each takes a stage's probabilities and its ``binning._top_label`` state
_CONT_FUNCS = {"nll": lambda probs, top: continuous.nll(probs),
               "brier": lambda probs, top: continuous.brier(probs),
               "ksce": lambda probs, top: continuous._ksce(*top),
               "mmce": lambda probs, top: continuous._mmce(*top),
               "kdece": lambda probs, top: continuous._kdece(*top)}


def run_suite(preds: PredictionSet, config: Optional[SuiteConfig] = None
              ) -> List[MeasurementRecord]:
    """Measure every configured metric at every stage on the test split.

    The predictions are split into a fitting part and a test part; the
    temperature is fit on the fitting part only, and all metric values are
    reported on the test part (stage "pre" raw, stage "post" rescaled).
    """
    if config is None:
        config = SuiteConfig()
    fit_part, test_part = split(preds, config.split)
    pre = as_probabilities(test_part)
    stages = [("pre", pre, None)]
    if config.temperature_scale:
        temp = fit_temperature(fit_part)
        stages.append(("post", apply_temperature(test_part, temp),
                       temp.value))

    def rec(metric, bins, stage, value, temperature):
        return MeasurementRecord(config.benchmark_dataset,
                                 config.search_space, config.arch_index,
                                 metric, bins, stage, "test", float(value),
                                 temperature)

    records = []
    for stage, probs, tval in stages:
        # one argmax and one canonical sort serve every top-label metric
        top = binning._top_label(probs)
        binned = binning._binned_metrics(probs, top, config.bin_metrics,
                                         config.bin_sizes)
        for metric in config.bin_metrics:
            for bins in config.bin_sizes:
                records.append(rec(metric, bins, stage, binned[metric, bins],
                                   tval))
        for metric in config.continuous_metrics:
            records.append(rec(metric, None, stage,
                               _CONT_FUNCS[metric](probs, top), tval))
        if config.include_accuracy:
            # a 0/1 sum is exact in any order: the bits of probs.accuracy()
            records.append(rec("accuracy", None, stage, top[1].mean(), tval))
    if config.ood_inputs is not None:
        pos = pre.top_confidence()
        for tag, ood in zip(("a", "b"), config.ood_inputs):
            neg = np.asarray(ood, dtype=np.float64)
            if neg.ndim != 1 or neg.size == 0:
                raise ValueError("ood confidence sets must be non-empty "
                                 "1-D arrays")
            records.append(rec(f"auroc_ood_{tag}", None, "pre",
                               continuous.auroc(pos, neg), None))
    return records


@contextlib.contextmanager
def atomic_output(path):
    """Yield a temp path beside ``path``; rename it onto ``path`` on success.

    The file gets the mode a plain ``open(path, "w")`` would give
    (0o666 less the umask), not the 0o600 of ``mkstemp``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_records(records: Sequence[MeasurementRecord], path) -> None:
    """Write records as JSONL, atomically (write temp file, then rename)."""
    with atomic_output(path) as tmp, open(tmp, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(), sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")


def read_records(path) -> List[MeasurementRecord]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(MeasurementRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") \
                    from None
    return records


def metric_key(record: MeasurementRecord) -> str:
    """Flat column name: metric[_bins]_stage, e.g. ece_15_pre, nll_post."""
    mid = f"_{record.bin_count}" if record.bin_count is not None else ""
    return f"{record.metric}{mid}_{record.stage}"


def table_from_records(records: Sequence[MeasurementRecord],
                       split: str = "test") -> MetricTable:
    """Pivot records into a MetricTable (rows archs, columns metric keys).

    Fails if any architecture is missing a column present for another, so
    correlations downstream never see missing cells.
    """
    cells: Dict[str, Dict[int, float]] = {}
    archs = []
    seen = set()
    for r in records:
        if r.split != split:
            continue
        if r.arch_index not in seen:
            seen.add(r.arch_index)
            archs.append(r.arch_index)
        cells.setdefault(metric_key(r), {})[r.arch_index] = r.value
    if not archs:
        raise ValueError(f"no records with split {split!r}")
    archs.sort()
    columns = {}
    for name, by_arch in sorted(cells.items()):
        missing = [a for a in archs if a not in by_arch]
        if missing:
            raise ValueError(f"column {name!r} missing for arch(es) "
                             f"{missing[:5]}")
        columns[name] = np.array([by_arch[a] for a in archs])
    return MetricTable(np.array(archs), columns)
