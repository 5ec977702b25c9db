"""Measurement-suite runner: one predictions file in, a record sweep out.

The default sweep covers 5 bin-based metrics at 9 bin counts for the raw
and temperature-scaled stages (90 records), 5 binning-free metrics at both
stages (10), and, when out-of-distribution confidence sets are supplied,
2 AUROC measurements -- 102 records total.  Records serialize to JSONL.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

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
        check_record(vars(self))

    def to_dict(self) -> dict:
        return dict(vars(self))


_RECORD_FIELDS = frozenset(f.name for f in fields(MeasurementRecord))
_REQUIRED_FIELDS = _RECORD_FIELDS - {"temperature"}


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    if isinstance(x, bool) or \
            not isinstance(x, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def check_record(rec: dict) -> None:
    """Raise unless ``rec`` maps record field names to valid values.

    The one rule set for records: ``MeasurementRecord`` applies it to its
    fields and ``iter_records`` to each parsed line.  ``temperature`` may
    be absent (it defaults to None); any other missing or unknown field is
    a TypeError, a bad value a ValueError.  The ``type(...) is`` tests are
    fast paths for what JSON gives; the helpers decide the rest.
    """
    if type(rec) is not dict:
        raise TypeError(f"a record must be a JSON object, got "
                        f"{type(rec).__name__}")
    if not (len(rec) == len(_RECORD_FIELDS)
            and _RECORD_FIELDS.issuperset(rec)):
        missing = sorted(_REQUIRED_FIELDS - rec.keys())
        unknown = sorted(rec.keys() - _RECORD_FIELDS)
        if missing or unknown:
            raise TypeError(f"missing fields {missing}, unknown fields "
                            f"{unknown}")
    if not (isinstance(rec["benchmark_dataset"], str)
            and isinstance(rec["metric"], str)):
        name = "metric" if isinstance(rec["benchmark_dataset"], str) \
            else "benchmark_dataset"
        raise ValueError(f"{name} must be a string, got {rec[name]!r}")
    if rec["search_space"] not in ("tss", "sss"):
        raise ValueError(f"bad search_space {rec['search_space']!r}")
    if rec["stage"] not in STAGES:
        raise ValueError(f"bad stage {rec['stage']!r}")
    if rec["split"] not in SPLITS:
        raise ValueError(f"bad split {rec['split']!r}")
    arch = rec["arch_index"]
    if type(arch) is not int and not _is_int(arch) or arch < 0:
        raise ValueError(f"arch_index must be an integer >= 0, got {arch!r}")
    bins = rec["bin_count"]
    if (rec["metric"] in BIN_METRICS) != (bins is not None):
        raise ValueError("bin_count must be present exactly for "
                         f"bin-based metrics (metric={rec['metric']!r})")
    if bins is not None and (type(bins) is not int and not _is_int(bins)
                             or bins < 1):
        raise ValueError(f"bin_count must be an integer >= 1, got {bins!r}")
    value = rec["value"]
    if not (type(value) is float and math.isfinite(value)
            or _is_finite_real(value)):
        raise ValueError(f"value must be a finite real number, got "
                         f"{value!r}")
    temp = rec.get("temperature")
    if temp is not None and not (_is_finite_real(temp) and temp > 0):
        raise ValueError(f"temperature must be None or a finite number "
                         f"> 0, got {temp!r}")


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
    tops = {}
    for stage, probs, tval in stages:
        # one argmax and one canonical sort serve every top-label metric
        top = tops[stage] = binning._top_label(probs)
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
        pos = tops["pre"][0]  # sorted, which speeds up auroc's search
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
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:  # name the output, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
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


_DECODER = json.JSONDecoder()


def iter_records(path) -> Iterator[dict]:
    """Stream a records JSONL file as checked plain dicts, one per line.

    Blank lines are skipped.  Every other line must be one UTF-8 JSON
    object that passes ``check_record``; the first that does not raises
    ValueError naming ``path:line``.  A missing ``temperature`` is set to
    None.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode().strip()
                if not text:
                    continue
                rec, end = _DECODER.raw_decode(text)
                if end != len(text):
                    raise ValueError(f"extra data at column {end + 1}")
                check_record(rec)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") \
                    from None
            rec.setdefault("temperature", None)
            yield rec


def metric_key(record) -> str:
    """Flat column name: metric[_bins]_stage, e.g. ece_15_pre, nll_post,
    of a MeasurementRecord or a record dict."""
    if not isinstance(record, dict):
        record = vars(record)
    bins = record["bin_count"]
    mid = f"_{bins}" if bins is not None else ""
    return f"{record['metric']}{mid}_{record['stage']}"


class PivotError(ValueError):
    """A record stream that does not pivot into one table."""


def pivot(records: Iterable[dict], keys: Optional[Sequence[str]] = None
          ) -> Tuple[str, MetricTable]:
    """The one pivot from records to cells: (search space, MetricTable).

    ``records`` are record dicts (``iter_records``, ``r.to_dict()``); only
    the test split is read.  Rows are the ``arch_index`` values in
    ascending order, columns the ``metric_key`` names, only those in
    ``keys`` when given.  Raises PivotError for a second value of one
    cell, records of two search spaces, a cell that one architecture lacks
    while another has it, and no test records at all.
    """
    space = None
    archs = set()
    cells: Dict[str, Dict[int, float]] = {}
    for rec in records:
        if space not in (None, rec["search_space"]):
            raise PivotError(f"records mix search spaces {space!r} and "
                             f"{rec['search_space']!r}")
        space = rec["search_space"]
        if rec["split"] != "test":
            continue
        arch = rec["arch_index"]
        archs.add(arch)
        key = metric_key(rec)
        if keys is not None and key not in keys:
            continue
        column = cells.setdefault(key, {})
        if arch in column:
            raise PivotError(f"second value for {key} at arch_index {arch} "
                             f"(benchmark_dataset "
                             f"{rec['benchmark_dataset']!r})")
        column[arch] = rec["value"]
    if not archs:
        raise PivotError("no records with split 'test'")
    rows = sorted(archs)
    columns = {}
    for name, by_arch in sorted(cells.items()):
        if len(by_arch) != len(rows):
            missing = [a for a in rows if a not in by_arch]
            raise PivotError(f"column {name!r} missing for arch(es) "
                             f"{missing[:5]}")
        columns[name] = np.array([by_arch[a] for a in rows])
    return space, MetricTable(np.array(rows), columns)
