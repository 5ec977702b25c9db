"""Measurement-suite runner: one predictions file in, a record sweep out.

The default sweep covers 5 bin-based metrics at 9 bin counts for the raw
and temperature-scaled stages (90 records), 5 binning-free metrics at both
stages (10), and, when out-of-distribution confidence sets are supplied,
2 AUROC measurements -- 102 records total.  Records serialize to JSONL.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
import os
import re
import tempfile
from dataclasses import dataclass, field, fields
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from . import binning, continuous
from .analysis import MetricTable
from .predictions import (PredictionSet, SplitSpec, _is_finite_real, _is_int,
                          as_probabilities, split)
from .temperature import apply_temperature, fit_temperature

DEFAULT_BIN_SIZES = (5, 10, 15, 20, 25, 50, 100, 200, 500)
BIN_METRICS = tuple(binning._SUITE_METRICS)
STAGES = ("pre", "post")
_SPACES = ("tss", "sss")  # by a boolean: is it sss
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
        # numpy scalars pass the check; keep the types json writes
        for name, kind in _PLAIN_TYPES:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, kind(value))

    def to_dict(self) -> dict:
        return dict(vars(self))


_RECORD_FIELDS = frozenset(f.name for f in fields(MeasurementRecord))
_REQUIRED_FIELDS = _RECORD_FIELDS - {"temperature"}
_PLAIN_TYPES = (("arch_index", int), ("bin_count", int), ("value", float),
                ("temperature", float))


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
    ood_inputs: Optional[Tuple[Sequence[float], Sequence[float]]] = None
    temperature_scale: bool = True
    split: SplitSpec = field(default_factory=lambda: SplitSpec(0.2, seed=0))
    include_accuracy: bool = False
    benchmark_dataset: str = "synthetic"
    search_space: str = "tss"
    arch_index: int = 0

    def __post_init__(self):
        sizes = tuple(self.bin_sizes)
        for b in sizes:
            binning._check_m(b)
        if list(sizes) != sorted(set(sizes)):
            raise ValueError("bin sizes must be sorted and unique")
        self.bin_sizes = sizes
        if self.ood_inputs is not None and len(self.ood_inputs) != 2:
            raise ValueError("ood_inputs must hold exactly two "
                             "confidence sequences")


# each takes a stage's probabilities and its ``binning._top_label`` state
_CONT_FUNCS = {"nll": lambda probs, top: continuous.nll(probs),
               "brier": lambda probs, top: continuous.brier(probs),
               "ksce": lambda probs, top: continuous._ksce(*top),
               "mmce": lambda probs, top: continuous._mmce(*top),
               "kdece": lambda probs, top: continuous._kdece(*top)}
CONTINUOUS_METRICS = tuple(_CONT_FUNCS)


def run_suite(preds: PredictionSet, config: Optional[SuiteConfig] = None
              ) -> List[MeasurementRecord]:
    """Measure every suite metric at every stage on the test split.

    The predictions are split into a fitting part and a test part; the
    temperature is fit on the fitting part only, and all metric values are
    reported on the test part (stage "pre" raw, stage "post" rescaled).

    One stage is held at a time, and each array is dropped once nothing
    more reads it: the input after the split (on CPython >= 3.11 that
    frees a caller's temporary), the fitting part after the fit, the raw
    probabilities after the pre stage (only its top-label confidences stay,
    for AUROC), the test logits once the temperature is applied.  At peak
    that leaves the test logits and one stage's probabilities, plus
    temporaries of a few rows or columns each.
    """
    if config is None:
        config = SuiteConfig()

    def rec(metric, bins, stage, value, temperature):
        return MeasurementRecord(config.benchmark_dataset,
                                 config.search_space, config.arch_index,
                                 metric, bins, stage, "test", float(value),
                                 temperature)

    records = []

    def measure(stage, probs, tval):
        """Append one stage's records; return its top-label state."""
        # one argmax and one canonical sort serve every top-label metric
        top = binning._top_label(probs)
        binned = binning._binned_metrics(probs, top, config.bin_sizes)
        for (metric, bins), value in binned.items():
            records.append(rec(metric, bins, stage, value, tval))
        for metric, value_of in _CONT_FUNCS.items():
            records.append(rec(metric, None, stage, value_of(probs, top),
                               tval))
        if config.include_accuracy:
            # a 0/1 sum is exact in any order: the bits of probs.accuracy()
            records.append(rec("accuracy", None, stage, top[1].mean(), tval))
        return top

    fit_part, test_part = split(preds, config.split)
    del preds
    temp = fit_temperature(fit_part) if config.temperature_scale else None
    del fit_part
    # the pre stage's sorted confidences, which speed up auroc's search
    pos = measure("pre", as_probabilities(test_part), None)[0]
    if temp is not None:
        test_part = apply_temperature(test_part, temp)
        measure("post", test_part, temp.value)
    if config.ood_inputs is not None:
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


def write_records(records: Iterable[MeasurementRecord], path) -> int:
    """Write records as JSONL as they come, atomically (write temp file,
    then rename); returns how many were written."""
    count = 0
    with atomic_output(path) as tmp, open(tmp, "w") as fh:
        for count, r in enumerate(records, start=1):
            fh.write(json.dumps(r.to_dict(), sort_keys=True,
                                separators=(",", ":")) + "\n")
    return count


_DECODER = json.JSONDecoder()


def _parse_line(line: bytes) -> Optional[dict]:
    """One records line as a checked dict, or None for a blank line."""
    text = line.decode().strip()
    if not text:
        return None
    rec, end = _DECODER.raw_decode(text)
    if end != len(text):
        raise ValueError(f"extra data at column {end + 1}")
    check_record(rec)
    rec.setdefault("temperature", None)
    return rec


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
                rec = _parse_line(line)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") \
                    from None
            if rec is not None:
                yield rec


def metric_key(record) -> str:
    """Flat column name: metric[_bins]_stage, e.g. ece_15_pre, nll_post,
    of a MeasurementRecord or a record dict."""
    if not isinstance(record, dict):
        record = vars(record)
    bins = record["bin_count"]
    mid = f"_{bins}" if bins is not None else ""
    return f"{record['metric']}{mid}_{record['stage']}"


# about this many bytes of whole lines make one block
BLOCK_BYTES = 1 << 20


@functools.lru_cache(maxsize=None)
def _canonical_line():
    """The line form ``write_records`` writes, with five spans captured:
    arch_index, the dataset's characters, the five kind fields,
    temperature and value.

    Strings hold no escape, quote or control character, and a number is a
    JSON float with a fraction or an exponent: json reads an integer as an
    int, so ``-0`` is 0 where ``float`` gives -0.0, and such a line goes the
    per-line route.  The dataset is a span of its own because ``eval``
    gives each file its own: as part of the kind span, nearly every line
    of its output would be a new span.
    """
    string = rb'"[^"\\\x00-\x1f]*"'
    exp = rb'[eE][-+]?[0-9]+'
    real = rb'-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:' + exp + rb')?|' + exp + rb')'
    return re.compile(
        rb'^\{"arch_index":(0|[1-9][0-9]{0,17}),'  # < 10**18 fits int64
        rb'"benchmark_dataset":"([^"\\\x00-\x1f]*)",'
        rb'("bin_count":(?:null|[1-9][0-9]*),"metric":' + string +
        rb',"search_space":' + string + rb',"split":' + string +
        rb',"stage":' + string + rb'),"temperature":(null|' + real +
        rb'),"value":(' + real + rb')\}$', re.M)


# the fields that say which cell a record fills, but for the architecture
# and the dataset: how the line route spells a kind
_kind_fields = operator.itemgetter("bin_count", "metric", "search_space",
                                   "split", "stage")
# a block's columns: line, arch_index, value, and the dataset and kind codes
_BLOCK_DTYPES = (np.int64, np.int64, np.float64, np.int32, np.int32)


class _Read:
    """The datasets and kinds one read has met, as insertion-ordered
    ``value -> code`` dicts.

    A kind is what the pivot needs of a record: (is it sss, is it test,
    its column), where ``column(fields)`` numbers the record's cell, or
    gives -1 for a cell not kept.  ``dataset_of`` and ``kind_of`` code
    each spelling met -- a canonical span, or on the line route the
    ``_kind_fields`` -- so each is resolved once.
    """

    def __init__(self, column: Callable[[dict], int]):
        self.column = column
        self.datasets: Dict[str, int] = {}
        self.kinds: Dict[Tuple[bool, bool, int], int] = {}
        self.dataset_of: Dict[bytes, int] = {}
        self.kind_of: Dict[object, int] = {}

    def dataset(self, name: str) -> int:
        return self.datasets.setdefault(name, len(self.datasets))

    def kind(self, spelling, fields: dict) -> int:
        code = self.kind_of.get(spelling)
        if code is None:
            kind = (fields["search_space"] == "sss",
                    fields["split"] == "test", self.column(fields))
            code = self.kind_of[spelling] = \
                self.kinds.setdefault(kind, len(self.kinds))
        return code


def _fast_block(data: bytes, n: int, first: int,
                read: _Read) -> Optional[tuple]:
    """The block's ``n`` lines as columns, or None unless every line is
    canonical and passes ``check_record``.  Temperatures are checked but
    not kept."""
    found = _canonical_line().findall(data)
    if len(found) != n:
        return None
    archs, datasets, kinds, temps, values = zip(*found)
    value = np.fromiter(map(float, values), np.float64, n)
    if not np.isfinite(value).all():
        return None
    for temp in set(temps).difference((b"null",)):
        if not 0.0 < float(temp) < math.inf:
            return None
    try:  # the spans not met before; UnicodeDecodeError is a ValueError
        for span in set(datasets).difference(read.dataset_of):
            read.dataset_of[span] = read.dataset(span.decode())
        for span in set(kinds).difference(read.kind_of):
            fields = _DECODER.decode("{" + span.decode() + "}")
            check_record({**fields, "benchmark_dataset": "",
                          "arch_index": 0, "value": 0.0})
            read.kind(span, fields)
    except (TypeError, ValueError):
        return None
    return (np.arange(first, first + n),
            np.fromiter(map(int, archs), np.int64, n), value,
            np.fromiter(map(read.dataset_of.__getitem__, datasets),
                        np.int32, n),
            np.fromiter(map(read.kind_of.__getitem__, kinds), np.int32, n))


def _line_blocks(path, data: bytes, first: int,
                 read: _Read) -> Iterator[tuple]:
    """The block's records read line by line; at the first bad line, the
    records before it, then ValueError naming that line."""
    rows, error = [], None
    for lineno, line in enumerate(io.BytesIO(data), start=first):
        try:
            rec = _parse_line(line)
        except (TypeError, ValueError) as exc:
            error = ValueError(f"{path}:{lineno}: bad record: {exc}")
            break
        if rec is not None:
            rows.append((lineno, rec["arch_index"], float(rec["value"]),
                         read.dataset(rec["benchmark_dataset"]),
                         read.kind(_kind_fields(rec), rec)))
    if rows:
        yield tuple(map(np.array, zip(*rows), _BLOCK_DTYPES))
    if error is not None:
        raise error


def _read_blocks(path, read: _Read) -> Iterator[tuple]:
    """Stream a records JSONL file as blocks of about ``BLOCK_BYTES`` of
    whole lines, each as the ``_BLOCK_DTYPES`` columns, coding datasets
    and kinds in ``read``.

    A block whose every line has the form ``write_records`` writes is
    matched by one pattern and checked on its columns.  Any other block
    is read line by line as ``iter_records`` reads: blank lines are
    skipped and the first bad line raises ValueError naming ``path:line``,
    after the block of the good lines before it.  Both routes accept the
    same lines into the same columns and codes.
    """
    first = 1
    with open(path, "rb") as fh:
        while True:
            data = fh.read(BLOCK_BYTES)
            if not data:
                return
            data += fh.readline()  # the rest of the block's last line
            # the file's last line may lack its newline
            n = data.count(b"\n") + (not data.endswith(b"\n"))
            block = _fast_block(data, n, first, read)
            if block is None:
                yield from _line_blocks(path, data, first, read)
            else:
                yield block
            first += n


class PivotError(ValueError):
    """A records file that does not pivot into one table."""


def read_records(path, keys: Optional[Sequence[str]] = None
                 ) -> Tuple[str, MetricTable]:
    """The one pivot from a records file to cells: (search space,
    MetricTable).

    The file is read with ``_read_blocks``, which resolves each kind once
    to its search space, its split and its column; only the test split is
    pivoted.  Rows are the ``arch_index`` values in ascending order,
    columns the ``metric_key`` names, only those in ``keys`` when given;
    only those cells and the test ``arch_index`` values are kept while
    reading.  Raises PivotError, naming ``path`` and the line where there
    is one, for a second value of one cell, records of two search spaces,
    a cell that one architecture lacks while another has it, and no test
    records at all.  Of several faults, the first in file order is
    raised.
    """
    names: Dict[str, int] = {}

    def column(fields):
        name = metric_key(fields)
        kept = fields["split"] == "test" and (keys is None or name in keys)
        return names.setdefault(name, len(names)) if kept else -1

    read = _Read(column)
    space, archs, cells = None, [], []
    try:
        for line, arch, value, dataset, kind in _read_blocks(path, read):
            sss, test, key = np.array(list(read.kinds), np.int32)[kind].T
            if space is None:
                space = bool(sss[0])
            other = np.flatnonzero(sss != space)
            stop = other[0] if other.size else sss.size
            archs.append(np.unique(arch[:stop][test[:stop] == 1]))
            want = np.flatnonzero(key[:stop] >= 0)
            cells.append((key[want], arch[want], value[want], line[want],
                          dataset[want]))
            if other.size:
                raise PivotError(f"{path}:{line[other[0]]}: records mix "
                                 f"search spaces {_SPACES[space]!r} and "
                                 f"{_SPACES[not space]!r}")
        error = None
    except ValueError as exc:  # a bad line or a second space
        error = exc
    key, arch, value, line, dataset = (np.concatenate(c) for c in zip(
        *cells or [[np.empty(0, np.int64)] * 5]))
    order = np.lexsort((arch, key))  # stable: a cell's values in line order
    key, arch, value, line, dataset = (c[order] for c in
                                       (key, arch, value, line, dataset))
    again = np.flatnonzero((key[1:] == key[:-1]) & (arch[1:] == arch[:-1]))
    if again.size:  # the first line that gives a cell its second value
        i = 1 + again[np.argmin(line[1 + again])]
        name = next(n for n, k in names.items() if k == key[i])
        raise PivotError(f"{path}:{line[i]}: second value for {name} at "
                         f"arch_index {arch[i]} (benchmark_dataset "
                         f"{list(read.datasets)[dataset[i]]!r})")
    if error is not None:
        raise error
    rows = np.unique(np.concatenate(archs or [arch]))
    if not rows.size:
        raise PivotError(f"{path}: no records with split 'test'")
    columns = {}
    for name in sorted(names):
        lo, hi = np.searchsorted(key, [names[name], names[name] + 1])
        if hi - lo != rows.size:
            missing = np.setdiff1d(rows, arch[lo:hi])[:5].tolist()
            raise PivotError(f"{path}: column {name!r} missing for "
                             f"arch(es) {missing}")
        columns[name] = value[lo:hi]
    return _SPACES[space], MetricTable(rows, columns)
