"""Measurement-suite runner: one predictions file in, a record sweep out.

The default sweep covers 5 bin-based metrics at 9 bin counts for the raw
and temperature-scaled stages (90 records), 5 binning-free metrics at both
stages (10), and, when out-of-distribution confidence sets are supplied,
2 AUROC measurements -- 102 records total.  Records serialize to JSONL.
"""
from __future__ import annotations

import functools
import io
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, field, fields
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from . import binning, continuous
from .analysis import MetricTable
from .archspace import SPACES
from .predictions import (PredictionSet, SplitSpec, _check_count,
                          _check_index, _check_positive, _is_finite_real,
                          _is_int, as_probabilities, atomic_output, split)
from .temperature import apply_temperature, fit_temperature

DEFAULT_BIN_SIZES = (5, 10, 15, 20, 25, 50, 100, 200, 500)
BIN_METRICS = tuple(binning._SUITE_METRICS)
STAGES = ("pre", "post")
# by a boolean: is it sss; `in` on a tuple takes an unhashable tag too
_SPACES = tuple(SPACES)
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
    if rec["search_space"] not in _SPACES:
        raise ValueError(f"bad search_space {rec['search_space']!r}")
    if rec["stage"] not in STAGES:
        raise ValueError(f"bad stage {rec['stage']!r}")
    if rec["split"] not in SPLITS:
        raise ValueError(f"bad split {rec['split']!r}")
    _check_index("arch_index", rec["arch_index"])
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
    if rec.get("temperature") is not None:
        _check_positive("temperature", rec["temperature"])


@dataclass(frozen=True)
class SuiteConfig:
    """What to measure and how to tag the records; a value ``run_suite``
    would refuse is refused here, before any work, and ``run_suite`` does
    not check it again (so the config and its OoD sets are read-only)."""

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
            _check_count("bin count", b)
        if list(sizes) != sorted(set(sizes)):
            raise ValueError("bin sizes must be sorted and unique")
        object.__setattr__(self, "bin_sizes", sizes)
        if self.ood_inputs is not None:
            if len(self.ood_inputs) != 2:
                raise ValueError("ood_inputs must hold exactly two "
                                 "confidence sequences")
            ood = tuple(continuous._score_set(s).copy()
                        for s in self.ood_inputs)
            for s in ood:
                s.setflags(write=False)
            object.__setattr__(self, "ood_inputs", ood)
        # the record's own rules on the tags
        MeasurementRecord(self.benchmark_dataset, self.search_space,
                          self.arch_index, "nll", None, "pre", "test", 0.0)


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
    """
    held = [preds]  # the core drops the input, so no frame here holds it
    del preds
    config = SuiteConfig() if config is None else config
    return [MeasurementRecord(**rec) for rec in
            _records_of(config, *_suite_values(held.pop(), config))]


def _suite_values(preds: PredictionSet, config: SuiteConfig) -> tuple:
    """One model's values (a list of floats, in the order ``_records_of``
    keys them) and its fitted Temperature (None when scaling is off).

    One stage is held at a time, and each array is dropped once nothing
    more reads it: the input after the split (on CPython >= 3.11 that
    frees a caller's temporary), the fitting part after the fit, the raw
    probabilities after the pre stage (only its top-label confidences stay,
    for AUROC), the test logits once the temperature is applied.  At peak
    that leaves the test logits and one stage's probabilities, plus
    temporaries of a few rows or columns each.
    """
    values = []

    def measure(probs):
        """Append one stage's values; return its top-label state."""
        # one argmax and one canonical sort serve every top-label metric
        top = binning._top_label(probs)
        values.extend(binning._binned_metrics(probs, top,
                                              config.bin_sizes).values())
        values.extend(float(f(probs, top)) for f in _CONT_FUNCS.values())
        if config.include_accuracy:
            # a 0/1 sum is exact in any order: the bits of probs.accuracy()
            values.append(float(top[1].mean()))
        return top

    fit_part, test_part = split(preds, config.split)
    del preds
    temp = fit_temperature(fit_part) if config.temperature_scale else None
    del fit_part
    # the pre stage's sorted confidences, which speed up auroc's search
    pos = measure(as_probabilities(test_part))[0]
    if temp is not None:
        test_part = apply_temperature(test_part, temp)
        measure(test_part)
    for neg in config.ood_inputs or ():
        values.append(float(continuous._auroc(pos, neg)))
    return values, temp


def _records_of(config: SuiteConfig, values, temp) -> Iterator[dict]:
    """The record dict of each of ``_suite_values``'s values."""
    extra = ("accuracy",) if config.include_accuracy else ()
    keys = [(m, b, stage) for stage in STAGES[:1 + (temp is not None)]
            for m, b in [*itertools.product(BIN_METRICS, config.bin_sizes),
                         *((m, None) for m in CONTINUOUS_METRICS + extra)]]
    if config.ood_inputs is not None:
        keys += [(f"auroc_ood_{tag}", None, "pre") for tag in "ab"]
    tags = dict(benchmark_dataset=config.benchmark_dataset, split="test",
                search_space=config.search_space, arch_index=config.arch_index)
    for (metric, bins, stage), value in zip(keys, values, strict=True):
        yield dict(tags, metric=metric, bin_count=bins, stage=stage,
                   value=value,
                   temperature=temp.value if stage == "post" else None)


def _record_line(rec: dict) -> str:
    """A record dict's JSONL line, the one form records are written in."""
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def write_records(records: Iterable[MeasurementRecord], path) -> int:
    """Write records as JSONL as they come, atomically (write temp file,
    then rename); returns how many were written."""
    count = 0
    with atomic_output(path) as fh:
        for count, r in enumerate(records, start=1):
            fh.write(_record_line(r.to_dict()))
    return count


_DECODER = json.JSONDecoder()


def _checked_lines(path, lines: Iterable[bytes],
                   first: int = 1) -> Iterator[Tuple[int, dict]]:
    """(line number, checked dict) of each non-blank line of ``lines``,
    numbered from ``first``; a missing temperature is set to None.  The
    first bad line raises ValueError ``path:line: bad record: ...``."""
    for lineno, line in enumerate(lines, start=first):
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
        yield lineno, rec


def iter_records(path) -> Iterator[dict]:
    """Stream a records file's checked dicts, read by ``_checked_lines``."""
    with open(path, "rb") as fh:
        yield from (rec for _, rec in _checked_lines(path, fh))


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

    Only the dataset may hold escapes, as json writes a non-ASCII tag; no
    string holds a bare quote or a control character.  A number is a JSON
    float with a fraction or an exponent: json reads an integer as an int,
    so ``-0`` is 0 where ``float`` gives -0.0, and such a line goes the
    per-line route.  The dataset is a span of its own: ``eval`` tags each
    file with its own, so in the kind span each file's kinds would be new.
    """
    chars = rb'[^"\\\x00-\x1f]*'
    string = rb'"' + chars + rb'"'
    exp = rb'[eE][-+]?[0-9]+'
    real = rb'-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:' + exp + rb')?|' + exp + rb')'
    return re.compile(
        rb'^\{"arch_index":(0|[1-9][0-9]{0,17}),'  # < 10**18 fits int64
        rb'"benchmark_dataset":"(' + chars +  # escapes, unrolled
        rb'(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})' + chars + rb')*)",'
        rb'("bin_count":(?:null|[1-9][0-9]*),"metric":' + string +
        rb',"search_space":' + string + rb',"split":' + string +
        rb',"stage":' + string + rb'),"temperature":(null|' + real +
        rb'),"value":(' + real + rb')\}$', re.M)


# the fields that say which cell a record fills, but for the architecture
# and the dataset: how the line route spells a kind
_kind_fields = operator.itemgetter("bin_count", "metric", "search_space",
                                   "split", "stage")
# a block's columns: line, arch_index, value and the kind code
_BLOCK_DTYPES = (np.int64, np.int64, np.float64, np.int32)


class _Read:
    """The kinds one read has met, coded in the order met.

    A kind is what the pivot needs of a record: (is it sss, is it test,
    its column), where ``column(fields)`` numbers the record's cell, or
    gives -1 for a cell not kept.  ``kind_of`` codes each spelling met --
    a canonical span, or on the line route the ``_kind_fields`` -- so each
    is resolved once.
    """

    def __init__(self, column: Callable[[dict], int]):
        self.column = column
        self.kinds: Dict[Tuple[bool, bool, int], int] = {}
        self.kind_of: Dict[object, int] = {}

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
    canonical and passes ``check_record``.  Datasets and temperatures are
    checked but not kept."""
    found = _canonical_line().findall(data)
    if len(found) != n:
        return None
    archs, datasets, kinds, temps, values = zip(*found)
    value = np.fromiter(map(float, values), np.float64, n)
    if not np.isfinite(value).all():
        return None
    try:  # temperatures, spans; UnicodeDecodeError is a ValueError
        for temp in set(temps).difference((b"null",)):
            _check_positive("temperature", float(temp))
        for span in set(datasets):  # strict UTF-8 before json's decode
            _DECODER.decode('"' + span.decode() + '"')
        for span in set(kinds).difference(read.kind_of):
            fields = _DECODER.decode("{" + span.decode() + "}")
            check_record({**fields, "benchmark_dataset": "",
                          "arch_index": 0, "value": 0.0})
            read.kind(span, fields)
    except (TypeError, ValueError):
        return None
    return (np.arange(first, first + n),
            np.fromiter(map(int, archs), np.int64, n), value,
            np.fromiter(map(read.kind_of.__getitem__, kinds), np.int32, n))


def _line_blocks(path, data: bytes, first: int,
                 read: _Read) -> Iterator[tuple]:
    """The block's records read line by line; at the first bad line, the
    records before it, then ValueError naming that line."""
    rows, error = [], None
    try:
        for lineno, rec in _checked_lines(path, io.BytesIO(data), first):
            rows.append((lineno, rec["arch_index"], float(rec["value"]),
                         read.kind(_kind_fields(rec), rec)))
    except ValueError as exc:
        error = exc
    if rows:
        yield tuple(map(np.array, zip(*rows), _BLOCK_DTYPES))
    if error is not None:
        raise error


def _read_blocks(path, read: _Read) -> Iterator[tuple]:
    """Stream a records JSONL file as blocks of about ``BLOCK_BYTES`` of
    whole lines, each as ``_BLOCK_DTYPES`` columns, kinds coded in ``read``.

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
    is one, for a second value of one cell (whose dataset is read back
    from that line), records of two search spaces, a cell that one
    architecture lacks while another has it, and no test records at all.
    Of several faults, the first in file order is raised.
    """
    names: Dict[str, int] = {}

    def column(fields):
        name = metric_key(fields)
        kept = fields["split"] == "test" and (keys is None or name in keys)
        return names.setdefault(name, len(names)) if kept else -1

    read = _Read(column)
    space, archs, cells = None, [], []
    try:
        for line, arch, value, kind in _read_blocks(path, read):
            sss, test, key = np.array(list(read.kinds), np.int32)[kind].T
            if space is None:
                space = bool(sss[0])
            other = np.flatnonzero(sss != space)
            stop = other[0] if other.size else sss.size
            archs.append(np.unique(arch[:stop][test[:stop] == 1]))
            want = np.flatnonzero(key[:stop] >= 0)
            cells.append((key[want], arch[want], value[want], line[want]))
            if other.size:
                raise PivotError(f"{path}:{line[other[0]]}: records mix "
                                 f"search spaces {_SPACES[space]!r} and "
                                 f"{_SPACES[not space]!r}")
        error = None
    except ValueError as exc:  # a bad line or a second space
        error = exc
    key, arch, value, line = (np.concatenate(c) for c in zip(
        *cells or [[np.empty(0, np.int64)] * 4]))
    del cells  # each column is held once, not twice
    order = np.lexsort((arch, key))  # stable: a cell's values in line order
    key, arch = key[order], arch[order]  # two at a time: fewer copies
    value, line = value[order], line[order]
    again = np.flatnonzero((key[1:] == key[:-1]) & (arch[1:] == arch[:-1]))
    if again.size:  # the first line that gives a cell its second value
        i = 1 + again[np.argmin(line[1 + again])]
        name = next(n for n, k in names.items() if k == key[i])
        with open(path, "rb") as fh:  # that line's record, read again
            (_, rec), = _checked_lines(
                path, itertools.islice(fh, line[i] - 1, line[i]), line[i])
        raise PivotError(f"{path}:{line[i]}: second value for {name} at "
                         f"arch_index {arch[i]} (benchmark_dataset "
                         f"{rec['benchmark_dataset']!r})")
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
