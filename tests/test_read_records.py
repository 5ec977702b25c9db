"""The block reader against the per-line read and dict pivot it replaced.

``oracle_pivot`` is that read and pivot, kept as the reference:
``read_records`` must give the same table, or the same message, for any
file.  The messages of the oracle carry the ``path:line`` prefix that
pivot errors now carry.
"""
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from calibrex import (MeasurementRecord, MetricTable, PredictionSet,
                      SuiteConfig, enumerate_tss, load_benchmark,
                      read_records, run_suite, suite, write_records)
from calibrex.suite import PivotError, check_record, metric_key

KEYS = ("accuracy_pre", "ece_15_pre")


def oracle_pivot(path, keys=None):
    """Each line decoded and checked on its own, folded into dicts."""
    decoder = json.JSONDecoder()
    space, archs, cells = None, set(), {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode().strip()
                if not text:
                    continue
                rec, end = decoder.raw_decode(text)
                if end != len(text):
                    raise ValueError(f"extra data at column {end + 1}")
                check_record(rec)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") \
                    from None
            if space not in (None, rec["search_space"]):
                raise PivotError(f"{path}:{lineno}: records mix search "
                                 f"spaces {space!r} and "
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
                raise PivotError(f"{path}:{lineno}: second value for {key} "
                                 f"at arch_index {arch} (benchmark_dataset "
                                 f"{rec['benchmark_dataset']!r})")
            column[arch] = rec["value"]
    if not archs:
        raise PivotError(f"{path}: no records with split 'test'")
    rows = sorted(archs)
    columns = {}
    for name, by_arch in sorted(cells.items()):
        if len(by_arch) != len(rows):
            missing = [a for a in rows if a not in by_arch]
            raise PivotError(f"{path}: column {name!r} missing for "
                             f"arch(es) {missing[:5]}")
        columns[name] = np.array([by_arch[a] for a in rows])
    return space, MetricTable(np.array(rows), columns)


def outcome(read, path, keys):
    """(space, rows, column name -> value bits), or the error message."""
    try:
        space, table = read(path, keys)
    except ValueError as exc:
        return str(exc)
    return space, table.arch_index.tolist(), \
        {k: v.tobytes() for k, v in table.columns.items()}


def assert_same(path, keys=None):
    want = outcome(oracle_pivot, path, keys)
    assert outcome(read_records, path, keys) == want
    return want


def suite_lines(archs=(0, 1, 2), dataset="d"):
    """The canonical records of small suites, with both splits."""
    records = []
    for arch in archs:
        rng = np.random.default_rng(arch)
        preds = PredictionSet(rng.normal(size=(60, 3)),
                              rng.integers(0, 3, size=60))
        cfg = SuiteConfig(bin_sizes=(5, 15), include_accuracy=True,
                          arch_index=arch, benchmark_dataset=dataset)
        records += run_suite(preds, cfg)
    records += [MeasurementRecord(**{**records[0].to_dict(),
                                     "split": "val"})]
    return records


@pytest.fixture
def canonical(tmp_path):
    path = tmp_path / "r.jsonl"
    write_records(suite_lines(), path)
    return path


# bytes that keep a line canonical, bytes that break it, and JSON's own
ALPHABET = b"0123456789" * 4 + b"abcdest_" * 2 + b'"\\{}[],:.-+eE \r\n\t' \
    + b"\x00\x1f\x7f\xc3\xa9\xff" + b"nul"


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three byte edits, after a line edit half of the time."""
    lines = data.splitlines(keepends=True)
    i, kind = rng.randrange(len(lines)), rng.random()
    if kind < 0.15:  # a second value, or a cell of another architecture,
        # tagged with another dataset, after zero to two blank lines
        lines.insert(rng.randrange(len(lines)), b"\n" * rng.randrange(3) +
                     lines[i].replace(b'"d"', b'"e"'))
    elif kind < 0.3:
        del lines[i]
    elif kind < 0.5:
        lines[i] = re.sub(rb'"arch_index":\d+',
                          b'"arch_index":%d' % rng.randrange(3), lines[i])
    buf = bytearray(b"".join(lines))
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(buf) + 1)
        kind = rng.random()
        if kind < 0.5 and i < len(buf):
            buf[i] = rng.choice(ALPHABET)
        elif kind < 0.8:
            buf[i:i] = bytes([rng.choice(ALPHABET)])
        else:
            del buf[i:i + rng.randint(1, 4)]
    return bytes(buf)


def test_fuzzed_files_read_as_the_oracle_reads_them(tmp_path, monkeypatch):
    records = suite_lines(archs=(0, 1))
    base = b"".join(json.dumps(r.to_dict(), sort_keys=True,
                               separators=(",", ":")).encode() + b"\n"
                    for r in records[:8] + records[32:40])
    rng = random.Random(20231)
    path = tmp_path / "f.jsonl"
    outcomes = set()
    for case in range(2_000):
        monkeypatch.setattr(suite, "BLOCK_BYTES",
                            rng.choice((97, 512, 1 << 20)))
        data = mutate(base, rng)
        path.write_bytes(data)
        want = assert_same(path, KEYS if case % 2 else None)
        outcomes.add(want if isinstance(want, str) else "table")
    # the fuzz reached tables, bad lines and pivot errors alike
    assert "table" in outcomes
    assert any("bad record" in o for o in outcomes)
    assert any("second value" in o for o in outcomes)
    assert any("missing for" in o for o in outcomes)


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace("\n", "  \n  "),
    lambda t: t.replace("\n", "\n\n", 3),
    lambda t: t.replace('"d"', '"caf\\u00e9"'),
    lambda t: t.replace('"d"', '"a\\"b"'),
    lambda t: t.replace('"tss"', '"tss" '),
], ids=["crlf", "padded", "blank-lines", "escaped-non-ascii",
        "escaped-quote", "space-after-a-field"])
def test_non_canonical_lines_read_as_the_oracle_reads_them(canonical, edit):
    canonical.write_text(edit(canonical.read_text()))
    assert not isinstance(assert_same(canonical), str)


@pytest.mark.parametrize("old, new", [
    (b'"value":', b'"value":1e-05,"x":'),
    (b'"temperature":null,', b''),
    (b'"value":0.', b'"value":-0,"q":0.'),
    (b'"value":0.', b'"value":7,"q":0.'),
    (b'"value":0.', b'"value":1e400,"q":0.'),
    (b'"temperature":null', b'"temperature":-0.0'),
    (b'"arch_index":0', b'"arch_index":-0'),
    (b'"arch_index":0', b'"arch_index":00'),
    (b'"bin_count":5', b'"bin_count":0'),
    (b'"split":"test"', b'"split":"train"'),
    (b'"d"', b'"\xff"'),
    (b'"d"', b'"\xed\xa0\x80"'),  # a surrogate, which UTF-8 excludes
])
def test_edited_lines_read_as_the_oracle_reads_them(canonical, old, new):
    lines = canonical.read_bytes().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if old in line)
    line = lines[i].replace(old, new, 1)
    for extra in (b',"x":', b',"q":'):  # drop the old value again
        if extra in line:
            line = line.partition(extra)[0] + b"}\n"
    lines[i] = line
    canonical.write_bytes(b"".join(lines))
    assert_same(canonical)


def test_canonical_variants_take_the_column_route(tmp_path, monkeypatch):
    records = suite_lines(dataset="café")
    # an exponent, a negative zero and an integer-valued float
    for i, value in ((0, 1e-05), (1, -0.0), (2, 3.0)):
        records[i] = MeasurementRecord(**{**records[i].to_dict(),
                                          "value": value})
    path = tmp_path / "r.jsonl"
    write_records(records, path)
    escaped = path.read_text()
    assert "caf\\u00e9" in escaped  # json escapes it

    def fail(*args):
        raise AssertionError("a canonical block was read line by line")

    monkeypatch.setattr(suite, "_line_blocks", fail)
    # as json writes it, and as another writer may
    for text in (escaped, escaped.replace("\\u00e9", "é")):
        path.write_text(text, encoding="utf-8")
        assert outcome(read_records, path, None) == \
            outcome(oracle_pivot, path, None)
        _, table = read_records(path)
        assert np.signbit(table.columns[metric_key(records[1])][0])


def test_block_boundaries(canonical, monkeypatch):
    data = canonical.read_bytes()
    assert len(data) > 3 * 1000
    for size in (1000, 333, 64):  # 64: no line ends in a chunk
        monkeypatch.setattr(suite, "BLOCK_BYTES", size)
        assert not isinstance(assert_same(canonical), str)
        # the last line without its newline
        canonical.write_bytes(data[:-1])
        assert not isinstance(assert_same(canonical), str)
        canonical.write_bytes(data)
    # a bad line in the second block is named by its own line number
    monkeypatch.setattr(suite, "BLOCK_BYTES", 1000)
    lines = data.splitlines(keepends=True)
    bad = next(i for i in range(len(lines))
               if sum(map(len, lines[:i])) > 1500)
    lines[bad] = lines[bad].replace(b'"arch_index":', b'"arch_index":"')
    canonical.write_bytes(b"".join(lines))
    message = assert_same(canonical)
    assert message.startswith(f"{canonical}:{bad + 1}: bad record: ")


def test_the_first_fault_in_the_file_is_raised(canonical):
    lines = canonical.read_text().splitlines(keepends=True)
    again, bad = lines[2].replace('"d"', '"again"'), "{broken\n"
    # a repeated cell before a bad line in one line-by-line block
    canonical.write_text("".join(lines[:3] + [again, bad] + lines[3:]))
    assert "4: second value" in assert_same(canonical)
    # a bad line before the repeat
    canonical.write_text("".join(lines[:3] + [bad, again] + lines[3:]))
    assert "4: bad record" in assert_same(canonical)
    # blank lines before a repeat: its own line and dataset are named
    canonical.write_text("".join(lines[:3] + ["\n", "\n", again] +
                                 lines[3:]))
    message = assert_same(canonical)
    assert "6: second value" in message
    assert message.endswith("(benchmark_dataset 'again')")
    # of two repeated cells, the one whose second value comes first
    twice = [lines[4].replace('"d"', '"x"'), lines[1].replace('"d"', '"y"')]
    canonical.write_text("".join(lines[:6] + twice + lines[6:]))
    assert "7: second value" in assert_same(canonical)
    # a repeat before a second search space, and the reverse
    other = lines[5].replace('"tss"', '"sss"')
    canonical.write_text("".join(lines[:3] + [again, other] + lines[3:]))
    assert "4: second value" in assert_same(canonical)
    canonical.write_text("".join(lines[:3] + [other, again] + lines[3:]))
    assert "4: records mix search spaces" in assert_same(canonical)


def eval_shaped(tmp_path, n_archs):
    """A benchmark file with 102 records per architecture, and its index."""
    keys = [(m, b) for m in suite.BIN_METRICS
            for b in suite.DEFAULT_BIN_SIZES] + \
        [(m, None) for m in suite.CONTINUOUS_METRICS] + [("accuracy", None)]
    rng = np.random.default_rng(0)
    lines = []
    for arch in range(n_archs):
        values = rng.uniform(0.01, 0.9, size=2 * len(keys))
        for stage, temp in (("pre", "null"), ("post", "1.5")):
            for metric, bins in keys:
                if len(lines) % 102 == 100:
                    lines.append(f'{{"arch_index":{arch},"benchmark_dataset":'
                                 '"cifar10","bin_count":null,"metric":'
                                 f'"auroc_ood_{stage[1]}","search_space":'
                                 '"tss","split":"test","stage":"pre",'
                                 '"temperature":null,"value":0.5}\n')
                    continue
                lines.append(
                    f'{{"arch_index":{arch},"benchmark_dataset":"cifar10",'
                    f'"bin_count":{"null" if bins is None else bins},'
                    f'"metric":"{metric}","search_space":"tss","split":'
                    f'"test","stage":"{stage}","temperature":{temp},'
                    f'"value":{float(values[len(lines) % len(values)])!r}}}\n')
    path = tmp_path / "eval.jsonl"
    path.write_text("".join(lines))
    archs = [a.to_string() for a in enumerate_tss()[:n_archs]]
    (tmp_path / "eval.index.json").write_text(
        json.dumps({a: i for i, a in enumerate(archs)}))
    return path, len(lines)


def test_load_benchmark_streams_the_records(tmp_path):
    path, n_lines = eval_shaped(tmp_path, 800)
    assert n_lines == 800 * 102
    assert path.stat().st_size > 12 * 2**20
    tracemalloc.start()
    try:
        bench = load_benchmark(str(path))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        read_records(path)  # every cell, no keys
        per_line = (tracemalloc.get_traced_memory()[1] - held) / n_lines
    finally:
        tracemalloc.stop()
    assert len(bench) == 800
    # a few blocks at a time, where a whole-file read holds over 12 MiB;
    # the per-line read peaked at 0.3 MB, the block read at 4.0-4.9 MiB
    assert peak < 8 * 2**20, peak
    # each kept cell holds its column, arch_index, value and line (28 B),
    # sorted once; this read peaks at 73.6 B/line, 106.1 with a dataset
    # code per cell and every column held twice
    assert per_line < 90, per_line
