"""Tests for the measurement-suite runner and the JSONL record format."""
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from calibrex import (
    MeasurementRecord,
    PredictionSet,
    SplitSpec,
    SuiteConfig,
    apply_temperature,
    as_probabilities,
    binning,
    continuous,
    ece,
    fit_temperature,
    iter_records,
    metric_key,
    nll,
    read_records,
    run_suite,
    split,
    write_records,
)
from calibrex.suite import BIN_METRICS, CONTINUOUS_METRICS, PivotError


def read_back(path):
    return [MeasurementRecord(**rec) for rec in iter_records(path)]


def make_preds(seed=0, n=400, k=3):
    rng = np.random.default_rng(seed)
    return PredictionSet(rng.normal(scale=2.0, size=(n, k)),
                         rng.integers(0, k, size=n))


def ood_pair(seed=0, n=200):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.3, 0.7, size=n), rng.uniform(0.4, 0.9, size=n))


# ---------------------------------------------------------------------------
# cardinalities
# ---------------------------------------------------------------------------

def test_full_suite_has_102_records():
    cfg = SuiteConfig(ood_inputs=ood_pair())
    records = run_suite(make_preds(), cfg)
    assert len(records) == 102
    binned = [r for r in records if r.bin_count is not None]
    unbinned = [r for r in records if r.bin_count is None]
    assert len(binned) == 90   # 5 metrics x 9 bin counts x 2 stages
    assert len(unbinned) == 12  # 5 metrics x 2 stages + 2 auroc


def test_suite_without_ood_has_100_records():
    assert len(run_suite(make_preds())) == 100


def test_suite_without_scaling_has_52_records():
    cfg = SuiteConfig(temperature_scale=False, ood_inputs=ood_pair())
    records = run_suite(make_preds(), cfg)
    assert len(records) == 52
    assert {r.stage for r in records} == {"pre"}


def test_reduced_suite_cardinality():
    # fewer bin counts drop bin-based records only: 5 metrics x 1 bin count
    # plus 5 binning-free metrics, at both stages
    records = run_suite(make_preds(), SuiteConfig(bin_sizes=(10,)))
    assert len(records) == 20
    assert {metric_key(r) for r in records} == {
        f"{m}{mid}_{stage}" for stage in ("pre", "post")
        for ms, mid in ((BIN_METRICS, "_10"), (CONTINUOUS_METRICS, ""))
        for m in ms}


def test_include_accuracy_adds_one_record_per_stage():
    cfg = SuiteConfig(include_accuracy=True)
    records = run_suite(make_preds(), cfg)
    assert len(records) == 102
    acc = [r for r in records if r.metric == "accuracy"]
    assert len(acc) == 2
    # argmax is temperature-invariant, so both stages agree exactly
    assert acc[0].value == acc[1].value


# ---------------------------------------------------------------------------
# record contents
# ---------------------------------------------------------------------------

def test_record_tags_and_stages():
    cfg = SuiteConfig(ood_inputs=ood_pair(), benchmark_dataset="cifar10",
                      search_space="sss", arch_index=17)
    records = run_suite(make_preds(), cfg)
    assert all(r.split == "test" for r in records)
    assert all(r.benchmark_dataset == "cifar10" for r in records)
    assert all(r.search_space == "sss" for r in records)
    assert all(r.arch_index == 17 for r in records)
    post = [r for r in records if r.stage == "post"]
    assert len(post) == 50
    temps = {r.temperature for r in post}
    assert len(temps) == 1 and temps != {None}
    ood = [r for r in records if r.metric.startswith("auroc_ood")]
    assert [r.metric for r in ood] == ["auroc_ood_a", "auroc_ood_b"]
    assert all(r.stage == "pre" and r.temperature is None for r in ood)


def test_suite_values_match_direct_computation():
    preds = make_preds()
    cfg = SuiteConfig()
    records = run_suite(preds, cfg)
    _, test_part = split(preds, cfg.split)
    probs = as_probabilities(test_part)
    by_key = {metric_key(r): r.value for r in records}
    assert by_key["ece_15_pre"] == ece(probs, 15)
    assert by_key["nll_pre"] == nll(probs)


def stage_predictions(preds, cfg):
    """The probabilities run_suite measures at each stage."""
    fit_part, test_part = split(preds, cfg.split)
    return {"pre": as_probabilities(test_part),
            "post": apply_temperature(test_part, fit_temperature(fit_part))}


@pytest.mark.parametrize("n, k", [(60, 3), (3000, 10)])
def test_suite_records_equal_public_functions(n, k):
    """Every binned and binning-free record has the bits of the public call
    on the same stage predictions."""
    preds = make_preds(seed=3, n=n, k=k)
    cfg = SuiteConfig()
    records = run_suite(preds, cfg)
    stages = stage_predictions(preds, cfg)
    checked = 0
    for r in records:
        probs = stages[r.stage]
        if r.bin_count is None:
            want = getattr(continuous, r.metric)(probs)
        else:
            want = getattr(binning, r.metric)(probs, r.bin_count)
        assert r.value == want, metric_key(r)
        checked += 1
    assert checked == 100


def test_run_suite_builds_top_label_state_once_per_stage(monkeypatch):
    """One argmax and one canonical sort per stage serve every top-label
    metric, the accuracy record included."""
    calls = {"state": 0, "argmax": 0}
    build, predicted = binning._top_label, PredictionSet.predicted_class

    def counting_state(preds):
        calls["state"] += 1
        return build(preds)

    def counting_argmax(self):
        calls["argmax"] += 1
        return predicted(self)
    monkeypatch.setattr(binning, "_top_label", counting_state)
    monkeypatch.setattr(continuous, "_top_label", counting_state)
    monkeypatch.setattr(PredictionSet, "predicted_class", counting_argmax)
    run_suite(make_preds(), SuiteConfig(include_accuracy=True,
                                        ood_inputs=ood_pair()))
    assert calls == {"state": 2, "argmax": 2}
    calls.update(state=0, argmax=0)
    run_suite(make_preds(), SuiteConfig(temperature_scale=False))
    assert calls == {"state": 1, "argmax": 1}


def suite_peak_in_test_arrays():
    """Traced peak of ``run_suite`` at N=10,000, K=120 in test-part sized
    float64 arrays, with the input held by the caller."""
    n, k = 10_000, 120
    n_test = 8_000  # the default 0.2 split
    preds = make_preds(n=n, k=k)  # made before tracing starts
    tracemalloc.start()
    try:
        run_suite(preds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n_test * k * 8)


def test_run_suite_holds_one_stage_at_a_time():
    """The traced peak stays within four test-part sized float64 arrays;
    the pin below bounds what one stage holds."""
    assert suite_peak_in_test_arrays() <= 4


def test_run_suite_holds_logits_and_probabilities_only():
    """The traced peak stays within 2.5 test-part sized arrays: the test
    logits and one stage's probabilities, plus small temporaries.  A
    sorted copy of every score column in the binned kernel, or the copy
    that np.argmax makes of read-only scores, reads about 3.76."""
    assert suite_peak_in_test_arrays() <= 2.5


def test_suite_is_deterministic():
    cfg = SuiteConfig(ood_inputs=ood_pair())
    a = run_suite(make_preds(), cfg)
    b = run_suite(make_preds(), cfg)
    assert a == b


def test_ood_auroc_orders_confidence_sets():
    rng = np.random.default_rng(1)
    low = rng.uniform(0.0, 0.4, size=300)  # clearly less confident than ID
    cfg = SuiteConfig(ood_inputs=(low, low))
    records = run_suite(make_preds(), cfg)
    vals = [r.value for r in records if r.metric.startswith("auroc_ood")]
    assert all(v > 0.9 for v in vals)


def test_ood_validation():
    # refused by the config, before the split and the fit
    with pytest.raises(ValueError, match="non-empty"):
        SuiteConfig(ood_inputs=(np.array([]), np.array([0.5])))
    with pytest.raises(ValueError, match="exactly two"):
        SuiteConfig(ood_inputs=(np.array([0.5]),))


def test_run_suite_checks_ood_sets_only_in_the_config(monkeypatch):
    # run_suite once re-checked each set in auroc, after SuiteConfig had
    calls = []

    def counting(values):
        calls.append(values)
        return score_set(values)

    score_set = continuous._score_set
    monkeypatch.setattr(continuous, "_score_set", counting)
    cfg = SuiteConfig(ood_inputs=ood_pair())
    assert len(calls) == 2
    records = run_suite(make_preds(), cfg)
    assert len(calls) == 2
    monkeypatch.undo()
    pos = as_probabilities(split(make_preds(), cfg.split)[1]).top_confidence()
    assert [r.value for r in records if r.metric.startswith("auroc_ood")] \
        == [continuous.auroc(pos, neg) for neg in cfg.ood_inputs]
    # so the checked sets cannot change after the check: the config is
    # frozen and holds read-only copies
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.ood_inputs = (np.array([np.nan]), np.array([0.5]))
    with pytest.raises(ValueError, match="read-only"):
        cfg.ood_inputs[0][0] = np.nan
    mine = np.array([0.5, 0.6])
    cfg = SuiteConfig(ood_inputs=(mine, mine))
    mine[0] = np.nan  # the caller's array is not the config's
    assert cfg.ood_inputs[0].tolist() == [0.5, 0.6]


def test_config_validation():
    with pytest.raises(ValueError, match="sorted and unique"):
        SuiteConfig(bin_sizes=(10, 5))
    # (2.7, 5) once measured at 2 bins, and (True, 5) at 1
    for sizes in ((0, 5), (2.7, 5), (True, 5), (5, 10.0), ("5",)):
        with pytest.raises(ValueError, match="^bin count must be a "
                           "positive integer, got "):
            SuiteConfig(bin_sizes=sizes)
    assert SuiteConfig(bin_sizes=(np.int64(5), 10)).bin_sizes == (5, 10)
    # a NaN once failed after the fit, with auroc's message; a 2-D set
    # was flattened
    for ood in (([0.5, np.nan], [0.5]), ([0.5], [[0.5, 0.6]])):
        with pytest.raises(ValueError, match="^a score set must be a "
                           "non-empty 1-D array of finite numbers$"):
            SuiteConfig(ood_inputs=ood)
    cfg = SuiteConfig(ood_inputs=([0.5, 1], (0.25,)))
    assert [a.dtype for a in cfg.ood_inputs] == [np.float64, np.float64]
    # the record's rules on the tags, before any work: each once failed at
    # the first record, after the split, the fit and the binned metrics
    for tags, message in (({"search_space": "cnn"}, "bad search_space 'cnn'"),
                          ({"arch_index": -1}, "arch_index must be an "
                           "integer >= 0 and < 2**63, got -1"),
                          ({"arch_index": 1.5}, "arch_index must be an "
                           "integer >= 0 and < 2**63, got 1.5"),
                          ({"arch_index": 2**63}, "arch_index must be an "
                           f"integer >= 0 and < 2**63, got {2**63}"),
                          ({"benchmark_dataset": 5}, "benchmark_dataset must "
                           "be a string, got 5")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SuiteConfig(**tags)
    assert SuiteConfig(arch_index=np.int64(7)).arch_index == 7


def test_record_validation():
    ok = dict(benchmark_dataset="d", search_space="tss", arch_index=0,
              metric="ece", bin_count=10, stage="pre", split="test",
              value=0.1)
    MeasurementRecord(**ok)
    with pytest.raises(ValueError, match="search_space"):
        MeasurementRecord(**{**ok, "search_space": "nas"})
    with pytest.raises(ValueError, match="stage"):
        MeasurementRecord(**{**ok, "stage": "mid"})
    with pytest.raises(ValueError, match="split"):
        MeasurementRecord(**{**ok, "split": "train"})
    with pytest.raises(ValueError, match="bin_count"):
        MeasurementRecord(**{**ok, "bin_count": None})
    with pytest.raises(ValueError, match="bin_count"):
        MeasurementRecord(**{**ok, "metric": "nll"})
    with pytest.raises(ValueError, match="finite"):
        MeasurementRecord(**{**ok, "value": float("nan")})


def test_metric_key_format():
    r = MeasurementRecord("d", "tss", 0, "ece", 15, "pre", "test", 0.1)
    assert metric_key(r) == "ece_15_pre"
    r = MeasurementRecord("d", "tss", 0, "nll", None, "post", "test", 0.1, 1.5)
    assert metric_key(r) == "nll_post"


# ---------------------------------------------------------------------------
# JSONL round trips
# ---------------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    records = run_suite(make_preds(), SuiteConfig(ood_inputs=ood_pair()))
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    assert read_back(path) == records
    # no temp-file droppings from the atomic write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


def test_jsonl_write_is_byte_deterministic(tmp_path):
    records = run_suite(make_preds(), SuiteConfig())
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(records, a)
    write_records(records, b)
    assert a.read_bytes() == b.read_bytes()


def test_jsonl_lines_are_sorted_compact_json(tmp_path):
    records = run_suite(make_preds(), SuiteConfig())[:1]
    path = tmp_path / "one.jsonl"
    write_records(records, path)
    line = path.read_text().rstrip("\n")
    assert ": " not in line and ", " not in line
    keys = list(json.loads(line))
    assert keys == sorted(keys)


def test_read_records_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(run_suite(make_preds())[0].to_dict())
    path.write_text(good + "\n{broken\n")
    with pytest.raises(ValueError, match=r":2: bad record"):
        read_back(path)
    path.write_text(good + "\n" + good.replace('"test"', '"train"') + "\n")
    with pytest.raises(ValueError, match=r":2: bad record"):
        read_back(path)


GOOD_RECORD = dict(benchmark_dataset="d", search_space="tss", arch_index=4,
                   metric="ece", bin_count=15, stage="pre", split="test",
                   value=0.1, temperature=None)


@pytest.mark.parametrize("field, bad, message", [
    ("arch_index", "0", "arch_index must be an integer >= 0"),
    ("arch_index", 0.5, "arch_index must be an integer >= 0"),
    ("arch_index", True, "arch_index must be an integer >= 0"),
    ("arch_index", -3, "arch_index must be an integer >= 0"),
    ("bin_count", 0, "bin_count must be an integer >= 1"),
    ("bin_count", "15", "bin_count must be an integer >= 1"),
    ("value", True, "value must be a finite real number"),
    ("metric", ["ece"], "metric must be a string"),
    ("metric", None, "metric must be a string"),
    ("benchmark_dataset", 5, "benchmark_dataset must be a string"),
    ("benchmark_dataset", {"a": 1}, "benchmark_dataset must be a string"),
    ("temperature", "hot", "temperature must be a finite number > 0"),
    ("temperature", 0.0, "temperature must be a finite number > 0"),
    ("arch_index", 2**63, "arch_index must be an integer >= 0"),
])
def test_read_records_rejects_bad_field_values(tmp_path, field, bad,
                                               message):
    path = tmp_path / "r.jsonl"
    good = json.dumps(GOOD_RECORD)
    path.write_text(good + "\n\n" + json.dumps({**GOOD_RECORD, field: bad})
                    + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "
                       f"bad record: {message}"):
        read_back(path)
    # one rule set: the record type rejects the same value
    with pytest.raises(ValueError, match=message):
        MeasurementRecord(**{**GOOD_RECORD, field: bad})


def test_records_reject_a_metric_that_is_not_a_string(tmp_path):
    # a list metric once passed as an unbinned one and keyed "['ece_x']_pre"
    bad = {**GOOD_RECORD, "metric": ["ece_x"], "bin_count": None}
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "
                       r"bad record: metric must be a string, got \['ece_x'\]"):
        read_back(path)
    with pytest.raises(ValueError, match="metric must be a string"):
        MeasurementRecord(**bad)


def test_record_check_accepts_numpy_integers_and_ints():
    rec = MeasurementRecord(**{**GOOD_RECORD, "arch_index": np.int64(3),
                               "bin_count": np.int32(5), "value": 1})
    assert rec.arch_index == 3


def test_records_of_numpy_scalars_write_as_their_plain_twins(tmp_path):
    # json.dumps once raised on np.int64 and np.float32 fields
    rec = MeasurementRecord(**{**GOOD_RECORD, "arch_index": np.int64(7),
                               "bin_count": np.int32(5),
                               "value": np.float32(0.1),
                               "temperature": np.float32(1.5)})
    twin = MeasurementRecord(**{**GOOD_RECORD, "arch_index": 7,
                                "bin_count": 5,
                                "value": float(np.float32(0.1)),
                                "temperature": 1.5})
    assert [type(v) for v in rec.to_dict().values()] == \
        [type(v) for v in twin.to_dict().values()]

    def written(records, name):
        write_records(records, tmp_path / name)
        return (tmp_path / name).read_bytes()

    assert written([rec], "r") == written([twin], "t")
    preds = PredictionSet(np.random.default_rng(0).normal(size=(40, 3)),
                          np.arange(40) % 3)
    tagged = [run_suite(preds, SuiteConfig(arch_index=a))
              for a in (np.int64(7), 7)]
    assert written(tagged[0], "a") == written(tagged[1], "b")


@pytest.mark.parametrize("text, message", [
    ('{"search_space": "tss"}', "missing fields"),
    (json.dumps({**GOOD_RECORD, "extra": 1}), "unknown fields"),
    ("[1, 2]", "must be a JSON object"),
    (json.dumps(GOOD_RECORD) + " 7", "extra data"),
], ids=["missing", "unknown", "not-object", "extra-data"])
def test_read_records_rejects_bad_shapes(tmp_path, text, message):
    path = tmp_path / "r.jsonl"
    path.write_text(text + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "
                       f"bad record: .*{message}"):
        read_back(path)


def test_read_records_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "r.jsonl"
    good = json.dumps(GOOD_RECORD).encode()
    path.write_bytes(good + b"\n" + good.replace(b'"d"', b'"\xff"') + b"\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "
                       "bad record: .*utf-8"):
        read_back(path)


def test_read_records_defaults_a_missing_temperature(tmp_path):
    path = tmp_path / "r.jsonl"
    rec = {k: v for k, v in GOOD_RECORD.items() if k != "temperature"}
    path.write_text(json.dumps(rec) + "\n")
    assert read_back(path) == [MeasurementRecord(**rec)]


def test_read_records_skips_blank_lines(tmp_path):
    records = run_suite(make_preds(), SuiteConfig())[:3]
    path = tmp_path / "r.jsonl"
    write_records(records, path)
    path.write_text(path.read_text().replace("\n", "\n\n"))
    assert read_back(path) == records


# ---------------------------------------------------------------------------
# pivots
# ---------------------------------------------------------------------------

def two_arch_records():
    # the ece and nll records of two suites
    out = []
    for arch in (3, 1):
        cfg = SuiteConfig(bin_sizes=(10,), arch_index=arch)
        out.extend(r for r in run_suite(make_preds(seed=arch), cfg)
                   if r.metric in ("ece", "nll"))
    return out


def pivot(tmp_path, records, keys=None):
    path = tmp_path / "pivot.jsonl"
    write_records(records, path)
    return read_records(path, keys)


def test_pivot_rows_and_columns(tmp_path):
    space, table = pivot(tmp_path, two_arch_records())
    assert space == "tss"
    assert table.arch_index.tolist() == [1, 3]
    assert sorted(table.columns) == ["ece_10_post", "ece_10_pre",
                                     "nll_post", "nll_pre"]
    by_cell = {(r.arch_index, metric_key(r)): r.value
               for r in two_arch_records()}
    for name, column in table.columns.items():
        assert column.tolist() == [by_cell[1, name], by_cell[3, name]]
    # keys pick columns; every test-split arch stays a row
    _, table = pivot(tmp_path, two_arch_records(), ("nll_pre", "no_such_key"))
    assert table.arch_index.tolist() == [1, 3]
    assert list(table.columns) == ["nll_pre"]


def test_pivot_reads_a_records_file(tmp_path):
    # a file read line by line gives the table of the canonical file
    records = two_arch_records()
    _, want = pivot(tmp_path, records)
    path = tmp_path / "spaced.jsonl"
    path.write_text("".join(json.dumps(r.to_dict()) + "\n" for r in records))
    _, table = read_records(path)
    assert table.arch_index.tolist() == want.arch_index.tolist()
    assert {k: v.tolist() for k, v in table.columns.items()} == \
        {k: v.tolist() for k, v in want.columns.items()}


def test_pivot_rejects_missing_cells(tmp_path):
    records = two_arch_records()
    dropped = [r for r in records
               if not (r.arch_index == 1 and metric_key(r) == "nll_pre")]
    with pytest.raises(PivotError, match=re.escape(
            "pivot.jsonl: column 'nll_pre' missing for arch(es) [1]")):
        pivot(tmp_path, dropped)


def test_pivot_reads_the_test_split_only(tmp_path):
    records = two_arch_records()
    val = [MeasurementRecord(**{**r.to_dict(), "split": "val"})
           for r in records]
    with pytest.raises(PivotError, match="pivot.jsonl: no records with "
                       "split 'test'"):
        pivot(tmp_path, val)
    # a val value never takes a test cell's place
    _, table = pivot(tmp_path, records[:1] + val)
    assert table.columns[metric_key(records[0])].tolist() == \
        [records[0].value]


def test_pivot_rejects_a_repeated_cell(tmp_path):
    records = two_arch_records()
    again = MeasurementRecord(**{**records[2].to_dict(),
                                 "benchmark_dataset": "second", "value": 0.5})
    with pytest.raises(PivotError, match=re.escape(
            f"pivot.jsonl:{len(records) + 1}: second value for "
            f"{metric_key(again)} at arch_index 3 (benchmark_dataset "
            "'second')")):
        pivot(tmp_path, records + [again])


def test_pivot_rejects_mixed_spaces(tmp_path):
    records = two_arch_records()
    other = MeasurementRecord(**{**records[0].to_dict(),
                                 "search_space": "sss", "split": "val"})
    with pytest.raises(PivotError, match=re.escape(
            f"pivot.jsonl:{len(records) + 1}: records mix search spaces "
            "'tss' and 'sss'")):
        pivot(tmp_path, records + [other])
