"""Tests for synthetic benchmarks, objectives, and the three searchers."""
import hashlib
import json
import re

import numpy as np
import pytest

from calibrex import (
    SearchConfig,
    SearchResult,
    SssArch,
    TabularBenchmark,
    TssArch,
    analysis,
    archspace,
    enumerate_tss,
    hcs,
    load_benchmark,
    local_search,
    make_objective,
    mutate,
    neighbors,
    parse_arch,
    random_search,
    regularized_evolution,
    search,
    synth_benchmark,
    write_benchmark,
)
from calibrex.search import _Evaluator, default_index_path

PLANTED = ("|nor_conv_3x3~0|+|skip_connect~0|nor_conv_1x1~1|"
           "+|none~0|avg_pool_3x3~1|nor_conv_3x3~2|")


def small_bench():
    archs = [a.to_string() for a in enumerate_tss()[:6]]
    metrics = {"accuracy": [0.5 + 0.05 * i for i in range(6)],
               "ece": [0.30 - 0.04 * i for i in range(6)]}
    return TabularBenchmark("tss", metrics, archs)


# ---------------------------------------------------------------------------
# benchmarks and objectives
# ---------------------------------------------------------------------------

def test_tabular_benchmark_query_and_argmax():
    bench = small_bench()
    assert len(bench) == 6
    arch = enumerate_tss()[2]
    assert bench.query(arch) == bench.query(arch.to_string())
    with pytest.raises(KeyError, match="not in benchmark"):
        bench.query("8:8:8:8:8")
    for kind, want in (("acc", 0.75), ("ece", -0.10)):
        scores = bench.scores(make_objective(kind))
        assert list(scores) == bench.archs
        best = max(bench.archs, key=scores.__getitem__)
        assert best == bench.archs[5]
        assert scores[best] == pytest.approx(want)


def test_tabular_benchmark_validation(monkeypatch):
    for space in ("cnn", ["tss"]):
        with pytest.raises(ValueError, match="bad space"):
            TabularBenchmark(space, {}, [])

    def build(*args):
        raise AssertionError("an architecture was built")
    # the synthetic benchmark refuses a bad space before it enumerates one
    with monkeypatch.context() as patch:
        patch.setattr(archspace, "TssArch", build)
        patch.setattr(archspace, "SssArch", build)
        with pytest.raises(ValueError, match="^bad space 'cnn'$"):
            synth_benchmark("cnn")
    with pytest.raises(ValueError, match=r"'ece' has shape \(1,\), "
                       r"expected \(2,\)"):
        TabularBenchmark("tss", {"ece": [0.1]}, ["a", "b"])
    with pytest.raises(ValueError, match="listed twice"):
        TabularBenchmark("tss", {"ece": [0.1, 0.2]}, ["a", "a"])
    bench = TabularBenchmark("tss", {"ece": [0.1, 0.2]}, ("a", "b"))
    assert bench.metrics["ece"].dtype == np.float64
    assert bench.query("b") == {"ece": 0.2}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tabular_benchmark_rejects_a_value_that_is_not_finite(bad):
    # a NaN column once let random_search return best_arch None
    metrics = {"accuracy": [0.5, 0.6, 0.7], "ece": [0.1, bad, 0.2]}
    with pytest.raises(ValueError, match="^metric 'ece' is not finite for "
                       "architecture 'b'$"):
        TabularBenchmark("tss", metrics, ["a", "b", "c"])


def test_make_objective():
    m = {"accuracy": 0.9, "ece": 0.2}
    assert make_objective("acc")(m) == 0.9
    assert make_objective("ece")(m) == -0.2
    assert make_objective("hcs", beta=2.0)(m) == pytest.approx(
        hcs(0.9, 0.2, 2.0))
    with pytest.raises(ValueError, match="unknown objective"):
        make_objective("latency")
    # a bad beta is refused when the objective is built, not when it scores
    for bad in (0.0, np.inf, True, "2"):
        with pytest.raises(ValueError, match="^beta must be a finite "
                           "number > 0, got "):
            make_objective("hcs", beta=bad)
    # any function of the metrics is an objective; searches pass columns
    bench = small_bench()
    scores = bench.scores(lambda m: -m["accuracy"])
    assert scores == {a: -bench.query(a)["accuracy"] for a in bench.archs}


def test_synth_benchmark_coverage_and_determinism():
    a = synth_benchmark("tss", seed=3)
    b = synth_benchmark("tss", seed=3)
    assert len(a) == 15625
    assert a.archs == b.archs and a.metrics.keys() == b.metrics.keys()
    assert all(np.array_equal(a.metrics[m], b.metrics[m]) for m in a.metrics)
    c = synth_benchmark("tss", seed=4)
    assert not np.array_equal(a.metrics["accuracy"], c.metrics["accuracy"])
    assert np.all((0.0 <= a.metrics["accuracy"])
                  & (a.metrics["accuracy"] <= 1.0))
    assert np.all((0.0 < a.metrics["ece"]) & (a.metrics["ece"] <= 0.25))
    assert len(synth_benchmark("sss", seed=0)) == 32768


def test_planted_benchmark_landscape():
    bench = synth_benchmark("tss", seed=7, planted=PLANTED)
    assert bench.query(PLANTED)["accuracy"] == 1.0
    others = np.delete(bench.metrics["accuracy"], bench.archs.index(PLANTED))
    assert max(others) <= 0.88  # unique argmax with a clear margin

    # every non-planted arch has a neighbor better by at least 0.10
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, len(bench), size=50):
        arch = bench.archs[int(idx)]
        if arch == PLANTED:
            continue
        own = bench.query(arch)["accuracy"]
        best = max(bench.query(n.to_string())["accuracy"]
                   for n in neighbors(parse_arch(arch)))
        assert best >= own + 0.10


def test_planted_arch_must_be_in_space():
    with pytest.raises(ValueError, match="belong to the space"):
        synth_benchmark("tss", planted="8:8:8:8:8")


def test_benchmark_write_load_round_trip(tmp_path):
    bench = small_bench()
    path = str(tmp_path / "bench.jsonl")
    write_benchmark(bench, path)
    assert (tmp_path / "bench.index.json").exists()
    loaded = load_benchmark(path)
    assert loaded.space == "tss"
    assert sorted(loaded.archs) == sorted(bench.archs)
    for a in bench.archs:
        assert loaded.query(a) == pytest.approx(bench.query(a))


def test_failed_index_write_keeps_the_old_index(tmp_path, monkeypatch):
    path = str(tmp_path / "bench.jsonl")
    write_benchmark(small_bench(), path)
    before = (tmp_path / "bench.index.json").read_bytes()

    def broken_dump(obj, fh, **kwargs):
        fh.write("{")
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(RuntimeError, match="disk full"):
        write_benchmark(small_bench(), path)
    assert (tmp_path / "bench.index.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bench.index.json", "bench.jsonl"]


def test_default_index_path():
    assert default_index_path("runs/b.jsonl") == "runs/b.index.json"
    assert default_index_path("b.records") == "b.records.index.json"


def test_load_benchmark_reads_ece_at_15_bins(tmp_path):
    # an eval file holds ece at several bin counts: the 15-bin one is read,
    # whatever the order, and a file without it names the bin count
    from calibrex import MeasurementRecord, write_records
    arch = enumerate_tss()[0].to_string()
    acc = MeasurementRecord("b", "tss", 0, "accuracy", None, "pre", "test",
                            0.9)
    eces = [MeasurementRecord("b", "tss", 0, "ece", bins, "pre", "test", v)
            for bins, v in ((5, 0.10), (15, 0.30), (20, 0.40))]
    path = str(tmp_path / "r.jsonl")
    (tmp_path / "r.index.json").write_text(json.dumps({arch: 0}))
    for order in (eces, eces[::-1]):
        write_records([acc] + order, path)
        assert load_benchmark(path).query(arch) == {"accuracy": 0.9,
                                                    "ece": 0.30}
    write_records([acc, eces[0], eces[2]], path)
    with pytest.raises(ValueError, match="ece records at 15 bins"):
        load_benchmark(path)


def test_load_benchmark_reads_the_test_split_only(tmp_path):
    # a val accuracy after the test one must not replace it
    from calibrex import MeasurementRecord, write_records
    arch = enumerate_tss()[0].to_string()
    records = [
        MeasurementRecord("b", "tss", 0, "accuracy", None, "pre", "test", 0.9),
        MeasurementRecord("b", "tss", 0, "ece", 15, "pre", "test", 0.30),
        MeasurementRecord("b", "tss", 0, "accuracy", None, "pre", "val", 0.2),
        MeasurementRecord("b", "tss", 0, "ece", 5, "pre", "val", 0.10),
    ]
    path = str(tmp_path / "r.jsonl")
    write_records(records, path)
    (tmp_path / "r.index.json").write_text(json.dumps({arch: 0}))
    bench = load_benchmark(path)
    assert bench.query(arch) == {"accuracy": 0.9, "ece": 0.30}
    # val records are still checked line by line
    with open(path, "a") as fh:
        fh.write(json.dumps({**records[2].to_dict(), "value": "x"}) + "\n")
    with pytest.raises(ValueError, match=r"r\.jsonl:5: bad record"):
        load_benchmark(path)


def test_load_benchmark_error_cases(tmp_path):
    from calibrex import MeasurementRecord, write_records
    arch = enumerate_tss()[0].to_string()
    path = str(tmp_path / "r.jsonl")
    (tmp_path / "r.index.json").write_text(json.dumps({arch: 0}))

    mixed = [
        MeasurementRecord("b", "tss", 0, "accuracy", None, "pre", "test", 0.9),
        MeasurementRecord("b", "sss", 0, "ece", 15, "pre", "test", 0.1),
    ]
    write_records(mixed, path)
    with pytest.raises(ValueError, match="mix search spaces"):
        load_benchmark(path)

    write_records(mixed[:1], path)  # accuracy but never ece
    with pytest.raises(ValueError, match="both accuracy and ece"):
        load_benchmark(path)


def _two_arch_records(dataset="b"):
    from calibrex import MeasurementRecord
    return [MeasurementRecord(dataset, "tss", arch, metric, bins, "pre",
                              "test", value)
            for arch, acc, ece in ((0, 0.9, 0.1), (1, 0.8, 0.2))
            for metric, bins, value in (("accuracy", None, acc),
                                        ("ece", 15, ece))]


@pytest.mark.parametrize("case", ["repeated-cell", "arch-not-in-index",
                                  "arch-missing-a-key"])
def test_load_benchmark_rejects_what_it_once_dropped(tmp_path, case):
    # each of these once loaded as fewer architectures, or with a value
    # overwritten, and no error
    from calibrex import write_records
    archs = [a.to_string() for a in enumerate_tss()[:2]]
    path = str(tmp_path / "r.jsonl")
    index_path = tmp_path / "r.index.json"
    index_path.write_text(json.dumps({archs[0]: 0, archs[1]: 1}))
    records = _two_arch_records()
    write_records(records, path)
    assert load_benchmark(path).archs == sorted(archs)
    if case == "repeated-cell":
        records += _two_arch_records("m2")[1:2]
        message = (f"{path}:5: second value for ece_15_pre at arch_index "
                   "0 (benchmark_dataset 'm2')")
    elif case == "arch-not-in-index":
        index_path.write_text(json.dumps({archs[0]: 0}))
        message = f"{index_path}: no architecture for arch_index 1 of {path}"
    else:
        records = records[:3]
        message = f"{path}: column 'ece_15_pre' missing for arch(es) [1]"
    write_records(records, path)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        load_benchmark(path)


@pytest.mark.parametrize("index, message", [
    ({"ARCH": "zero"}, "arch_index of 'ARCH' must be an integer >= 0"),
    ({"ARCH": 0.0}, "arch_index of 'ARCH' must be an integer >= 0"),
    ({"ARCH": 0, "OTHER": 0}, "'ARCH' and 'OTHER' share arch_index 0"),
    (["ARCH"], "not a JSON object"),
    ("{", "not a JSON index"),
    ({"ARCH": 2**63}, "arch_index of 'ARCH' must be an integer >= 0"),
    # the first bad entry in the object's order is the one named
    ({"ARCH": 0, "OTHER": 0, "THIRD": "x"},
     "'ARCH' and 'OTHER' share arch_index 0"),
])
def test_load_benchmark_names_the_bad_index(tmp_path, index, message):
    from calibrex import MeasurementRecord, write_records
    arch = enumerate_tss()[0].to_string()
    path = str(tmp_path / "r.jsonl")
    write_records([
        MeasurementRecord("b", "tss", 0, "accuracy", None, "pre", "test", 0.9),
        MeasurementRecord("b", "tss", 0, "ece", 15, "pre", "test", 0.1),
    ], path)
    index_path = tmp_path / "r.index.json"
    text = index if isinstance(index, str) else json.dumps(index)
    index_path.write_text(text.replace("ARCH", arch))
    with pytest.raises(ValueError, match=re.escape(
            f"{index_path}: {message.replace('ARCH', arch)}")):
        load_benchmark(path)


def test_load_benchmark_builds_one_metric_table(tmp_path, monkeypatch):
    # read_records' table is the one that checks the cells: the benchmark
    # checks its columns without building a second one
    path = str(tmp_path / "bench.jsonl")
    bench = small_bench()
    write_benchmark(bench, path)
    tables = []
    post_init = analysis.MetricTable.__post_init__

    def counted(table):
        tables.append(table)
        post_init(table)

    monkeypatch.setattr(analysis.MetricTable, "__post_init__", counted)
    assert load_benchmark(path).archs == sorted(bench.archs)
    assert len(tables) == 1


def test_load_benchmark_checks_a_good_index_in_one_pass(tmp_path,
                                                        monkeypatch):
    # the per-entry check, with its message, is for a bad entry only
    path = str(tmp_path / "bench.jsonl")
    bench = small_bench()
    write_benchmark(bench, path)
    calls = []
    check = search._check_index

    def counted(name, x):
        calls.append(name)
        check(name, x)

    monkeypatch.setattr(search, "_check_index", counted)
    assert load_benchmark(path).archs == sorted(bench.archs)
    assert calls == []


# ---------------------------------------------------------------------------
# mutation and neighborhoods
# ---------------------------------------------------------------------------

def hamming(a, b):
    xa = a.ops if isinstance(a, TssArch) else a.channels
    xb = b.ops if isinstance(b, TssArch) else b.channels
    return sum(x != y for x, y in zip(xa, xb))


def test_mutate_changes_exactly_one_position():
    rng = np.random.default_rng(1)
    tss = enumerate_tss()[777]
    sss = SssArch((8, 16, 24, 32, 40))
    for _ in range(100):
        assert hamming(tss, mutate(tss, rng)) == 1
        assert hamming(sss, mutate(sss, rng)) == 1
    with pytest.raises(TypeError, match="mutate"):
        mutate("|none~0|", rng)


def test_mutate_is_seed_deterministic():
    arch = enumerate_tss()[5]
    a = mutate(arch, np.random.default_rng(9))
    b = mutate(arch, np.random.default_rng(9))
    assert a == b


def test_neighbors_counts_and_order():
    tss = enumerate_tss()[123]
    ns = neighbors(tss)
    assert len(ns) == 24  # 6 edges x 4 alternative ops
    assert len(set(ns)) == 24
    assert all(hamming(tss, n) == 1 for n in ns)
    assert ns == neighbors(tss)  # deterministic ordering

    sss = SssArch((8, 16, 24, 32, 40))
    ms = neighbors(sss)
    assert len(ms) == 35  # 5 layers x 7 alternative widths
    assert all(hamming(sss, m) == 1 for m in ms)
    with pytest.raises(TypeError, match="neighborhood"):
        neighbors(3)


# ---------------------------------------------------------------------------
# evaluator bookkeeping
# ---------------------------------------------------------------------------

def test_evaluator_counts_memo_hits_against_budget():
    bench = small_bench()
    ev = _Evaluator(bench, make_objective("acc"), budget=3)
    a = bench.archs[0]
    assert ev(a) == ev(a) == ev(a)
    assert ev.count == 3
    assert ev.trajectory == [0.5, 0.5, 0.5]
    assert ev.exhausted()
    with pytest.raises(RuntimeError, match="budget exhausted"):
        ev(a)


def test_search_config_validation():
    # 2.5 was accepted, and True read as a budget of 1
    for bad in (0, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="^budget must be a positive "
                           "integer, got "):
            SearchConfig(budget=bad)
    assert SearchConfig(budget=np.int64(3)).budget == 3
    # None once drew OS entropy, so a search did not repeat, and -1
    # failed at the first draw with numpy's message
    for bad in (None, -1, True, 1.5, "3"):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"seed must be an integer >= 0, got {bad!r}") + "$"):
            SearchConfig(budget=3, seed=bad)
    assert SearchConfig(budget=3, seed=np.int64(4)).seed == 4


def test_search_result_to_dict_shape():
    r = SearchResult("a", 0.5, 3, [0.1, 0.5, 0.5], is_local_optimum=True)
    d = r.to_dict()
    assert set(d) == {"best_arch", "best_value", "evaluations", "trajectory"}


# ---------------------------------------------------------------------------
# the three searchers
# ---------------------------------------------------------------------------

def check_common_contract(result, bench, budget):
    assert result.evaluations <= budget
    assert len(result.trajectory) == result.evaluations
    assert all(b >= a for a, b in zip(result.trajectory,
                                      result.trajectory[1:]))
    assert result.best_value == result.trajectory[-1]
    assert result.best_arch in bench.archs


def test_random_search_with_full_budget_finds_argmax():
    bench = small_bench()
    obj = make_objective("acc")
    result = random_search(bench, obj, SearchConfig(budget=6, seed=0))
    check_common_contract(result, bench, 6)
    assert result.evaluations == 6
    scores = bench.scores(obj)
    want_arch = max(bench.archs, key=scores.__getitem__)
    assert result.best_arch == want_arch
    assert result.best_value == scores[want_arch]


def test_random_search_budget_cannot_exceed_space():
    with pytest.raises(ValueError, match="exceeds space size"):
        random_search(small_bench(), make_objective("acc"),
                      SearchConfig(budget=7))


def test_random_search_is_deterministic():
    bench = synth_benchmark("tss", seed=1)
    obj = make_objective("acc")
    cfg = SearchConfig(budget=200, seed=5)
    a = random_search(bench, obj, cfg)
    b = random_search(bench, obj, cfg)
    assert a == b
    c = random_search(bench, obj, SearchConfig(budget=200, seed=6))
    assert a.best_arch != c.best_arch or a.trajectory != c.trajectory


def test_local_search_reaches_planted_optimum_and_verifies():
    bench = synth_benchmark("tss", seed=2, planted=PLANTED)
    obj = make_objective("acc")
    result = local_search(bench, obj, SearchConfig(budget=600, seed=3))
    check_common_contract(result, bench, 600)
    assert result.best_arch == PLANTED
    assert result.is_local_optimum
    # replay: no neighbor of the returned arch beats it
    for n in neighbors(parse_arch(result.best_arch)):
        assert obj(bench.query(n.to_string())) <= result.best_value


def test_local_search_unverified_when_budget_ends_mid_scan():
    bench = synth_benchmark("tss", seed=2, planted=PLANTED)
    result = local_search(bench, make_objective("acc"),
                          SearchConfig(budget=10, seed=3))
    assert result.evaluations == 10
    assert not result.is_local_optimum


def test_local_search_is_deterministic():
    bench = synth_benchmark("tss", seed=8)
    cfg = SearchConfig(budget=300, seed=4)
    obj = make_objective("hcs", beta=1.0)
    assert local_search(bench, obj, cfg) == local_search(bench, obj, cfg)


def test_regularized_evolution_contract_and_determinism():
    bench = synth_benchmark("tss", seed=9)
    obj = make_objective("acc")
    cfg = SearchConfig(budget=300, seed=11)
    a = regularized_evolution(bench, obj, cfg)
    b = regularized_evolution(bench, obj, cfg)
    check_common_contract(a, bench, 300)
    assert a.evaluations == 300
    assert a == b


def test_regularized_evolution_solves_planted_landscape():
    bench = synth_benchmark("tss", seed=5, planted=PLANTED)
    obj = make_objective("acc")
    hits = 0
    for seed in range(10):
        result = regularized_evolution(bench, obj,
                                       SearchConfig(budget=500, seed=seed))
        check_common_contract(result, bench, 500)
        hits += result.best_arch == PLANTED
    assert hits >= 8


def test_regularized_evolution_small_budget():
    # budget below the population size still works and stays within budget
    bench = synth_benchmark("tss", seed=5)
    result = regularized_evolution(bench, make_objective("acc"),
                                   SearchConfig(budget=7, seed=0))
    assert result.evaluations == 7


def test_searchers_optimize_other_objectives():
    bench = synth_benchmark("tss", seed=12)
    for kind in ("ece", "hcs"):
        obj = make_objective(kind, beta=2.0)
        result = regularized_evolution(bench, obj,
                                       SearchConfig(budget=150, seed=1))
        check_common_contract(result, bench, 150)


def test_hcs_range_error_comes_before_the_search():
    # a 1-step search with seed 0 visits archs[3] only, so the one arch out
    # of range is never visited; the objective is still scored up front
    bench = small_bench()
    bench.metrics["accuracy"][0] = 1.5
    config = SearchConfig(budget=1, seed=0)
    assert random_search(bench, make_objective("acc"), config).best_arch == \
        bench.archs[3]
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        random_search(bench, make_objective("hcs"), config)


def test_partial_benchmark_search_names_the_missing_arch(tmp_path):
    path = str(tmp_path / "bench.jsonl")
    write_benchmark(small_bench(), path)
    bench = load_benchmark(path)
    # local search starts where random draw 0 lands and scans its first
    # neighbor, which a 6-arch benchmark lacks
    start = bench.archs[int(np.random.default_rng(4).integers(len(bench)))]
    missing = neighbors(parse_arch(start))[0].to_string()
    assert missing not in bench.archs
    with pytest.raises(KeyError) as info:
        local_search(bench, make_objective("acc"), SearchConfig(20, seed=4))
    assert info.value.args == (f"architecture {missing!r} not in benchmark",)


# sha256 of each search's result JSON, as `calibrex search` writes it,
# computed at the commit before the objective was scored up front
GOLDEN_SEARCH_SHA256 = {
    ("tss", "rs", "acc"):
        "f1a6ba6a4fd632fc50198c3e741730c1dabc3760c0a3bebc0ea08bbc25283322",
    ("tss", "rs", "ece"):
        "e95c2f0e1fe6a60c27ee60d17f799c4eeb550d7d16012d19c5aa97048ddf7527",
    ("tss", "rs", "hcs"):
        "89ef3350c39c6185dbb9a99cbfc0eba228348777231986c9dd3b83074a6178cb",
    ("tss", "re", "acc"):
        "b0be823e0994d5140c593f51c87fe8ff65dc47a8739470dc1ae2ede541b26b96",
    ("tss", "re", "ece"):
        "c67948f07b1eae39c95671af5239acce7c15439e7fa13fb2612a3cec986c9f36",
    ("tss", "re", "hcs"):
        "7f7492fb7cca26e0737dd9cdc490fbeebc19d4880f82d6113c13d209047530f9",
    ("tss", "ls", "acc"):
        "af0efd35fe3f57b90b13f2e2e5daeb12acb4118b0ae720dc73728428af0c69c3",
    ("tss", "ls", "ece"):
        "1ed979d01af69c0ee98c3bcb1a3c161f88261f87ec881699f56b4e81f051d484",
    ("tss", "ls", "hcs"):
        "49cb31a5c165eee2b863d1a091090e19e16af6be2c4fd0bfeb018aa828ec421f",
    ("sss", "rs", "acc"):
        "ac7329bdb89860dcf84e14d485b343a7e7412f3558a7acc8e0473eb561ba0332",
    ("sss", "rs", "ece"):
        "79f93ffde97f5e593f49237eda8cb942869087a676879412524a2e4039a9f6d8",
    ("sss", "rs", "hcs"):
        "f9ad64ca20b9e9c7c5d5a7b0f3167ccbec3c02ecc72e31c83383201125b3b0cb",
    ("sss", "re", "acc"):
        "158cb1a52feffcb848d6a3c2dfa115d96aea68ec178f9fa462504aa3ccfb686c",
    ("sss", "re", "ece"):
        "409ba325e492185e8cc0048ad413590222296b831877bfba78603871cbec3129",
    ("sss", "re", "hcs"):
        "8670e80468eb216f0d2ee0e82db40cd736b0baec60c58edf7a4097c90b04df8a",
    ("sss", "ls", "acc"):
        "7ab210575aeb432d49f7e1ec6a29b4b5729d2e0922251b662b559183d9661402",
    ("sss", "ls", "ece"):
        "15badadadf71cf36c88fe6cda111995325cc876ae0492f935c192dfc1c45f6dc",
    ("sss", "ls", "hcs"):
        "d2b57d25de94a73ea9dfa807ca73eb2feaeeb1067375ae1ea6b9dbe375ea71b2",
}
ALGOS = {"rs": random_search, "re": regularized_evolution, "ls": local_search}


@pytest.fixture(scope="module")
def loaded_synth(tmp_path_factory):
    """A synthetic benchmark per space, written to disk and loaded back."""
    out = {}
    for space in ("tss", "sss"):
        path = str(tmp_path_factory.mktemp(space) / "bench.jsonl")
        write_benchmark(synth_benchmark(space, seed=11), path)
        out[space] = load_benchmark(path)
    return out


@pytest.mark.parametrize("key", sorted(GOLDEN_SEARCH_SHA256))
def test_search_results_match_golden_bytes(loaded_synth, key):
    space, algo, objective = key
    result = ALGOS[algo](loaded_synth[space], make_objective(objective),
                         SearchConfig(budget=400, seed=5))
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GOLDEN_SEARCH_SHA256[key]
