"""End-to-end tests for the calibrex command-line interface."""
import csv
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import calibrex
from calibrex import (
    MeasurementRecord,
    PredictionSet,
    TabularBenchmark,
    boxplot_stats,
    enumerate_tss,
    metric_key,
    read_records,
    read_table_csv,
    write_benchmark,
    write_csv_predictions,
    write_logits_file,
    write_matrix_csv,
    write_records,
    write_table_csv,
)
from calibrex import Temperature, cli, suite
from calibrex.cli import main


def make_preds(seed=0, n=200, k=3):
    rng = np.random.default_rng(seed)
    return PredictionSet(rng.normal(scale=2.0, size=(n, k)),
                         rng.integers(0, k, size=n))


@pytest.fixture
def logits_file(tmp_path):
    path = tmp_path / "model.bin"
    write_logits_file(path, make_preds())
    return str(path)


@pytest.fixture
def ood_files(tmp_path):
    rng = np.random.default_rng(1)
    paths = []
    for name in ("ood_a.txt", "ood_b.txt"):
        p = tmp_path / name
        p.write_text("".join(f"{v}\n" for v in rng.uniform(0.2, 0.8, 150)))
        paths.append(str(p))
    return paths


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_writes_102_records(tmp_path, logits_file, ood_files, capsys):
    out = str(tmp_path / "records.jsonl")
    rc = main(["eval", "--logits", logits_file, "--ood-in", ood_files[0],
               "--ood-out", ood_files[1], "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "102 records written"
    lines = [l for l in Path(out).read_text().splitlines() if l.strip()]
    assert len(lines) == 102
    datasets = {json.loads(l)["benchmark_dataset"] for l in lines}
    assert datasets == {"model"}  # file stem names the dataset


def test_eval_rerun_is_byte_identical(tmp_path, logits_file):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    for out in (a, b):
        assert main(["eval", "--logits", logits_file, "--out", out]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_eval_csv_format(tmp_path, capsys):
    path = tmp_path / "m.csv"
    write_csv_predictions(path, make_preds())
    out = str(tmp_path / "r.jsonl")
    rc = main(["eval", "--logits", str(path), "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "100 records written"


def test_eval_multiple_files_index_archs(tmp_path, capsys):
    paths = []
    for i in range(2):
        p = tmp_path / f"net{i}.bin"
        write_logits_file(p, make_preds(seed=i))
        paths.append(str(p))
    out = str(tmp_path / "r.jsonl")
    rc = main(["eval", "--logits", paths[0], "--logits", paths[1],
               "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "200 records written"
    recs = [json.loads(l) for l in Path(out).read_text().splitlines()]
    by_arch = {r["arch_index"] for r in recs}
    assert by_arch == {0, 1}
    assert {r["benchmark_dataset"] for r in recs} == {"net0", "net1"}


def test_eval_custom_bins_and_no_scaling(tmp_path, logits_file, capsys):
    out = str(tmp_path / "r.jsonl")
    rc = main(["eval", "--logits", logits_file, "--bins", "10,20",
               "--no-temperature-scale", "--out", out])
    assert rc == 0
    # 5 bin metrics x 2 bin counts + 5 continuous, single stage
    assert capsys.readouterr().out.strip() == "15 records written"
    recs = [json.loads(l) for l in Path(out).read_text().splitlines()]
    assert {r["stage"] for r in recs} == {"pre"}
    assert {r["bin_count"] for r in recs} == {10, 20, None}


def test_eval_jobs_match_serial(tmp_path):
    paths = []
    for i in range(2):
        p = tmp_path / f"n{i}.bin"
        write_logits_file(p, make_preds(seed=i))
        paths.append(str(p))
    serial = str(tmp_path / "serial.jsonl")
    parallel = str(tmp_path / "parallel.jsonl")
    base = ["eval", "--logits", paths[0], "--logits", paths[1]]
    assert main(base + ["--out", serial]) == 0
    assert main(base + ["--jobs", "2", "--out", parallel]) == 0
    assert Path(serial).read_bytes() == Path(parallel).read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_eval_rejects_jobs_below_one(tmp_path, logits_file, capsys, jobs):
    # both once ran serially with exit 0
    out = tmp_path / "r.jsonl"
    rc = main(["eval", "--logits", logits_file, "--jobs", jobs,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_eval_writes_each_model_before_reading_the_next(tmp_path,
                                                       monkeypatch):
    paths = []
    for i in range(2):
        p = tmp_path / f"n{i}.bin"
        write_logits_file(p, make_preds(seed=i))
        paths.append(str(p))
    outdir = tmp_path / "out"
    outdir.mkdir()
    seen = []
    read = cli.read_logits_file

    def spying_read(path):
        seen.append([t.read_bytes() for t in outdir.glob("*.tmp")])
        return read(path)

    monkeypatch.setattr(cli, "read_logits_file", spying_read)
    out = outdir / "r.jsonl"
    assert main(["eval", "--logits", paths[0], "--logits", paths[1],
                 "--out", str(out)]) == 0
    [held] = seen[1]
    # what the temp file holds is the first model's records, in order
    assert held and out.read_bytes().startswith(held)
    lines = held.split(b"\n")[:-1]  # the complete ones
    assert lines and {json.loads(l)["arch_index"] for l in lines} == {0}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_bad_second_file_leaves_no_output(tmp_path, capsys, jobs):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    write_logits_file(good, make_preds())
    bad.write_bytes(good.read_bytes()[:-3])
    outdir = tmp_path / "out"
    outdir.mkdir()
    out = outdir / "r.jsonl"
    rc = main(["eval", "--logits", str(good), "--logits", str(bad),
               "--jobs", jobs, "--out", str(out)])
    assert rc == 2
    # the first model's warning came as it finished, before the error
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"error: {bad}: truncated body")
    assert list(outdir.iterdir()) == []


def test_eval_reads_by_content_not_by_name(tmp_path):
    preds = make_preds()
    outs = {}
    for fmt, writer in (("clbx", write_logits_file),
                        ("csv", write_csv_predictions)):
        for name in ("x.csv", "x.clbx"):
            model = tmp_path / fmt / name
            model.parent.mkdir(exist_ok=True)
            writer(model, preds)
            out = tmp_path / f"{fmt}-{name}.jsonl"
            assert main(["eval", "--logits", str(model),
                         "--out", str(out)]) == 0
            outs[fmt, name] = out.read_bytes()
    assert outs["clbx", "x.csv"] == outs["clbx", "x.clbx"]
    assert outs["csv", "x.clbx"] == outs["csv", "x.csv"]
    assert outs["clbx", "x.csv"] != outs["csv", "x.csv"]  # float32 scores


def test_eval_warns_once_per_file_whose_temperature_is_at_a_bound(
        tmp_path, capsys):
    # labels drawn from softmax(2 z): the fit lands near T = 2
    rng = np.random.default_rng(3)
    z = rng.normal(size=(300, 3))
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    drawn = (rng.uniform(size=(300, 1)) > p.cumsum(axis=1)).sum(axis=1)
    logits_file = str(tmp_path / "fair.bin")
    write_logits_file(logits_file, PredictionSet(2.0 * z, drawn))
    # near-zero logits with perfect labels: the fit is pinned at T_MIN
    labels = np.arange(200) % 3
    pinned = str(tmp_path / "pinned.bin")
    write_logits_file(pinned, PredictionSet(1e-3 * np.eye(3)[labels], labels))
    out = str(tmp_path / "r.jsonl")
    assert main(["eval", "--logits", logits_file, "--logits", pinned,
                 "--out", out]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "200 records written"
    warnings = captured.err.splitlines()
    assert len(warnings) == 1
    assert warnings[0].startswith(f"warning: {pinned}: fitted temperature "
                                  f"0.05")
    assert "at the bound of [0.05, 20]" in warnings[0]
    # the warning is a diagnostic only: the records carry no flag
    recs = [json.loads(l) for l in Path(out).read_text().splitlines()]
    assert all(set(r) == set(recs[0]) for r in recs)
    pinned_t = {r["temperature"] for r in recs
                if r["arch_index"] == 1 and r["stage"] == "post"}
    assert len(pinned_t) == 1 and pinned_t.pop() < 0.0501
    assert main(["eval", "--logits", logits_file, "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_eval_builds_no_record_object_per_value(tmp_path, logits_file,
                                                ood_files, monkeypatch):
    # each of the 102 values was once a MeasurementRecord that re-ran the
    # record checks on a number the suite had just computed
    calls = []
    post_init = suite.MeasurementRecord.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)
    monkeypatch.setattr(suite.MeasurementRecord, "__post_init__", counting)
    out = tmp_path / "r.jsonl"
    assert main(["eval", "--logits", logits_file, "--ood-in", ood_files[0],
                 "--ood-out", ood_files[1], "--out", str(out)]) == 0
    # the tag checks of the call's SuiteConfig and of its per-file copy
    assert len(calls) == 2
    assert len(out.read_text().splitlines()) == 102


def test_eval_warning_comes_from_the_fit(tmp_path, logits_file, monkeypatch,
                                         capsys):
    # once derived again from the records' temperatures, so a fit that
    # flagged its bound was not warned about unless its value agreed
    monkeypatch.setattr(suite, "fit_temperature",
                        lambda preds: Temperature(1.5, 1.0, 0.9, True))
    out = tmp_path / "r.jsonl"
    assert main(["eval", "--logits", logits_file, "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        f"warning: {logits_file}: fitted temperature 1.5 is at the bound of "
        "[0.05, 20]\n")
    temps = {json.loads(l)["temperature"]
             for l in out.read_text().splitlines()}
    assert temps == {None, 1.5}


def test_eval_refuses_a_non_finite_value_at_the_write(tmp_path, logits_file,
                                                      monkeypatch, capsys):
    # once the record's own message, which named neither the file nor the
    # metric
    monkeypatch.setitem(suite._CONT_FUNCS, "ksce",
                        lambda probs, top: float("nan"))
    outdir = tmp_path / "out"
    outdir.mkdir()
    rc = main(["eval", "--logits", logits_file,
               "--out", str(outdir / "r.jsonl")])
    assert rc == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {logits_file}: ksce_pre must be finite, "
                      "got nan"]
    assert list(outdir.iterdir()) == []


def test_eval_missing_file_exits_2(tmp_path, capsys):
    out = str(tmp_path / "r.jsonl")
    rc = main(["eval", "--logits", "/nonexistent/net.bin", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "/nonexistent/net.bin" in err


def test_eval_ood_must_come_in_pairs(tmp_path, logits_file, ood_files,
                                     capsys):
    out = str(tmp_path / "r.jsonl")
    rc = main(["eval", "--logits", logits_file, "--ood-in", ood_files[0],
               "--out", out])
    assert rc == 2
    assert "together" in capsys.readouterr().err


def test_eval_ood_files_belong_to_one_model(tmp_path, logits_file,
                                           ood_files, capsys):
    # once every model of the call was scored against the same OoD
    # confidences, which are one model's own
    other = tmp_path / "other.bin"
    write_logits_file(other, make_preds(seed=1))
    out = tmp_path / "r.jsonl"
    rc = main(["eval", "--logits", logits_file, "--logits", str(other),
               "--ood-in", ood_files[0], "--ood-out", ood_files[1],
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: OoD files belong to one model: --ood-in and --ood-out need "
        "exactly one --logits, got 2\n")
    assert not out.exists()


def test_eval_bad_ood_content(tmp_path, logits_file, capsys):
    bad = tmp_path / "ood.txt"
    bad.write_text("0.5\nhello\n")
    out = str(tmp_path / "r.jsonl")
    rc = main(["eval", "--logits", logits_file, "--ood-in", str(bad),
               "--ood-out", str(bad), "--out", out])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 2: could not convert string 'hello' to "
        "float64, column 1.\n")


@pytest.mark.parametrize("content, message", [
    ("", "no confidence values"),
    ("\n  \n\t\n", "no confidence values"),
    (b"0.5\n\xff\n", "can't decode byte 0xff"),
    ("0.5\nnan\n", "line 2: nan is not a finite number"),
    ("\n0.5\n\n-inf\ninf\n", "line 4: -inf is not a finite number"),
])
def test_eval_ood_lines_hold_one_number(tmp_path, logits_file, ood_files,
                                        capsys, content, message):
    bad = tmp_path / "ood.txt"
    bad.write_bytes(content if isinstance(content, bytes)
                    else content.encode())
    out = str(tmp_path / "r.jsonl")
    rc = main(["eval", "--logits", logits_file, "--ood-in", ood_files[0],
               "--ood-out", str(bad), "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}")
    assert message in err


def test_eval_ood_skips_blank_and_whitespace_lines(tmp_path, logits_file,
                                                  ood_files):
    values = Path(ood_files[1]).read_text().split()
    spaced = tmp_path / "spaced.txt"
    spaced.write_text("\n  \n" + "\n \t\n".join(f"  {v} " for v in values)
                      + "\n\n")
    outs = []
    for name, ood_b in (("plain", ood_files[1]), ("spaced", str(spaced))):
        outs.append(tmp_path / f"{name}.jsonl")
        assert main(["eval", "--logits", logits_file, "--ood-in",
                     ood_files[0], "--ood-out", ood_b, "--out",
                     str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_eval_seed_env_fallback(tmp_path, logits_file, monkeypatch, capsys):
    flagged = str(tmp_path / "flag.jsonl")
    env = str(tmp_path / "env.jsonl")
    other = str(tmp_path / "other.jsonl")
    assert main(["eval", "--logits", logits_file, "--seed", "7",
                 "--out", flagged]) == 0
    monkeypatch.setenv("CALIBREX_SEED", "7")
    assert main(["eval", "--logits", logits_file, "--out", env]) == 0
    monkeypatch.setenv("CALIBREX_SEED", "8")
    assert main(["eval", "--logits", logits_file, "--out", other]) == 0
    assert Path(flagged).read_bytes() == Path(env).read_bytes()
    assert Path(env).read_bytes() != Path(other).read_bytes()
    # a negative seed is refused before a file is read: it once exited
    # with numpy's bare "expected non-negative integer" after the read
    capsys.readouterr()  # the runs above warn of a bound temperature
    for argv, env_seed, bad in ((["--seed", "-1"], "7", -1), ([], "-2", -2)):
        monkeypatch.setenv("CALIBREX_SEED", env_seed)
        assert main(["eval", "--logits", str(tmp_path / "none.clbx"),
                     *argv, "--out", other]) == 2
        assert capsys.readouterr().err == \
            f"error: seed must be an integer >= 0, got {bad}\n"


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["--val-fraction", "1.5"], "fraction must lie in (0, 1), got 1.5"),
    (["--bins", "0,5"], "bin count must be a positive integer, got 0"),
])
def test_eval_checks_its_flags_before_reading_ood_files(
        tmp_path, logits_file, ood_files, capsys, flags, message):
    # the OoD files were read first, so a missing one was named instead
    out = tmp_path / "r.jsonl"
    rc = main(["eval", "--logits", logits_file, "--ood-in",
               str(tmp_path / "none.txt"), "--ood-out", ood_files[1],
               *flags, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("bins", ["5,x", "", "5,10.0"])
def test_eval_bad_bins_name_the_flag(tmp_path, logits_file, capsys, bins):
    # they once gave int()'s bare "invalid literal for int() with base 10"
    rc = main(["eval", "--logits", str(tmp_path / "none.clbx"), "--bins",
               bins, "--out", str(tmp_path / "r.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: --bins must be comma-separated ints, got {bins!r}\n"


@pytest.mark.parametrize("command", [
    ["eval", "--logits", "none.clbx"],
    ["search", "--benchmark", "none.jsonl", "--budget", "5"],
])
def test_a_bad_seed_variable_is_named(tmp_path, monkeypatch, capsys,
                                      command):
    # it once gave int()'s bare "invalid literal for int() with base 10"
    monkeypatch.setenv("CALIBREX_SEED", "abc")
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--out", "r.json"]) == 2
    assert capsys.readouterr().err == \
        "error: CALIBREX_SEED must be an integer >= 0, got 'abc'\n"


# ---------------------------------------------------------------------------
# correlate
# ---------------------------------------------------------------------------

@pytest.fixture
def table_csv(tmp_path):
    records = []
    for arch in range(8):
        rng = np.random.default_rng(arch)
        for metric, bin_count in (("ece", 10), ("mce", 10)):
            records.append(MeasurementRecord(
                "d", "tss", arch, metric, bin_count, "pre", "test",
                float(rng.uniform(0.05, 0.3))))
        records.append(MeasurementRecord(
            "d", "tss", arch, "nll", None, "pre", "test",
            float(rng.uniform(0.5, 2.0))))
    write_records(records, tmp_path / "records.jsonl")
    path = tmp_path / "table.csv"
    write_table_csv(read_records(tmp_path / "records.jsonl")[1], path)
    return str(path)


def test_correlate_writes_matrix(tmp_path, table_csv, capsys):
    out = str(tmp_path / "mat.csv")
    rc = main(["correlate", "--table", table_csv, "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "3x3 correlation matrix written"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "ece_10_pre", "mce_10_pre", "nll_pre"]
    mat = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 1.0)


def test_correlate_column_subset_and_topk(tmp_path, table_csv, capsys):
    out = str(tmp_path / "mat.csv")
    rc = main(["correlate", "--table", table_csv,
               "--columns", "nll_pre,ece_10_pre",
               "--top-k", "5", "--by", "nll_pre", "--out", out])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "nll_pre", "ece_10_pre"]
    assert len(rows) == 3


def test_correlate_topk_requires_by(tmp_path, table_csv, capsys):
    out = str(tmp_path / "mat.csv")
    rc = main(["correlate", "--table", table_csv, "--top-k", "3",
               "--out", out])
    assert rc == 2
    assert "--by" in capsys.readouterr().err


def test_correlate_by_requires_topk(tmp_path, table_csv, capsys):
    # once ignored: the unfiltered matrix was written with exit 0
    out = tmp_path / "mat.csv"
    rc = main(["correlate", "--table", table_csv, "--by", "nll_pre",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: --top-k and --by must be given together\n"
    assert not out.exists()


def test_correlate_rejects_a_repeated_column(tmp_path, table_csv, capsys):
    # once a 2x2 matrix with a repeated header
    out = tmp_path / "mat.csv"
    rc = main(["correlate", "--table", table_csv,
               "--columns", "nll_pre,nll_pre", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: column 'nll_pre' is repeated\n"
    assert not out.exists()


def test_correlate_topk_exceeding_rows_exits_2(tmp_path, table_csv, capsys):
    out = str(tmp_path / "mat.csv")
    rc = main(["correlate", "--table", table_csv, "--top-k", "9",
               "--by", "nll_pre", "--out", out])
    assert rc == 2
    assert "exceeds table size 8" in capsys.readouterr().err


def test_correlate_checks_top_k_before_reading_the_table(tmp_path, capsys):
    # the table was read first, so a missing one was named instead
    rc = main(["correlate", "--table", str(tmp_path / "none.csv"),
               "--top-k", "0", "--by", "nll_pre",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: k must be a positive integer, got 0\n"


def test_correlate_unknown_column_exits_2(tmp_path, table_csv, capsys):
    out = str(tmp_path / "mat.csv")
    rc = main(["correlate", "--table", table_csv, "--columns", "bogus",
               "--out", out])
    assert rc == 2
    assert "no column 'bogus'" in capsys.readouterr().err


def test_correlate_names_a_constant_column(tmp_path, capsys):
    # its tau-b row and column are nan, once without a word
    table = tmp_path / "table.csv"
    table.write_text("arch_index,a,b,c\n0,0.1,0.5,0.3\n1,0.2,0.5,0.1\n"
                     "2,0.3,0.5,0.2\n")
    out = tmp_path / "m.csv"
    rc = main(["correlate", "--table", str(table), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == (f"warning: {table}: column 'b' is constant, so "
                            "its tau-b row and column are nan\n")
    assert captured.out == "3x3 correlation matrix written\n"
    with open(out, newline="") as fh:
        mat = np.array([[float(x) for x in r[1:]]
                        for r in list(csv.reader(fh))[1:]])
    assert np.isnan(mat[1, [0, 2]]).all() and np.isnan(mat[[0, 2], 1]).all()
    assert not np.isnan(mat[0, 2])


def test_correlate_rejects_malformed_table(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    rc = main(["correlate", "--table", str(bad),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "arch_index" in capsys.readouterr().err


@pytest.mark.parametrize("body, where", [
    ("-1,0.5,1\n1,0.25,2\n", "arch_index must be an integer >= 0 and "
     "< 2**63, got -1"),  # once correlated as an architecture
    ("0,0.5,1\n1,0.25\n", "2 were found"),          # short row
    ("0,0.5,1\n1,0.25,2,3\n", "4 were found"),      # extra cell
    ("0,0.5,1\n1,0.25,abc\n", "'abc'"),             # non-numeric cell
    ("0,0.5,1\n1.0,0.25,2\n", "'1.0' to int64"),    # non-integer index
    ("", "no data rows"),
    # a byte that is not UTF-8 past the reader's first 8 KiB chunk
    ("".join(f"{i},0.5,1\n" for i in range(2000)).encode() + b"9,\xff,1\n",
     "can't decode byte 0xff"),
    # once read as a 2x2 matrix over the second "a" and "b"
    ("0,0.5,1,2\n1,0.25,2,1\n", "line 1: column 'a' is repeated"),
], ids=["negative-index", "short-row", "extra-cell", "non-numeric",
        "float-index", "no-rows", "not-utf8", "repeated-name"])
def test_correlate_bad_table_exits_2_with_one_line(tmp_path, capsys, body,
                                                   where):
    bad = tmp_path / "bad.csv"
    header = "arch_index,a,a,b\n" if "repeated" in where else \
        "arch_index,a,b\n"
    if isinstance(body, bytes):
        bad.write_bytes(header.encode() + body)
    else:
        bad.write_text(header + body)
    rc = main(["correlate", "--table", str(bad),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")
    assert where in err
    assert not (tmp_path / "m.csv").exists()


def test_correlate_rejects_a_repeated_arch_index(tmp_path, capsys):
    # the repeat once counted as a second architecture in every tau
    table = tmp_path / "table.csv"
    table.write_text("arch_index,a,b\n0,0.1,0.3\n1,0.2,0.1\n2,0.3,0.2\n"
                     "1,0.2,0.1\n")
    out = tmp_path / "m.csv"
    rc = main(["correlate", "--table", str(table), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: {table}: arch_index 1 has more than one row\n"
    assert not out.exists()


HEADERS = {"table": "arch_index,a,b\n", "csv": "label,s0,s1\n", "ood": ""}


@pytest.mark.parametrize("reader, body, line, where", [
    ("table", "0,0.5,1\n1,0.25\n", 3, "2 were found"),
    ("table", "0,0.5,1\n1,0.25,abc\n", 3, "'abc'"),
    ("table", "\n0,0.5,1\n\n1,0.25,abc\n2,1,2\n", 5, "'abc'"),
    ("table", "0,0.5,1\n1,2,3\n2,3,4\n3,4\n4,5,6\n", 5, "2 were found"),
    # cells that parse but are not finite: once ranked, or a nan row
    ("table", "0,0.5,1\n\n1,nan,2\n", 4,
     "column 'a': nan is not a finite number"),
    ("table", "0,0.5,1\n1,0.25,-inf\n2,inf,1\n", 3,
     "column 'b': -inf is not a finite number"),
    ("csv", "0,0.5,0.5\n1,0.25\n", 3, "requires 3 columns but 2 were found"),
    ("csv", "0,0.5,0.5\n1,0.25,abc\n", 3,
     "could not convert string 'abc' to float64, column 3."),
    ("csv", "\n0,0.5,0.5\n\n1,0.25,abc\n1,0.5,0.5\n", 5, "'abc'"),
    # values that parse but break the row rules
    ("csv", "0,0.5,0.5\n\n1,nan,0.5\n1,0.5,0.5\n", 4, "non-finite score"),
    ("csv", "0,0.5,0.5\n1,inf,0.5\n", 3, "non-finite score"),
    ("csv", "0,0.5,0.5\n1,0.5,0.5\n\n2,0.5,0.5\n-1,0.5,0.5\n", 5,
     "label 2 out of range [0, 2)"),
    ("ood", "0.5\n0.25 0.75\n", 2, "requires 1 columns but 2 were found"),
    ("ood", "0.5 0.6\n0.25 0.75\n", 1, "requires 1 columns but 2 were found"),
    ("ood", "0.5\n0.5,0.6\n", 2, "could not convert string '0.5,0.6'"),
    ("ood", "\n   \n0.5\n\t\nhello\n", 5, "'hello'"),
    # the no-line forms: a byte that is not UTF-8 past the header read's
    # first 8 KiB chunk (also after a bad row), an empty body, a missing file
    ("csv", b"0,0.5,0.5\n" * 2000 + b"1,\xff,0.5\n", None,
     "can't decode byte 0xff"),
    ("ood", b"0.5\n" * 2000 + b"\xff\n", None, "can't decode byte 0xff"),
    ("table", b"0,abc,1\n" + b"0,0.5,1\n" * 2000 + b"9,\xff,1\n", None,
     "can't decode byte 0xff"),
    # inside the header read's first chunk
    ("csv", b"\xff0,0.5,0.5\n", None, "can't decode byte 0xff"),
    ("table", b"\xff0,0.5,1\n", None, "can't decode byte 0xff"),
    ("csv", "", None, "no data rows"),
    ("table", None, None, "No such file or directory"),
    ("csv", None, None, "No such file or directory"),
    ("ood", None, None, "No such file or directory"),
], ids=["short-row", "bad-cell", "after-blank-lines", "fifth-line",
        "nan-cell", "inf-cell",
        "csv-short-row", "csv-bad-cell", "csv-after-blank-lines",
        "csv-nan-score-after-blank-line", "csv-inf-score",
        "csv-label-out-of-range",
        "ood-two-numbers", "ood-two-numbers-first-line", "ood-comma",
        "ood-after-blank-lines", "csv-not-utf8", "ood-not-utf8",
        "table-bad-row-then-not-utf8", "csv-header-not-utf8",
        "table-header-not-utf8", "csv-empty",
        "table-missing", "csv-missing", "ood-missing"])
def test_correlate_bad_table_names_the_file_line(tmp_path, capsys, logits_file,
                                                 ood_files, reader, body,
                                                 line, where):
    # every text reader: correlate tables, CSV predictions and OoD files
    bad, out = tmp_path / "bad.txt", tmp_path / "out.csv"
    if isinstance(body, bytes):
        bad.write_bytes(HEADERS[reader].encode() + body)
    elif body is not None:
        bad.write_text(HEADERS[reader] + body)
    argv = {"table": ["correlate", "--table", str(bad)],
            "csv": ["eval", "--logits", str(bad)],
            "ood": ["eval", "--logits", logits_file, "--ood-in",
                    ood_files[0], "--ood-out", str(bad)]}[reader]
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    prefix = f"error: {bad}: " if line is None else \
        f"error: {bad}: line {line}: "
    assert err.count("\n") == 1 and err.startswith(prefix)
    assert where in err and "at row" not in err and "in row" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_synthetic_writes_result_json(tmp_path, capsys):
    out = str(tmp_path / "result.json")
    rc = main(["search", "--benchmark", "synthetic", "--algo", "rs",
               "--budget", "50", "--seed", "3", "--out", out])
    assert rc == 0
    assert "50 evaluations" in capsys.readouterr().out
    result = json.loads(Path(out).read_text())
    assert set(result) == {"best_arch", "best_value", "evaluations",
                           "trajectory"}
    assert result["evaluations"] == 50
    assert len(result["trajectory"]) == 50
    assert result["trajectory"][-1] == result["best_value"]


def test_search_rerun_is_byte_identical_and_percent_is_display_only(
        tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["search", "--benchmark", "synthetic", "--algo", "re",
            "--objective", "hcs", "--beta", "2.0", "--budget", "60",
            "--seed", "1"]
    assert main(base + ["--out", a]) == 0
    plain = capsys.readouterr().out
    assert main(base + ["--percent", "--out", b]) == 0
    pct = capsys.readouterr().out
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert plain != pct  # stdout shows the scaled value


def test_search_on_benchmark_file(tmp_path, capsys):
    archs = [a.to_string() for a in enumerate_tss()[:6]]
    metrics = {"accuracy": [0.5 + 0.05 * i for i in range(6)],
               "ece": [0.1] * 6}
    bench_path = str(tmp_path / "bench.jsonl")
    write_benchmark(TabularBenchmark("tss", metrics, archs), bench_path)
    out = str(tmp_path / "result.json")
    rc = main(["search", "--benchmark", bench_path, "--algo", "rs",
               "--budget", "6", "--out", out])
    assert rc == 0
    result = json.loads(Path(out).read_text())
    assert result["best_arch"] == archs[5]
    assert result["best_value"] == pytest.approx(0.75)


def test_search_space_mismatch_exits_2(tmp_path, capsys):
    archs = [a.to_string() for a in enumerate_tss()[:3]]
    metrics = {"accuracy": [0.5] * 3, "ece": [0.1] * 3}
    bench_path = str(tmp_path / "bench.jsonl")
    write_benchmark(TabularBenchmark("tss", metrics, archs), bench_path)
    rc = main(["search", "--benchmark", bench_path, "--space", "sss",
               "--budget", "3", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "benchmark is tss" in capsys.readouterr().err


def test_search_missing_benchmark_exits_2(tmp_path, capsys):
    rc = main(["search", "--benchmark", "/nope/bench.jsonl", "--budget", "5",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "/nope/bench.jsonl" in capsys.readouterr().err


def test_search_hcs_with_an_infinite_beta_exits_2(tmp_path, capsys):
    # it once exited 0 and wrote "best_value": -Infinity, not valid JSON
    out = tmp_path / "r.json"
    rc = main(["search", "--benchmark", "synthetic", "--objective", "hcs",
               "--beta", "inf", "--budget", "10", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: beta must be a finite number > 0, got inf\n"
    assert not out.exists()
    # refused before the benchmark is read
    rc = main(["search", "--benchmark", str(tmp_path / "none.jsonl"),
               "--objective", "hcs", "--beta", "0", "--budget", "10",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: beta must be a finite number > 0, got 0.0\n"


@pytest.mark.parametrize("flags, message", [
    (["--budget", "0"], "budget must be a positive integer, got 0"),
    (["--budget", "5", "--seed", "-1"],
     "seed must be an integer >= 0, got -1"),
])
def test_search_checks_its_flags_before_the_benchmark(
        tmp_path, monkeypatch, capsys, flags, message):
    # the benchmark was read or built first: a missing file was named, and
    # --seed -1 failed after the build with numpy's bare message
    def build(*args, **kwargs):
        raise AssertionError("synth_benchmark called before the flags "
                             "were checked")

    monkeypatch.setattr(calibrex.search, "synth_benchmark", build)
    for bench in (str(tmp_path / "none.jsonl"), "synthetic"):
        rc = main(["search", "--benchmark", bench, *flags,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_search_budget_over_space_exits_2(tmp_path, capsys):
    archs = [a.to_string() for a in enumerate_tss()[:3]]
    metrics = {"accuracy": [0.5] * 3, "ece": [0.1] * 3}
    bench_path = str(tmp_path / "bench.jsonl")
    write_benchmark(TabularBenchmark("tss", metrics, archs), bench_path)
    rc = main(["search", "--benchmark", bench_path, "--algo", "rs",
               "--budget", "4", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "exceeds space size" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_sss(tmp_path, capsys):
    out = str(tmp_path / "sss.txt")
    rc = main(["enumerate", "--space", "sss", "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "32768 architectures written"
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 32768
    assert lines[0] == "8:8:8:8:8"
    assert lines[-1] == "64:64:64:64:64"


def test_enumerate_tss(tmp_path, capsys):
    out = str(tmp_path / "tss.txt")
    rc = main(["enumerate", "--space", "tss", "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "15625 architectures written"
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 15625
    assert lines[0] == "|none~0|+|none~0|none~1|+|none~0|none~1|none~2|"


def test_enumerate_tss_dedupe(tmp_path, capsys):
    from calibrex import canonical_fingerprint, parse_tss
    out = str(tmp_path / "uniq.txt")
    rc = main(["enumerate", "--space", "tss", "--dedupe", "--out", out])
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert capsys.readouterr().out.strip() == \
        f"{len(lines)} architectures written"
    # representatives cover each class exactly once
    fps = [canonical_fingerprint(parse_tss(l)) for l in lines]
    assert len(fps) == len(set(fps))
    # first representative is the first arch of the enumeration
    assert lines[0] == "|none~0|+|none~0|none~1|+|none~0|none~1|none~2|"
    assert 0 < len(lines) < 15625


def test_enumerate_sss_dedupe_exits_2(tmp_path, capsys):
    # fingerprint classes exist for topology cells only
    out = tmp_path / "sss.txt"
    rc = main(["enumerate", "--space", "sss", "--dedupe", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --dedupe needs --space tss: fingerprint " \
        "classes exist for topology cells only\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

REPORT_HEADER = ["metric", "group", "n", "median", "q1", "q3", "whisker_lo",
                 "whisker_hi", "n_outliers"]


def test_report_writes_one_box_per_metric_column(tmp_path, capsys):
    # a box once pooled every metric of both stages at one bin count
    argv = ["eval"]
    for i in range(3):
        model = tmp_path / f"net{i}.bin"
        write_logits_file(model, make_preds(seed=i))
        argv += ["--logits", str(model)]
    records = tmp_path / "r.jsonl"
    assert main(argv + ["--out", str(records)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "report.csv")
    assert main(["report", "--records", str(records), "--out", out]) == 0
    assert capsys.readouterr().out == "100 boxes written\n"
    values = {}
    for line in records.read_text().splitlines():
        rec = json.loads(line)
        values.setdefault(metric_key(rec), []).append(rec["value"])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_HEADER
    assert [r[0] for r in rows[1:]] == sorted(values)
    for row in rows[1:]:
        s = boxplot_stats(values[row[0]])
        assert s.n == 3
        assert row[1:] == ["all", "3"] + [repr(v) for v in (
            s.median, s.q1, s.q3, s.whisker_lo, s.whisker_hi)] + \
            [str(s.n_outliers)]


@pytest.mark.parametrize("case", ["two-datasets", "two-spaces",
                                  "missing-cell"])
def test_report_needs_records_that_pivot(tmp_path, capsys, case):
    # each was once pooled into the boxes with exit 0
    second = {"two-datasets": ("cifar100", "tss", 0),
              "two-spaces": ("cifar10", "sss", 1),
              "missing-cell": ("cifar10", "tss", 1)}[case]
    records = [MeasurementRecord("cifar10", "tss", 0, "ece", 15, "pre",
                                 "test", 0.1),
               MeasurementRecord("cifar10", "tss", 0, "nll", None, "pre",
                                 "test", 0.9),
               MeasurementRecord(*second, "ece", 15, "pre", "test", 0.2)]
    path = tmp_path / "r.jsonl"
    write_records(records, path)
    out = tmp_path / "report.csv"
    assert main(["report", "--records", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: " + {
        "two-datasets": f"{path}:3: second value for ece_15_pre at "
                        "arch_index 0 (benchmark_dataset 'cifar100')",
        "two-spaces": f"{path}:3: records mix search spaces 'tss' and 'sss'",
        "missing-cell": f"{path}: column 'nll_pre' missing for arch(es) [1]",
    }[case] + "\n"
    assert not out.exists()


def test_report_empty_records_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["report", "--records", str(empty),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "no records" in capsys.readouterr().err


def sss_records(tmp_path, n_archs=30):
    rng = np.random.default_rng(0)
    records = []
    for i in range(n_archs):
        records.append(MeasurementRecord(
            "d", "sss", int(i * 997), "ece", 15, "pre", "test",
            float(rng.uniform(0.05, 0.2))))
    path = str(tmp_path / "sss.jsonl")
    write_records(records, path)
    return path


def test_report_size_brackets(tmp_path, capsys):
    # --brackets once needed --group-by size_bracket too; without it the
    # report exited 0 grouped by bin count, every record in one "15" box
    records = sss_records(tmp_path)
    out = str(tmp_path / "report.csv")
    rc = main(["report", "--records", records, "--brackets", "120,240",
               "--out", out])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_HEADER
    assert {r[0] for r in rows[1:]} == {"ece_15_pre"}
    labels = [r[1] for r in rows[1:]]
    assert labels and set(labels) <= {"<120", "[120,240)", ">=240"}
    assert sum(int(r[2]) for r in rows[1:]) == 30


def test_report_bracket_labels_tell_close_edges_apart(tmp_path, capsys):
    # six significant digits once labelled the middle bracket [1e+06,1e+06)
    assert cli._bracket_labels([1000000.0, 1000000.4]) == [
        "<1000000", "[1000000,1000000.4)", ">=1000000.4"]
    assert cli._bracket_labels([120.0, 120.5, 240.0]) == [
        "<120", "[120,120.5)", "[120.5,240)", ">=240"]
    out = str(tmp_path / "report.csv")
    rc = main(["report", "--records", sss_records(tmp_path),
               "--brackets", "1000000,1000000.4", "--out", out])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    # every sss model size lies below the first edge
    assert [r[1:3] for r in rows[1:]] == [["<1000000", "30"]]


def test_report_size_brackets_require_sss(tmp_path, logits_file, capsys):
    records = str(tmp_path / "r.jsonl")
    assert main(["eval", "--logits", logits_file, "--out", records]) == 0
    out = tmp_path / "report.csv"
    rc = main(["report", "--records", records, "--brackets", "120",
               "--out", str(out)])
    assert rc == 2
    assert "sss" in capsys.readouterr().err
    assert not out.exists()
    # an arch_index past the 32,768 sss points has no model size
    write_records([MeasurementRecord("d", "sss", 32_768, "ece", 15, "pre",
                                     "test", 0.1)], records)
    rc = main(["report", "--records", records, "--brackets", "120",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: arch_index 32768 outside the sss space\n"
    assert not out.exists()


def test_report_size_brackets_reject_a_nan_edge(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["report", "--records", sss_records(tmp_path),
               "--brackets", "120,nan", "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("brackets, message", [
    ("5,3", "edges must be finite, strictly increasing and non-empty"),
    ("a,b", "--brackets must be comma-separated floats, got 'a,b'"),
])
def test_report_checks_brackets_before_reading_records(tmp_path, capsys,
                                                       brackets, message):
    # the records were read first, so a missing file was named instead;
    # "a,b" once gave float()'s bare "could not convert string to float"
    out = tmp_path / "report.csv"
    rc = main(["report", "--records", str(tmp_path / "none.jsonl"),
               "--brackets", brackets, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_report_percent_scales_values(tmp_path, capsys):
    records = sss_records(tmp_path)
    plain = str(tmp_path / "plain.csv")
    pct = str(tmp_path / "pct.csv")
    base = ["report", "--records", records, "--brackets", "120,240"]
    assert main(base + ["--out", plain]) == 0
    assert main(base + ["--percent", "--out", pct]) == 0
    with open(plain, newline="") as fh:
        prow = list(csv.reader(fh))[1]
    with open(pct, newline="") as fh:
        qrow = list(csv.reader(fh))[1]
    assert qrow[:3] == prow[:3] and qrow[-1] == prow[-1]
    for p, q in zip(prow[3:8], qrow[3:8]):  # median to whisker_hi
        assert float(q) == pytest.approx(100.0 * float(p), rel=1e-12)


def test_report_rerun_is_byte_identical(tmp_path):
    records = sss_records(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert main(["report", "--records", records, "--out", out]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_report_bad_record_names_the_line(tmp_path, capsys):
    records = tmp_path / "r.jsonl"
    rec = MeasurementRecord("d", "tss", 0, "ece", 15, "pre", "test", 0.1)
    # 2**63 once escaped as an OverflowError from the int64 column
    for bad in ("0", 2**63):
        line = json.dumps({**rec.to_dict(), "arch_index": bad})
        records.write_text(json.dumps(rec.to_dict()) + "\n" + line + "\n")
        rc = main(["report", "--records", str(records),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {records}:2: bad record: arch_index must be an integer "
            f">= 0 and < 2**63, got {bad!r}\n")


def test_search_names_a_string_arch_index(tmp_path, capsys):
    # once read as "no architecture has both accuracy and ece records"
    arch = enumerate_tss()[0].to_string()
    bench_path = tmp_path / "bench.jsonl"
    write_benchmark(TabularBenchmark(
        "tss", {"accuracy": [0.5], "ece": [0.1]}, [arch]), str(bench_path))
    good = bench_path.read_text()
    # 2**63 once escaped as an OverflowError from the int64 column
    for bad in ("0", 2**63):
        bench_path.write_text(good.replace(
            '"arch_index":0', f'"arch_index":{json.dumps(bad)}'))
        rc = main(["search", "--benchmark", str(bench_path), "--budget", "1",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bench_path}:1: bad record: arch_index must be an "
            f"integer >= 0 and < 2**63, got {bad!r}\n")


def test_search_on_pooled_evals_names_the_repeated_cell(tmp_path, capsys):
    # separate eval calls each number their files from 0; pooled, both
    # models claim arch_index 0, and that once loaded the first model's
    # accuracy with the second model's ECE
    parts = []
    for i, extra in enumerate((["--include-accuracy"], [])):
        model, part = tmp_path / f"m{i}.bin", tmp_path / f"part{i}.jsonl"
        write_logits_file(model, make_preds(seed=i))
        assert main(["eval", "--logits", str(model), "--out", str(part)]
                    + extra) == 0
        parts.append(part.read_text())
    bench_path = tmp_path / "bench.jsonl"
    bench_path.write_text("".join(parts))
    (tmp_path / "bench.index.json").write_text(
        json.dumps({enumerate_tss()[0].to_string(): 0}))
    out = tmp_path / "r.json"
    capsys.readouterr()
    rc = main(["search", "--benchmark", str(bench_path), "--budget", "1",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    # the first part holds 102 records; m1's ECE at 15 bins is its third
    assert err == (f"error: {bench_path}:105: second value for ece_15_pre "
                   "at arch_index 0 (benchmark_dataset 'm1')\n")
    assert not out.exists()


def _index_missing(tmp_path):
    arch = enumerate_tss()[0].to_string()
    bench_path = tmp_path / "bench.jsonl"
    write_benchmark(TabularBenchmark(
        "tss", {"accuracy": [0.5], "ece": [0.1]}, [arch]), str(bench_path))
    (tmp_path / "bench.index.json").unlink()
    return (["search", "--benchmark", str(bench_path), "--budget", "1",
             "--out", str(tmp_path / "r.json")],
            str(tmp_path / "bench.index.json"))


@pytest.mark.parametrize("case", ["report", "enumerate", "search"])
def test_system_errors_name_the_file(tmp_path, capsys, case):
    if case == "report":
        missing = str(tmp_path / "nope.jsonl")
        argv = ["report", "--records", missing,
                "--out", str(tmp_path / "r.csv")]
    elif case == "enumerate":
        missing = str(tmp_path / "no" / "dir" / "x.txt")
        argv = ["enumerate", "--out", missing]
    else:
        argv, missing = _index_missing(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == f"error: {missing}: No such file or directory\n"


# ---------------------------------------------------------------------------
# process-level behaviour
# ---------------------------------------------------------------------------

def cli_start_modules():
    """The modules a fresh interpreter holds after building the parser."""
    src = os.path.dirname(os.path.dirname(calibrex.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, calibrex, calibrex.cli\n"
            "calibrex.cli.build_parser()\n"
            "print('\\n'.join(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_cli_start_does_not_import_scipy():
    assert [m for m in cli_start_modules()
            if m == "scipy" or m.startswith("scipy.")] == []


def test_cli_start_does_not_import_concurrent_futures():
    # correlate's thread pool is imported when it is used
    assert "concurrent.futures" not in cli_start_modules()


def test_cli_start_does_not_import_multiprocessing():
    # eval's process pool is imported when --jobs asks for one
    assert "multiprocessing" not in cli_start_modules()


def write_every_output(tmp_path, logits_file, table_csv):
    """Run every command and every text writer once; the files written."""
    out = tmp_path / "out"
    out.mkdir()
    write_benchmark(TabularBenchmark(
        "tss", {"accuracy": [0.5, 0.6], "ece": [0.1, 0.2]},
        [a.to_string() for a in enumerate_tss()[:2]]),
        str(out / "bench.jsonl"))
    write_records([MeasurementRecord("d", "tss", 0, "nll", None, "pre",
                                     "test", 0.5)], out / "records.jsonl")
    write_table_csv(read_table_csv(table_csv), out / "table.csv")
    write_matrix_csv(["a"], np.eye(1), out / "matrix.csv")
    write_csv_predictions(out / "preds.csv", make_preds())
    for argv in (["eval", "--logits", logits_file, "--out", "eval.jsonl"],
                 ["correlate", "--table", table_csv, "--out", "corr.csv"],
                 ["search", "--benchmark", out / "bench.jsonl",
                  "--budget", "1", "--out", "search.json"],
                 ["enumerate", "--out", "cells.txt"],
                 ["report", "--records", out / "eval.jsonl",
                  "--out", "report.csv"]):
        argv[-1] = out / argv[-1]
        assert main([str(a) for a in argv]) == 0
    return sorted(out.iterdir())


def test_outputs_leave_the_umask_alone(tmp_path, logits_file, table_csv,
                                       monkeypatch):
    # the umask belongs to the whole process: reading it by setting it to 0
    # once gave 0o666 files to another thread that created one meanwhile
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    outputs = write_every_output(tmp_path, logits_file, table_csv)
    assert [p.suffix for p in outputs].count(".tmp") == 0
    assert len(outputs) == 11


def test_outputs_get_the_umask_mode(tmp_path, logits_file, table_csv):
    old = os.umask(0o022)
    try:
        plain = tmp_path / "plain.txt"
        with open(plain, "w"):
            pass
        outputs = write_every_output(tmp_path, logits_file, table_csv)
    finally:
        os.umask(old)
    expected = stat.S_IMODE(plain.stat().st_mode)
    assert expected == 0o644
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in outputs} == \
        {p.name: expected for p in outputs}


def test_out_naming_a_directory_names_it(tmp_path, monkeypatch, capsys):
    # the rename's error once named the temp file, which is gone by then
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "kept.txt").write_text("kept\n")
    assert main(["enumerate", "--space", "tss", "--out", "d"]) == 2
    assert capsys.readouterr().err == "error: d: Is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["kept.txt"]
    assert (tmp_path / "d" / "kept.txt").read_text() == "kept\n"


def test_out_naming_a_fifo_writes_into_it(tmp_path, capsys):
    # the rename once replaced the FIFO by a regular file, and its reader
    # got nothing
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["search", "--benchmark", "synthetic", "--budget", "5",
                     "--out", str(fifo)]) == 0
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert json.loads(got)["evaluations"] == 5
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_out_naming_a_symlink_writes_its_target(tmp_path, capsys):
    # the rename once replaced the link by a regular file, and the target
    # kept its old bytes
    target, link = tmp_path / "target.json", tmp_path / "link"
    target.write_text("old\n")
    link.symlink_to(target.name)
    assert main(["search", "--benchmark", "synthetic", "--budget", "5",
                 "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert json.loads(target.read_text())["evaluations"] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link",
                                                          "target.json"]


def test_text_reads_leave_the_warning_filters_alone(tmp_path, logits_file,
                                                    monkeypatch, capsys):
    # the filter list belongs to the whole process: swapping it to hide
    # numpy's empty-input warning could race with other threads
    def catch_warnings(*args, **kwargs):
        raise AssertionError("warnings.catch_warnings called")

    table, ood, preds, bad = (tmp_path / name for name in (
        "t.csv", "ood.txt", "p.csv", "bad.csv"))
    table.write_text("arch_index,a\n\n")
    ood.write_text("\n \n")
    preds.write_text("label,s0,s1\n\n")
    bad.write_text("label,s0,s1\n\n\nabc,0.5,0.5\n")
    out = str(tmp_path / "out")
    for argv, message in (
            (["correlate", "--table", table], f"{table}: no data rows"),
            (["eval", "--logits", logits_file, "--ood-in", ood,
              "--ood-out", ood], f"{ood}: no confidence values"),
            (["eval", "--logits", preds], f"{preds}: no data rows"),
            (["eval", "--logits", bad], f"{bad}: line 4: could not convert "
             "string 'abc' to int64, column 1.")):
        # pytest's own report needs the real one back
        with monkeypatch.context() as patch:
            patch.setattr(warnings, "catch_warnings", catch_warnings)
            rc = main([str(a) for a in argv] + ["--out", out])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)
