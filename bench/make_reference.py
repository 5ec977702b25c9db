"""Write bench/reference/<workload>.json: the records `calibrex eval`
produces for every model and OoD pair an eval-workload seed can select.

The stored files were made at commit 1293501; rerun this only to re-anchor
the references on purpose, never to make a failing check pass:

    python3 bench/make_reference.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
from calibrex import (SplitSpec, as_probabilities, auroc, cli,  # noqa: E402
                      read_logits_file, split)
from checks import record_key  # noqa: E402
from workloads import read_confidences  # noqa: E402


def model_reference(k: int, m: int, tmp: Path, ood_paths) -> dict:
    path = tmp / f"m{m:02d}.clbx"
    data = inputs.clbx_bytes(*inputs.model_logits(k, m))
    path.write_bytes(data)
    out = tmp / "out.jsonl"
    argv = ["eval", "--logits", str(path), "--ood-in", str(ood_paths[0][0]),
            "--ood-out", str(ood_paths[0][1]), "--jobs", "1",
            "--seed", str(inputs.SPLIT_SEED), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"calibrex eval failed on model {m}")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    values = {record_key(r): r["value"] for r in records
              if not r["metric"].startswith("auroc")}
    temps = {r["temperature"] for r in records if r["stage"] == "post"}
    if len(temps) != 1:
        raise RuntimeError(f"model {m}: post records disagree on T")
    # AUROC for the other OoD pairs through the same public calls run_suite
    # makes; pair 0 is cross-checked against the CLI records
    _, test = split(read_logits_file(path),
                    SplitSpec(0.2, seed=inputs.SPLIT_SEED))
    pos = as_probabilities(test).top_confidence()
    aurocs = {}
    for q, (a_path, b_path) in enumerate(ood_paths):
        aurocs[str(q)] = [auroc(pos, read_confidences(p))
                          for p in (a_path, b_path)]
    cli_auroc = [r["value"] for r in records
                 if r["metric"].startswith("auroc")]
    if cli_auroc != aurocs["0"]:
        raise RuntimeError(f"model {m}: AUROC replay {aurocs['0']} != "
                           f"CLI {cli_auroc}")
    return {"clbx_sha256": inputs.sha256(data), "temperature": temps.pop(),
            "values": values, "auroc": aurocs}


def main() -> int:
    (BENCH / "reference").mkdir(exist_ok=True)
    for workload, (n, k) in inputs.EVAL_SHAPES.items():
        with tempfile.TemporaryDirectory() as tmpdir:
            tmp = Path(tmpdir)
            ood_paths, ood = [], {}
            for q in range(inputs.POOL_OOD):
                pair = []
                for tag, vals in zip("ab", inputs.ood_confidences(k, q)):
                    p = tmp / f"ood{q}_{tag}.txt"
                    p.write_bytes(inputs.lines_bytes(vals))
                    pair.append(p)
                ood_paths.append(pair)
                ood[str(q)] = [inputs.sha256(p.read_bytes()) for p in pair]
            models = {}
            for m in range(inputs.POOL_MODELS):
                models[f"m{m:02d}"] = model_reference(k, m, tmp, ood_paths)
                print(f"{workload} m{m:02d} done", file=sys.stderr)
        ref = {"calibrex_commit": "1293501", "n": n, "k": k,
               "split_seed": inputs.SPLIT_SEED, "ood_sha256": ood,
               "models": models}
        (BENCH / "reference" / f"{workload}.json").write_text(
            json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
