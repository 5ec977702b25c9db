"""Three search strategies on a planted tabular benchmark.

Builds a synthetic cell-space benchmark whose accuracy decays with
distance from one planted architecture, then compares random search,
local search, and aging evolution under the same evaluation budget.
"""
import numpy as np

from calibrex import (
    SearchConfig,
    enumerate_tss,
    local_search,
    make_objective,
    mutate,
    neighbors,
    parse_arch,
    random_search,
    regularized_evolution,
    synth_benchmark,
)

BUDGET = 400


def first_hit(result, target_value):
    for i, v in enumerate(result.trajectory):
        if v >= target_value:
            return i + 1
    return None


def main():
    planted = enumerate_tss()[9241]
    bench = synth_benchmark("tss", seed=0, planted=planted.to_string())
    obj = make_objective("acc")
    print(f"space size {len(bench)}, planted optimum:\n  "
          f"{planted.to_string()}")
    # the benchmark stores one column per metric over bench.archs
    acc = bench.metrics["accuracy"]
    print(f"accuracy column: {acc.size} values, "
          f"{int((acc > 0.85).sum())} above 0.85 (the optimum and its "
          f"one-edit neighbors)")
    print(f"each architecture has {len(neighbors(planted))} one-edit "
          f"neighbors; a mutation flips one edge, e.g.")
    print(f"  {mutate(planted, np.random.default_rng(0)).to_string()}")

    print(f"\nbudget {BUDGET} evaluations per run, objective = accuracy")
    best = obj(bench.query(planted.to_string()))
    for name, algo in (("random search", random_search),
                       ("local search", local_search),
                       ("aging evolution", regularized_evolution)):
        result = algo(bench, obj, SearchConfig(budget=BUDGET, seed=0))
        hit = first_hit(result, best)
        when = f"hit optimum at eval {hit}" if hit else "optimum not reached"
        print(f"  {name:16s} best={result.best_value:.4f} "
              f"({result.evaluations} evals, {when})")
        if name == "local search" and result.is_local_optimum:
            print("                   verified: no neighbor improves on it")

    print("\naging evolution across 20 seeds:")
    hits = 0
    for seed in range(20):
        result = regularized_evolution(bench, obj,
                                       SearchConfig(budget=BUDGET, seed=seed))
        hits += result.best_arch == planted.to_string()
    print(f"  found the planted optimum in {hits}/20 runs")

    result = local_search(bench, obj, SearchConfig(budget=BUDGET, seed=3))
    path = [result.trajectory[0]]
    for v in result.trajectory[1:]:
        if v > path[-1]:
            path.append(v)
    print("\nlocal search incumbent path (seed 3): "
          + " -> ".join(f"{v:.3f}" for v in path))
    print("strictly improving steps only, then a full neighborhood scan")
    print("to certify the endpoint.")


if __name__ == "__main__":
    main()
