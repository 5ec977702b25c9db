"""Tour of the calibration metrics on a synthetic overconfident model.

Builds a classifier whose reported probabilities are sharper than the
distribution its labels are actually drawn from, then walks through the
binned calibration measures at the measurement suite's bin counts and the
continuous ones.
"""
import numpy as np

from calibrex import (
    DEFAULT_BIN_SIZES,
    PredictionSet,
    as_probabilities,
    brier,
    cwce,
    cwce_em,
    ece,
    ece_em,
    kdece,
    ksce,
    lp_ce,
    mce,
    mmce,
    nll,
    softmax,
)

SHARPEN = 2.5


def make_overconfident(n=4000, k=10, seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=1.2, size=(n, k))
    true_probs = softmax(logits)
    labels = np.array([rng.choice(k, p=row) for row in true_probs])
    # the model reports sharpened scores, so confidence outruns accuracy
    return as_probabilities(PredictionSet(SHARPEN * logits, labels))


def main():
    preds = make_overconfident()
    print(f"n={preds.n_samples}  k={preds.n_classes}  "
          f"accuracy={preds.accuracy():.3f}  "
          f"mean confidence={preds.top_confidence().mean():.3f}")

    print("\nbinned estimates at the suite's bin counts "
          "(equal-width vs equal-mass):")
    metrics = {"ece": ece, "ece_em": ece_em, "mce": mce, "cwce": cwce,
               "cwce_em": cwce_em}
    print("      m  " + "  ".join(f"{name:>7}" for name in metrics))
    for m in DEFAULT_BIN_SIZES:
        print(f"  {m:5d}  " + "  ".join(f"{fn(preds, m):7.4f}"
                                       for fn in metrics.values()))

    print("\ncontinuous / binning-free estimates:")
    print(f"  ksce ={ksce(preds):.4f}")
    print(f"  mmce ={mmce(preds):.4f}")
    print(f"  kdece={kdece(preds):.4f}")
    print(f"  nll  ={nll(preds):.4f}")
    print(f"  brier={brier(preds):.4f}")
    print(f"  lp_ce p=1.0 {lp_ce(preds, 1.0, 15):.4f}  "
          f"p=2.0 {lp_ce(preds, 2.0, 15):.4f}")
    print("\nece holds near the ksce at every bin count; the mce, a single")
    print("bin's gap, grows as more bins leave fewer samples in each.")


if __name__ == "__main__":
    main()
