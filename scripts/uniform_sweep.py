#!/usr/bin/env python3
"""Sweep the shared participation probability and emit a plot-ready CSV.

One row per (n, p): the mean and variance of the bid, the bidder profit and
both revenue models (the sum revenue's variance counts who shows up).  Useful
for eyeballing the non-monotone bid curve and the revenue limits as p -> 1.
"""

import argparse
import csv
import sys

import numpy as np

import allpay_eq as ap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[2, 3, 4, 6])
    parser.add_argument("--points", type=int, default=99)
    args = parser.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        [
            "n", "p", "lambda",
            "bid_mean", "bid_variance",
            "profit_mean", "profit_variance",
            "sum_profit_mean", "sum_profit_variance",
            "max_profit_mean", "max_profit_variance",
        ]
    )
    for n in args.n:
        for p in np.linspace(0.01, 1.0, args.points):
            case = ap.UniformCase(n=n, p=float(p))
            bid = ap.uniform_bid_moments(case)
            profit = ap.uniform_bidder_profit(case)
            sum_p = ap.uniform_sum_profit(case)
            max_p = ap.uniform_max_profit(case)
            writer.writerow(
                [n, f"{p:.6g}", f"{case.lam:.12g}"]
                + [f"{v:.12g}" for v in bid + profit + sum_p + max_p]
            )


if __name__ == "__main__":
    main()
