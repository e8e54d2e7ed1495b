"""The benchmark's library job: truncated-series inversions over Q[t] and Q.

Prints one JSON object per line, each with the semantic coefficients (of
y^n/n!) of one result series:

* ``thm17``: compositional inverse of the second-order descent closed form
  ((1-t)y + (1-exp(y(1-t)))t) / (1-t)^2 over Q[t];
* ``riordan``: multiplicative inverse of 1 - tG, G = sum (1-t)^(n-1) y^n/n!;
* ``qq_comp`` / ``qq_inv``: compositional inverse of the given rational EGF
  with its constant term dropped, and multiplicative inverse of the EGF.

Usage: python3 perfbench/series_job.py --thm17-order 20 --riordan-order 24
       --egf 1,-1/2,3,...
"""

from __future__ import annotations

import argparse
import json
import sys

from stirlingsym.partitions import parse_rational, rational_str
from stirlingsym.series import QQ, QT, TruncatedSeries
from stirlingsym.symfunc import TPoly

T = TPoly.t()
ONE = TPoly.const(1)


def thm17_closed_form(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_egf_coefficients(
        QT, order,
        [TPoly(), ONE] + [-T * (ONE - T) ** (n - 2) for n in range(2, order + 1)],
    )


def riordan_denominator(order: int) -> TruncatedSeries:
    g = TruncatedSeries.from_egf_coefficients(
        QT, order, [TPoly()] + [(ONE - T) ** (n - 1) for n in range(1, order + 1)]
    )
    return TruncatedSeries.one(QT, "egf", order) - g.scale(T)


def _emit(name: str, series: TruncatedSeries, encode) -> None:
    coeffs = [encode(series.egf_coefficient(n)) for n in range(series.order + 1)]
    print(json.dumps({"name": name, "coeffs": coeffs}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="series_job")
    parser.add_argument("--thm17-order", type=int, required=True)
    parser.add_argument("--riordan-order", type=int, required=True)
    parser.add_argument("--egf", required=True, help="semantic coefficients f_0,f_1,...")
    args = parser.parse_args(argv)

    _emit("thm17", thm17_closed_form(args.thm17_order).comp_inverse(), TPoly.to_json)
    _emit("riordan", riordan_denominator(args.riordan_order).inv(), TPoly.to_json)
    egf = [parse_rational(x) for x in args.egf.split(",")]
    order = len(egf) - 1
    shifted = TruncatedSeries.from_egf_coefficients(QQ, order, [0] + egf[1:])
    _emit("qq_comp", shifted.comp_inverse(), rational_str)
    _emit("qq_inv", TruncatedSeries.from_egf_coefficients(QQ, order, egf).inv(),
          rational_str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
