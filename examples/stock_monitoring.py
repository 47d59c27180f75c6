#!/usr/bin/env python3
"""Stock-market monitoring: the paper's motivating Section 1 scenario.

"A stock market application, where multiple clients monitor the price
fluctuations of the stocks ... a system needs to be able to efficiently
answer analytical queries (e.g., average stock revenue, margin per
stock, etc.) for different clients, each one with (possibly) different
timing requirements."

Three clients register ACQs over one price stream:

* a day-trader wants the mean price of the last 20 ticks, every tick;
* a risk desk wants the min/max *range* of the last 60 ticks, every
  10 ticks;
* a reporting job wants the volatility (standard deviation) of the
  last 120 ticks, every 30 ticks.

Mean and StdDev are invertible (SlickDeque (Inv)); Range decomposes
into Max and Min selection deques — the engine dispatches per query.

Run:  python examples/stock_monitoring.py
"""

from __future__ import annotations

import random

from repro import Query, get_operator
from repro.stream import CollectSink, StreamEngine


def price_stream(ticks: int, seed: int = 99) -> list:
    """A geometric random walk around $100 — a plausible stock."""
    rng = random.Random(seed)
    price = 100.0
    prices = []
    for _ in range(ticks):
        price *= 1.0 + rng.gauss(0.0, 0.004)
        prices.append(round(price, 2))
    return prices


def run_client(name, query, operator_name, prices, show=4):
    engine = StreamEngine([query], get_operator(operator_name))
    sink = CollectSink()
    engine.add_sink(sink)
    engine.run(prices)
    print(f"\n  {name}: {operator_name} over last {query.range_size} "
          f"ticks, every {query.slide} ticks "
          f"({engine.answers_emitted} answers)")
    for position, _, answer in sink.answers[-show:]:
        print(f"    tick {position:>4}: {answer:,.3f}")


def main() -> None:
    prices = price_stream(600)
    print("Stock monitor over", len(prices), "ticks; last price:",
          prices[-1])
    run_client("day-trader", Query(20, 1, name="mean20"),
               "mean", prices)
    run_client("risk desk", Query(60, 10, name="range60"),
               "range", prices)
    run_client("reporting", Query(120, 30, name="vol120"),
               "stddev", prices)


if __name__ == "__main__":
    main()
