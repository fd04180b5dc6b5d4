"""Price CSV ingestion: one validated price table, arithmetic returns.

Input files are plain CSVs with a `date` column (YYYY-MM-DD) and one column
of adjusted closing prices per symbol. `load_prices` reads a file into one
`PriceTable` and validates it in a single pass over its rows. Returns are
arithmetic, (P(k+1) - P(k)) / P(k), matching the multiplicative wealth
recursion, and the empirical model weights every observed return vector
equally.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass

import numpy as np

from .gamble import GambleModel


class PriceDataError(ValueError):
    """A price file violates a validation rule."""


@dataclass(frozen=True, eq=False)
class PriceTable:
    """The complete rows of a price file, as `load_prices` validated them."""

    symbols: tuple
    dates: tuple          # ISO date strings, strictly increasing
    prices: np.ndarray    # (rows, symbols), strictly positive, read-only

    @property
    def provenance(self) -> dict:
        return {
            "symbols": list(self.symbols),
            "start": self.dates[0],
            "end": self.dates[-1],
            "observations": len(self.dates),
        }


@dataclass(frozen=True)
class LoadReport:
    rows_read: int
    dropped_rows: tuple   # 0-based data row indices dropped for missing values


def load_prices(path, symbols=None) -> tuple:
    """Read one CSV into a PriceTable of the requested symbols (default: all).

    Every header name must be unique. Rows missing the date or any
    requested value are dropped and reported.
    Every kept row must have a date after the previous kept row's and prices
    > 0; an error names the data row (0-based, blank lines not counted).
    Returns (PriceTable, LoadReport).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        column = {name: j for j, name in enumerate(header)}
        repeated = [name for j, name in enumerate(header) if column[name] != j]
        if repeated:
            raise PriceDataError(f"column {repeated[0]!r} appears more than once in the header")
        if "date" not in column:
            raise PriceDataError('price file needs a header with a "date" column')
        available = [c for c in header if c != "date"]
        wanted = list(symbols) if symbols else available
        if not wanted:
            raise PriceDataError("price file has no symbol columns")
        missing = [s for s in wanted if s not in available]
        if missing:
            raise PriceDataError(f"symbols not in file: {', '.join(missing)}")
        rows = [row for row in reader if row]

    date_col, cols, width = column["date"], [column[s] for s in wanted], len(header)
    dates, prices, dropped = [], [], []
    last = None
    for i, row in enumerate(rows):
        row += [""] * (width - len(row))
        date = row[date_col].strip()
        cells = [row[j].strip() for j in cols]
        if not (date and all(cells)):
            dropped.append(i)
            continue
        try:
            day = datetime.date.fromisoformat(date)
            if day.isoformat() != date:   # 20200101 and 2020-W01-3 parse too
                raise ValueError(date)
        except ValueError:
            raise PriceDataError(f"unparseable date {date!r} at row {i} (need YYYY-MM-DD)")
        if last is not None and day <= last:
            raise PriceDataError(f"duplicate date {date} at row {i}" if day == last else
                                 f"dates not sorted ({date} after {dates[-1]}) at row {i}")
        last = day
        values = []
        for s, cell in zip(wanted, cells):
            try:
                value = float(cell)
            except ValueError:
                raise PriceDataError(f"{s}: non-numeric price {cell!r} at row {i}")
            if not value > 0.0:
                raise PriceDataError(f"{s}: nonpositive price {value!r} at row {i}")
            values.append(value)
        dates.append(date)
        prices.append(values)

    if len(dates) < 2:
        raise PriceDataError(f"need at least 2 complete rows, got {len(dates)}")
    table = np.array(prices)
    table.setflags(write=False)
    return (PriceTable(symbols=tuple(wanted), dates=tuple(dates), prices=table),
            LoadReport(rows_read=len(rows), dropped_rows=tuple(dropped)))


def to_returns(table: PriceTable) -> GambleModel:
    """The equal-weight empirical model of the table's arithmetic returns."""
    p = table.prices
    rets = (p[1:] - p[:-1]) / p[:-1]
    m = rets.shape[0]
    probs = np.full(m, 1.0 / m)
    # Nudge the last weight so the float sum is exactly 1, not 1 +/- 1 ulp.
    for _ in range(4):
        err = float(np.sum(probs)) - 1.0
        if err == 0.0:
            break
        probs[-1] -= err
    return GambleModel(xs=rets, probs=probs)
