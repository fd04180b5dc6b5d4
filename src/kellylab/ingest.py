"""Price CSV ingestion: one validated price table, arithmetic returns.

Input files are plain CSVs with a `date` column (YYYY-MM-DD) and one column
of adjusted closing prices per symbol. `load_prices` reads a file into one
`PriceTable`. It transposes the rows once and checks the table column by
column: strip the cells, drop the rows with a blank, parse and order the
dates, then parse each symbol's prices and require them finite and > 0. Each
check is one map or one numpy pass down a column, not a step of a row loop,
yet the error is the one a row loop would raise first: the first defective
row wins, and within it the date comes before the date order, which comes
before each symbol's number, sign and finiteness in the requested order.
Returns are arithmetic, (P(k+1) - P(k)) / P(k), matching the multiplicative
wealth recursion, and the empirical model weights every observed return
vector equally.
"""

from __future__ import annotations

import csv
import datetime
import operator
from dataclasses import dataclass
from itertools import compress, count

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

    Every header name and every requested symbol must be unique, and no
    symbol loaded may be blank; a blank header name is reported by its
    column (0-based, the date column counted). Rows missing the date or any
    requested value are dropped and reported. Every kept row must have a
    date after the previous kept row's and finite prices > 0; an error names
    the data row (0-based, blank lines not counted) of the first defect.
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
        if symbols and not all(map(str.strip, wanted)):
            raise PriceDataError("a requested symbol is blank")
        blank = [j for j, name in enumerate(header) if name in wanted and not name.strip()]
        if blank:
            raise PriceDataError(f"column {blank[0]} of the header has a blank name")
        repeated = [s for i, s in enumerate(wanted) if s in wanted[:i]]
        if repeated:
            raise PriceDataError(f"symbol {repeated[0]!r} is requested more than once")
        missing = [s for s in wanted if s not in available]
        if missing:
            raise PriceDataError(f"symbols not in file: {', '.join(missing)}")
        rows = list(filter(None, reader))

    n, width = len(rows), len(header)
    if min(map(len, rows), default=width) < width:
        for row in rows:      # the cells a short row lacks are blank
            row += [""] * (width - len(row))
    columns = list(zip(*rows)) or [()] * width
    del rows                  # the columns hold the cells now
    dates = list(map(str.strip, columns[column["date"]]))
    cells = [list(map(str.strip, columns[column[s]])) for s in wanted]
    del columns
    complete = list(map(all, zip(dates, *cells)))
    dropped = tuple(compress(range(n), map(operator.not_, complete)))
    kept = range(n)
    if dropped:
        kept = list(compress(kept, complete))
        dates = list(compress(dates, complete))
        cells = [list(compress(c, complete)) for c in cells]

    # Each check runs down a whole column. Of the defects found, the first
    # row's wins, and within a row the first in the order (date, date order,
    # then per symbol: number, sign, finite); a check sees only the cells
    # that the checks before it in a row let through.
    faults = []               # (kept position, rank of the check in a row, message)
    days = _convert(datetime.date.fromisoformat, dates, list)
    # 20200101 and 2020-W01-3 parse too, so a date must also print back as read.
    i = _first(map(operator.ne, map(datetime.date.isoformat, days), dates), len(days))
    if i < len(dates):
        faults.append((i, 0, f"unparseable date {dates[i]!r} at row {kept[i]} (need YYYY-MM-DD)"))
    i = _first(map(operator.ge, days, days[1:]), None)
    if i is not None:
        last, date, row = dates[i], dates[i + 1], kept[i + 1]
        faults.append((i + 1, 1, f"duplicate date {date} at row {row}" if date == last else
                       f"dates not sorted ({date} after {last}) at row {row}"))
    prices = []
    for rank, s, col in zip(count(2, 3), wanted, cells):
        values = _convert(float, col, _float_array)
        if values.size < len(col):
            i = values.size
            faults.append((i, rank, f"{s}: non-numeric price {col[i]!r} at row {kept[i]}"))
        for i in np.flatnonzero(~(values > 0.0))[:1]:
            faults.append((i, rank + 1,
                           f"{s}: nonpositive price {float(values[i])!r} at row {kept[i]}"))
        for i in np.flatnonzero(~np.isfinite(values))[:1]:
            faults.append((i, rank + 2,
                           f"{s}: non-finite price {float(values[i])!r} at row {kept[i]}"))
        prices.append(values)
    if faults:
        raise PriceDataError(min(faults)[2])

    if len(dates) < 2:
        raise PriceDataError(f"need at least 2 complete rows, got {len(dates)}")
    table = np.column_stack(prices)
    table.setflags(write=False)
    return (PriceTable(symbols=tuple(wanted), dates=tuple(dates), prices=table),
            LoadReport(rows_read=n, dropped_rows=dropped))


def _float_array(values) -> np.ndarray:
    return np.fromiter(values, dtype=float)


def _convert(convert, cells, collect):
    """collect(map(convert, cells)), cut before the first cell that convert
    rejects with ValueError."""
    try:
        return collect(map(convert, cells))
    except ValueError:
        pass
    out = []
    for cell in cells:
        try:
            out.append(convert(cell))
        except ValueError:
            break
    return collect(out)


def _first(flags, default):
    """The index of the first true flag, or default if none is true."""
    return next(compress(count(), flags), default)


def to_returns(table: PriceTable) -> GambleModel:
    """The equal-weight empirical model of the table's arithmetic returns.

    A return that overflows (after a subnormal price) is an error that names
    its symbol and dates.
    """
    p = table.prices
    with np.errstate(over="ignore"):
        rets = (p[1:] - p[:-1]) / p[:-1]
    finite = np.isfinite(rets)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise PriceDataError(f"{table.symbols[j]}: non-finite return from {table.dates[i]} "
                             f"to {table.dates[i + 1]}")
    m = rets.shape[0]
    probs = np.full(m, 1.0 / m)
    # Nudge the last weight so the float sum is exactly 1, not 1 +/- 1 ulp.
    for _ in range(4):
        err = float(np.sum(probs)) - 1.0
        if err == 0.0:
            break
        probs[-1] -= err
    return GambleModel(xs=rets, probs=probs)
