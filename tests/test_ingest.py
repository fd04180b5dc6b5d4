"""Price loading, return construction, and the ingest-to-optimizer pipeline."""

import csv
import datetime
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellylab import (DegenerateModelError, GambleModel, LoadReport, PriceDataError, PriceTable,
                      approx_solution, dump_model, gbm_solution, is_feasible, load_model,
                      load_prices, log_growth, maximize_growth, to_returns)


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")


def synthetic_prices(tmp_path, seed, days=90, symbols=("AAA", "BBB")):
    rng = np.random.default_rng(seed)
    dates = [f"2013-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(days)]
    cols = [100.0 * np.cumprod(1 + rng.normal(0.002, 0.02, days)) for _ in symbols]
    path = tmp_path / f"prices{seed}.csv"
    write_csv(path, ["date", *symbols],
              [[dates[i], *(repr(float(c[i])) for c in cols)] for i in range(days)])
    return path


def one_symbol_table(tmp_path, prices):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [[f"2013-01-{2 + i:02d}", p] for i, p in enumerate(prices)])
    return load_prices(path)[0]


# ---------------------------------------------------------------------------
# load_prices
# ---------------------------------------------------------------------------

def test_load_small_file(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-02", 100], ["2013-01-03", 110], ["2013-01-04", 99]])
    table, report = load_prices(path)
    assert table.symbols == ("AAA",)
    assert table.dates == ("2013-01-02", "2013-01-03", "2013-01-04")
    assert table.prices.tolist() == [[100.0], [110.0], [99.0]]
    assert not table.prices.flags.writeable
    assert report.rows_read == 3 and report.dropped_rows == ()


def test_ninety_day_two_symbol_shape(tmp_path):
    table, report = load_prices(synthetic_prices(tmp_path, seed=0, days=90))
    assert table.prices.shape == (90, 2)
    assert to_returns(table).n_atoms == 89


def test_symbols_keep_the_requested_order(tmp_path):
    path = synthetic_prices(tmp_path, seed=2, days=10)
    both, _ = load_prices(path)
    swapped, _ = load_prices(path, symbols=["BBB", "AAA"])
    assert swapped.symbols == ("BBB", "AAA")
    assert np.array_equal(swapped.prices, both.prices[:, ::-1])


def test_zero_price_rejected_with_row(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-02", 100], ["2013-01-03", 0.0]])
    with pytest.raises(PriceDataError, match="row 1"):
        load_prices(path)


def test_zero_price_after_dropped_row_names_its_file_row(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA", "BBB"],
              [["2013-01-02", 100, 50], ["2013-01-03", "", 51], ["2013-01-04", 0.0, 52]])
    with pytest.raises(PriceDataError) as info:
        load_prices(path)
    assert str(info.value) == "AAA: nonpositive price 0.0 at row 2"


def test_unsorted_dates_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-03", 100], ["2013-01-02", 101]])
    with pytest.raises(PriceDataError, match="sorted"):
        load_prices(path)


def test_duplicate_dates_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-02", 100], ["2013-01-02", 101]])
    with pytest.raises(PriceDataError, match="duplicate"):
        load_prices(path)


@pytest.mark.parametrize("date, message", [
    ("2013-01-03", "duplicate date 2013-01-03 at row 3"),
    ("2013-01-01", "dates not sorted (2013-01-01 after 2013-01-03) at row 3"),
])
def test_date_order_errors_name_their_row(tmp_path, date, message):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-02", 100], ["2013-01-03", 101],
                                      ["2013-01-04", ""], [date, 102]])
    with pytest.raises(PriceDataError) as info:
        load_prices(path)
    assert str(info.value) == message


def test_first_defective_row_is_reported(tmp_path):
    # A date out of order at row 1 is found before the zero price at row 2.
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-03", 100], ["2013-01-02", 101],
                                      ["2013-01-04", 0.0]])
    with pytest.raises(PriceDataError, match="at row 1$"):
        load_prices(path)


def test_missing_values_dropped_pairwise_and_reported(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA", "BBB"],
              [["2013-01-02", 100, 50], ["2013-01-03", "", 51],
               ["2013-01-04", 102, 52], ["2013-01-07", 103, ""]])
    table, report = load_prices(path)
    assert report.dropped_rows == (1, 3)
    assert table.dates == ("2013-01-02", "2013-01-04")
    assert table.prices.tolist() == [[100.0, 50.0], [102.0, 52.0]]


def test_unknown_symbol_rejected(tmp_path):
    path = synthetic_prices(tmp_path, seed=1)
    with pytest.raises(PriceDataError, match="CCC"):
        load_prices(path, symbols=["CCC"])


@pytest.mark.parametrize("symbols", [None, ["AAA"], ["BBB"]])
def test_repeated_column_name_rejected(tmp_path, symbols):
    # A name-to-column map would send both AAA columns to the last one and
    # lose the first column's prices (100, 110, 99).
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA", "BBB", "AAA"],
              [["2013-01-02", 100, 7, 50], ["2013-01-03", 110, 8, 40], ["2013-01-04", 99, 9, 44]])
    with pytest.raises(PriceDataError, match="'AAA' appears more than once"):
        load_prices(path, symbols=symbols)


def test_repeated_requested_symbol_rejected(tmp_path):
    # Two identical columns would let the optimizer split K between them
    # arbitrarily. The file's second row is not a price: the error comes first.
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA", "BBB"],
              [["2013-01-02", 100, 7], ["2013-01-03", "n/a", 8], ["2013-01-04", 99, 9]])
    with pytest.raises(PriceDataError, match="symbol 'BBB' is requested more than once"):
        load_prices(path, symbols=["BBB", "AAA", "BBB"])


def test_blank_header_name_rejected_with_its_column(tmp_path):
    # The third column holds prices but no name: it would load as symbol "".
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA", " "], [["2013-01-02", 100, 7], ["2013-01-03", 110, 8]])
    with pytest.raises(PriceDataError, match="column 2 of the header has a blank name"):
        load_prices(path)
    # A blank column the request leaves out still loads.
    table, _ = load_prices(path, symbols=["AAA"])
    assert table.symbols == ("AAA",) and table.prices.tolist() == [[100.0], [110.0]]


@pytest.mark.parametrize("symbols", [["AAA", ""], [" "], ["", ""]])
def test_blank_requested_symbol_rejected(tmp_path, symbols):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA", ""], [["2013-01-02", 100, 7], ["2013-01-03", 110, 8]])
    with pytest.raises(PriceDataError, match="a requested symbol is blank"):
        load_prices(path, symbols=symbols)


def test_non_numeric_price_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-02", 100], ["2013-01-03", "n/a"]])
    with pytest.raises(PriceDataError, match="non-numeric"):
        load_prices(path)


def test_bad_date_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["01/02/2013", 100], ["01/03/2013", 101]])
    with pytest.raises(PriceDataError, match="date"):
        load_prices(path)


@pytest.mark.parametrize("date", ["20130103", "2013-W01-4"], ids=["basic-format", "iso-week"])
def test_date_other_than_yyyy_mm_dd_rejected(tmp_path, date):
    # Both name 2013-01-03, and date.fromisoformat parses both from Python 3.11 on.
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-02", 100], [date, 101]])
    with pytest.raises(PriceDataError) as info:
        load_prices(path)
    assert str(info.value) == f"unparseable date {date!r} at row 1 (need YYYY-MM-DD)"


def test_date_only_file_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date"], [["2013-01-02"], ["2013-01-03"]])
    with pytest.raises(PriceDataError, match="no symbol columns"):
        load_prices(path)


@pytest.mark.parametrize("cell, message", [
    ("inf", "AAA: non-finite price inf at row 1"),
    ("1e400", "AAA: non-finite price inf at row 1"),
    ("-inf", "AAA: nonpositive price -inf at row 1"),
    ("nan", "AAA: nonpositive price nan at row 1"),
])
def test_non_finite_price_names_its_row(tmp_path, cell, message):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-02", 100], ["2013-01-03", cell],
                                      ["2013-01-04", 0.0]])
    with pytest.raises(PriceDataError) as info:
        load_prices(path)
    assert str(info.value) == message


def test_fewer_than_two_complete_rows_rejected(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA"], [["2013-01-02", 100], ["2013-01-03", ""]])
    with pytest.raises(PriceDataError, match="2 complete rows"):
        load_prices(path)


# ---------------------------------------------------------------------------
# to_returns
# ---------------------------------------------------------------------------

def test_single_return_atom(tmp_path):
    pmf = to_returns(one_symbol_table(tmp_path, [100.0, 110.0]))
    assert pmf.n_atoms == 1
    assert pmf.xs[0, 0] == pytest.approx(0.10, abs=1e-15)
    assert pmf.probs[0] == 1.0


def test_two_return_atoms_hand_values(tmp_path):
    pmf = to_returns(one_symbol_table(tmp_path, [100.0, 110.0, 99.0]))
    assert pmf.xs[:, 0] == pytest.approx([0.10, -0.10], abs=1e-12)
    assert np.all(pmf.probs == 0.5)


def test_overflowing_return_names_its_symbol_and_dates(tmp_path):
    # A subnormal price loads (it is finite and > 0), but the next return
    # overflows to inf; that is an error, and numpy warns nothing.
    path = tmp_path / "p.csv"
    write_csv(path, ["date", "AAA", "BBB"], [["2013-01-02", 100, 1e-320], ["2013-01-03", 101, 5],
                                             ["2013-01-04", 102, 6]])
    table, _ = load_prices(path)
    with pytest.raises(PriceDataError) as info:
        to_returns(table)
    assert str(info.value) == "BBB: non-finite return from 2013-01-02 to 2013-01-03"


def test_constant_prices_degenerate_for_gbm(tmp_path):
    pmf = to_returns(one_symbol_table(tmp_path, [100.0, 100.0, 100.0]))
    assert np.all(pmf.xs == 0.0)
    with pytest.raises(DegenerateModelError):
        gbm_solution(pmf)


def test_probabilities_sum_exactly_to_one(tmp_path):
    for days in (3, 25, 41, 90):
        table, _ = load_prices(synthetic_prices(tmp_path, seed=days, days=days))
        pmf = to_returns(table)
        assert float(np.sum(pmf.probs)) == 1.0


def test_round_trip_prices_from_returns(tmp_path):
    table, _ = load_prices(synthetic_prices(tmp_path, seed=3))
    pmf = to_returns(table)
    recon = table.prices[0] * np.cumprod(1.0 + pmf.xs, axis=0)
    assert np.allclose(recon, table.prices[1:], rtol=1e-10)


def test_empirical_pmf_is_a_gamble_model(tmp_path):
    table, _ = load_prices(synthetic_prices(tmp_path, seed=4))
    assert type(to_returns(table)) is GambleModel
    assert table.provenance == {"symbols": ["AAA", "BBB"], "start": table.dates[0],
                                "end": table.dates[-1], "observations": 90}
    assert table.provenance["start"] < table.provenance["end"]


# ---------------------------------------------------------------------------
# Property: random files with blank cells
# ---------------------------------------------------------------------------

PRICE = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_symbols=st.integers(1, 4), n_rows=st.integers(2, 30))
def test_random_file_drops_blank_rows_and_round_trips(data, n_symbols, n_rows):
    prices = np.array(data.draw(st.lists(st.lists(PRICE, min_size=n_symbols, max_size=n_symbols),
                                         min_size=n_rows, max_size=n_rows)))
    blank = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n_symbols,
                                                 max_size=n_symbols),
                                        min_size=n_rows, max_size=n_rows)))
    kept = ~blank.any(axis=1)
    if kept.sum() < 2:
        blank[:2] = False
        kept[:2] = True
    symbols = [f"S{j}" for j in range(n_symbols)]
    lines = ["date," + ",".join(symbols)] + [
        f"2013-{1 + i // 28:02d}-{1 + i % 28:02d}," + ",".join(
            "" if b else repr(float(v)) for v, b in zip(prices[i], blank[i]))
        for i in range(n_rows)]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prices.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        table, report = load_prices(path)
        model = to_returns(table)
        model_path = os.path.join(tmp, "model.json")
        dump_model(model, model_path, provenance=table.provenance)
        loaded = load_model(model_path)

    assert report.rows_read == n_rows
    assert report.dropped_rows == tuple(np.nonzero(~kept)[0].tolist())
    p = prices[kept]
    assert np.array_equal(table.prices, p)
    assert np.array_equal(model.xs, (p[1:] - p[:-1]) / p[:-1])
    assert np.array_equal(loaded.xs, model.xs)
    assert np.array_equal(loaded.probs, model.probs)


# ---------------------------------------------------------------------------
# Property: the column checks raise what a row loop raises first
# ---------------------------------------------------------------------------

def load_prices_loop(path, symbols=None) -> tuple:
    """load_prices as one pass over the rows, checking each row in turn: the
    oracle for the column checks."""
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
            if day.isoformat() != date:
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
            if not math.isfinite(value):
                raise PriceDataError(f"{s}: non-finite price {value!r} at row {i}")
            values.append(value)
        dates.append(date)
        prices.append(values)

    if len(dates) < 2:
        raise PriceDataError(f"need at least 2 complete rows, got {len(dates)}")
    table = np.array(prices)
    table.setflags(write=False)
    return (PriceTable(symbols=tuple(wanted), dates=tuple(dates), prices=table),
            LoadReport(rows_read=len(rows), dropped_rows=tuple(dropped)))


GOOD_PRICE = PRICE.map(repr) | PRICE.map(lambda v: f" {v!r}\t")
BAD_PRICE = st.sampled_from(["", " ", " \t ", "n/a", "1.5.2", "0", "0.0", "-0.0", "-3.5", "nan",
                             "-nan", "inf", "-inf", "1e400", "1e-320", "1_000"])
BAD_DATE = st.sampled_from(["padded", "blank", "spaces", "basic", "week", "slash", "garbage"])


def date_cell(day: datetime.date, form: str) -> str:
    year, week, weekday = day.isocalendar()
    return {"iso": day.isoformat(), "padded": f" {day.isoformat()} ", "blank": "",
            "spaces": "  ", "basic": day.strftime("%Y%m%d"),
            "week": f"{year:04d}-W{week:02d}-{weekday}", "slash": day.strftime("%m/%d/%Y"),
            "garbage": "2013-02-30"}[form]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_symbols=st.integers(1, 4), n_rows=st.integers(0, 12))
def test_column_checks_equal_the_row_loop(data, n_symbols, n_rows):
    # About one draw in `noise` is a defect (none when 0), so that some files
    # load and a defect can sit anywhere in a file.
    noise = data.draw(st.sampled_from([0, 2, 4, 12, 40]))

    def draw(good, bad):
        return data.draw(bad if noise and data.draw(st.integers(1, noise)) == 1 else good)

    symbols = [f"S{j}" for j in range(n_symbols)]
    header = symbols[:]
    header.insert(data.draw(st.integers(0, n_symbols)), "date")
    day = datetime.date(2013, 1, 1)
    lines = [",".join(header)]
    for _ in range(n_rows):
        # A step of 0 repeats the date; a negative one goes back in time.
        day += datetime.timedelta(days=draw(st.integers(1, 3), st.sampled_from([0, -1, -5])))
        row = [date_cell(day, draw(st.just("iso"), BAD_DATE)) if name == "date"
               else draw(GOOD_PRICE, BAD_PRICE) for name in header]
        # Short rows lack cells (a row of none is a blank line); long rows have extra ones.
        cut = draw(st.just(0), st.sampled_from([-1, -2, 1, 2]))
        row = row[:len(row) + cut] if cut < 0 else row + ["x"] * cut
        lines.append(",".join(row))
    wanted = data.draw(st.none() | st.permutations(symbols).flatmap(
        lambda order: st.integers(1, n_symbols).map(lambda k: order[:k])))

    def outcome(loader, path):
        try:
            table, report = loader(path, symbols=wanted)
        except PriceDataError as exc:
            return str(exc)
        assert table.prices.flags.c_contiguous and not table.prices.flags.writeable
        return (table.symbols, table.dates, table.prices.dtype, table.prices.shape,
                table.prices.tobytes(), report)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prices.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert outcome(load_prices, path) == outcome(load_prices_loop, path)


# ---------------------------------------------------------------------------
# Pipeline property: the optimizer dominates every repaired shortcut
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [11, 12, 13])
def test_optimizer_dominates_repaired_approximations(tmp_path, seed):
    table, _ = load_prices(synthetic_prices(tmp_path, seed=seed))
    pmf = to_returns(table)
    best = maximize_growth(pmf)
    assert best.converged
    for method in ("taylor", "gbm"):
        sol = approx_solution(pmf, method)
        assert is_feasible(sol.k_repaired, pmf)
        assert best.g_star >= log_growth(sol.k_repaired, pmf) - 1e-9
