"""The dataset reader against a row-by-row oracle on generated file text."""

import json
import os
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from addhaz import dataio
from addhaz.cli import main
from addhaz.data_model import SurvivalDataset
from addhaz.dataio import read_dataset_csv, read_transformed_cohort_csv
from addhaz.errors import AddhazError, DatasetFormatError
from oracles import read_dataset_rows

NUMBERS = st.one_of(st.floats(0.0, 1e6).map(repr), st.integers(0, 10**6).map(str))
# text that float() and the row parser take and a vectorized parser may not,
# and text that neither takes
ODD_NUMBERS = (
    "nan", "inf", "-inf", "1e400", "-0", "-0.5", '"0.5"', "1_0", " 2.5 ", "\t7",
    "", "abc", "+3", ".5", "5.", "0x10", "1 0",
)
ODD_EVENTS = ("1.0", "+1", "01", " 1 ", '"1"', "", "2", "1e0", " 0", "-0", "1_0")
ODD_LINES = ("", " ", "\t", "# note", "#1.0,1,0.5", ",,")
# one change to an otherwise valid file: a field's text, an inserted line
# or a whole row
CHANGES = (
    [("time", text) for text in ODD_NUMBERS]
    + [("event", text) for text in ODD_EVENTS]
    + [("z1", text) for text in ODD_NUMBERS]
    + [("line", text) for text in ODD_LINES]
    + [("row", "quoted"), ("row", "extra field"), ("row", "trailing comma")]
    # text only the row parser takes, drawn more often so that files it
    # alone parses are common
    + [("row", "quoted"), ("time", '"0.5"'), ("z1", "1_0"), ("event", '"1"')] * 4
)
LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def dataset_texts(draw):
    """A header, maybe over two lines or with an unclosed quote, and 0-6
    valid rows, with up to two changes from ``CHANGES``, mixed line endings,
    and maybe no final line end or a byte-order mark."""
    k = draw(st.integers(1, 2))
    # now and then a header one column wider or narrower than every row
    named = draw(st.sampled_from((k,) * 4 + (k + 1, k - 1 or 3)))
    rows = [
        [draw(NUMBERS), draw(st.sampled_from(("1", "0")))] + [draw(NUMBERS) for _ in range(k)]
        for _ in range(draw(st.integers(0, 6)))
    ]
    inserted = {}
    for where, text in draw(st.lists(st.sampled_from(CHANGES), max_size=2)):
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        if where == "line":
            inserted[i] = text
        elif text == "quoted":
            rows[i] = [f'"{field}"' for field in rows[i]]
        elif text == "extra field":
            rows[i].append(draw(NUMBERS))
        elif text == "trailing comma":
            rows[i].append("")
        else:
            rows[i][("time", "event", "z1").index(where)] = text
    names = [f"z{j + 1}" for j in range(named)]
    quoting = draw(st.sampled_from(("",) * 10 + ("two lines",) * 2 + ("unclosed",)))
    if quoting == "two lines":
        # a quoted name with a line end in it: the header spans two lines
        names[-1] = f'"z{draw(st.sampled_from(LINE_ENDS))}{named}"'
    elif quoting == "unclosed":
        names[-1] = f'"z{named}'
    lines = ["time,event," + ",".join(names)]
    for i, row in enumerate(rows):
        lines.append(",".join(row))
        if i in inserted:
            lines.append(inserted[i])
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return "\ufeff" + text if draw(st.booleans()) else text


def outcome(read):
    """The dataset's bytes, or the typed error's class and message."""
    try:
        ds, names = read()
    except AddhazError as exc:
        return type(exc).__name__, str(exc)
    return names, ds.times.tobytes(), ds.events.tobytes(), ds.covariates.tobytes(), ds.k


def read_by_rows(path):
    names, times, events, values = read_dataset_rows(path)
    return SurvivalDataset(times, events, values), names


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=dataset_texts())
def test_reader_agrees_with_the_row_oracle(tmp_path, text):
    path = tmp_path / "ds.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(lambda: read_dataset_csv(path))
    assert not caught
    assert got == outcome(lambda: read_by_rows(path))


def csv_text(rows, quote):
    """The lines as file text, each field of a non-empty line wrapped in ``quote``."""
    return "".join(
        (quote + row.replace(",", f"{quote},{quote}") + quote if row else "") + "\n" for row in rows
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("quote", ["", '"'])
def test_a_pipe_reads_like_a_file(tmp_path, quote):
    # a pipe cannot rewind, so it never takes the vectorized pass, which a
    # quoted field would have to leave for the row parser
    rows = ["time,event,z1", "0.3,0,0.5", "0.5,1,0.2", "0.8,1,0.4"]
    text = csv_text(rows, quote)
    path, pipe = tmp_path / "ds.csv", tmp_path / "pipe.csv"
    path.write_text(text)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    got = outcome(lambda: read_dataset_csv(pipe))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == outcome(lambda: read_dataset_csv(path))
    assert got[0] == ("z1",)


@pytest.mark.parametrize("quote", ["", '"'])
def test_a_bad_cohort_row_is_named_by_its_line(tmp_path, quote):
    # unquoted, the vectorized pass reads the file and the line comes from a
    # second parse; quoted, the row parser reads it and knows the line
    rows = ["time,event,AFE,YFE,EXP", "1.0,1,20,1925,1", "", "2.0,1,30,1925,1", "0.5,0,9,1925,1"]
    path = tmp_path / "cohort.csv"
    path.write_text(csv_text(rows, quote))
    with pytest.raises(DatasetFormatError, match="^row 5: AFE must exceed 10$"):
        read_transformed_cohort_csv(path)


@pytest.mark.parametrize("rows", [["0.5,1,0.2", "0.7,0,0.3"], []])
def test_an_unclosed_header_quote_names_line_1(tmp_path, capsys, rows):
    # the quote would otherwise swallow every row into one covariate name
    path = tmp_path / "ds.csv"
    path.write_text("\n".join(['time,event,"z1', *rows]) + "\n")
    with pytest.raises(DatasetFormatError, match=r"line 1: the header has an unclosed .*quote"):
        read_dataset_csv(path)
    assert main(["fit", "--input", str(path)]) == 21
    assert "line 1" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("flag", [" 1", "0 "])
def test_a_padded_event_field_reads_like_the_row_parser(tmp_path, monkeypatch, flag):
    # loadtxt hands the padded text to the event converter, which strips it
    path = tmp_path / "ds.csv"
    path.write_text(f"time,event,z1\n0.5,{flag},0.2\n0.7,1,0.3\n")
    monkeypatch.setattr(dataio, "_parse_rows", None)  # the loadtxt path only
    got = outcome(lambda: read_dataset_csv(path))
    monkeypatch.undo()
    assert got == outcome(lambda: read_by_rows(path))
    assert got[2] == bytes([flag.strip() == "1", 1])


def test_a_closed_quoted_header_name_may_span_two_lines(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text('time,event,"z\n1"\n0.5,1,0.2\n"0.7",0,0.3\n')
    ds, names = read_dataset_csv(path)
    assert names == ("z\n1",)
    assert ds.times.tolist() == [0.5, 0.7] and ds.covariates.tolist() == [[0.2], [0.3]]
    path.write_text('time,event,"z\n1"\n0.5,1,0.2\n0.7,x,0.3\n')
    with pytest.raises(DatasetFormatError, match="^row 4: event must be 0 or 1"):
        read_dataset_csv(path)
