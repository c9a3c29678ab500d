"""The column-table ingest against the row-by-row parser it replaced.

The oracle below is the former ``parse_events`` / ``exclude_impossible`` /
``filter_players``: one Python object per CSV row, grouped in a dict.
Generated exports mix quoted names holding commas or line breaks, padded
fields, position aliases, coordinates on and beyond the court edges,
blank lines and three kinds of line end; both paths must agree on every count and
record, and on the line number of a planted bad row. Each export is also
parsed in batches of three rows, which must change neither the table nor
the error, streamed from a file by ``load_events``, which must give
what ``parse_events`` gives for its text, split into byte ranges parsed by
one to three processes, which must give what one process gives, and written
again as a JSON array, which ``parse_events_json`` must read as
``parse_events`` reads the CSV.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from court_fda import ingest, native
from court_fda.ingest import (
    CSV_FIELDS,
    CourtSpec,
    IngestError,
    ParseError,
    _POSITION_ALIASES,
    exclude_impossible,
    filter_players,
    load_events,
    parse_events,
    parse_events_json,
)

from conftest import assert_no_child_left


def oracle_parse(text: str, court: CourtSpec) -> list[tuple]:
    """Row-by-row parse: (player_id, name, position, x, y, made) per row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        return []
    if [h.strip() for h in header] != list(CSV_FIELDS):
        raise ParseError(1, "header")
    events = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_FIELDS):
            raise ParseError(line, "fields")
        pid, name, pos_raw, x_raw, y_raw, made_raw, _season = (f.strip() for f in row)
        position = _POSITION_ALIASES.get(pos_raw.lower())
        if position is None:
            raise ParseError(line, "position")
        try:
            x_ft, y_ft = float(x_raw), float(y_raw)
        except ValueError:
            raise ParseError(line, "coordinate") from None
        if made_raw not in ("0", "1"):
            raise ParseError(line, "made")
        events.append((pid, name, position, x_ft / court.width, y_ft / court.depth, made_raw == "1"))
    return events


def oracle_exclude(events: list[tuple]) -> list[tuple]:
    return [e for e in events if 0.0 <= e[3] <= 1.0 and 0.0 <= e[4] <= 1.0]


def oracle_filter(events: list[tuple], min_attempts: int) -> list[tuple]:
    """(player_id, name, position, made points, missed points) per kept player."""
    groups: dict[str, dict] = {}
    for pid, name, position, x, y, made in events:
        g = groups.setdefault(pid, {"name": name, "position": position, "made": [], "missed": []})
        if position is not g["position"]:
            raise IngestError(f"conflicting position labels for player {pid}")
        (g["made"] if made else g["missed"]).append((x, y))
    records = []
    for pid in sorted(groups):
        g = groups[pid]
        if len(g["made"]) + len(g["missed"]) <= min_attempts:
            continue
        for side in ("made", "missed"):
            if not g[side]:
                raise IngestError(f"player {pid} has no {side} shots")
        records.append(
            (
                pid,
                g["name"],
                g["position"],
                np.array(g["made"], dtype=float).reshape(-1, 2),
                np.array(g["missed"], dtype=float).reshape(-1, 2),
            )
        )
    return records


# Two aliases per group where one exists, so a player's rows mix labels.
ALIASES = {
    "g": ["guard", "Guard ", "GUARD"],
    "fg": ["guard-forward", "forward-guard", " Forward-Guard"],
    "f": ["forward", "FORWARD"],
    "fc": ["forward-center", "center-forward"],
    "c": ["center", " center "],
}
PLAYERS = [
    ("1630", ["Smith, Jr.", "Smith Jr."], "g"),
    ("s001", ["Player 001"], "fg"),
    (" 203110", ['O"Neal, S', "Shaq"], "c"),
    ("zz", ["Dončić, Luka", "Åse Ørn"], "f"),
    ("aa b", ["A B"], "fc"),
    ("nl", ["Two\r\nLines", "Two\nLines"], "g"),
]
COORDINATE = st.one_of(
    st.sampled_from([0.0, 50.0, 47.0, -0.0, -0.01, 50.01, 47.01, 60.0, -3.5]),
    st.floats(min_value=-5.0, max_value=55.0, allow_nan=False),
)
PAD = st.sampled_from(["", " ", "  ", "\t"])
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


# The players and names csv.writer writes without quotes: an export of theirs alone can be split.
UNQUOTED_PLAYERS = [
    ("1630", ["Smith Jr."], "g"),
    ("s001", ["Player 001"], "fg"),
    (" 203110", ["Shaq"], "c"),
    ("zz", ["Åse Ørn"], "f"),
    ("aa b", ["A B"], "fc"),
]


@st.composite
def shot_row(draw, players=PLAYERS) -> list[str]:
    pid, names, group = draw(st.sampled_from(players))
    x, y = draw(COORDINATE), draw(COORDINATE)
    number = draw(st.sampled_from(["{:.2f}", "{!r}", "{:.6g}"]))
    return [
        draw(PAD) + pid + draw(PAD),
        draw(st.sampled_from(names)) + draw(PAD),
        draw(st.sampled_from(ALIASES[group])),
        draw(PAD) + number.format(x),
        number.format(y) + draw(PAD),
        draw(PAD) + draw(st.sampled_from(["0", "1"])),
        draw(st.sampled_from(["2018-19", "2019-20", ""])),
    ]


def record_text(row: list[str]) -> str:
    """One CSV record without its line end; a field holding a line break is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    return buf.getvalue()[:-2]


@st.composite
def export(draw, rows=st.lists(shot_row(), min_size=0, max_size=60)) -> tuple[list[str], str]:
    """The export as a list of record texts (blank lines included) and its line end."""
    end = draw(LINE_END)
    records = []
    for row in draw(rows):
        records.append(record_text(row))
        if draw(st.integers(0, 9)) == 0:
            records.append("")
    return records, end


def join(records: list[str], end: str) -> str:
    return end.join([",".join(CSV_FIELDS)] + records) + end


def same_table(a, b) -> bool:
    columns = ("player", "name", "position", "x", "y", "made")
    return (a.player_ids, a.player_names) == (b.player_ids, b.player_names) and all(
        getattr(a, c).tobytes() == getattr(b, c).tobytes() for c in columns
    )


def assert_same_records(got, want) -> None:
    assert [(r.player_id, r.player_name, r.position) for r in got] == [w[:3] for w in want]
    for r, w in zip(got, want):
        for points, expected in ((r.made_points, w[3]), (r.missed_points, w[4])):
            assert points.shape == expected.shape
            assert points.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(export(), st.integers(1, 6))
def test_table_matches_row_parser(data, min_attempts):
    court = CourtSpec()
    text = join(*data)
    events = oracle_parse(text, court)
    table = parse_events(text, court)
    with mock.patch.object(ingest, "_BATCH_ROWS", 3):
        batched = parse_events(text, court)
    assert same_table(batched, table)
    assert len(table) == len(events)
    retained = exclude_impossible(table)
    want_retained = oracle_exclude(events)
    assert len(retained) == len(want_retained)
    try:
        want = oracle_filter(want_retained, min_attempts)
    except IngestError:
        with pytest.raises(IngestError):
            filter_players(retained, min_attempts)
        return
    assert_same_records(filter_players(retained, min_attempts), want)


BAD_FIELDS = [
    ("position", "pivot"),
    ("x_ft", "abc"),
    ("y_ft", ""),
    ("made", "yes"),
    ("made", "2"),
]


@st.composite
def planted_export(draw, players=PLAYERS):
    records, end = draw(export(st.lists(shot_row(players), min_size=1, max_size=40)))
    for _ in range(draw(st.integers(1, 2))):
        index = draw(st.integers(0, len(records)))
        kind = draw(st.sampled_from(["value", "short", "long", "spaces"]))
        row = draw(shot_row(players))
        if kind == "value":
            field, value = draw(st.sampled_from(BAD_FIELDS))
            row[CSV_FIELDS.index(field)] = value
        elif kind == "short":
            row = row[:-1]
        elif kind == "long":
            row = row + ["extra"]
        records.insert(index, "   " if kind == "spaces" else record_text(row))
    return records, end


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_export())
def test_bad_row_reported_at_same_line(data):
    court = CourtSpec()
    text = join(*data)
    with pytest.raises(ParseError) as want:
        oracle_parse(text, court)
    with pytest.raises(ParseError) as got:
        parse_events(text, court)
    assert got.value.row == want.value.row
    with mock.patch.object(ingest, "_BATCH_ROWS", 3), pytest.raises(ParseError) as batched:
        parse_events(text, court)
    assert str(batched.value) == str(got.value)


def load_file(text: str, court: CourtSpec):
    """``load_events`` on a file holding exactly the bytes of ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shots.csv"
        path.write_bytes(text.encode("utf-8"))
        return load_events(path, court)


@settings(max_examples=100, deadline=None)
@given(export())
def test_streamed_file_matches_text(data):
    court = CourtSpec()
    text = join(*data)
    assert same_table(load_file(text, court), parse_events(text, court))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_export())
def test_streamed_file_reports_same_line(data):
    court = CourtSpec()
    text = join(*data)
    with pytest.raises(ParseError) as want:
        parse_events(text, court)
    with pytest.raises(ParseError) as got:
        load_file(text, court)
    assert str(got.value) == str(want.value)


def load_split(path: Path, cores: int):
    """``load_events`` on ``path`` with byte ranges of any size at ``cores`` cores: the table, or the error raised."""
    with mock.patch.object(ingest, "_BYTES_PER_WORKER", 1), mock.patch.object(native, "available_cores", lambda: cores):
        try:
            result = load_events(path)
        except (ParseError, UnicodeDecodeError) as exc:
            result = exc
    assert_no_child_left()
    return result


def assert_same_outcome(got, want) -> None:
    """The same table, or an error of the same type, row and text."""
    if isinstance(want, Exception):
        assert (type(got), getattr(got, "row", None), str(got)) == (type(want), getattr(want, "row", None), str(want))
    else:
        assert same_table(got, want)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    export(),
    export(st.lists(shot_row(UNQUOTED_PLAYERS), max_size=60)),
    planted_export(),
    planted_export(UNQUOTED_PLAYERS),
))
def test_split_file_matches_one_process(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shots.csv"
        path.write_bytes(join(*data).encode("utf-8"))
        one = load_split(path, 1)
        for cores in (2, 3):
            assert_same_outcome(load_split(path, cores), one)


class TestSplitFile:
    """Fixed cases over three byte ranges of a quote-free export with blank lines between some rows."""

    @pytest.fixture
    def export_file(self, tmp_path):
        lines = [",".join(CSV_FIELDS)]
        for i in range(60):
            if i % 7 == 3:
                lines.append("")
            lines.append(f"p{i % 10:02d},Player {i % 10},guard,{10 + i % 7:.2f},20.00,{i % 2},2020-21")
        path = tmp_path / "shots.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @staticmethod
    def range_lines(path: Path) -> list[int]:
        """The first non-blank line of each of the three ranges, 1-based."""
        data = path.read_bytes()
        bounds = ingest._range_bounds(path, len(data), 3)
        assert len(bounds) == 4
        lines = data.split(b"\n")
        starts = [data.count(b"\n", 0, b) + 1 for b in bounds[:-1]]
        return [next(n for n in range(start, len(lines)) if lines[n - 1]) for start in starts]

    @staticmethod
    def damage(path: Path, line: int, old: str, new: str) -> None:
        """Replace ``old`` by ``new``, of the same length, on 1-based ``line``, so the ranges do not move."""
        lines = path.read_text(encoding="utf-8").split("\n")
        assert old in lines[line - 1] and len(old) == len(new)
        lines[line - 1] = lines[line - 1].replace(old, new, 1)
        path.write_text("\n".join(lines), encoding="utf-8")

    def check(self, path: Path, expected: str) -> None:
        one = load_split(path, 1)
        assert_same_outcome(load_split(path, 3), one)
        assert str(one) == expected

    def test_the_ranges_join_into_the_one_process_table(self, export_file):
        self.range_lines(export_file)
        assert_same_outcome(load_split(export_file, 3), load_split(export_file, 1))

    @pytest.mark.parametrize("which", [1, 2])
    def test_a_bad_row_on_the_first_line_of_a_range(self, export_file, which):
        line = self.range_lines(export_file)[which]
        self.damage(export_file, line, "guard", "pivot")
        self.check(export_file, f"row {line}: unknown position label 'pivot'")

    def test_a_bad_row_inside_the_last_range(self, export_file):
        line = self.range_lines(export_file)[2] + 3
        self.damage(export_file, line, ",20.00,", ",2x.00,")
        self.check(export_file, f"row {line}: non-numeric y_ft '2x.00'")

    def test_a_short_row_in_range_1_wins_over_a_bad_value_in_range_2(self, export_file):
        short, bad = self.range_lines(export_file)[1] + 1, self.range_lines(export_file)[2]
        self.damage(export_file, short, ",2020-21", ";2020-21")
        self.damage(export_file, bad, ",20.00,", ",1e999,")
        self.check(export_file, f"row {short}: expected 7 fields, got 6")

    def test_a_bad_value_in_range_0_wins_over_a_short_row_in_range_1(self, export_file):
        bad, short = 3, self.range_lines(export_file)[1]
        self.damage(export_file, bad, "guard", "pivot")
        self.damage(export_file, short, ",2020-21", ";2020-21")
        self.check(export_file, f"row {bad}: unknown position label 'pivot'")

    @pytest.mark.parametrize("which", [1, 2])
    def test_an_undecodable_byte_is_a_parse_error_at_its_line(self, export_file, which):
        data = export_file.read_bytes()
        at = ingest._range_bounds(export_file, len(data), 3)[which] + 3
        export_file.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        line = data.count(b"\n", 0, at) + 1
        self.check(export_file, f"row {line}: 'utf-8' codec can't decode byte 0xff: invalid start byte")

    def test_a_bad_row_in_range_2_is_located_by_reading_range_2_alone(self, export_file, tmp_path, monkeypatch):
        # each csv reader logs its first non-blank row, from the forked workers too: every range is parsed
        # once, the bad row is located from the lines its reader counted, and no reader reads from line 1 again
        line = self.range_lines(export_file)[2] + 2
        self.damage(export_file, line, "guard", "pivot")
        log, reader = tmp_path / "first_rows.log", csv.reader

        class LoggedReader:
            def __init__(self, *args):
                self.rows, self.logged = reader(*args), False

            def __iter__(self):
                return self

            def __next__(self):
                row = next(self.rows)
                if row and not self.logged:
                    with log.open("a") as fh:
                        fh.write(",".join(row) + "\n")
                    self.logged = True
                return row

            line_num = property(lambda self: self.rows.line_num)

        monkeypatch.setattr(csv, "reader", LoggedReader)
        split = load_split(export_file, 3)
        lines = export_file.read_text(encoding="utf-8").split("\n")
        starts = [1, *self.range_lines(export_file)[1:]]
        assert sorted(log.read_text().splitlines()) == sorted(lines[n - 1] for n in starts)
        one = load_split(export_file, 1)
        assert_same_outcome(split, one)
        assert str(one) == f"row {line}: unknown position label 'pivot'"

    def test_a_bad_header_is_row_1(self, export_file):
        self.damage(export_file, 1, "season", "seasun")
        header = ",".join(CSV_FIELDS)
        self.check(export_file, f"row 1: expected header {header!r}, got {header.replace('season', 'seasun')!r}")

    def test_a_quote_before_a_boundary_keeps_the_file_whole(self, export_file):
        self.damage(export_file, 2, "Player 0", '"Plyr 0"')
        data = export_file.read_bytes()
        assert ingest._range_bounds(export_file, len(data), 3) == [0, len(data)]
        table = load_split(export_file, 3)
        assert_same_outcome(table, load_split(export_file, 1))
        assert "Plyr 0" in table.player_names


def as_json(text: str, rnd) -> tuple[str, list[int]]:
    """The data rows of a CSV export as a JSON array, and the file line of each element.

    A row of seven fields becomes an object with the CSV keys. ``rnd`` picks the
    coordinates that ``float`` reads to be written as JSON numbers, and the 0/1
    made flags to be written as integers or booleans; other values stay strings.
    Any other row becomes an object whose keys are not the CSV keys.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    array, lines = [], []
    for row in reader:
        if not row:
            continue
        obj = dict(zip([*CSV_FIELDS, "extra"], row))
        if len(row) == len(CSV_FIELDS):
            for key in ("x_ft", "y_ft"):
                try:
                    obj[key] = float(obj[key]) if rnd.random() < 0.5 else obj[key]
                except ValueError:
                    pass
            if obj["made"].strip() in ("0", "1") and rnd.random() < 0.5:
                obj["made"] = rnd.choice([int, bool])(int(obj["made"]))
        array.append(obj)
        lines.append(reader.line_num)
    return json.dumps(array), lines


@settings(max_examples=100, deadline=None)
@given(export(), st.randoms(use_true_random=False))
def test_json_array_matches_csv(data, rnd):
    court = CourtSpec()
    text = join(*data)
    array, _ = as_json(text, rnd)
    assert same_table(parse_events_json(array, court), parse_events(text, court))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_export(), st.randoms(use_true_random=False))
def test_json_array_reports_same_row(data, rnd):
    court = CourtSpec()
    text = join(*data)
    array, lines = as_json(text, rnd)
    with pytest.raises(ParseError) as want:
        parse_events(text, court)
    with pytest.raises(ParseError) as got:
        parse_events_json(array, court)
    message = str(want.value).split(": ", 1)[1]
    if message.startswith(f"expected {len(CSV_FIELDS)} fields"):
        message = f"expected an object with keys {','.join(CSV_FIELDS)}"
    position = lines.index(want.value.row) + 1
    assert (got.value.row, str(got.value)) == (position, f"row {position}: {message}")


# json.dumps cannot write an integer of more than 4300 digits, so this one is spliced into the text as a bare number
HUGE_INTEGER = "9" * 5000


@pytest.mark.parametrize("key, value, message", [
    ("x_ft", True, "non-numeric x_ft 'True'"),
    ("x_ft", 10**400, "non-finite x_ft inf"),
    ("x_ft", HUGE_INTEGER, "non-finite x_ft inf"),
    ("made", 1.0, "made flag must be 0 or 1, got '1.0'"),
], ids=["true-coordinate", "400-digit-coordinate", "5000-digit-coordinate", "float-made-flag"])
def test_json_value_the_csv_rules_refuse(key, value, message):
    good = {"player_id": "p", "player_name": "N", "position": "center",
            "x_ft": 1, "y_ft": 2, "made": 1, "season": "s"}
    with pytest.raises(ParseError) as err:
        parse_events_json(json.dumps([good, {**good, key: value}]).replace(f'"{HUGE_INTEGER}"', HUGE_INTEGER))
    assert str(err.value) == f"row 2: {message}"


# The streamed JSON array against json.loads: the same elements for every layout json.dumps
# writes, and the same JSONDecodeError message and position for every text json.loads refuses.

WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def json_array_text(draw) -> str:
    """A JSON array as json.dumps writes it under a drawn indent and separators, whitespace around it."""
    separators = draw(st.tuples(WHITESPACE, WHITESPACE, WHITESPACE, WHITESPACE).map(
        lambda ws: (ws[0] + "," + ws[1], ws[2] + ":" + ws[3])) | st.none())
    indent = draw(st.none() | st.integers(0, 2) | st.just("\t"))
    text = json.dumps(draw(st.lists(json_value, max_size=5)), indent=indent, separators=separators)
    return draw(WHITESPACE) + text + draw(WHITESPACE)


@st.composite
def damaged_json_text(draw) -> str:
    """A JSON array text after one or two drawn damages, or a document whose top level is not an array."""
    if draw(st.integers(0, 5)) == 0:
        return draw(WHITESPACE) + json.dumps(draw(json_value.filter(lambda v: not isinstance(v, list))))
    text = draw(json_array_text())
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["truncate", "delete", "insert", "append"]))
        if kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif kind == "delete" and (marks := [i for i, c in enumerate(text) if c in ",[]"]):
            i = draw(st.sampled_from(marks))
            text = text[:i] + text[i + 1:]
        elif kind == "insert":
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(",[]")) + text[i:]
        elif kind == "append":
            text += draw(st.text(min_size=1, max_size=3))
    return text


def streamed(text: str, parse_int) -> list:
    return list(ingest._json_array(text, json.JSONDecoder(parse_int=parse_int)))


@settings(max_examples=300, deadline=None)
@given(json_array_text(), st.sampled_from([None, str]))
def test_streamed_array_matches_json_loads(text, parse_int):
    assert streamed(text, parse_int) == json.loads(text, parse_int=parse_int)


@settings(max_examples=500, deadline=None)
@given(damaged_json_text(), st.sampled_from([None, str]))
def test_streamed_array_fails_where_json_loads_fails(text, parse_int):
    try:
        want = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as got:
            streamed(text, parse_int)
        assert (got.value.msg, got.value.pos) == (exc.msg, exc.pos)
        return
    if isinstance(want, list):
        assert streamed(text, parse_int) == want
    else:
        with pytest.raises(TypeError, match="not an array"):
            streamed(text, parse_int)
