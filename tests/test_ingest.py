"""Parsing, normalization, exclusion, and player filtering."""

import csv
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from court_fda import ingest
from court_fda.export import json_text
from court_fda.ingest import (
    CSV_FIELDS,
    POSITION_ORDER,
    CourtSpec,
    IngestError,
    ParseError,
    PlayerRecord,
    PlayersFileError,
    Position,
    ShotTable,
    exclude_impossible,
    filter_players,
    load_events,
    normalize_point,
    parse_events,
    parse_events_json,
    write_players_json,
    read_players_json,
)

HEADER = "player_id,player_name,position,x_ft,y_ft,made,season"


def parse(text: str) -> ShotTable:
    return parse_events(text)


def rows_of(table: ShotTable) -> list[tuple]:
    """(player_id, player_name, position, x, y, made) per row, in table order."""
    return list(
        zip(
            [table.player_ids[p] for p in table.player.tolist()],
            [table.player_names[n] for n in table.name.tolist()],
            [POSITION_ORDER[q] for q in table.position.tolist()],
            table.x.tolist(),
            table.y.tolist(),
            table.made.tolist(),
        )
    )


def to_csv(table: ShotTable, court: CourtSpec) -> str:
    """CSV text of a table in the input format, coordinates back in feet."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for pid, name, position, x, y, made in rows_of(table):
        writer.writerow([pid, name, position.value, repr(x * court.width), repr(y * court.depth), int(made), "s"])
    return buf.getvalue()


class TestNormalizePoint:
    def test_far_corner(self):
        assert normalize_point(50.0, 47.0) == (1.0, 1.0)

    def test_center(self):
        assert normalize_point(25.0, 23.5) == (0.5, 0.5)

    def test_negative_passes_through(self):
        x, y = normalize_point(-3.0, 10.0)
        assert x == -3.0 / 50.0 and y == 10.0 / 47.0

    def test_linear_in_power_of_two_scalings(self):
        court = CourtSpec(50.0, 47.0)
        for a in (2.0, 4.0, 0.5):
            scaled = CourtSpec(50.0 * a, 47.0 * a)
            assert normalize_point(13.0 * a, 7.0 * a, scaled) == normalize_point(13.0, 7.0, court)

    def test_linear_in_general_scalings(self):
        court = CourtSpec(50.0, 47.0)
        for a in (3.0, 1.7, 0.31):
            scaled = CourtSpec(50.0 * a, 47.0 * a)
            got = normalize_point(13.0 * a, 7.0 * a, scaled)
            want = normalize_point(13.0, 7.0, court)
            assert got == pytest.approx(want, rel=1e-14)

    def test_bad_court(self):
        with pytest.raises(ValueError):
            CourtSpec(0.0, 47.0)


class TestParseEvents:
    def test_mid_court_row(self):
        events = parse(f"{HEADER}\np1,Curry,guard,25.0,23.5,1,2018-19\n")
        assert len(events) == 1
        assert rows_of(events) == [("p1", "Curry", Position.GUARD, 0.5, 0.5, True)]

    def test_origin_row(self):
        e = rows_of(parse(f"{HEADER}\np2,Jokic,center,0.0,0.0,0,2019-20"))[0]
        assert e[3:] == (0.0, 0.0, False)

    def test_non_numeric_coordinate(self):
        with pytest.raises(ParseError) as err:
            parse(f"{HEADER}\np1,Curry,guard,abc,23.5,1,2018-19\n")
        assert err.value.row == 2

    def test_unknown_position(self):
        with pytest.raises(ParseError, match="position"):
            parse(f"{HEADER}\np1,Curry,pivot,25.0,23.5,1,2018-19\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="fields"):
            parse(f"{HEADER}\np1,Curry,guard,25.0,23.5,1\n")

    def test_bad_made_flag(self):
        with pytest.raises(ParseError, match="made"):
            parse(f"{HEADER}\np1,Curry,guard,25.0,23.5,yes,2018-19\n")

    def test_error_row_number_counts_file_lines(self):
        text = f"{HEADER}\np1,A,guard,1.0,1.0,1,s\np1,A,guard,x,1.0,1,s\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.row == 3

    def test_empty_stream(self):
        assert len(parse("")) == 0

    def test_header_only(self):
        assert len(parse(HEADER + "\n")) == 0

    def test_wrong_header(self):
        with pytest.raises(ParseError):
            parse("a,b,c,d,e,f,g\n")

    def test_position_aggregation(self):
        rows = [
            ("guard-forward", Position.FORWARD_GUARD),
            ("forward-guard", Position.FORWARD_GUARD),
            ("center-forward", Position.FORWARD_CENTER),
            ("forward-center", Position.FORWARD_CENTER),
        ]
        for raw, want in rows:
            e = rows_of(parse(f"{HEADER}\np,N,{raw},1.0,1.0,1,s\n"))[0]
            assert e[2] is want

    def test_order_preserved(self):
        text = HEADER + "\n" + "\n".join(f"p{i},N,guard,{i}.0,1.0,1,s" for i in range(5))
        events = parse(text)
        assert [e[0] for e in rows_of(events)] == [f"p{i}" for i in range(5)]
        assert events.x.tolist() == [i / 50.0 for i in range(5)]

    def test_quoted_name_with_comma(self):
        e = rows_of(parse(f'{HEADER}\np9,"Smith, Jr.",center,10.0,5.0,1,2020-21\n'))[0]
        assert e[1] == "Smith, Jr."

    def test_quoted_name_round_trips(self):
        court = CourtSpec()
        events = parse(f'{HEADER}\np9,"Smith, Jr.",center,10.0,5.0,1,2020-21\n')
        assert rows_of(parse_events(to_csv(events, court), court)) == rows_of(events)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_coordinate_rejected(self, value):
        text = f"{HEADER}\np1,A,guard,1.0,1.0,1,s\n\np1,A,guard,1.0,{value},1,s\n"
        with pytest.raises(ParseError, match="non-finite y_ft") as err:
            parse(text)
        assert err.value.row == 4

    def test_bare_cr_line_ends_and_underscored_numbers(self):
        lines = [HEADER, "p1,A,guard,1_0.0,1.0,1,s", "p2,B,center,2.0,3.0,0,s"]
        table = parse("\r".join(lines) + "\r")
        assert rows_of(table) == [
            ("p1", "A", Position.GUARD, 0.2, 1.0 / 47.0, True),
            ("p2", "B", Position.CENTER, 2.0 / 50.0, 3.0 / 47.0, False),
        ]

    def test_long_fields_kept_whole(self):
        pid, name = "p" * 40, "Ö" * 40
        table = parse(f"{HEADER}\n{pid},{name},  forward-center  , 5.0 , 4.7 , 1 ,s\n")
        assert rows_of(table) == [(pid, name, Position.FORWARD_CENTER, 0.1, 0.1, True)]

    def test_invalid_value_reported_before_later_short_row(self):
        text = f"{HEADER}\np1,A,pivot,1.0,1.0,1,s\np1,A,guard,1.0\n"
        with pytest.raises(ParseError, match="position") as err:
            parse(text)
        assert err.value.row == 2

    def test_load_events_reads_a_pipe(self, tmp_path):
        # a pipe has no size: it is parsed whole by one process, read once from its start
        text = f"{HEADER}\n" + "".join(f"p{i},N,guard,{i}.0,1.0,1,s\n" for i in range(50))
        fifo = tmp_path / "shots.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            table = load_events(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert rows_of(table) == rows_of(parse(text))

    @pytest.mark.parametrize("bad_row", [0, 1500, 2999])
    def test_a_bad_row_in_a_pipe_is_located(self, bad_row):
        # a pipe is read once: each row's line comes from its reader, across batches, blank lines
        # and a quoted line break, never from a second read (which would find the pipe drained)
        rows = [f"p{i % 9},N,guard,{i % 40}.0,1.0,1,s\n" for i in range(3000)]
        rows[700] = 'p7,"N\nM",guard,1.0,1.0,1,s\n'
        rows[bad_row] = rows[bad_row].replace("guard", "pivot")
        text = f"{HEADER}\n" + "".join(row + ("\n" if i % 997 == 5 else "") for i, row in enumerate(rows))
        code = ("from court_fda.ingest import ParseError, load_events\n"
                "try:\n    load_events('/dev/stdin')\nexcept ParseError as exc:\n    print(exc)")
        env = dict(os.environ, PYTHONPATH=str(Path(ingest.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True, text=True, env=env,
                              timeout=120)
        line = 2 + bad_row + (bad_row > 700) + sum(1 for i in range(bad_row) if i % 997 == 5)
        assert (proc.stdout, proc.stderr) == (f"row {line}: unknown position label 'pivot'\n", "")
        assert text.split("\n")[line - 1].startswith(f"p{bad_row % 9},N,pivot,")
        with pytest.raises(ParseError, match=f"^row {line}: "):
            parse(text)


class TestParseJson:
    def test_equivalent_to_csv(self):
        obj = [
            {"player_id": "p1", "player_name": "Curry", "position": "guard",
             "x_ft": 25.0, "y_ft": 23.5, "made": 1, "season": "2018-19"}
        ]
        got = parse_events_json(json.dumps(obj))
        want = parse(f"{HEADER}\np1,Curry,guard,25.0,23.5,1,2018-19\n")
        assert rows_of(got) == rows_of(want)

    def test_boolean_made(self):
        obj = [{"player_id": "p", "player_name": "N", "position": "center",
                "x_ft": 1, "y_ft": 2, "made": True, "season": "s"}]
        assert rows_of(parse_events_json(json.dumps(obj)))[0][5] is True

    def test_bad_entry_carries_index(self):
        obj = [{"player_id": "p", "player_name": "N", "position": "center",
                "x_ft": 1, "y_ft": 2, "made": 1, "season": "s"},
               {"player_id": "p"}]
        with pytest.raises(ParseError) as err:
            parse_events_json(json.dumps(obj))
        assert err.value.row == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "-inf"])
    def test_non_finite_coordinate_rejected(self, value):
        obj = [{"player_id": "p", "player_name": "N", "position": "center",
                "x_ft": 1, "y_ft": 2, "made": 1, "season": "s"},
               {"player_id": "p", "player_name": "N", "position": "center",
                "x_ft": value, "y_ft": 2, "made": 1, "season": "s"}]
        with pytest.raises(ParseError, match="non-finite x_ft") as err:
            parse_events_json(json.dumps(obj))
        assert err.value.row == 2


    SHOT = {"player_id": "p", "player_name": "N", "position": "center",
            "x_ft": 1, "y_ft": 2, "made": 1, "season": "s"}

    def test_empty_array(self):
        assert len(parse_events_json(" [ ]\n")) == 0

    def test_whitespace_only_tail(self):
        assert len(parse_events_json(json.dumps([self.SHOT] * 2) + " \t\r\n \n")) == 2

    def test_non_array_document(self):
        with pytest.raises(ParseError, match="expected a JSON array of shot objects"):
            parse_events_json(json.dumps(self.SHOT))

    @pytest.mark.parametrize("bad", [{"player_id": "p"}, {**SHOT, "x_ft": "abc"}], ids=["element", "value"])
    def test_syntax_error_below_wins(self, bad):
        # the whole document is still decoded before an element or a value is reported
        text = json.dumps([self.SHOT, bad, self.SHOT])[:-1] + ",]"
        with pytest.raises(json.JSONDecodeError, match="Expecting value"):
            parse_events_json(text)


class TestExcludeImpossible:
    def table(self, *points):
        return table(("p", "N", Position.GUARD, x, y, True) for x, y in points)

    def points(self, table):
        return list(zip(table.x.tolist(), table.y.tolist()))

    def test_out_of_bounds_removed(self):
        events = self.table((0.5, 0.5), (1.2, 0.3))
        assert self.points(exclude_impossible(events)) == [(0.5, 0.5)]

    def test_identity_on_in_bounds(self):
        events = self.table((0.1, 0.9), (0.5, 0.5))
        assert self.points(exclude_impossible(events)) == self.points(events)

    def test_boundary_points_stay(self):
        events = self.table((0.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        assert self.points(exclude_impossible(events)) == self.points(events)

    def test_idempotent(self):
        events = self.table((0.5, 0.5), (-0.1, 0.3), (0.2, 1.01))
        once = exclude_impossible(events)
        assert rows_of(exclude_impossible(once)) == rows_of(once)

    def test_order_preserved(self):
        events = self.table((0.9, 0.1), (2.0, 0.0), (0.1, 0.9))
        assert self.points(exclude_impossible(events)) == [(0.9, 0.1), (0.1, 0.9)]


def make_events(pid, n_made, n_missed, position=Position.GUARD):
    made = [(pid, pid.upper(), position, 0.1 + 0.8 * i / max(n_made, 1), 0.5, True) for i in range(n_made)]
    missed = [(pid, pid.upper(), position, 0.5, 0.1 + 0.8 * i / max(n_missed, 1), False) for i in range(n_missed)]
    return made + missed


def table(rows) -> ShotTable:
    """Table of ``(player_id, player_name, position, x, y, made)`` rows with unit-square coordinates.

    On a 1 x 1 ft court the parsed ``repr`` of a coordinate is the coordinate itself.
    """
    lines = [f"{pid},{name},{pos.value},{x!r},{y!r},{int(made)},s" for pid, name, pos, x, y, made in rows]
    return parse_events("\n".join([HEADER, *lines]), CourtSpec(1.0, 1.0))


class TestFilterPlayers:
    def test_threshold_is_strict(self):
        events = make_events("a", 500, 500)  # exactly 1000
        assert filter_players(table(events), 1000) == []

    def test_threshold_plus_one_kept(self):
        events = make_events("a", 501, 500)  # 1001
        records = filter_players(table(events), 1000)
        assert len(records) == 1 and records[0].attempts == 1001

    def test_counts_exceed_threshold_invariant(self):
        events = make_events("a", 40, 30) + make_events("b", 10, 5) + make_events("c", 100, 1)
        for r in filter_players(table(events), 50):
            assert r.attempts > 50

    def test_sorted_by_player_id(self):
        events = make_events("zz", 10, 10) + make_events("aa", 10, 10)
        records = filter_players(table(events), 5)
        assert [r.player_id for r in records] == ["aa", "zz"]

    def test_conflicting_positions_rejected(self):
        events = make_events("a", 5, 5) + make_events("a", 5, 5, Position.CENTER)
        with pytest.raises(IngestError, match="a"):
            filter_players(table(events), 3)

    def test_all_made_player_rejected(self):
        events = make_events("a", 20, 0)
        with pytest.raises(IngestError, match="missed"):
            filter_players(table(events), 5)

    def test_min_attempts_validated(self):
        with pytest.raises(ValueError):
            filter_players(table([]), 0)

    def test_min_attempts_one_keeps_two_shot_players(self):
        events = make_events("a", 1, 1)
        records = filter_players(table(events), 1)
        assert len(records) == 1 and records[0].attempts == 2

    def test_points_split_by_outcome(self):
        events = make_events("a", 7, 9)
        r = filter_players(table(events), 10)[0]
        assert r.made_points.shape == (7, 2) and r.missed_points.shape == (9, 2)
        assert np.all((r.made_points >= 0) & (r.made_points <= 1))


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        court = CourtSpec()
        rng = np.random.default_rng(11)
        rows = [HEADER]
        positions = ["guard", "forward-guard", "forward", "center-forward", "center"]
        for i in range(300):
            rows.append(
                f"p{i % 7},Name {i % 7},{positions[i % 5]},"
                f"{rng.uniform(-2, 52):.3f},{rng.uniform(-2, 49):.3f},{i % 2},2021-22"
            )
        events1 = parse("\n".join(rows) + "\n")
        events2 = parse_events(to_csv(events1, court), court)
        assert rows_of(events2) == rows_of(events1)

    def test_players_json_round_trip(self, tmp_path):
        events = make_events("a", 7, 9) + make_events("b", 12, 4, Position.CENTER)
        records = filter_players(table(events), 10)
        path = tmp_path / "players.json"
        write_players_json(records, path)
        loaded = read_players_json(path)
        assert [r.player_id for r in loaded] == [r.player_id for r in records]
        for got, want in zip(loaded, records):
            assert got.position is want.position
            np.testing.assert_array_equal(got.made_points, want.made_points)
            np.testing.assert_array_equal(got.missed_points, want.missed_points)

    def test_players_json_bytes_match_one_call_encoding(self, tmp_path):
        # the former writer encoded the whole payload in one call
        events = make_events("a", 7, 9) + make_events("b", 12, 4, Position.CENTER) + make_events("c", 3, 8)
        records = filter_players(table(events), 10)
        path = tmp_path / "players.json"
        for subset in (records, records[:1], []):
            write_players_json(subset, path)
            assert path.read_bytes() == one_call_players_json(subset)


class TestReadPlayersJson:
    @pytest.fixture
    def path(self, tmp_path):
        events = make_events("a", 7, 9) + make_events("b", 12, 4, Position.CENTER) + make_events("c", 3, 8)
        path = tmp_path / "players.json"
        write_players_json(filter_players(table(events), 10), path)
        return path

    def edit(self, path, key, value):
        doc = json.loads(path.read_text())
        if value is None:
            del doc[1][key]
        else:
            doc[1][key] = value
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("key, value, message", [
        ("position", None, "a player has no key 'position'"),
        ("made_points", None, "a player has no key 'made_points'"),
        ("position", "point", "'point' is not a valid Position"),
        ("made_points", [[0.1, float("nan")]], "player 'b' made_points holds a non-finite coordinate"),
        ("missed_points", [[float("inf"), 0.5]], "player 'b' missed_points holds a non-finite coordinate"),
        ("made_points", [[0.1, 0.2, 0.3]], r"player 'b' made_points has shape \(1, 3\), not \(n, 2\)"),
        ("made_points", [0.1, 0.2], r"player 'b' made_points has shape \(2,\)"),
        ("made_points", [[0.1, 0.2], [0.3]], "players file"),
        ("made_points", [[True, 0.5]], "player 'b' made_points holds a coordinate that is not a number"),
        ("missed_points", [["0.25", 0.5]], "player 'b' missed_points holds a coordinate that is not a number"),
        ("player_id", "a", "player 'a' is listed twice"),
    ])
    def test_rejects(self, path, key, value, message):
        self.edit(path, key, value)
        with pytest.raises(PlayersFileError, match=message):
            read_players_json(path)

    def test_selected_players(self, path):
        assert [r.player_id for r in read_players_json(path, ["c", "a"])] == ["c", "a"]
        with pytest.raises(PlayersFileError, match="player 'z' is not in the file"):
            read_players_json(path, ["a", "z"])

    def test_empty_array(self, tmp_path):
        path = tmp_path / "players.json"
        path.write_text("[]\n")
        assert read_players_json(path) == []

    def test_whitespace_only_tail(self, path):
        path.write_text(path.read_text() + " \t\r\n")
        assert [r.player_id for r in read_players_json(path)] == ["a", "b", "c"]

    @pytest.mark.parametrize("doc", [{"player_id": "a"}, "a", 3])
    def test_rejects_a_document_that_is_not_an_array(self, tmp_path, doc):
        path = tmp_path / "players.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PlayersFileError, match="top-level JSON value is not an array"):
            read_players_json(path)

    def test_repeated_id_reported_before_a_syntax_error_below(self, path):
        # players are checked as they are decoded, so the second player's fault comes first
        self.edit(path, "player_id", "a")
        path.write_text(path.read_text()[:-40])
        with pytest.raises(PlayersFileError, match="player 'a' is listed twice"):
            read_players_json(path)

    def test_syntax_error_reported(self, path):
        path.write_text(path.read_text()[:-40])
        with pytest.raises(PlayersFileError, match="Expecting"):
            read_players_json(path)

    def test_empty_point_list_reads_as_0_by_2(self, path):
        self.edit(path, "made_points", [])
        assert read_players_json(path)[1].made_points.shape == (0, 2)


def one_call_players_json(records) -> bytes:
    """The former writer: the whole payload encoded in one call."""
    payload = [
        {
            "player_id": r.player_id,
            "player_name": r.player_name,
            "position": r.position.value,
            "made_points": r.made_points.tolist(),
            "missed_points": r.missed_points.tolist(),
        }
        for r in records
    ]
    return json_text(payload).encode("utf-8")


# signed zeros side by side, the smallest subnormal, the 1e-5 threshold where
# repr turns to exponent form, and the non-finite values JSON spells out; a
# small pool makes values recur across players and across the x and y axes
COORDINATE_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-05, 9.999999999999999e-06, 0.5, 1.0, 0.1 + 0.2,
                   float("nan"), float("inf"), float("-inf")]

point_field = st.lists(
    st.tuples(*[st.one_of(st.sampled_from(COORDINATE_POOL), st.floats(width=64))] * 2), max_size=5
).map(lambda points: np.array(points, dtype=float).reshape(-1, 2))

player_record = st.builds(
    PlayerRecord,
    player_id=st.text(max_size=4),
    player_name=st.text(max_size=6),
    position=st.sampled_from(POSITION_ORDER),
    made_points=point_field,
    missed_points=point_field,
)


WRITER_EXAMPLES = [
    [],
    [PlayerRecord("a", "A", Position.GUARD, np.array([[0.0, -0.0]]), np.array([[-0.0, 0.0]]))],
    [
        PlayerRecord("a", "A", Position.GUARD, np.array([[5e-324, 1e-05]]), np.zeros((0, 2))),
        PlayerRecord("b", "B", Position.CENTER, np.array([[1e-05, 5e-324], [-0.0, 0.0]]), np.array([[1e-05, 1e-05]])),
    ],
]


def writer_cases(max_examples):
    """Hypothesis lists of up to four players, and :data:`WRITER_EXAMPLES`."""

    def decorate(test):
        for records in WRITER_EXAMPLES:
            test = example(records)(test)
        test = given(st.lists(player_record, max_size=4))(test)
        return settings(max_examples=max_examples, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])(test)

    return decorate


class TestPlayersJsonMemo:
    @writer_cases(max_examples=300)
    def test_bytes_match_one_call_encoding(self, tmp_path, records):
        path = tmp_path / "players.json"
        write_players_json(records, path)
        assert path.read_bytes() == one_call_players_json(records)

    @pytest.mark.parametrize("chunk_points", [0, 1, 2])
    @writer_cases(max_examples=100)
    def test_chunked_bytes_match_one_call_encoding(self, tmp_path, monkeypatch, chunk_points, records):
        # chunks of one player at a bound of 0 points, of one or more (those with at most the bound) at 1 and 2
        monkeypatch.setattr(ingest, "_WRITE_POINTS", chunk_points)
        path = tmp_path / "players.json"
        write_players_json(records, path)
        assert path.read_bytes() == one_call_players_json(records)

    def test_chunks_are_consecutive_runs_within_the_bound(self):
        assert list(ingest._chunk_bounds([3, 0, 2, 5, 1, 1], 3)) == [(0, 2), (2, 3), (3, 4), (4, 6)]
        assert list(ingest._chunk_bounds([1, 1, 1], 0)) == [(0, 1), (1, 2), (2, 3)]
        assert list(ingest._chunk_bounds([], 3)) == []


class TestMemory:
    def test_load_events_peak_below_four_file_sizes(self, tmp_path):
        # the file is streamed: no whole-file bytes, str or StringIO copy
        rng = np.random.default_rng(3)
        n = 30_000
        player = rng.integers(0, 40, size=n)
        xy = rng.uniform(0, 50, size=(n, 2))
        made = rng.integers(0, 2, size=n)
        lines = [HEADER] + [
            f"p{p:03d},Player {p},guard,{x:.2f},{y:.2f},{m},2020-21"
            for p, (x, y), m in zip(player.tolist(), xy.tolist(), made.tolist())
        ]
        path = tmp_path / "shots.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            events = load_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == n
        assert peak < 4 * path.stat().st_size

    @pytest.mark.parametrize("cores", [1, 2])
    def test_load_events_peak_below_1_8_tables(self, tmp_path, monkeypatch, cores):
        # each column's batch parts are freed once they are joined, and each range's columns once they
        # are joined: holding the parts beside the coded columns, or the ranges beside their join, takes
        # at least twice the table
        monkeypatch.setattr(ingest, "available_cores", lambda: cores)
        rng = np.random.default_rng(6)
        n = 200_000
        player = rng.integers(0, 40, size=n)
        xy = rng.uniform(0, 50, size=(n, 2))
        made = rng.integers(0, 2, size=n)
        lines = [HEADER] + [
            f"p{p:03d},Player {p},guard,{x:.2f},{y:.2f},{m},2020-21"
            for p, (x, y), m in zip(player.tolist(), xy.tolist(), made.tolist())
        ]
        path = tmp_path / "shots.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        del lines
        tracemalloc.start()
        try:
            events = load_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = sum(getattr(events, c).nbytes for c in ("player", "name", "position", "x", "y", "made"))
        assert len(events) == n
        assert peak < 1.8 * table

    def test_write_players_json_peak_is_one_chunks_cells(self, tmp_path, monkeypatch):
        # 40 players of 2000 distinct points, written 4000 points (two players) at a time; every
        # point's cells at once would take about 320 bytes a point, 25 MB
        monkeypatch.setattr(ingest, "_WRITE_POINTS", 4000)
        rng = np.random.default_rng(7)
        records = [
            PlayerRecord(f"p{i:02d}", f"Player {i}", Position.GUARD, rng.random((1000, 2)), rng.random((1000, 2)))
            for i in range(40)
        ]
        tracemalloc.start()
        try:
            write_players_json(records, tmp_path / "players.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 4000

    def test_read_players_json_peak_below_three_file_sizes(self, tmp_path):
        # players are decoded one at a time: the text, the arrays so far and one player's lists
        rng = np.random.default_rng(4)
        records = [
            PlayerRecord(f"p{i:02d}", f"Player {i}", Position.GUARD, rng.random((1000, 2)), rng.random((1000, 2)))
            for i in range(40)
        ]
        path = tmp_path / "players.json"
        write_players_json(records, path)
        tracemalloc.start()
        try:
            loaded = read_players_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 40
        assert peak < 3 * path.stat().st_size

    def test_parse_events_json_peak_below_two_text_lengths(self):
        # shot objects are decoded one at a time into the parser's row batches
        rng = np.random.default_rng(5)
        n = 40_000
        player = rng.integers(0, 40, size=n)
        xy = rng.uniform(0, 50, size=(n, 2)).round(2)
        made = rng.integers(0, 2, size=n)
        text = json.dumps([
            {"player_id": f"p{p:03d}", "player_name": f"Player {p}", "position": "guard",
             "x_ft": x, "y_ft": y, "made": m, "season": "2020-21"}
            for p, (x, y), m in zip(player.tolist(), xy.tolist(), made.tolist())
        ])
        tracemalloc.start()
        try:
            events = parse_events_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == n
        assert peak < 2 * len(text)
