"""Shot-event ingestion: parsing, coordinate normalization, player filtering.

Input files carry one row per field-goal attempt, with court coordinates
in feet. Parsing reads the rows into one column table (:class:`ShotTable`)
and normalizes coordinates onto the unit square; attempts landing outside
it are left out when the rows are grouped by player, and players are
retained only when their attempt count exceeds a threshold.
"""

from __future__ import annotations

import bisect
import csv
import enum
import functools
import io
import json
from array import array
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from court_fda.native import run_shares, share_count, trim_heap

CSV_FIELDS = ("player_id", "player_name", "position", "x_ft", "y_ft", "made", "season")


class Position(enum.Enum):
    """Aggregated positional groups; hybrid labels are merged pairwise."""

    GUARD = "guard"
    FORWARD_GUARD = "forward-guard"
    FORWARD = "forward"
    FORWARD_CENTER = "forward-center"
    CENTER = "center"


#: Canonical category order used wherever positions become partition labels.
POSITION_ORDER: tuple[Position, ...] = tuple(Position)

_POSITION_ALIASES = {
    "guard": Position.GUARD,
    "guard-forward": Position.FORWARD_GUARD,
    "forward-guard": Position.FORWARD_GUARD,
    "forward": Position.FORWARD,
    "forward-center": Position.FORWARD_CENTER,
    "center-forward": Position.FORWARD_CENTER,
    "center": Position.CENTER,
}

_POSITION_INDEX = {p: i for i, p in enumerate(POSITION_ORDER)}


class ParseError(ValueError):
    """Malformed input row; carries the offending row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row, self.reason = row, message

    def __reduce__(self):
        return type(self), (self.row, self.reason)


class IngestError(ValueError):
    """Inconsistent or insufficient player data after parsing."""


@dataclass(frozen=True)
class CourtSpec:
    """Offensive half-court extent in feet.

    width runs sideline to sideline, depth baseline to mid-court.
    """

    width: float = 50.0
    depth: float = 47.0

    def __post_init__(self) -> None:
        if not (self.width > 0 and self.depth > 0):
            raise ValueError(f"court dimensions must be positive, got {self.width}x{self.depth}")


@dataclass(frozen=True, eq=False)
class ShotTable:
    """Shot events as columns, one entry per input row in input order.

    ``player`` and ``name`` are ``int32`` indices into the sorted ``player_ids``
    and ``player_names``, ``position`` an ``int8`` index into :data:`POSITION_ORDER`;
    ``x`` and ``y`` are float64 unit-square coordinates and ``made`` is the boolean
    outcome: 26 bytes a row.
    """

    player_ids: list[str]
    player_names: list[str]
    player: np.ndarray
    name: np.ndarray
    position: np.ndarray
    x: np.ndarray
    y: np.ndarray
    made: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def select(self, rows: np.ndarray) -> "ShotTable":
        """The rows picked by a boolean mask or an index array."""
        return replace(
            self,
            player=self.player[rows],
            name=self.name[rows],
            position=self.position[rows],
            x=self.x[rows],
            y=self.y[rows],
            made=self.made[rows],
        )


@dataclass
class PlayerRecord:
    """A retained player's attempts, split by outcome.

    Point arrays have shape (n, 2) and hold unit-square coordinates.
    """

    player_id: str
    player_name: str
    position: Position
    made_points: np.ndarray
    missed_points: np.ndarray

    @property
    def attempts(self) -> int:
        return len(self.made_points) + len(self.missed_points)


def normalize_point(x_ft, y_ft, court: CourtSpec = CourtSpec()):
    """Map court coordinates in feet (scalars or arrays) onto the unit square.

    Purely linear (x/width, y/depth); out-of-range inputs pass through
    unclamped so the exclusion step can drop them later.
    """
    return x_ft / court.width, y_ft / court.depth


#: Data rows the csv module splits per batch before they become columns;
#: it bounds the memory its per-row lists hold at a time.
_BATCH_ROWS = 1024

#: CSV bytes each parse process gets at least. On a 2-vCPU x86 VM two processes parse a
#: 0.7 MB export in the time one does (24 against 25 ms) and a 1 MB one in 31 ms against 42,
#: so two start from 1 MiB.
_BYTES_PER_WORKER = 1 << 19

#: Bytes read at a time while looking for range boundaries.
_SCAN_BYTES = 1 << 20

#: Points :func:`write_players_json` formats at a time: about 32 players of a paper-size export.
_WRITE_POINTS = 1 << 17

#: Rows :func:`filter_players` gathers into the sorted points at a time; it bounds the gather's temporaries.
_GATHER_ROWS = 1 << 16


class _TextColumn:
    """A text column, each row coded by its raw value as an ``int32``."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.codes = [np.zeros(0, dtype=np.int32)]

    def add(self, values: Sequence[str]) -> None:
        index = self.index
        for v in set(values).difference(index):
            index[v] = len(index)
        self.codes.append(np.fromiter(map(index.__getitem__, values), np.int32, len(values)))

    def coded(self, code=lambda j, value: j) -> tuple[list[str], np.ndarray]:
        """Sorted distinct stripped values and each row's ``code(j, value)`` for its value, value ``j`` of
        them (by default ``j``); the column's parts are freed as the codes are built."""
        raw = list(self.index)
        values = sorted({v.strip() for v in raw})
        index = {v: i for i, v in enumerate(values)}
        table = np.array([code(index[v.strip()], v.strip()) for v in raw], dtype=np.int32)
        codes = np.concatenate(self.codes)
        self.codes.clear()
        return values, table[codes]


class _NumberColumn:
    """A coordinate column converted by ``float``; rows it rejects hold NaN."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.parts = [np.zeros(0)]
        self.rows = 0
        self.rejected: dict[int, str] = {}

    def add(self, values: Sequence[str]) -> None:
        try:
            part = np.fromiter(map(float, values), float, len(values))
        except ValueError:
            part = np.full(len(values), np.nan)
            for i, raw in enumerate(values):
                try:
                    part[i] = float(raw)
                except ValueError:
                    self.rejected[self.rows + i] = raw
        self.parts.append(part)
        self.rows += len(values)

    def checked(self):
        """The values (NaN where ``float`` refused one) and the message for a row whose value is not
        finite; the column's parts are freed."""
        values = np.concatenate(self.parts)
        self.parts.clear()

        def message(i: int) -> str:
            if i in self.rejected:
                return f"non-numeric {self.name} {self.rejected[i].strip()!r}"
            return f"non-finite {self.name} {float(values[i])!r}"

        return values, message


def parse_events(text: str, court: CourtSpec = CourtSpec()) -> ShotTable:
    """Parse CSV text into a shot table with normalized coordinates.

    The text must start with the exact header
    ``player_id,player_name,position,x_ft,y_ft,made,season``. Fields are
    stripped, blank lines are skipped and rows keep their input order.
    Empty text yields an empty table. An invalid row (wrong field count,
    unknown position, non-numeric or non-finite coordinate, made flag
    other than 0/1) raises :class:`ParseError` carrying the file line
    number of the first such row; within a row the checks run in the
    order position, x_ft, y_ft, made.
    """
    reader, lines = csv.reader(io.StringIO(text, newline="")), _RowLines()
    _check_header(reader)
    return _read_rows(_csv_rows(reader, lines), lines, court)


def _check_header(reader: Iterator[list[str]]) -> None:
    """Read the header row, if there is one, and raise :class:`ParseError` unless it names :data:`CSV_FIELDS`."""
    if (header := next(reader, None)) is not None and [h.strip() for h in header] != list(CSV_FIELDS):
        raise ParseError(1, f"expected header {','.join(CSV_FIELDS)!r}, got {','.join(header)!r}")


class _RowLines:
    """The source line of each row a row source hands over, noted only where it does not follow the
    line of the row before by one: after a blank line or a quoted line break, and at the first row.

    Row ``i``'s line is ``i + shift``, with the shift noted at the last row at or before ``i``, found
    by bisection. The notes are kept as machine integers, which add no Python object to the heap the
    rows are freed from; an export with neither blank lines nor quoted line breaks needs one.
    """

    def __init__(self) -> None:
        self.rows, self.shifts = array("q"), array("q")

    def note(self, row: int, line: int) -> None:
        self.rows.append(row)
        self.shifts.append(line - row)

    def __getitem__(self, row: int) -> int:
        return row + self.shifts[bisect.bisect_right(self.rows, row) - 1]


def _csv_rows(reader, lines: _RowLines) -> Iterator[list[str]]:
    """The non-blank rows of the csv ``reader``; the line of the reader's source, counted from where the
    reader began, on which each ends is noted in ``lines`` where it does not follow the row before's."""
    shift = None
    for i, row in enumerate(filter(None, reader)):  # blank lines are tolerated
        if reader.line_num - i != shift:
            shift = reader.line_num - i
            lines.note(i, reader.line_num)
        yield row


def _read_rows(source: Iterable[Sequence[str]], lines: _RowLines, court: CourtSpec) -> ShotTable:
    """Data rows as a table; an invalid row raises :class:`ParseError` at its line.

    The row source notes the rows' lines in ``lines`` as it hands the rows over, so row ``i`` is
    located as ``lines[i]`` without reading the source twice.
    """
    reader = iter(source)
    ids, names, labels, flags = _TextColumn(), _TextColumn(), _TextColumn(), _TextColumn()
    xs, ys = _NumberColumn("x_ft"), _NumberColumn("y_ft")
    wrong_count = None  # (data row index, field count) of the first row without seven fields
    while wrong_count is None and (rows := list(islice(reader, _BATCH_ROWS))):
        if set(map(len, rows)) != {len(CSV_FIELDS)}:
            i = next(i for i, row in enumerate(rows) if len(row) != len(CSV_FIELDS))
            # rows above it may still hold an invalid value, reported first
            wrong_count = (xs.rows + i, len(rows[i]))
            rows = rows[:i]
        if rows:
            for column, values in zip((ids, names, labels, xs, ys, flags), zip(*rows)):
                column.add(values)

    # each column is coded as its parts are freed, then checked and narrowed to the type the table
    # stores. A check keeps only its first failing row and that row's message; an invalid label or
    # flag, value j of its column, is coded ~j < 0, so its message needs no second copy of the column
    failures = []  # (row, place of the check in the order position, x_ft, y_ft, made, message)

    def check(place: int, bad: np.ndarray, message) -> None:
        if bad.any():
            i = int(np.argmax(bad))
            failures.append((i, place, message(i)))

    player_ids, player = ids.coded()
    player_names, name = names.coded()
    label_values, position = labels.coded(lambda j, v: _POSITION_INDEX.get(_POSITION_ALIASES.get(v.lower()), ~j))
    check(0, position < 0, lambda i: f"unknown position label {label_values[~position[i]]!r}")
    position = position.astype(np.int8)  # the valid codes fit; a table with an invalid one is not returned
    flag_values, outcome = flags.coded(lambda j, v: {"0": 0, "1": 1}.get(v, ~j))
    check(3, outcome < 0, lambda i: f"made flag must be 0 or 1, got {flag_values[~outcome[i]]!r}")
    made = outcome == 1
    del outcome
    x_ft, x_message = xs.checked()
    check(1, ~np.isfinite(x_ft), x_message)
    y_ft, y_message = ys.checked()
    check(2, ~np.isfinite(y_ft), y_message)
    if failures:  # the first failing row; within it, the first check in order
        i, _, message = min(failures)
        raise ParseError(lines[i], message)
    if wrong_count is not None:
        i, count = wrong_count
        raise ParseError(lines[i], f"expected {len(CSV_FIELDS)} fields, got {count}")
    np.divide(x_ft, court.width, out=x_ft)  # normalize_point, in place
    np.divide(y_ft, court.depth, out=y_ft)
    return ShotTable(player_ids, player_names, player, name, position, x_ft, y_ft, made)


def parse_events_json(text: str, court: CourtSpec = CourtSpec()) -> ShotTable:
    """Parse a JSON array of shot objects, each with exactly the CSV columns as keys.

    Each object is read as the CSV row of its values' ``str``, so the CSV rules
    hold, except that ``made`` may also be ``true`` or ``false``. Row numbers in
    errors are 1-based positions within the array; an element that is not such
    an object is reported after any invalid value above it, as a short CSV row is.
    The objects are decoded one at a time, and a syntax error anywhere in the
    document is raised before any invalid value or element.
    """
    try:
        # integer digits reach the row checks as the CSV text would
        elements = _json_array(text, json.JSONDecoder(parse_int=str))
    except TypeError:
        raise ParseError(1, "expected a JSON array of shot objects") from None
    stray = []  # the index of the first element that is not a shot object, once one is met
    lines = _RowLines()
    lines.note(0, 1)  # each element's row number is its 1-based position

    def shot_rows() -> Iterator[list[str]]:
        for i, obj in enumerate(elements):
            if not isinstance(obj, dict) or set(obj) != set(CSV_FIELDS):
                stray.append(i)
                for _ in elements:  # a syntax error further down is still raised first
                    pass
                return
            row = {k: str(v) for k, v in obj.items()}
            if isinstance(obj["made"], bool):
                row["made"] = str(int(obj["made"]))
            yield [row[k] for k in CSV_FIELDS]

    table = _read_rows(shot_rows(), lines, court)
    if stray:
        raise ParseError(stray[0] + 1, f"expected an object with keys {','.join(CSV_FIELDS)}")
    return table


def _json_array(text: str, decoder: json.JSONDecoder) -> Iterator:
    """The elements of the JSON array ``text``, each decoded by ``decoder`` when it is asked for.

    Whitespace is skipped and faults are reported as ``json.loads`` does: text it refuses
    raises its ``json.JSONDecodeError``, with the same message and position, once the
    element holding the fault is reached. A document that ``json.loads`` reads as a value
    other than an array is decoded whole and raises ``TypeError`` before any element.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    skip = json.decoder.WHITESPACE.match
    start = skip(text).end()
    if not text.startswith("[", start):
        decoder.decode(text)  # text that json.loads refuses raises its error first
        raise TypeError("the top-level JSON value is not an array")

    def elements(pos: int) -> Iterator:
        # the regex runs only where whitespace is (the empty string at the end of the text counts as some)
        raw_decode, spaces = decoder.raw_decode, json.decoder.WHITESPACE_STR
        if not text.startswith("]", pos):
            while True:
                value, pos = raw_decode(text, pos)
                yield value
                if text[pos:pos + 1] in spaces:
                    pos = skip(text, pos).end()
                if text.startswith("]", pos):
                    break
                if not text.startswith(",", pos):
                    raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
                pos += 1
                if text[pos:pos + 1] in spaces:
                    pos = skip(text, pos).end()
        end = skip(text, pos + 1).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)

    return elements(skip(text, start + 1).end())


def load_events(path: str | Path, court: CourtSpec = CourtSpec(), max_workers: int | None = None) -> ShotTable:
    """Load shot events from a CSV or JSON file, dispatching on suffix.

    A CSV file is parsed by at most one process per core and per ``_BYTES_PER_WORKER`` bytes, and at
    most ``max_workers`` (None: no cap; :func:`court_fda.native.share_count`), each streaming one
    line-aligned byte range of it (:func:`_range_bounds`) as strict UTF-8, row batch by row batch
    (:func:`_read_range`): range 0 in the caller, the others in processes forked from it
    (:func:`court_fda.native.run_shares`). Their tables are joined in file order into the table one
    process gives. The first failing range in file order raises, with the file line one process
    reports. One process also reads on past an invalid value, so it reports an undecodable byte
    further down instead; split, that byte is reported only when no earlier range fails. A JSON
    file is decoded by one process.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return parse_events_json(path.read_bytes().decode("utf-8"), court)
    size = path.stat().st_size
    bounds = _range_bounds(path, size, share_count(size, _BYTES_PER_WORKER, max_workers, size))
    return _join(run_shares(functools.partial(_read_range, path, bounds, court), len(bounds) - 1, "parse"))


def _range_bounds(path: Path, size: int, parts: int) -> list[int]:
    """Offsets ``0 = b_0 < ... < b_k = size`` of at most ``parts`` line-aligned byte ranges of the file.

    ``b_j`` is the byte just past the first newline at or after ``size * j // parts``. It is
    kept only if no quote byte comes before it, since a quoted field may hold a line break,
    and a range that would be empty is dropped. One range is the whole file, which is not read
    here, so a pipe can be parsed.
    """
    if parts == 1:
        return [0, size]
    bounds = [0]
    with path.open("rb") as fh:
        for j in range(1, parts):
            fh.seek(start := size * j // parts)
            cut = _find(fh, b"\n", start, size)
            if cut + 1 >= size:
                break
            if cut + 1 > bounds[-1]:
                bounds.append(cut + 1)
        if len(bounds) > 1:
            fh.seek(0)
            quote = _find(fh, b'"', 0, bounds[-1])
            bounds = [b for b in bounds if b <= quote]
    return bounds + [size]


def _find(fh: BinaryIO, byte: bytes, start: int, stop: int) -> int:
    """Offset of the first ``byte`` at or after ``start`` (where ``fh`` stands) and before ``stop``, else ``stop``."""
    while start < stop:
        chunk = fh.read(min(_SCAN_BYTES, stop - start))
        if not chunk:
            break
        if (at := chunk.find(byte)) >= 0:
            return start + at
        start += len(chunk)
    return stop


class _ByteRange(io.RawIOBase):
    """The next ``count`` bytes of the binary file ``fh``, read from it in place."""

    def __init__(self, fh: BinaryIO, count: int) -> None:
        self.fh, self.left = fh, count

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.fh.readinto(memoryview(buffer)[:self.left])
        self.left -= count
        return count


def _read_range(path: Path, bounds: list[int], court: CourtSpec, share: int) -> ShotTable:
    """The table of byte range ``bounds[share]:bounds[share + 1]`` of the CSV file ``path``.

    The range is read once, as strict UTF-8 text with line ends kept. The ``last`` range is
    read by the io module's own buffered reader, which the text layer checks faster per line
    than a bounded one, and a pipe, always one range, is read from where it stands. Only range 0
    holds the header. An invalid row raises :class:`ParseError` at its file line: its line
    within the range plus the lines before the range, counted on this error path alone, which
    no quoted line break comes before since no range starts after a ``"`` byte. An undecodable
    byte raises one at its own line: the lines the csv reader has taken, plus the line ends in the
    input the decoder failed on, up to that byte, and in a ``\r`` held back before it (:func:`_held_back`).
    The C heap is trimmed before the table is returned.
    """
    start, stop = bounds[share], bounds[share + 1]
    try:
        with path.open("rb") as fh:
            if start:  # a pipe cannot seek even to 0
                fh.seek(start)
            raw = fh if stop == bounds[-1] else _ByteRange(fh, stop - start)
            with io.TextIOWrapper(raw, encoding="utf-8", newline="") as source:
                reader, lines = csv.reader(source), _RowLines()
                try:
                    if share == 0:
                        _check_header(reader)
                    table = _read_rows(_csv_rows(reader, lines), lines, court)
                except UnicodeDecodeError as exc:
                    seen = _held_back(fh, len(exc.object)) + exc.object[:exc.start]
                    ends = seen.count(b"\n") + seen.count(b"\r") - seen.count(b"\r\n")  # as the csv module splits
                    message = f"'utf-8' codec can't decode byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
                    raise ParseError(reader.line_num + ends + 1, message) from None
    except ParseError as exc:
        if not start:
            raise
        raise ParseError(_lines(path, start) + exc.row, exc.reason) from None
    trim_heap()  # the row batches and column parts are freed; hand their pages back before the table is joined or sent
    return table


def _held_back(fh: BinaryIO, count: int) -> bytes:
    """The byte before the last ``count`` bytes read from ``fh`` if it is a ``\\r``, which a text reader holds
    back until it sees whether ``\\n`` follows, else ``b""``; a pipe cannot seek back, so there also ``b""``."""
    try:
        fh.seek(fh.tell() - count - 1)  # raises for a pipe, and before the first byte
        return b"\r" if fh.read(1) == b"\r" else b""
    except OSError:
        return b""


def _lines(path: Path, count: int) -> int:
    """Lines in the first ``count`` bytes of the file ``path``, split as the csv module splits them:
    at each ``\\n``, ``\\r\\n`` or bare ``\\r``."""
    with path.open("rb") as fh, io.TextIOWrapper(_ByteRange(fh, count), encoding="latin-1", newline="") as text:
        return sum(1 for _ in text)


def _join(tables: list[ShotTable]) -> ShotTable:
    """The rows of ``tables`` in order, as one table over the union of their players and names.

    The list is emptied, and each column's parts are dropped once they are joined, so no more
    than one column is held twice.
    """
    if len(tables) == 1:
        return tables[0]
    columns = {c: [getattr(t, c) for t in tables] for c in ("player", "name", "position", "x", "y", "made")}
    coded = {"player": [t.player_ids for t in tables], "name": [t.player_names for t in tables]}
    tables.clear()
    merged = {}
    for c, value_lists in coded.items():
        merged[c] = sorted(set().union(*value_lists))
        index = {v: i for i, v in enumerate(merged[c])}
        parts = columns[c]
        for j, values in enumerate(value_lists):
            parts[j] = np.array([index[v] for v in values], dtype=np.int32)[parts[j]]
    joined = {}
    for c, parts in columns.items():
        joined[c] = np.concatenate(parts)
        parts.clear()
    return ShotTable(merged["player"], merged["name"], **joined)


def in_court(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether each unit-square point ``(x[i], y[i])`` lies on the court; boundary points do."""
    return (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)


def exclude_impossible(events: ShotTable) -> ShotTable:
    """Drop attempts outside the unit square (:func:`in_court`); boundary points stay in."""
    return events.select(in_court(events.x, events.y))


def filter_players(
    events: ShotTable, min_attempts: int = 1000, in_bounds: np.ndarray | None = None
) -> list[PlayerRecord]:
    """Group events by player and keep players with more than min_attempts.

    The comparison is strict: a player with exactly min_attempts attempts
    is dropped. Output is sorted by player_id, and each player's points
    keep their input order. A player's name and position come from their
    first row; a later row with another position is rejected. A player
    whose retained attempts are all made or all missed is rejected, since
    a density cannot be estimated from an empty point set.

    With ``in_bounds``, a boolean mask over the rows (:func:`in_court`), only the rows it marks
    count: the result, or the error, is that of ``filter_players(events.select(in_bounds))``, and
    the grouping's one stable sort leaves the other rows out, so no second table is built. The C
    heap is trimmed before the points are gathered, so they do not land on top of the pages the
    sort freed.
    """
    if min_attempts < 1:
        raise ValueError(f"min_attempts must be at least 1, got {min_attempts}")
    players = len(events.player_ids)
    # one stable sort puts each player's made points, then missed points, in input order, and the rows
    # out of bounds, keyed past the last player, after them all
    key = 2 * events.player + ~events.made
    if in_bounds is not None:
        key[~in_bounds] = 2 * players
    order = np.argsort(key, kind="stable").astype(np.min_scalar_type(len(key)))  # the narrowest type of a row number
    bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=2 * players + 1))))
    del key  # freed before the points are gathered
    order = order[:bounds[2 * players]]  # the in-bounds rows
    # a player's first row is the least row number of their run; a player with no row is not present
    present = np.flatnonzero(bounds[2:2 * players + 1:2] > bounds[:2 * players:2])
    first = np.minimum.reduceat(order, bounds[2 * present]) if present.size else present
    labelled = np.zeros(players, dtype=events.position.dtype)
    labelled[present] = events.position[first]
    wrong = events.position != labelled[events.player]
    if in_bounds is not None:
        wrong &= in_bounds
    conflicts = np.flatnonzero(wrong)
    del wrong
    if conflicts.size:
        row = conflicts[0]
        p = events.player[row]
        start = first[np.searchsorted(present, p)]
        raise IngestError(
            f"conflicting position labels for player {events.player_ids[p]} "
            f"({events.player_names[events.name[start]]}): "
            f"{POSITION_ORDER[labelled[p]].value} vs {POSITION_ORDER[events.position[row]].value}"
        )
    trim_heap()
    points = np.empty((len(order), 2))  # filled a slice of rows at a time: no whole-column temporary
    for lo in range(0, len(order), _GATHER_ROWS):
        rows = order[lo:lo + _GATHER_ROWS]
        points[lo:lo + len(rows), 0] = events.x[rows]
        points[lo:lo + len(rows), 1] = events.y[rows]
    records: list[PlayerRecord] = []
    for p, row in zip(present.tolist(), first.tolist()):
        lo, mid, hi = bounds[2 * p], bounds[2 * p + 1], bounds[2 * p + 2]
        if hi - lo <= min_attempts:
            continue
        pid, name = events.player_ids[p], events.player_names[events.name[row]]
        for side, count in (("made", mid - lo), ("missed", hi - mid)):
            if count == 0:
                raise IngestError(f"player {pid} ({name}) has no {side} shots; cannot estimate a density")
        position = POSITION_ORDER[events.position[row]]
        records.append(PlayerRecord(pid, name, position, points[lo:mid], points[mid:hi]))
    return records


def write_players_json(records: Sequence[PlayerRecord], path: str | Path) -> None:
    """Write player records (with point lists) as one deterministic JSON array.

    The bytes are those of the compact, key-sorted encoding of the whole list in one
    call. Players are formatted and written in consecutive chunks of at most
    ``_WRITE_POINTS`` points, at least one player each, so the writer holds one chunk's
    cells. Within a chunk each distinct coordinate is formatted once: coordinates are
    keyed by their bit patterns, so ``-0.0`` and ``0.0`` stay apart, and each point list
    is gathered from the formatted values and joined.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("[")
        for lo, hi in _chunk_bounds([r.attempts for r in records], _WRITE_POINTS):
            chunk = records[lo:hi]
            fields = [np.asarray(p, dtype=float).reshape(-1, 2) for r in chunk for p in (r.made_points, r.missed_points)]
            cells = _point_cells(np.concatenate([np.zeros((0, 2)), *fields]))
            ends = np.cumsum([0] + [len(f) for f in fields]).tolist()
            for i, r in enumerate(chunk):
                made, missed = (_point_list(cells[ends[j]:ends[j + 1]]) for j in (2 * i, 2 * i + 1))
                names = {"player_id": r.player_id, "player_name": r.player_name, "position": r.position.value}
                tail = json.dumps(names, sort_keys=True, separators=(",", ":"))[1:]
                fh.write(("," if lo + i else "") + '{"made_points":' + made + ',"missed_points":' + missed + "," + tail)
        fh.write("]\n")


def _chunk_bounds(sizes: Sequence[int], limit: int) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` of consecutive runs of ``sizes`` that sum to at most ``limit``, or of one item each that does not."""
    lo = total = 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > limit:
            yield lo, i
            lo, total = i, 0
        total += size
    if lo < len(sizes):
        yield lo, len(sizes)


def _point_cells(points: np.ndarray) -> np.ndarray:
    """The JSON text cells of (n, 2) ``points``: an x cell is the bare value, and a y cell
    closes its point and opens the next one."""
    bits, codes = np.unique(points.view(np.uint64), return_inverse=True)
    values = bits.view(float)
    text = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        text[i] = json.dumps(values[i])  # NaN, Infinity or -Infinity
    codes = codes.reshape(-1, 2)
    y_used = np.zeros(len(text), dtype=bool)
    y_used[codes[:, 1]] = True
    y_cells = np.empty(len(text), dtype=object)
    y_cells[y_used] = [f",{text[i]}],[" for i in np.flatnonzero(y_used).tolist()]
    cells = np.empty(codes.shape, dtype=object)
    cells[:, 0] = np.fromiter(text, dtype=object, count=len(text))[codes[:, 0]]
    cells[:, 1] = y_cells[codes[:, 1]]
    return cells


def _point_list(cells: np.ndarray) -> str:
    """JSON text of the points whose x and y cells are the rows of ``cells``."""
    text = "".join(cells.ravel().tolist())
    return "[[" + text[:-2] + "]" if text else "[]"


class PlayersFileError(ValueError):
    """A players file that is not what :func:`write_players_json` writes, or lacks a player that is needed."""


def read_players_json(path: str | Path, player_ids: Sequence[str] | None = None) -> list[PlayerRecord]:
    """Inverse of :func:`write_players_json`; with ``player_ids``, only those players, in that order.

    Raises :class:`PlayersFileError` for a document that is not a JSON array, a missing
    key, an unknown position, a point list that is not n x 2 or holds a coordinate that
    is not a finite number, a player id listed twice, or a requested player that the
    file does not hold. Players are decoded and checked one at a time, so a fault in a
    player is reported before a syntax error further down the file.
    """
    try:
        records = {}
        for obj in _json_array(Path(path).read_text(encoding="utf-8"), json.JSONDecoder()):
            pid = str(obj["player_id"])
            if pid in records:
                raise ValueError(f"player {pid!r} is listed twice")
            made, missed = (_point_array(obj[k], f"player {pid!r} {k}") for k in ("made_points", "missed_points"))
            records[pid] = PlayerRecord(pid, str(obj["player_name"]), Position(obj["position"]), made, missed)
        if player_ids is None:
            return list(records.values())
        missing = [pid for pid in player_ids if pid not in records]
        if missing:
            raise ValueError(f"player {missing[0]!r} is not in the file")
        return [records[pid] for pid in player_ids]
    except KeyError as exc:
        raise PlayersFileError(f"players file {path}: a player has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise PlayersFileError(f"players file {path}: {exc}") from exc


def _point_array(cells, name: str) -> np.ndarray:
    points = np.array(cells, dtype=float)
    if points.size and points.shape[1:] != (2,):
        raise ValueError(f"{name} has shape {points.shape}, not (n, 2)")
    if not set(map(type, chain.from_iterable(cells))) <= {int, float}:  # numpy reads "0.5" and true too
        raise ValueError(f"{name} holds a coordinate that is not a number")
    if not np.isfinite(points).all():
        raise ValueError(f"{name} holds a non-finite coordinate")
    return points.reshape(-1, 2)
