"""Mutations of the array files a stage chain leaves, each refused by every subcommand that reads it.

Every mutation of a players, density, model, scores or clustering file must exit with the reading subcommand's
documented code, name the fault instead of raising, create no ``--out``, and stay small: the loaders check
an ``.npy`` header against the file's size before they allocate the array it describes, so a
header that claims terabytes costs nothing. The peak is taken with ``tracemalloc``, which numpy
reports its array buffers to, so a host that overcommits memory cannot hide an allocation.
"""

import json
import shutil
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from court_fda.cli import main
from court_fda.fda import ModelFileError, load_model
from court_fda.ingest import PlayersFileError, read_players_json
from court_fda.pipeline import (
    ClustersFileError,
    DensityFileError,
    ScoresFileError,
    read_clusters_json,
    read_densities,
    read_scores_csv,
)

HUGE_GRID = {"nx": 100_000, "ny": 100_000}  # the fixture's 12 players' stack on it would take 1.75 TiB

PEAK_LIMIT = 16 << 20


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """The bundled fixture's stage chain on an 11 x 11 grid, up to a two-component model and a clustering."""
    work = tmp_path_factory.mktemp("fixture") / "work"
    shots = Path(str(resources.files("court_fda").joinpath("data/fixture_shots.csv")))
    assert run_cli("ingest", "--input", shots, "--out", work) == 0
    assert run_cli("density", "--players", work / "players.json", "--out", work, "--grid", 11) == 0
    assert run_cli("mfpca", "fit", "--densities", work, "--out", work, "--components", 2) == 0
    assert run_cli("cluster", "--scores", work / "scores.csv", "--k", 2, "--out", work) == 0
    return work


def edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def json_edit(name, edit):
    """The mutation that applies ``edit`` to the JSON document ``name`` of a work directory."""
    return lambda work: edit_json(work / name, edit)


def npy_edit(name, edit):
    """The mutation that replaces the array ``name`` of a work directory by ``edit`` of it."""
    return lambda work: np.save(work / name, edit(np.load(work / name)))


def truncation(name):
    """The mutation that cuts the file ``name`` of a work directory to half its length."""

    def mutate(work):
        data = (work / name).read_bytes()
        (work / name).write_bytes(data[: len(data) // 2])

    return mutate


def csv_edit(name, edit):
    """The mutation that applies ``edit`` to the rows (lists of fields, the header first) of the CSV file ``name``."""

    def mutate(work):
        rows = [line.split(",") for line in (work / name).read_text().splitlines()]
        edit(rows)
        (work / name).write_text("".join(",".join(row) + "\n" for row in rows))

    return mutate


def set_first(values, value):
    values.flat[0] = value  # the first player's row, which export player reads
    return values


def oversize(name, rows, descriptor):
    """The mutation that gives ``name`` a header claiming ``rows`` on :data:`HUGE_GRID` over a 64-byte body,
    and ``descriptor`` that grid."""

    def mutate(work):
        with (work / name).open("wb") as fh:
            shape = (*rows, HUGE_GRID["nx"], HUGE_GRID["ny"])
            np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
            fh.write(bytes(64))
        edit_json(work / descriptor, lambda doc: doc.__setitem__("grid", HUGE_GRID))

    return mutate


PLAYERS, META, MISSED = "players.json", "densities_meta.json", "densities_missed.npy"
MODEL, FUNCTIONS, SCORES = "model.json", "model_functions.npy", "scores.csv"
CLUSTERS = "clusters_equal.json"

#: file -> mutation -> edit of the work directory
MUTATIONS = {
    PLAYERS: {
        "drop a key": json_edit(PLAYERS, lambda doc: doc[0].pop("position")),
        "repeat an id": json_edit(PLAYERS, lambda doc: doc[1].__setitem__("player_id", doc[0]["player_id"])),
        "retype a value": json_edit(PLAYERS, lambda doc: doc[0]["made_points"][0].__setitem__(0, "0.5")),
        "non-finite": json_edit(PLAYERS, lambda doc: doc[0]["made_points"][0].__setitem__(0, np.inf)),
        "truncate": truncation(PLAYERS),
    },
    META: {
        "drop a key": json_edit(META, lambda doc: doc.pop("player_ids")),
        "repeat an id": json_edit(META, lambda doc: doc["player_ids"].__setitem__(1, doc["player_ids"][0])),
        "retype a value": json_edit(META, lambda doc: doc["grid"].__setitem__("nx", "11")),
        "non-finite": json_edit(META, lambda doc: doc["grid"].__setitem__("nx", np.nan)),
        "non-integer node count": json_edit(META, lambda doc: doc["grid"].__setitem__("nx", 11.0)),
        "truncate": truncation(META),
        "oversized header": json_edit(META, lambda doc: doc.__setitem__("grid", HUGE_GRID)),
    },
    MISSED: {
        "retype a value": npy_edit(MISSED, lambda a: a.astype(np.float32)),
        "non-finite": npy_edit(MISSED, lambda a: set_first(a, np.inf)),
        "truncate": truncation(MISSED),
        "oversized header": oversize(MISSED, (12,), META),
        "fortran order": npy_edit(MISSED, np.asfortranarray),
    },
    MODEL: {
        "drop a key": json_edit(MODEL, lambda doc: doc.pop("eigenvalues")),
        "repeat an id": json_edit(MODEL, lambda doc: doc["player_ids"].__setitem__(1, doc["player_ids"][0])),
        "retype a value": json_edit(MODEL, lambda doc: doc.__setitem__("n_samples", "12")),
        "non-finite": json_edit(MODEL, lambda doc: doc["eigenvalues"].__setitem__(0, np.nan)),
        "truncate": truncation(MODEL),
        "oversized header": json_edit(MODEL, lambda doc: doc.__setitem__("grid", HUGE_GRID)),
    },
    FUNCTIONS: {
        "retype a value": npy_edit(FUNCTIONS, lambda a: a.astype(np.float32)),
        "non-finite": npy_edit(FUNCTIONS, lambda a: set_first(a, np.nan)),
        "truncate": truncation(FUNCTIONS),
        "oversized header": oversize(FUNCTIONS, (3, 2), MODEL),
        "fortran order": npy_edit(FUNCTIONS, np.asfortranarray),
    },
    SCORES: {
        "drop a column": csv_edit(SCORES, lambda rows: [row.pop(1) for row in rows]),
        "repeat an id": csv_edit(SCORES, lambda rows: rows[2].__setitem__(0, rows[1][0])),
        "retype a value": csv_edit(SCORES, lambda rows: rows[1].__setitem__(1, "high")),
        "non-finite": csv_edit(SCORES, lambda rows: rows[1].__setitem__(2, "inf")),
        "truncate": truncation(SCORES),  # the cut leaves a last row that reads as whole: "p06,-0.96...,1.156..."
    },
    CLUSTERS: {
        "drop a key": json_edit(CLUSTERS, lambda doc: doc.pop("total_cost")),
        "repeat an id": json_edit(CLUSTERS, lambda doc: doc["players"][1].__setitem__(
            "player_id", doc["players"][0]["player_id"])),
        "retype a value": json_edit(CLUSTERS, lambda doc: doc["medoids"].__setitem__(0, str(doc["medoids"][0]))),
        "non-finite": json_edit(CLUSTERS, lambda doc: doc.__setitem__("total_cost", np.nan)),
        "truncate": truncation(CLUSTERS),
    },
}


def read_every_density(work):
    """Every field of a density set: the stack is a handle on its files, so a value is checked where it is read."""
    stack = read_densities(work)
    return stack.rows(stack.player_ids)


def players_readers(work, player):
    scores = work / "scores.csv"
    return [
        (["density", "--players", work / PLAYERS, "--grid", 11], 3),
        (["cluster", "--scores", scores, "--k", 2, "--players", work / PLAYERS], 5),
        (["evaluate", "--clusters", work / "clusters_equal.json", "--against", "nba", "--scores", scores,
          "--players", work / PLAYERS], 6),
    ]


def density_readers(work, player):
    return [
        (["mfpca", "fit", "--densities", work, "--components", 2], 4),
        (["bootstrap", "--densities", work, "--model", work / "model.json"], 7),
        (["export", "player", "--player", player, "--model", work / "model.json", "--densities", work], 8),
        (["export", "densities", "--densities", work], 8),
    ]


def model_readers(work, player):
    return [
        (["bootstrap", "--densities", work, "--model", work / "model.json"], 7),
        (["export", "player", "--player", player, "--model", work / "model.json", "--densities", work], 8),
        (["export", "mean", "--model", work / "model.json"], 8),
    ]


def scores_readers(work, player):
    clusters = work / "clusters_equal.json"
    return [
        (["cluster", "--scores", work / SCORES, "--k", 2], 5),
        (["evaluate", "--clusters", clusters, "--against", clusters, "--scores", work / SCORES], 6),
    ]


def clusters_readers(work, player):
    return [
        (["evaluate", "--clusters", work / CLUSTERS, "--against", "nba", "--scores", work / SCORES,
          "--players", work / PLAYERS], 6),
        (["export", "medoids", "--clusters", work / CLUSTERS, "--densities", work], 8),
    ]


#: file -> its loader, the error that loader raises, and the subcommands that read the file
LOADERS = {
    PLAYERS: (lambda work: read_players_json(work / PLAYERS), PlayersFileError, players_readers),
    META: (read_every_density, DensityFileError, density_readers),
    MISSED: (read_every_density, DensityFileError, density_readers),
    MODEL: (lambda work: load_model(work / MODEL), ModelFileError, model_readers),
    FUNCTIONS: (lambda work: load_model(work / MODEL), ModelFileError, model_readers),
    SCORES: (lambda work: read_scores_csv(work / SCORES), ScoresFileError, scores_readers),
    CLUSTERS: (lambda work: read_clusters_json(work / CLUSTERS), ClustersFileError, clusters_readers),
}


@pytest.mark.parametrize("name, mutation", [(name, m) for name, table in MUTATIONS.items() for m in table])
def test_a_mutated_array_file_is_refused_by_every_reader(staged, tmp_path, capsys, name, mutation):
    work = tmp_path / "work"
    shutil.copytree(staged, work)
    player = json.loads((work / "densities_meta.json").read_text())["player_ids"][0]
    MUTATIONS[name][mutation](work)
    loader, error, readers = LOADERS[name]
    with pytest.raises(error):
        loader(work)
    for argv, code in readers(work, player):
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--out", out) == code, argv
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
        assert peak < PEAK_LIMIT, (argv, peak)
        assert not out.exists(), argv


@pytest.mark.parametrize("nx", [11.0, 201.0])
def test_a_node_count_that_is_not_an_integer_is_named(staged, tmp_path, capsys, nx):
    # 11.0 equals the arrays' node count, so only the type check can refuse it
    work = tmp_path / "work"
    shutil.copytree(staged, work)
    edit_json(work / META, lambda doc: doc["grid"].__setitem__("nx", nx))
    with pytest.raises(DensityFileError, match=f"grid node count nx must be an integer, got {nx}"):
        read_densities(work)
    assert run_cli("mfpca", "fit", "--densities", work, "--out", tmp_path / "out", "--components", 2) == 4
    assert f"grid node count nx must be an integer, got {nx}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
