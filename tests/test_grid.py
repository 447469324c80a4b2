"""Grid geometry, request-model validation, and model serialization."""

import csv
import io
import itertools
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchlab import csvblocks
from dispatchlab.errors import SchemaError
from dispatchlab.grid import (
    PROB_TOL,
    RequestModel,
    build_grid,
    check_hotspot,
    distance_weights,
    manhattan_distance,
    request_model_from_pairs,
    uniform_request_model,
)
from oracles import request_model_from_csv_rows


def test_index_coords_roundtrip():
    g = build_grid(3, 4)
    for u in range(g.n):
        assert g.index(*g.coords(u)) == u


def test_neighbors_clockwise_from_north():
    g = build_grid(3, 3)
    # center cell has all four neighbors in N, E, S, W order
    assert g.neighbors(4) == (1, 5, 7, 3)
    # top-left corner keeps only E and S, in clockwise order
    assert g.neighbors(0) == (1, 3)
    # bottom edge drops S
    assert g.neighbors(7) == (4, 8, 6)


def test_closed_neighborhood_contains_self_first():
    g = build_grid(2, 2)
    assert g.closed_neighborhood(0) == (0, 1, 2)
    assert g.closed_neighborhood(3) == (3, 1, 2)


def test_neighbor_toward_and_direction_between():
    g = build_grid(3, 3)
    assert g.neighbor_toward(4, "N") == 1
    assert g.neighbor_toward(0, "N") is None
    assert g.neighbor_toward(0, "W") is None
    assert g.direction_between(4, 5) == "E"
    assert g.direction_between(4, 1) == "N"
    with pytest.raises(ValueError):
        g.direction_between(0, 8)


#: Every grid from 1x1 to 6x6, one-wide ones included.
SMALL_GRIDS = [(r, c) for r in range(1, 7) for c in range(1, 7)]

#: (row, col) step of each compass direction, row 0 being the northernmost.
STEPS = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}


@pytest.mark.parametrize("shape", SMALL_GRIDS, ids="{0[0]}x{0[1]}".format)
def test_neighbor_queries_match_coordinates(shape):
    g = build_grid(*shape)
    rows, cols = shape
    for u in range(g.n):
        r, c = divmod(u, cols)
        toward = {d: (r + dr) * cols + c + dc if 0 <= r + dr < rows and 0 <= c + dc < cols else None
                  for d, (dr, dc) in STEPS.items()}
        want = tuple(k for k in toward.values() if k is not None)
        assert g.neighbors(u) == want and all(type(k) is int for k in want)
        assert g.closed_neighborhood(u) == (u, *want)
        for d, k in toward.items():
            got = g.neighbor_toward(u, d)
            assert got == k and type(got) is type(k)
        for v in range(g.n):
            if v in want:
                assert g.direction_between(u, v) == next(d for d, k in toward.items() if k == v)
            else:
                with pytest.raises(ValueError, match="not grid-adjacent"):
                    g.direction_between(u, v)
    with pytest.raises(ValueError):
        g.neighbor_toward(0, "X")  # an unknown direction
    with pytest.raises(ValueError):
        g.neighbors(g.n)


@pytest.mark.parametrize("shape", SMALL_GRIDS, ids="{0[0]}x{0[1]}".format)
def test_scan_table_is_the_per_cell_scan(shape):
    g = build_grid(*shape)
    for order in itertools.permutations("NESW"):
        for keep in (False, True):
            want = []
            for u in range(g.n):
                scan = [g.neighbor_toward(u, d) for d in order]
                if not keep:
                    scan = [k for k in scan if k is not None] + [None] * scan.count(None)
                want.append([u] + [-1 if k is None else k for k in scan])
            got = g.scan_table(order, keep_off_grid=keep)
            assert got.dtype == np.int64 and got.tolist() == want, (order, keep)


def test_manhattan_matches_coordinates():
    g = build_grid(4, 5)
    rng = np.random.default_rng(7)
    for _ in range(50):
        u, v = rng.integers(g.n, size=2)
        (r1, c1), (r2, c2) = g.coords(int(u)), g.coords(int(v))
        assert manhattan_distance(g, int(u), int(v)) == abs(r1 - r2) + abs(c1 - c2)


def test_degenerate_grids_rejected():
    with pytest.raises(ValueError):
        build_grid(0, 3)
    with pytest.raises(ValueError):
        build_grid(2, -1)


def test_single_cell_grid_has_no_neighbors():
    g = build_grid(1, 1)
    assert g.neighbors(0) == ()
    assert g.closed_neighborhood(0) == (0,)


def test_uniform_model_mass_and_weights():
    g = build_grid(2, 2)
    model = uniform_request_model(g, Fraction(1, 16), weights=1)
    assert model.exact
    assert model.total_mass == 1
    assert model.sum_w == 16


def test_uniform_model_distance_weights_default():
    g = build_grid(2, 2)
    model = uniform_request_model(g, 0.01)
    assert np.array_equal(model.w, distance_weights(g))
    assert model.w[0, 0] == 0
    assert model.w[0, 3] == 2


def test_overfull_mass_rejected():
    g = build_grid(2, 2)
    with pytest.raises(ValueError):
        uniform_request_model(g, 0.0626)  # 16 * p > 1
    with pytest.raises(ValueError):
        uniform_request_model(g, -0.01)


def test_paper_scale_uniform_mass_is_summed_exactly():
    # 231^2 entries of 1/231^2: a running float sum drifts to 1 + 1.2e-12
    model = uniform_request_model(build_grid(21, 11), 1 / 231**2)
    assert abs(model.total_mass - 1) <= PROB_TOL


def test_model_shape_and_negativity_validation():
    g = build_grid(1, 2)
    with pytest.raises(ValueError):
        RequestModel(g, np.zeros((3, 3)), np.zeros((3, 3)))
    p = np.zeros((2, 2))
    p[0, 1] = -0.1
    with pytest.raises(ValueError):
        RequestModel(g, p, np.zeros((2, 2)))
    w = np.zeros((2, 2))
    w[0, 0] = np.inf
    with pytest.raises(ValueError):
        RequestModel(g, np.zeros((2, 2)), w)


def test_model_from_pairs_and_hotspot():
    g = build_grid(2, 2)
    pairs = {(0, u): 0.05 for u in range(1, 4)}
    pairs.update({(u, 0): 0.05 for u in range(1, 4)})
    model = request_model_from_pairs(g, pairs, weights=1)
    assert check_hotspot(model) == 0
    # removing one return edge breaks the hotspot property
    pairs.pop((2, 0))
    assert check_hotspot(request_model_from_pairs(g, pairs, weights=1)) is None


def test_csv_roundtrip(tmp_path):
    g = build_grid(2, 2)
    model = uniform_request_model(g, 0.03, weights=2.5)
    path = tmp_path / "model.csv"
    model.to_csv(path)
    back = RequestModel.from_csv(path, g)
    assert np.allclose(back.p, model.p.astype(float))
    assert np.allclose(back.w, model.w.astype(float))


def test_csv_missing_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("origin,dest,p\n0,1,0.5\n")
    with pytest.raises(SchemaError):
        RequestModel.from_csv(path, build_grid(1, 2))


def test_csv_cells_checked_in_file_order(tmp_path):
    g = build_grid(2, 2)
    path = tmp_path / "model.csv"

    def load(*rows):
        path.write_text("origin,dest,p,w\n" + "".join(row + "\n" for row in rows))
        return RequestModel.from_csv(path, g)

    with pytest.raises(ValueError, match="location 7 outside grid with 4 cells"):
        load("0,1,0.1,1", "1,7,0.1,1", "-1,2,0.1,1")
    with pytest.raises(ValueError, match="location -1 outside"):  # origin before destination
        load("0,1,0.1,1", "-1,9,0.1,1")

    def refused(*rows):
        with pytest.raises(SchemaError) as info:
            load(*rows)
        return str(info.value)

    # an integer past int64 is a bad cell, not an off-grid one
    assert refused("0,1,0.1,1", "0," + "9" * 30 + ",0.1,1") == f"{path}: line 3: dest cell '{'9' * 30}' is not int64"
    # only a file read whole is checked against the grid, so a bad line decides before an off-grid cell
    assert refused("0,9,0.1,1", "0,x,0.1,1") == f"{path}: line 3: dest cell 'x' is not int64"
    assert refused("0,1,0.1,1", "0,x,0.1,1", "0,9,0.1,1") == f"{path}: line 3: dest cell 'x' is not int64"
    assert refused("0,1,0.1,1", "", "0,1,0.1") == f"{path}: line 4: short row, no w cell"
    model = load("0,1,0.1,2", "3,2,-0.0,5", "", "0,1,0.25,3")
    # a repeated cell keeps its last row; every other cell stays zero
    assert (model.p[0, 1], model.w[0, 1]) == (0.25, 3.0)
    assert np.signbit(model.p[3, 2]) and model.w[3, 2] == 5.0
    assert np.count_nonzero(model.p) == 1 and np.count_nonzero(model.w) == 2
    assert load().p.tolist() == np.zeros((4, 4)).tolist()


MODEL_HEADERS = [["origin", "dest", "p", "w"], ["w", "extra", "dest", "origin", "p"],
                 ["p", "origin", "dest", "p", "w"]]
GOOD_CELLS = ["0", "1", "2", "3"]
ODD_CELLS = ["-1", "4", "9" * 30, " 2", "+1", "1_0", "0x1", "1.0", "", "x", "\u0663"]
GOOD_VALUES = ["0.01", "0.25", "-0.0", "0", "1e-3", "3", "2.5"]
ODD_VALUES = ["x", "", " 0.5 ", "1_0", "inf", "nan", "1e999", "-0.1", "0x1p-3", "0.5\x00"]
QUOTED = ["0.5\n", "1,2", 'a"b', "\n", "0,1"]
# cells whose surrogate escapes write bytes that are not UTF-8: 0xff, a lone lead byte, a lone continuation byte
UNDECODABLE = ["\udcff", "1\udce9", "\udc80.5"]


@st.composite
def model_rows(draw, header):
    """One model row under header: good (so cells repeat), with an odd cell or value, short, long, blank, quoted,
    or holding bytes that are not UTF-8."""
    last = {name: i for i, name in enumerate(header)}
    row = ["junk"] * len(header)
    for name in ("origin", "dest"):
        row[last[name]] = draw(st.sampled_from(GOOD_CELLS))
    for name in ("p", "w"):
        row[last[name]] = draw(st.sampled_from(GOOD_VALUES))
    kind = draw(st.sampled_from(["good"] * 4 + ["odd cell", "odd value", "short", "long", "blank", "quoted",
                                                "undecodable"]))
    if kind == "odd cell":
        row[last[draw(st.sampled_from(["origin", "dest"]))]] = draw(st.sampled_from(ODD_CELLS))
    elif kind == "odd value":
        row[last[draw(st.sampled_from(["p", "w"]))]] = draw(st.sampled_from(ODD_VALUES))
    elif kind == "short":
        row = row[: draw(st.integers(1, len(row) - 1))]
    elif kind == "long":
        row += ["x"] * draw(st.integers(1, 2))
    elif kind == "blank":
        row = []
    elif kind == "quoted":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(QUOTED))
    elif kind == "undecodable":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(UNDECODABLE))
    return row


def read_model(read, path, grid):
    """p and w bytes of the model read, or the type and message of what reading raised."""
    try:
        model = read(path, grid)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return model.p.tobytes(), model.w.tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(MODEL_HEADERS), st.sampled_from(["\r\n", "\n"]), st.booleans(),
       st.sampled_from([1, 6, 40, 1 << 20]))
def test_from_csv_matches_the_row_rule(data, header, ending, final_newline, block):
    """Last row wins, the first bad line decides, then the first off-grid cell, with rows across byte blocks."""
    rows = data.draw(st.lists(model_rows(header), max_size=12))
    g = build_grid(2, 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.csv"
        text = io.StringIO()
        csv.writer(text, lineterminator=ending).writerows([header, *rows])
        raw = text.getvalue().encode("utf-8", "surrogateescape")
        path.write_bytes(raw if final_newline else raw.removesuffix(ending.encode()))
        with mock.patch.object(csvblocks, "BLOCK_BYTES", block):
            got = read_model(RequestModel.from_csv, path, g)
        assert got == read_model(request_model_from_csv_rows, path, g)


def test_from_csv_names_the_line_of_bytes_that_are_not_utf8(tmp_path):
    """Far past the first 8 KiB, with no row (or only blank lines) before them, in the header, on a last line,
    or after lone \\r line breaks."""
    path = tmp_path / "model.csv"
    g = build_grid(2, 2)
    cases = [
        (b"origin,dest,p,w\n" + b"0,1,0.0001,1\n" * 2000 + b"3,\xff,0.1,1\n", 2002),
        (b"origin,dest,p,w\n\xff,1,0.1,1\n0,1,0.1,1\n", 2),
        (b"origin,dest,p,w\n" + b"\n" * 9000 + b"\xff,1,0.1,1\n", 9002),
        (b"origin,dest,p,\xffw\n0,1,0.1,1\n", 1),
        (b"origin,dest,p,w\r\n" + b"0,1,0.0001,1\r\n" * 2000 + b"\r\n3,1,0.1,1\xe9", 2003),
        (b"origin,dest,p,w\r0,1,0.1,1\r\n2,3,0.1,1\r3,\xff,0.1,1\r", 4),  # lone \r line breaks count too
    ]
    for raw, line in cases:
        path.write_bytes(raw)
        for block in (7, csvblocks.BLOCK_BYTES):
            with mock.patch.object(csvblocks, "BLOCK_BYTES", block), pytest.raises(SchemaError) as info:
                RequestModel.from_csv(path, g)
            assert str(info.value) == f"{path}: line {line}: bytes that are not UTF-8"
        with pytest.raises(SchemaError) as info:
            request_model_from_csv_rows(path, g)
        assert str(info.value) == f"{path}: line {line}: bytes that are not UTF-8"


def test_from_csv_refuses_a_field_past_the_csv_limit(tmp_path):
    path = tmp_path / "model.csv"
    path.write_text("origin,dest,p,w\n0,1,0.1,1\n0,1,0.1," + "1" * (csv.field_size_limit() + 1) + "\n")
    for read in (RequestModel.from_csv, request_model_from_csv_rows):
        with pytest.raises(SchemaError) as info:
            read(path, build_grid(2, 2))
        assert str(info.value) == f"{path}: line 3: field larger than field limit ({csv.field_size_limit()})"


def test_pairs_iterator_covers_support():
    g = build_grid(1, 2)
    model = request_model_from_pairs(g, {(0, 1): 0.25, (1, 0): 0.5}, weights=3)
    assert set(model.pairs()) == {(0, 1), (1, 0)}


def _decode_inline(model, u):
    """The request decode each sampler once wrote out for itself, kept here as the reference."""
    n = model.n
    cum_p = np.cumsum(model.p.astype(float).ravel())
    w = model.w.astype(float).ravel()
    req = np.searchsorted(cum_p, u, side="right")
    return np.where(req < n * n, req // n, -1), req % n, w[np.minimum(req, n * n - 1)]


def _sparse_city_model():
    g = build_grid(21, 11)
    rng = np.random.default_rng(29)
    pairs = rng.choice(g.n * g.n, size=600, replace=False)
    p = rng.random(600)
    p[::7] = 0.0  # listed pairs with no mass
    return request_model_from_pairs(g, dict(zip(map(tuple, np.column_stack(np.divmod(pairs, g.n)).tolist()), 0.13 * p / p.sum())))


@pytest.mark.parametrize("model", [
    uniform_request_model(build_grid(2, 2), 1 / 16),
    uniform_request_model(build_grid(2, 2), Fraction(1, 32), weights=1),
    request_model_from_pairs(build_grid(1, 3), {(0, 1): 0.25, (2, 0): 0.5}, weights=3),
    _sparse_city_model(),
], ids=["2x2-uniform", "2x2-exact-half", "1x3-zero-mass-pairs", "21x11-sparse"])
def test_requests_decode_draws_as_the_inline_decode_did(model):
    cum_p = np.cumsum(model.p.astype(float).ravel())
    below_one = np.nextafter(1.0, 0.0)
    u = np.concatenate([
        cum_p, np.nextafter(cum_p, 0.0), np.nextafter(cum_p, 1.0),  # at and beside every running total
        [0.0, below_one, min(cum_p[-1] + 1e-9, below_one)],  # the ends of [0, 1) and past the total mass
        np.random.default_rng(5).random(500),
    ])
    u = u[np.argsort(np.random.default_rng(6).random(len(u)))].reshape(-1, 1)  # the samplers' (steps, runs) form
    got, want = model.requests(u), _decode_inline(model, u)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
