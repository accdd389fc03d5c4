"""The grid CSV format, through the 1D and 2D loaders and savers, and the
JSON report text against the stdlib encoder."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshmeans.dyadic import GridSpec
from walshmeans.io import read_grid, report_json
from walshmeans.tensor import load_grid2d, save_grid2d
from walshmeans.transform import GridFunction, load_grid1d, save_grid1d

# per dims: the grid type, its saver and loader, and the resolution and
# exact bytes of a grid holding 1.0, 0.1, -0.0 and 1e-320 (a subnormal)
FORMATS = {
    1: (GridFunction, save_grid1d, load_grid1d, 2,
        "# resolution=2\n1.0\n0.1\n-0.0\n1e-320\n"),
    2: (GridFunction, save_grid2d, load_grid2d, 1,
        "# resolution=1 dims=2\n1.0,0.1\n-0.0,1e-320\n"),
}


def _write(save, grid) -> str:
    buf = io.StringIO()
    save(grid, buf)
    return buf.getvalue()


@pytest.mark.parametrize("dims", [1, 2])
def test_grid_csv_roundtrip_and_bytes(dims, tmp_path):
    cls, save, load, pinned_K, pinned = FORMATS[dims]
    K = 4 if dims == 1 else 3
    f = cls(GridSpec(K), np.random.default_rng(7).normal(size=(1 << K,) * dims))
    text = _write(save, f)
    back = load(io.StringIO(text))
    assert back.spec.resolution == K
    assert back.samples.tobytes() == f.samples.tobytes()
    assert text.splitlines()[0] == ("# resolution=4" if dims == 1
                                    else "# resolution=3 dims=2")

    values = np.reshape([1.0, 0.1, -0.0, 1e-320], (1 << pinned_K,) * dims)
    g = cls(GridSpec(pinned_K), values)
    assert _write(save, g) == pinned
    path = tmp_path / "g.csv"
    save(g, str(path))
    assert path.read_text() == pinned
    assert load(str(path)).samples.tobytes() == values.tobytes()


@pytest.mark.parametrize("dims", [1, 2])
def test_grid_writer_refuses_the_other_dimension(dims, tmp_path):
    # each writer names the dimension it expected and the one it got, and
    # writes nothing, not even the header
    other = 3 - dims
    _, save, _, _, _ = FORMATS[dims]
    grid = GridFunction(GridSpec(2), np.ones((4,) * other))
    buf = io.StringIO()
    with pytest.raises(ValueError, match=f"expected a {dims}D grid, got a {other}D grid"):
        save(grid, buf)
    assert buf.getvalue() == ""
    path = tmp_path / "g.csv"
    with pytest.raises(ValueError, match=f"expected a {dims}D grid"):
        save(grid, str(path))
    assert not path.exists()


def test_long_line_refused_without_holding_it(tmp_path):
    # one 4,000,000-value line (16 MB) under K = 2 is refused at line 2 from
    # chunks of at most 4 x VALUE_CHARS characters, its values counted
    # chunk by chunk
    path = tmp_path / "long.csv"
    path.write_text("# resolution=2 dims=2\n" + ",".join(["0.0"] * 4_000_000) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            read_grid(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "line 2: 4000000 values, but a row at resolution 2 has 4"
    assert peak < 1 << 20


@pytest.mark.parametrize("text, message", [
    # the right number of values, padded past the limit
    ("# resolution=1 dims=2\n1.0,2.0\n" + " " * 96 + "3.0,4.0\n",
     "line 3: longer than the limit of 96 characters for 2 values"),
    ("# resolution=1\n1.0\n1." + "0" * 60 + "\n",
     "line 3: longer than the limit of 48 characters for 1 value"),
    ("# resolution=1" + " " * 64 + "\n1.0\n2.0\n",
     "line 1: longer than the 64 characters of a grid header"),
], ids=["2d-padded-row", "1d-long-value", "long-header"])
def test_line_past_its_character_limit_refused(text, message):
    with pytest.raises(ValueError, match=message):
        read_grid(io.StringIO(text))


def test_other_float_formats_fit_the_line_limit():
    # '%.18e' (numpy.savetxt's default, 25 characters with its sign) is read
    values = np.random.default_rng(3).normal(size=(4, 4))
    text = "# resolution=2 dims=2\n" + "".join(
        ",".join("%.18e" % v for v in row) + "\n" for row in values)
    assert max(map(len, text.splitlines())) > 24 * 4   # 24: the longest repr
    K, got = read_grid(io.StringIO(text))
    assert K == 2 and np.array_equal(got, np.array([[float("%.18e" % v) for v in row]
                                                    for row in values]))


# report-shaped payloads: nested dicts, lists of row dicts with equal or
# differing key sets, scalar columns and nested float lists or tuples
_KEYS = st.text(max_size=3) | st.sampled_from(["n", "t0", '"', "%", "%s", "\u00e9", "a\nb"])
_FLOATS = st.floats() | st.sampled_from([-0.0, 1e-320, math.nan, math.inf, -math.inf])
_LEAVES = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(),
                    st.text(max_size=5) | st.sampled_from(['"', "%", "%d", "\u2713", "\\"]))
_COLUMNS = [_FLOATS, st.floats(allow_nan=False, allow_infinity=False), st.integers(),
            st.integers() | st.booleans(), st.text(max_size=5), _LEAVES]


@st.composite
def _row_lists(draw, children):
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    kinds = {k: draw(st.sampled_from(_COLUMNS + [children])) for k in keys}
    rows = [{k: draw(kinds[k]) for k in keys} for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(_KEYS)] = draw(_LEAVES)
    return rows


_REPORTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=2),
        st.sampled_from(_COLUMNS).flatmap(lambda kind: st.lists(kind, max_size=6)),
        _row_lists(children),
    ),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
def test_report_json_equals_stdlib(payload):
    # the same text as the stdlib where it succeeds; a ValueError from both
    # where a float is not finite
    try:
        expect = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            report_json(payload)
        return
    assert report_json(payload) == expect
