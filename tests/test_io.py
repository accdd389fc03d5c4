"""The grid CSV format, through the 1D and 2D loaders and savers, and the
JSON report text against the stdlib encoder."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshmeans.dyadic import GridSpec
from walshmeans.io import report_json
from walshmeans.tensor import GridFunction2D, load_grid2d, save_grid2d
from walshmeans.transform import GridFunction1D, load_grid1d, save_grid1d

# per dims: the grid type, its saver and loader, and the resolution and
# exact bytes of a grid holding 1.0, 0.1, -0.0 and 1e-320 (a subnormal)
FORMATS = {
    1: (GridFunction1D, save_grid1d, load_grid1d, 2,
        "# resolution=2\n1.0\n0.1\n-0.0\n1e-320\n"),
    2: (GridFunction2D, save_grid2d, load_grid2d, 1,
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
    assert report_json(payload) == json.dumps(payload, indent=2, sort_keys=True)
