"""The grid CSV format, through the 1D and 2D loaders and savers."""

import io

import numpy as np
import pytest

from walshmeans.dyadic import GridSpec
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
