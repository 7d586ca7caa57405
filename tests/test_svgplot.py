"""The SVG writer: deterministic bytes, input checks, heatmap decimation."""

import re

import numpy as np
import pytest

from fracwick import svgplot


def _plots():
    x = np.array([16.0, 32.0, 64.0, 128.0])
    return [
        svgplot.loglog_plot(x, 1.0 / np.sqrt(x), "ladder", "n", "rms", slope=-0.5),
        svgplot.zscore_plot(["a", "b", "c"], np.array([0.3, -1.2, np.inf]), "z"),
        svgplot.heatmap(np.arange(12.0).reshape(3, 4), "cov"),
    ]


def test_same_input_same_bytes():
    first = [p.encode() for p in _plots()]
    second = [p.encode() for p in _plots()]
    assert first == second


@pytest.mark.parametrize(
    "x, y",
    [
        ([1.0, 0.0], [1.0, 2.0]),
        ([1.0, 2.0], [1.0, -3.0]),
    ],
)
def test_loglog_rejects_non_positive_data(x, y):
    with pytest.raises(ValueError, match="strictly positive"):
        svgplot.loglog_plot(np.array(x), np.array(y), "t", "x", "y")


def test_large_heatmap_is_decimated():
    # 200 rows stride by ceil(200 / 64) = 4, leaving 50 x 50 cells
    assert svgplot.heat_stride(200) == 4 and svgplot.heat_stride(64) == 1
    svg = svgplot.heatmap(np.arange(200.0 * 200.0).reshape(200, 200), "big")
    # matrix cells are the filled rects without a stroke; legend swatches have one
    cells = re.findall(r'fill="rgb\(\d+,\d+,255\)"/>', svg)
    assert len(cells) == 50 * 50
