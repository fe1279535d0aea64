"""Edges of the SVG line chart: degenerate ranges, tick thinning, tick
labels and dropped points."""

import xml.etree.ElementTree as ET

import pytest

from tailsum import DomainError
from tailsum._svg import render_line_chart

_NS = "{http://www.w3.org/2000/svg}"


def _chart(tmp_path, series, logx=False):
    """The x tick labels, as ``(x position, text)``, and the number of point
    markers of the chart of ``series``."""
    path = tmp_path / "chart.svg"
    render_line_chart(str(path), "title", "x", "y", series, logx=logx)
    root = ET.parse(path).getroot()
    # x tick labels are the centred 11-point texts; the legend is not centred
    ticks = [
        (float(e.get("x")), e.text) for e in root.iter(_NS + "text")
        if e.get("text-anchor") == "middle" and e.get("font-size") == "11"
    ]
    return ticks, sum(1 for _ in root.iter(_NS + "circle"))


def test_a_single_x_value_gets_one_centred_tick(tmp_path):
    ticks, markers = _chart(tmp_path, [("s", [3.0, 3.0], [1.0, 10.0])])
    # the empty range [3, 3] is widened to [3, 4] for the ticks, of which
    # only 3 lies in the data range; the axis puts it in the middle of the
    # plot area, x = 78 .. 696
    assert ticks == [((78 + 696) / 2, "3")]
    assert markers == 2


def test_more_than_eight_decades_keep_every_third_tick(tmp_path):
    xs = [1e-5, 1.0, 1e10]
    ticks, _ = _chart(tmp_path, [("s", xs, [1.0, 2.0, 3.0])], logx=True)
    # 16 decades 1e-5 .. 1e10, thinned to a stride of 16 // 8 + 1 = 3
    want = ["1.0e-05", "0.01", "10", "1.0e+04", "1.0e+07", "1.0e+10"]
    assert [text for _, text in ticks] == want


def test_a_linear_axis_from_zero_labels_its_first_tick_0(tmp_path):
    ticks, _ = _chart(tmp_path, [("s", [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])])
    assert [text for _, text in ticks] == ["0", "0.5", "1", "1.5", "2"]


def test_a_log_axis_drops_nonpositive_x(tmp_path):
    ticks, markers = _chart(
        tmp_path, [("s", [-1.0, 0.0, 1.0, 10.0], [1.0, 1.0, 1.0, 2.0])], logx=True
    )
    assert markers == 2
    assert [text for _, text in ticks] == ["1", "10"]


@pytest.mark.parametrize(
    "series, logx",
    [
        ([("s", [1.0, 2.0], [0.0, -1.0])], False),
        ([("s", [1.0, 2.0], [float("nan"), float("inf")])], False),
        ([("s", [0.0, -2.0], [1.0, 2.0])], True),
        ([], False),
    ],
)
def test_no_plottable_point_is_a_domain_error(tmp_path, series, logx):
    with pytest.raises(DomainError, match="no finite plottable points"):
        render_line_chart(str(tmp_path / "chart.svg"), "t", "x", "y", series, logx=logx)
    assert not (tmp_path / "chart.svg").exists()
