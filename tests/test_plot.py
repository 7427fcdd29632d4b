import numpy as np
import pytest

from mixbar import INF, InputError, MixupBarcode, compute_mixup_barcode, plot_mixup_barcode
from mixbar.plot import DARK_COLOR, LIGHT_COLOR


def barcode(triples, clamp=None, degree=0):
    rows = np.array(triples, dtype=float).reshape(-1, 3)
    return MixupBarcode(degree=degree, index_triples=np.empty((0, 3)), values=rows, clamp=clamp)


def test_svg_wrapper():
    svg = plot_mixup_barcode(barcode([(0.0, 1.0, 2.0)], clamp=2.0))
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg


def test_two_tone_bars():
    svg = plot_mixup_barcode(barcode([(0.0, 1.0, 2.0)], clamp=2.0))
    assert svg.count(LIGHT_COLOR) == 1
    assert svg.count(DARK_COLOR) == 1


def test_pure_image_bar_has_no_dark_segment():
    svg = plot_mixup_barcode(barcode([(0.0, 2.0, 2.0)], clamp=2.0))
    assert svg.count(LIGHT_COLOR) == 1
    assert svg.count(DARK_COLOR) == 0


def test_zero_persistence_bar_renders_no_rect():
    svg = plot_mixup_barcode(barcode([(1.0, 1.0, 1.0)], clamp=2.0))
    assert "<rect" not in svg


def test_unclamped_infinite_death_rejected():
    with pytest.raises(InputError, match="clamp"):
        plot_mixup_barcode(barcode([(0.0, INF, INF)]))


def test_infinite_death_with_clamp_renders():
    svg = plot_mixup_barcode(barcode([(0.0, 1.0, INF)], clamp=3.0))
    assert svg.count(LIGHT_COLOR) == 1
    assert svg.count(DARK_COLOR) == 1


def test_empty_barcode_is_valid_svg():
    svg = plot_mixup_barcode(barcode([]))
    assert svg.startswith("<svg ")
    assert "(0 bars)" in svg


def test_title_names_degree(six_cell_pair):
    bc = compute_mixup_barcode(six_cell_pair, 1, clamp=6.0)
    svg = plot_mixup_barcode(bc)
    assert "degree 1 mixup barcode (2 bars)" in svg


def test_deterministic_output(six_cell_pair):
    bc = compute_mixup_barcode(six_cell_pair, 1, clamp=6.0)
    assert plot_mixup_barcode(bc) == plot_mixup_barcode(bc)


def test_axis_ticks_present():
    svg = plot_mixup_barcode(barcode([(0.0, 1.0, 2.0)], clamp=2.0))
    assert svg.count("<line") >= 2  # axis plus at least one tick
