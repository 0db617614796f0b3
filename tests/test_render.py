"""Pixmap rendering: P6 encoding, overlays, panels, and curve plots."""

import hashlib

import numpy as np
import pytest

from gridtrack.geometry import ObservationGrid
from gridtrack.render import (
    frame_panel,
    grid_to_rgb,
    hidden_tiles,
    overlay_rgb,
    plot_curves,
    probability_to_rgb,
    write_ppm,
)


def read_ppm(path):
    blob = open(path, "rb").read()
    parts = blob.split(b"\n", 3)
    assert parts[0] == b"P6"
    w, h = map(int, parts[1].split())
    assert parts[2] == b"255"
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    assert pixels.size == w * h * 3
    return pixels.reshape(h, w, 3)


def test_write_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(7, 11, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_write_ppm_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError, match="H, W, 3"):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


def test_grid_to_rgb_colors_and_scale():
    g = np.array([[1, 0], [0, 1]])
    img = grid_to_rgb(g, color=(10, 20, 30), scale=3)
    assert img.shape == (6, 6, 3)
    assert tuple(img[0, 0]) == (10, 20, 30)
    assert tuple(img[0, 5]) == (24, 24, 28)
    # every pixel of a scaled cell matches its cell value
    assert (img[:3, :3] == (10, 20, 30)).all()


def test_probability_to_rgb_endpoints_and_clip():
    img = probability_to_rgb(np.array([[0.0, 1.0, 2.0, -1.0]]))
    assert tuple(img[0, 0]) == (0, 0, 0)
    assert tuple(img[0, 1]) == (255, 255, 255)
    assert tuple(img[0, 2]) == (255, 255, 255)
    assert tuple(img[0, 3]) == (0, 0, 0)


def test_overlay_categories():
    pred = np.array([[1, 1], [0, 0]], dtype=bool)
    truth = np.array([[1, 0], [1, 0]], dtype=bool)
    img = overlay_rgb(pred, truth)
    assert tuple(img[0, 0]) == (40, 200, 70)     # hit
    assert tuple(img[0, 1]) == (70, 110, 255)    # false alarm
    assert tuple(img[1, 0]) == (220, 50, 50)     # miss
    assert tuple(img[1, 1]) == (24, 24, 28)      # true negative
    with pytest.raises(ValueError, match="shapes differ"):
        overlay_rgb(pred, truth[:1])


def test_frame_panel_widths():
    vis = np.ones((9, 9), dtype=np.uint8)
    occ = np.zeros((9, 9), dtype=np.uint8)
    obs = ObservationGrid(vis=vis, occ=occ)
    pred = np.full((9, 9), 0.5)
    img3 = frame_panel(obs, pred, scale=2)
    assert img3.shape == (18, 3 * 18 + 2 * 2, 3)
    img4 = frame_panel(obs, pred, truth=occ, scale=2)
    assert img4.shape == (18, 4 * 18 + 3 * 2, 3)


def test_hidden_tiles_layout():
    a = np.zeros((3, 5, 5))
    b = np.ones((2, 5, 5))
    img = hidden_tiles([a, b])
    # widest row: 3 tiles of 5 cells and 2 one-cell separators, 2px per cell
    assert img.shape[1] == (3 * 5 + 2) * 2
    # rows: two 5-cell strips of 10px and one 2px divider
    assert img.shape[0] == 10 + 2 + 10
    # zero activation renders mid-gray, +1 renders white
    assert tuple(img[0, 0]) == (127, 127, 127)
    assert tuple(img[12, 0]) == (255, 255, 255)


def test_hidden_tiles_caps_map_count():
    maps = np.zeros((40, 4, 4))
    img = hidden_tiles([maps])
    assert img.shape[1] == (16 * 4 + 15) * 2


# sha256 over the shape and bytes of every image below
PANEL_AND_TILES_DIGEST = "0759ad4bf02fbbc2d4bf5e466af573ba0f0d8f899d08c684f8e5ceda88ac2872"


def test_frame_panel_and_hidden_tiles_match_recorded_digest():
    rng = np.random.default_rng(11)
    vis = (rng.random((7, 7)) < 0.6).astype(np.uint8)
    obs = ObservationGrid(vis=vis, occ=vis * (rng.random((7, 7)) < 0.3))
    pred = rng.random((7, 7))
    truth = rng.random((7, 7)) < 0.3
    images = [
        frame_panel(obs, pred, truth=t, scale=scale)
        for scale in (1, 3)
        for t in (None, truth)
    ]
    # 3 maps pad to the 16-map row; 40 maps are capped at 16
    images.append(
        hidden_tiles([rng.uniform(-1.5, 1.5, size=(n, 5, 5)) for n in (3, 16, 40)])
    )
    h = hashlib.sha256()
    for img in images:
        h.update(repr(img.shape).encode())
        h.update(np.ascontiguousarray(img).tobytes())
    assert h.hexdigest() == PANEL_AND_TILES_DIGEST


def test_plot_curves_deterministic(tmp_path):
    curves = {
        "stm": ((1, 2, 3), (0.9, 0.8, 0.7)),
        "baseline": ((1, 2, 3), (0.8, 0.6, 0.5)),
    }
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    plot_curves(p1, curves, title="f1 by prediction offset")
    plot_curves(p2, curves, title="f1 by prediction offset")
    assert p1.read_bytes() == p2.read_bytes()
    img = read_ppm(p1)
    assert img.shape == (360, 560, 3)
    # both curve colors appear somewhere
    assert (img == np.array([80, 170, 255])).all(axis=-1).any()
    assert (img == np.array([255, 150, 60])).all(axis=-1).any()


def test_plot_curves_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="no curves"):
        plot_curves(tmp_path / "x.ppm", {})


def test_plot_curves_single_point_axis(tmp_path):
    plot_curves(tmp_path / "one.ppm", {"only": ((1,), (0.5,))})
    assert (tmp_path / "one.ppm").exists()
