"""Self-contained rasterization to portable pixmaps (PPM, P6).

No plotting dependencies: grids become scaled RGB blocks, prediction/truth
overlays use the red/blue/green miss/false-alarm/hit coding, and curve plots
are drawn with a tiny built-in 3x5 pixel font. Outputs are byte-reproducible
for fixed inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "write_ppm",
    "grid_to_rgb",
    "probability_to_rgb",
    "overlay_rgb",
    "frame_panel",
    "hidden_tiles",
    "plot_curves",
]

_BG = (24, 24, 28)
_FG = (235, 235, 235)
_TP = (40, 200, 70)    # predicted occupied, truly occupied
_FN = (220, 50, 50)    # missed occupancy
_FP = (70, 110, 255)   # spurious occupancy
_CURVE_COLORS = (
    (80, 170, 255),
    (255, 150, 60),
    (90, 220, 120),
    (230, 90, 200),
    (250, 220, 80),
    (160, 160, 160),
)

# 3x5 bitmap font, rows top to bottom, 3 bits per row (MSB left)
_FONT = {
    "0": (0b111, 0b101, 0b101, 0b101, 0b111),
    "1": (0b010, 0b110, 0b010, 0b010, 0b111),
    "2": (0b111, 0b001, 0b111, 0b100, 0b111),
    "3": (0b111, 0b001, 0b111, 0b001, 0b111),
    "4": (0b101, 0b101, 0b111, 0b001, 0b001),
    "5": (0b111, 0b100, 0b111, 0b001, 0b111),
    "6": (0b111, 0b100, 0b111, 0b101, 0b111),
    "7": (0b111, 0b001, 0b010, 0b010, 0b010),
    "8": (0b111, 0b101, 0b111, 0b101, 0b111),
    "9": (0b111, 0b101, 0b111, 0b001, 0b111),
    ".": (0b000, 0b000, 0b000, 0b000, 0b010),
    "-": (0b000, 0b000, 0b111, 0b000, 0b000),
    "_": (0b000, 0b000, 0b000, 0b000, 0b111),
    " ": (0b000, 0b000, 0b000, 0b000, 0b000),
    "a": (0b000, 0b111, 0b011, 0b101, 0b111),
    "b": (0b100, 0b111, 0b101, 0b101, 0b111),
    "c": (0b000, 0b111, 0b100, 0b100, 0b111),
    "d": (0b001, 0b111, 0b101, 0b101, 0b111),
    "e": (0b111, 0b101, 0b111, 0b100, 0b111),
    "f": (0b011, 0b010, 0b111, 0b010, 0b010),
    "g": (0b111, 0b101, 0b111, 0b001, 0b110),
    "h": (0b100, 0b111, 0b101, 0b101, 0b101),
    "i": (0b010, 0b000, 0b010, 0b010, 0b010),
    "j": (0b001, 0b000, 0b001, 0b101, 0b111),
    "k": (0b100, 0b101, 0b110, 0b110, 0b101),
    "l": (0b010, 0b010, 0b010, 0b010, 0b001),
    "m": (0b000, 0b111, 0b111, 0b101, 0b101),
    "n": (0b000, 0b110, 0b101, 0b101, 0b101),
    "o": (0b000, 0b111, 0b101, 0b101, 0b111),
    "p": (0b000, 0b111, 0b101, 0b111, 0b100),
    "q": (0b000, 0b111, 0b101, 0b111, 0b001),
    "r": (0b000, 0b011, 0b100, 0b100, 0b100),
    "s": (0b000, 0b011, 0b110, 0b001, 0b110),
    "t": (0b010, 0b111, 0b010, 0b010, 0b011),
    "u": (0b000, 0b101, 0b101, 0b101, 0b111),
    "v": (0b000, 0b101, 0b101, 0b101, 0b010),
    "w": (0b000, 0b101, 0b101, 0b111, 0b111),
    "x": (0b000, 0b101, 0b010, 0b010, 0b101),
    "y": (0b000, 0b101, 0b111, 0b001, 0b110),
    "z": (0b000, 0b111, 0b001, 0b010, 0b111),
}


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) image")
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.astype(np.uint8).tobytes())


def _scale(img: np.ndarray, scale: int) -> np.ndarray:
    if scale < 1:
        raise ValueError(f"scale must be at least 1, got {scale}")
    return np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)


def grid_to_rgb(grid: np.ndarray, color=_FG, scale: int = 1) -> np.ndarray:
    """Binary grid as color-on-dark cells."""
    g = np.asarray(grid).astype(bool)
    img = np.empty(g.shape + (3,), dtype=np.uint8)
    img[:] = _BG
    img[g] = color
    return _scale(img, scale)


def probability_to_rgb(prob: np.ndarray, scale: int = 1) -> np.ndarray:
    p = np.clip(np.asarray(prob, dtype=np.float64), 0.0, 1.0)
    v = (p * 255).astype(np.uint8)
    return _scale(np.stack([v, v, v], axis=-1), scale)


def overlay_rgb(pred_occupied: np.ndarray, truth_occupied: np.ndarray, scale: int = 1) -> np.ndarray:
    """Hit/miss coding: green where predicted and true occupancy agree, red
    where occupancy was missed, blue where it was hallucinated."""
    pred = np.asarray(pred_occupied).astype(bool)
    truth = np.asarray(truth_occupied).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth shapes differ")
    img = np.empty(pred.shape + (3,), dtype=np.uint8)
    img[:] = _BG
    img[pred & truth] = _TP
    img[~pred & truth] = _FN
    img[pred & ~truth] = _FP
    return _scale(img, scale)


def _join(images, gap: int, axis: int) -> np.ndarray:
    """Images side by side (axis 1) or top to bottom (axis 0) with ``gap``
    pixels of separator grey between them; a shorter image is padded with
    the background on its far side."""
    parts = [np.moveaxis(img, axis, 0) for img in images]
    length = sum(len(p) for p in parts) + gap * (len(parts) - 1)
    out = np.full((length, max(p.shape[1] for p in parts), 3), 90, dtype=np.uint8)
    at = 0
    for p in parts:
        out[at : at + len(p)] = _BG
        out[at : at + len(p), : p.shape[1]] = p
        at += len(p) + gap
    return np.moveaxis(out, 0, axis)


def frame_panel(obs, prediction, truth=None, threshold: float = 0.5, scale: int = 4) -> np.ndarray:
    """Side-by-side panels for one frame: visibility, observed occupancy,
    predicted probability, and (with truth) the overlay of the cells at or
    above ``threshold``, which must lie inside (0, 1)."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be inside (0,1), got {threshold}")
    panels = [
        grid_to_rgb(obs.vis, color=(120, 120, 130), scale=scale),
        grid_to_rgb(obs.occ, color=(250, 210, 90), scale=scale),
        probability_to_rgb(prediction, scale=scale),
    ]
    if truth is not None:
        panels.append(overlay_rgb(np.asarray(prediction) >= threshold, truth, scale=scale))
    return _join(panels, 2, axis=1)


def hidden_tiles(layer_maps) -> np.ndarray:
    """Feature-map activations (values in [-1,1]) tiled into one image, one
    row per layer: at most the first 16 maps of each layer, each cell drawn
    2x2 pixels."""
    rows = []
    for maps in layer_maps:
        maps = np.asarray(maps)[:16]
        v = ((np.clip(maps, -1.0, 1.0) + 1.0) * 127.5).astype(np.uint8)
        tiles = [np.stack([t, t, t], axis=-1) for t in v]
        rows.append(_scale(_join(tiles, 1, axis=1), 2))
    return _join(rows, 2, axis=0)


def _draw_text(img: np.ndarray, x: int, y: int, text: str, color=_FG) -> int:
    """Render text at (x, y) top-left with the 3x5 font, 2x upscaled.
    Unknown characters advance the cursor silently. Returns end x."""
    for ch in text.lower():
        glyph = _FONT.get(ch)
        if glyph is not None:
            for r, bits in enumerate(glyph):
                for c in range(3):
                    if bits & (0b100 >> c):
                        yy, xx = y + 2 * r, x + 2 * c
                        img[yy : yy + 2, xx : xx + 2] = color
        x += 8
    return x


def _draw_line(img: np.ndarray, x0: float, y0: float, x1: float, y1: float, color) -> None:
    n = int(max(abs(x1 - x0), abs(y1 - y0), 1)) * 2
    for t in np.linspace(0.0, 1.0, n + 1):
        x = int(round(x0 + (x1 - x0) * t))
        y = int(round(y0 + (y1 - y0) * t))
        if 0 <= y < img.shape[0] and 0 <= x < img.shape[1]:
            img[y, x] = color
            if y + 1 < img.shape[0]:
                img[y + 1, x] = color


def plot_curves(path, curves: dict, title: str = "") -> None:
    """Line plot of named curves. ``curves`` maps label -> (xs, ys) with ys
    inside [0, 1]. Writes a P6 pixmap."""
    if not curves:
        raise ValueError("no curves to plot")
    width, height = 560, 360
    left, right, top, bottom = 56, 16, 28, 36
    img = np.empty((height, width, 3), dtype=np.uint8)
    img[:] = _BG
    x_lo = min(min(xs) for xs, _ in curves.values())
    x_hi = max(max(xs) for xs, _ in curves.values())
    if x_hi == x_lo:
        x_hi = x_lo + 1
    y_lo, y_hi = 0.0, 1.0

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(y):
        return top + (y_hi - y) / (y_hi - y_lo) * (height - top - bottom)

    axis = (120, 120, 130)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        yy = int(py(y))
        img[yy, left : width - right] = (52, 52, 60)
        _draw_text(img, 8, yy - 5, f"{y:.2f}", axis)
    img[int(py(y_lo)) : int(py(y_lo)) + 2, left : width - right] = axis
    img[top : height - bottom, left : left + 2] = axis
    for x in range(int(np.ceil(x_lo)), int(np.floor(x_hi)) + 1):
        xx = int(px(x))
        img[int(py(y_lo)) : int(py(y_lo)) + 5, xx] = axis
        _draw_text(img, xx - 3, height - bottom + 8, str(x), axis)
    if title:
        _draw_text(img, left, 8, title, _FG)
    lx = left + 10
    for i, (label, (xs, ys)) in enumerate(curves.items()):
        color = _CURVE_COLORS[i % len(_CURVE_COLORS)]
        pts = sorted(zip(xs, ys))
        for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
            _draw_line(img, px(xa), py(ya), px(xb), py(yb), color)
        for x, y in pts:
            xi, yi = int(px(x)), int(py(y))
            img[max(yi - 1, 0) : yi + 3, max(xi - 1, 0) : xi + 3] = color
        ly = height - bottom + 18
        img[ly : ly + 8, lx : lx + 8] = color
        lx = _draw_text(img, lx + 12, ly, label, _FG) + 14
    write_ppm(path, img)
