"""Dependency-free SVG scatter of a two-objective front.

Fixed 800x600 canvas, axes auto-scaled to the data with a 5% margin.
Stage is encoded by marker shape (circle = extended, square =
fine_tuned) and base policies (all-zero coefficient provenance) get a
highlight ring. The x coordinates of the frame and labels print with
one decimal (`x="70.0"`); a test pins the whole text, because run
directories are compared byte for byte across versions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 800, 600
MARGIN_FRAC = 0.05
PAD_LEFT, PAD_RIGHT, PAD_TOP, PAD_BOTTOM = 70, 20, 40, 50
# Plot area in pixels; y pixels grow downward, so the bottom is y's low end.
PX_LO, PX_HI = PAD_LEFT, WIDTH - PAD_RIGHT
PY_LO, PY_HI = HEIGHT - PAD_BOTTOM, PAD_TOP

STAGE_COLORS = {"extended": "#1f77b4", "fine_tuned": "#d62728"}


def _data_range(values: np.ndarray) -> tuple[float, float]:
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin
    if span == 0:
        span = max(abs(vmin), 1.0)
    return vmin - MARGIN_FRAC * span, vmax + MARGIN_FRAC * span


def render_front_svg(
    path: str | Path,
    returns: np.ndarray,
    stages: list[str],
    base_flags: list[bool],
    title: str = "approximate Pareto front",
) -> None:
    """Write the scatter of an (n, 2) front to `path`."""
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim != 2 or returns.shape[1] != 2:
        raise ValueError(f"SVG rendering needs a two-objective front, got shape {returns.shape}")
    x_min, x_max = _data_range(returns[:, 0])
    y_min, y_max = _data_range(returns[:, 1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="16">{title}</text>',
        f'<rect x="{PX_LO:.1f}" y="{PAD_TOP}" width="{PX_HI - PX_LO:.1f}" height="{PY_LO - PY_HI}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{(PX_LO + PX_HI) / 2}" y="{HEIGHT - 12}" text-anchor="middle" font-size="14">'
        "objective 1</text>",
        f'<text x="18.0" y="{HEIGHT / 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18.0 {HEIGHT / 2})">objective 2</text>',
        f'<text x="{PX_LO - 6:.1f}" y="{PY_LO + 16}" text-anchor="end" font-size="11">{x_min:.3g}</text>',
        f'<text x="{PX_HI:.1f}" y="{PY_LO + 16}" text-anchor="end" font-size="11">{x_max:.3g}</text>',
        f'<text x="{PX_LO - 8:.1f}" y="{PY_LO}" text-anchor="end" font-size="11">{y_min:.3g}</text>',
        f'<text x="{PX_LO - 8:.1f}" y="{PY_HI + 10}" text-anchor="end" font-size="11">{y_max:.3g}</text>',
    ]
    for (x, y), stage, is_base in zip(returns.tolist(), stages, base_flags):
        px = PX_LO + (x - x_min) / (x_max - x_min) * (PX_HI - PX_LO)
        py = PY_LO + (y - y_min) / (y_max - y_min) * (PY_HI - PY_LO)
        color = STAGE_COLORS.get(stage, "#555555")
        if is_base:
            parts.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="7" fill="none" stroke="#2ca02c" stroke-width="2"/>'
            )
        if stage == "fine_tuned":
            parts.append(
                f'<rect x="{px - 3.5:.1f}" y="{py - 3.5:.1f}" width="7" height="7" fill="{color}"/>'
            )
        else:
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3.5" fill="{color}"/>')
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts))
