"""Scenario files: one JSON document describing a model, rigging, and task.

Schema (complex numbers are two-element arrays ``[re, im]``)::

    {
      "model":   {"type": "finite_hermitian", "matrix": [[[re,im], ...], ...]}
               | {"type": "free_lattice_1d"}
               | {"type": "direct_sum", "left": <model>, "right": <model>,
                  "split": <channels going to the left summand>},
      "rigging": {"channels": [ {"sites": [[site, [re,im]], ...]}
                              | {"row": [[re,im], ...]} , ...]},
      "J":       [[[re,im], ...], ...],          # optional, Hermitian (default identity)
      "Jtilde":  [[[re,im], ...], ...],          # optional, Hermitian
      "lambda":  number,
      "grid":    {"y0": number, "q": number, "n": int},      # optional
      "anchors": [number, ...],                              # optional
      "window":  [number, number],                           # optional
      "tol":     {"extrapolation": number},                  # optional
      "flow":    {"r_from": number, "r_to": number},         # optional
      "sweep":   {"axis": "lambda"|"r"|"y",
                  "start": number, "stop": number, "points": int}  # optional
    }

Channels are listed flat; a ``direct_sum`` node sends its first ``split``
channels to the left summand.  A scenario without ``J`` couples by the
identity in ``limit`` and in every sweep; ``scan``, ``flow`` and the
verifiers require ``J``.  ``tol`` sets the extrapolation tolerance only;
every other threshold is fixed in :mod:`laplab.config`.  Validation
failures raise :class:`~laplab.errors.ScenarioError` with a JSON-pointer
style path and never reach computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULT_ANCHORS, DEFAULT_TOLERANCES, DEFAULT_WINDOW
from .errors import ScenarioError
from .lap import DEFAULT_GRID, YGrid
from .models import (
    DirectSum,
    FiniteHermitian,
    FiniteRigging,
    FreeLattice1D,
    LatticeRigging,
    OperatorModel,
    Rigging,
    SplitRigging,
)
from .perturb import Direction

_MODEL_TYPES = ("finite_hermitian", "free_lattice_1d", "direct_sum")
_AXES = ("lambda", "r", "y")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    points: int


@dataclass(frozen=True, eq=False)
class Scenario:
    raw: dict
    model: OperatorModel
    rigging: Rigging
    lam: float
    direction: Direction | None
    direction_tilde: Direction | None
    grid: YGrid
    anchors: tuple[float, ...]
    window: tuple[float, float]
    tol: float
    flow: tuple[float, float] | None
    sweep: SweepSpec | None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, path: str) -> float:
    if not _is_number(x):
        raise ScenarioError(path, f"expected a number, got {type(x).__name__}")
    if not np.isfinite(x):
        raise ScenarioError(path, "number must be finite")
    return float(x)


def _integer(x, path: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ScenarioError(path, f"expected an integer, got {type(x).__name__}")
    return x


def _obj(x, path: str, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    if not isinstance(x, dict):
        raise ScenarioError(path, f"expected an object, got {type(x).__name__}")
    for key in x:
        if key not in allowed:
            raise ScenarioError(f"{path}/{key}", "unknown key")
    for key in required:
        if key not in x:
            raise ScenarioError(path, f"missing required key {key!r}")
    return x


def _complex_pair(x, path: str) -> complex:
    if not isinstance(x, list) or len(x) != 2:
        raise ScenarioError(path, "complex numbers are [re, im] pairs")
    return complex(_number(x[0], f"{path}/0"), _number(x[1], f"{path}/1"))


def _complex_matrix(x, path: str) -> np.ndarray:
    if not isinstance(x, list) or not x:
        raise ScenarioError(path, "expected a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(x):
        if not isinstance(row, list) or not row:
            raise ScenarioError(f"{path}/{i}", "expected a nonempty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ScenarioError(f"{path}/{i}", "ragged rows")
        rows.append([_complex_pair(v, f"{path}/{i}/{j}") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _hermitian_matrix(x, path: str) -> np.ndarray:
    m = _complex_matrix(x, path)
    if m.shape[0] != m.shape[1]:
        raise ScenarioError(path, f"expected a square matrix, got {m.shape}")
    scale = float(np.abs(m).max())
    if scale > 0 and float(np.abs(m - m.conj().T).max()) > 1e-12 * scale:
        raise ScenarioError(path, "not Hermitian")
    return m


def _parse_channel(ch, path: str):
    channel = _obj(ch, path, allowed=("sites", "row"))
    if ("sites" in channel) == ("row" in channel):
        raise ScenarioError(path, 'a channel has exactly one of "sites" or "row"')
    if "sites" in channel:
        sites = channel["sites"]
        if not isinstance(sites, list) or not sites:
            raise ScenarioError(f"{path}/sites", "expected a nonempty array")
        out = []
        for i, pair in enumerate(sites):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ScenarioError(f"{path}/sites/{i}", "expected [site, [re, im]]")
            site = _integer(pair[0], f"{path}/sites/{i}/0")
            amp = _complex_pair(pair[1], f"{path}/sites/{i}/1")
            out.append((site, amp))
        return ("sites", tuple(out))
    row = channel["row"]
    if not isinstance(row, list) or not row:
        raise ScenarioError(f"{path}/row", "expected a nonempty array")
    return ("row", tuple(_complex_pair(v, f"{path}/row/{i}") for i, v in enumerate(row)))


def _build_model(spec, channels, path: str, chan_path: str) -> tuple[OperatorModel, Rigging]:
    node = _obj(spec, path, allowed=("type", "matrix", "left", "right", "split"), required=("type",))
    kind = node["type"]
    if kind not in _MODEL_TYPES:
        raise ScenarioError(f"{path}/type", f"unknown model type {kind!r}")
    if kind == "finite_hermitian":
        _obj(spec, path, allowed=("type", "matrix"), required=("type", "matrix"))
        h = _hermitian_matrix(node["matrix"], f"{path}/matrix")
        rows = []
        for kind_i, data, cpath in channels:
            if kind_i != "row":
                raise ScenarioError(cpath, 'finite models need "row" channels')
            if len(data) != h.shape[0]:
                raise ScenarioError(cpath, f"row length {len(data)} != model size {h.shape[0]}")
            rows.append(data)
        if not rows:
            raise ScenarioError(chan_path, "model consumed no channels")
        try:
            return FiniteHermitian(h), FiniteRigging(np.array(rows, dtype=complex))
        except ValueError as exc:
            raise ScenarioError(chan_path, str(exc)) from exc
    if kind == "free_lattice_1d":
        _obj(spec, path, allowed=("type",), required=("type",))
        chans = []
        for kind_i, data, cpath in channels:
            if kind_i != "sites":
                raise ScenarioError(cpath, 'lattice models need "sites" channels')
            chans.append(data)
        if not chans:
            raise ScenarioError(chan_path, "model consumed no channels")
        try:
            return FreeLattice1D(), LatticeRigging(tuple(chans))
        except ValueError as exc:
            raise ScenarioError(chan_path, str(exc)) from exc
    _obj(spec, path, allowed=("type", "left", "right", "split"), required=("type", "left", "right", "split"))
    split = _integer(node["split"], f"{path}/split")
    if not 1 <= split <= len(channels) - 1:
        raise ScenarioError(
            f"{path}/split", f"split must take 1..{len(channels) - 1} of {len(channels)} channels"
        )
    lm, lr = _build_model(node["left"], channels[:split], f"{path}/left", chan_path)
    rm, rr = _build_model(node["right"], channels[split:], f"{path}/right", chan_path)
    return DirectSum(lm, rm), SplitRigging(lr, rr)


_TOP_KEYS = (
    "model", "rigging", "J", "Jtilde", "lambda", "grid", "anchors",
    "window", "tol", "flow", "sweep",
)


def parse_scenario(doc) -> Scenario:
    """Validate a decoded scenario document and build the domain objects."""
    top = _obj(doc, "", allowed=_TOP_KEYS, required=("model", "rigging", "lambda"))
    rig = _obj(top["rigging"], "/rigging", allowed=("channels",), required=("channels",))
    raw_channels = rig["channels"]
    if not isinstance(raw_channels, list) or not raw_channels:
        raise ScenarioError("/rigging/channels", "expected a nonempty array")
    channels = []
    for i, ch in enumerate(raw_channels):
        kind, data = _parse_channel(ch, f"/rigging/channels/{i}")
        channels.append((kind, data, f"/rigging/channels/{i}"))
    model, rigging = _build_model(top["model"], channels, "/model", "/rigging/channels")
    k = len(channels)

    lam = _number(top["lambda"], "/lambda")

    direction = None
    if "J" in top:
        j = _hermitian_matrix(top["J"], "/J")
        if j.shape[0] != k:
            raise ScenarioError("/J", f"size {j.shape[0]} != channel count {k}")
        direction = Direction(j)
    direction_tilde = None
    if "Jtilde" in top:
        jt = _hermitian_matrix(top["Jtilde"], "/Jtilde")
        if jt.shape[0] != k:
            raise ScenarioError("/Jtilde", f"size {jt.shape[0]} != channel count {k}")
        direction_tilde = Direction(jt)

    grid = DEFAULT_GRID
    if "grid" in top:
        g = _obj(top["grid"], "/grid", allowed=("y0", "q", "n"))
        try:
            grid = YGrid(
                y0=_number(g.get("y0", DEFAULT_GRID.y0), "/grid/y0"),
                q=_number(g.get("q", DEFAULT_GRID.q), "/grid/q"),
                n=_integer(g.get("n", DEFAULT_GRID.n), "/grid/n"),
            )
        except ValueError as exc:
            raise ScenarioError("/grid", str(exc)) from exc

    anchors = DEFAULT_ANCHORS
    if "anchors" in top:
        arr = top["anchors"]
        if not isinstance(arr, list) or not arr:
            raise ScenarioError("/anchors", "expected a nonempty array of numbers")
        anchors = tuple(_number(v, f"/anchors/{i}") for i, v in enumerate(arr))

    window = DEFAULT_WINDOW
    if "window" in top:
        arr = top["window"]
        if not isinstance(arr, list) or len(arr) != 2:
            raise ScenarioError("/window", "expected [lo, hi]")
        window = (_number(arr[0], "/window/0"), _number(arr[1], "/window/1"))
        if not window[0] < window[1]:
            raise ScenarioError("/window", "window must be a nonempty interval")

    tol = DEFAULT_TOLERANCES.extrapolation_tol
    if "tol" in top:
        t = _obj(top["tol"], "/tol", allowed=("extrapolation",))
        if "extrapolation" in t:
            tol = _number(t["extrapolation"], "/tol/extrapolation")
            if tol <= 0:
                raise ScenarioError("/tol/extrapolation", "must be positive")

    flow = None
    if "flow" in top:
        f = _obj(top["flow"], "/flow", allowed=("r_from", "r_to"), required=("r_from", "r_to"))
        flow = (_number(f["r_from"], "/flow/r_from"), _number(f["r_to"], "/flow/r_to"))

    sweep = None
    if "sweep" in top:
        s = _obj(
            top["sweep"], "/sweep",
            allowed=("axis", "start", "stop", "points"),
            required=("axis", "start", "stop", "points"),
        )
        axis = s["axis"]
        if axis not in _AXES:
            raise ScenarioError("/sweep/axis", f"axis must be one of {_AXES}")
        points = _integer(s["points"], "/sweep/points")
        if points < 2:
            raise ScenarioError("/sweep/points", "need at least 2 points")
        start = _number(s["start"], "/sweep/start")
        stop = _number(s["stop"], "/sweep/stop")
        if axis == "y" and (start <= 0 or stop <= 0):
            raise ScenarioError("/sweep", "y sweeps need positive bounds")
        sweep = SweepSpec(axis=axis, start=start, stop=stop, points=points)

    return Scenario(
        raw=top,
        model=model,
        rigging=rigging,
        lam=lam,
        direction=direction,
        direction_tilde=direction_tilde,
        grid=grid,
        anchors=anchors,
        window=window,
        tol=tol,
        flow=flow,
        sweep=sweep,
    )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)
