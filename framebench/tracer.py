"""Outside-in span tracer for evprune's public functions.

``Tracer.install`` replaces every reference to each traced function in the
loaded ``evprune.*`` module namespaces (the defining module, the modules
that imported it by name, and the package root) with a wrapper that records
a span: name, start, end, parent span and frame id. Counters read the
traced call's arguments and return value. Spans stay in memory until
``write``; ``uninstall`` restores the original references.

The program itself is not edited, so a refactor that stops calling a
traced function through a module namespace shows up as a span that never
fires, which the worker reports as an error rather than as zero time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _matmul(rows: int, w) -> int:
    """MACs of (rows, w.shape[0]) @ w."""
    return rows * w.shape[0] * w.shape[1]


def _forward_macs(args, kwargs, result) -> dict:
    """Matmul MACs actually run, from the observed shapes: patch embedding,
    Q/K/V/O projections, attention logits and value mix, MLP."""
    weights = _arg(args, kwargs, 2, "weights")
    n, d = result.tokens.shape
    macs = _matmul(n, weights.w_embed)
    for lw in weights.layers:
        macs += sum(_matmul(n, w) for w in (lw.wq, lw.wk, lw.wv, lw.wo, lw.w_up, lw.w_down))
        macs += 2 * n * n * d
    return {"tokens_in": n, "macs": macs}


def _merge_macs(args, kwargs, result) -> dict:
    weights = _arg(args, kwargs, 2, "weights")
    cells = result.tokens.shape[0]
    return {"macs": _matmul(cells, weights.w_merge1) + _matmul(cells, weights.w_merge2)}


def _retained(args, kwargs, mask) -> dict:
    return {"retained_ratio": mask.k / (mask.rows * mask.cols)}


# evprune function -> (span name, counter over (args, kwargs, result))
TARGETS: dict[str, tuple[str, Callable | None]] = {
    "evprune.encoder.encode_dense": ("encoder.forward", _forward_macs),
    "evprune.encoder.encode_packed": ("encoder.forward", _forward_macs),
    "evprune.encoder.merge_project": ("encoder.merge", _merge_macs),
    "evprune.encoder.patchify": ("encoder.patchify", None),
    "evprune.encoder.init_weights": ("encoder.init_weights", None),
    "evprune.encoder.load_encoder_config": ("encoder.config", None),
    "evprune.rope2d.apply_rope_many": ("rope2d.apply", None),
    "evprune.rope2d.build_rope": ("rope2d.build", None),
    "evprune.events.read_events_csv": ("events.read", lambda a, k, s: {"decoded": len(s)}),
    "evprune.events.read_events_bin": ("events.read", lambda a, k, s: {"decoded": len(s)}),
    "evprune.events.accumulate": ("events.accumulate", lambda a, k, f: {"in_window": f.total()}),
    "evprune.events.resize_to": ("events.resize", None),
    "evprune.events.simulate_events": ("events.simulate", lambda a, k, s: {"simulated": len(s)}),
    "evprune.events.write_events_bin": ("events.write", None),
    "evprune.saliency.patch_scores": ("saliency.scores", None),
    "evprune.saliency.quantile_mask": ("saliency.mask", _retained),
    "evprune.saliency.mask_to_text": ("saliency.mask_text", None),
    "evprune.saliency.apply_mask_to_image": ("saliency.blank", None),
    "evprune.packing.pack_patches": ("packing.pack", lambda a, k, p: {"tokens_kept": len(p)}),
    "evprune.ppm.read_ppm": ("ppm.read", None),
    "evprune.ppm.write_ppm": ("ppm.write", None),
    "evprune.featio.write_features": ("featio.write", None),
}

FRAME_SPAN = "cli"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    frame: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._frame = -1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, frame=self._frame))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def frame(self, frame_id: int):
        """Root span of one frame; every span opened inside carries its id."""
        self._frame = frame_id
        idx = self._open(FRAME_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self._frame = -1

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> int:
        """Wrap every target; returns the number of references replaced."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "evprune" or name.startswith("evprune.")]
        for qualname, (name, counter) in TARGETS.items():
            modname, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(vars(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out
