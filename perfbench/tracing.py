"""Per-layer spans recorded from outside the package.

Each wrapped function becomes a span named ``<module>.<function>``. A span's
self time is its duration minus the time covered by the spans it encloses.
Functions are wrapped where they are looked up at call time: a name imported
into another module is patched in that module too, so the same span name can
have several patch sites.

Spans are aggregated in memory (calls, self seconds) and turned into metrics
once the traced pass ends. Self time is reported as a share of the traced
pass's wall time (``<span>.self_pct``) next to that wall time
(``trace.wall_ms``), so every absolute self time is ``self_pct * wall_ms / 100``
and a layer that never runs reads 0 % rather than a constant 0 ms.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# span name -> patch sites: (module, attribute path) where a caller on the
# benchmark's paths looks the function up
SPANS = {
    "engine.conv.conv2d": [("vesselcast.scene_encoder", "conv2d")],
    "engine.conv.roi_align": [("vesselcast.scene_encoder", "roi_align")],
    "engine.tensor.backward": [("vesselcast.train", "backward")],
    "engine.optim.Adam.step": [("vesselcast.engine.optim", "Adam.step")],
    "scene_encoder.encode_scene_sequence": [("vesselcast.model", "encode_scene_sequence")],
    "scene_encoder.stem_forward": [("vesselcast.scene_encoder", "stem_forward")],
    "scene_encoder.spatial_features": [("vesselcast.scene_encoder", "spatial_features")],
    "scene_encoder.temporal_context": [("vesselcast.scene_encoder", "temporal_context")],
    "scene_encoder.convlstm_step": [("vesselcast.scene_encoder", "convlstm_step")],
    "fusion.encode_and_fuse": [("vesselcast.model", "encode_and_fuse")],
    "fusion.cross_modal_block": [("vesselcast.fusion", "cross_modal_block")],
    "fusion.attention": [("vesselcast.fusion", "attention")],
    "decoder.predict_modes": [("vesselcast.model", "predict_modes")],
    "bank.search": [("vesselcast.model", "search")],
    "bank.refine_and_fuse": [("vesselcast.model", "refine_and_fuse")],
    "bank.bank_from_samples": [("vesselcast.bank", "bank_from_samples")],
    "bank.load_bank": [("vesselcast.bank", "load_bank"), ("vesselcast.cli", "load_bank")],
    "losses.sample_losses": [("vesselcast.model", "sample_losses")],
    "model.Model.forward_sample": [("vesselcast.model", "Model.forward_sample")],
    "model.Model.loss_batch": [("vesselcast.model", "Model.loss_batch")],
    "model.Model.predict": [("vesselcast.model", "Model.predict")],
    "train.train": [("vesselcast.cli", "train")],
    "evaluate.evaluate": [("vesselcast.cli", "evaluate")],
    "evaluate.write_report": [("vesselcast.cli", "write_report")],
    "data.generate_scenario": [("vesselcast.data", "generate_scenario")],
    "data.write_dataset": [("vesselcast.data", "write_dataset")],
    "data.read_dataset": [("vesselcast.data", "read_dataset"), ("vesselcast.cli", "read_dataset")],
    "data.apply_dark_vessels": [("vesselcast.data", "apply_dark_vessels"),
                                ("vesselcast.evaluate", "apply_dark_vessels")],
    "checkpoint.save_model": [("vesselcast.checkpoint", "save_model"),
                              ("vesselcast.cli", "save_model")],
    "checkpoint.load_model": [("vesselcast.checkpoint", "load_model"),
                              ("vesselcast.cli", "load_model")],
    "hashutil.fnv1a64": [("vesselcast.cli", "fnv1a64"), ("vesselcast.checkpoint", "fnv1a64")],
    "cli.main": [("vesselcast.cli", "main")],
}

# counts derived from span arguments or from the package's own diagnostics
DERIVED = (
    ("engine.conv.degenerate_rois", "count"),
    ("engine.tensor.tape_nodes_per_step", "count"),
    ("scene_encoder.encodes_per_vessel", "ratio"),
    ("bank.refined_share", "share"),
    ("hashutil.fnv1a64.bytes", "bytes"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_pct"] = "%"
    units.update(DERIVED)
    return units


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Wraps every site in SPANS; `uninstall` restores the originals."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.fnv_bytes = 0
        self.tape_nodes: list[int] = []
        self.vessel_ids: set[str] = set()
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _observe(self, name: str, args) -> None:
        if name == "hashutil.fnv1a64":
            data = args[0]
            self.fnv_bytes += len(data.encode("utf-8") if isinstance(data, str) else data)
        elif name == "engine.tensor.backward":
            # the tape up to the loss node is what one backward pass walks
            self.tape_nodes.append(args[0].node_id + 1)
        elif name == "model.Model.forward_sample":
            self.vessel_ids.add(args[1].vessel_id)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._observe(name, args)
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children[0]

        return traced

    def install(self) -> None:
        for name, sites in SPANS.items():
            for module, path in sites:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s: float, untraced_wall_s: float, degenerate_rois: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_pct"] = 100.0 * self.self_s[span] / wall_s
        forwards = self.calls["model.Model.forward_sample"]
        out["engine.conv.degenerate_rois"] = degenerate_rois
        out["engine.tensor.tape_nodes_per_step"] = (
            sum(self.tape_nodes) / len(self.tape_nodes) if self.tape_nodes else 0
        )
        out["scene_encoder.encodes_per_vessel"] = (
            self.calls["scene_encoder.encode_scene_sequence"] / len(self.vessel_ids)
            if self.vessel_ids else 0
        )
        out["bank.refined_share"] = self.calls["bank.search"] / forwards if forwards else 0
        out["hashutil.fnv1a64.bytes"] = self.fnv_bytes
        out["trace.wall_ms"] = 1000.0 * wall_s
        out["trace.overhead_pct"] = 100.0 * (wall_s / untraced_wall_s - 1.0)
        return out
