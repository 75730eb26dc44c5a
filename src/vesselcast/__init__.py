"""Multimodal vessel trajectory prediction on synthetic waterway scenarios.

Fuses positional tracks, camera tracks, and rasterized scene context through
a cross-modal attention pipeline with a deterministic multi-mode decoder and a
prototype-bank refinement stage, all built on a small taped autodiff engine.
"""

__version__ = "0.1.0"
