"""`evaluate` against a reference scorer that loops over vessels, modes and mode pairs.

The reference scores each (cell, seed) one vessel at a time, takes best-of-K
with Python's `min` over a per-mode loop, and sums mode pairs and vessels
left to right in Python floats. A vessel has a constant-velocity baseline
only when both steps it reads are broadcast; `cv_*` average over those
vessels, and over the seeds with any. The report must match it bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from conftest import micro_config, micro_waterway
from vesselcast.bank import bank_from_samples
from vesselcast.data import DENSITY_LEVELS, apply_dark_vessels, generate_scenario
from vesselcast.engine import Rng
from vesselcast.evaluate import _METRICS, evaluate
from vesselcast.metrics import constant_velocity_baseline
from vesselcast.model import Model

T_FUT = 9  # long enough that numpy's pairwise summation applies to a track's mean


def loop_ade_fde(pred, gt):
    d = np.linalg.norm(pred - gt, axis=1)
    return float(d.mean()), float(d[-1])


def loop_vessel_metrics(ais, cctv, sample, dt):
    """The vessel's `_METRICS`, with None for `cv_*` when it has no baseline."""
    gt_a, gt_c = sample.fut_ais[:dt], sample.fut_cctv[:dt]
    span = min(3, sample.t_obs - 1)
    has_cv = sample.ais_mask[-1] and sample.ais_mask[-1 - span]
    a_pairs = [loop_ade_fde(p, gt_a) for p in ais]
    c_pairs = [loop_ade_fde(p, gt_c) for p in cctv]
    total = 0.0
    count = 0
    for i in range(len(ais)):
        for j in range(i + 1, len(ais)):
            total += loop_ade_fde(ais[i], ais[j])[0]
            count += 1
    return (
        min(a for a, _ in a_pairs),
        min(f for _, f in a_pairs),
        *a_pairs[0],
        min(a for a, _ in c_pairs),
        min(f for _, f in c_pairs),
        *c_pairs[0],
        *(loop_ade_fde(constant_velocity_baseline(sample.obs_ais, dt), gt_a) if has_cv else (None, None)),
        total / count if count else 0.0,
    )


def reference_cells(samples, model, bank, dts, rhos, seeds):
    """(dt, density, rho, n_samples, mean, std) per cell, scored one vessel at a time."""
    cells = []
    for dt in sorted(dts):
        for density in DENSITY_LEVELS:
            pool = [s for s in samples if s.density == density]
            for rho in sorted(rhos):
                key = f"dt={dt}/density={density}/rho={rho!r}"
                per_seed = []
                for seed in seeds if pool else []:
                    dark = apply_dark_vessels(pool, rho, seed=Rng(seed).child(key).child("dark-selection").seed)
                    sums = dict.fromkeys(_METRICS, 0.0)
                    counts = dict.fromkeys(_METRICS, 0)
                    for sample in sorted(dark, key=lambda s: s.vessel_id):
                        preds = model.predict(sample, bank=bank)
                        values = loop_vessel_metrics(preds.ais[:, :dt], preds.cctv[:, :dt], sample, dt)
                        for name, value in zip(_METRICS, values):
                            if value is not None:
                                sums[name] += value
                                counts[name] += 1
                    per_seed.append({name: sums[name] / counts[name] for name in _METRICS if counts[name]})
                mean, std = {}, {}
                for name in _METRICS:
                    vals = np.array([m[name] for m in per_seed if name in m])
                    if len(vals):
                        mean[name] = float(vals.mean())
                        std[name] = float(vals.std())
                cells.append((dt, density, rho, len(pool), mean, std))
    return cells


def as_bits(values: dict) -> dict:
    return {name: float(v).hex() for name, v in values.items()}


def mask_some(samples):
    """The pool with a mix of broadcast masks: three vessels partly masked and
    one already dark.

    The encoding depends on the mask, so eval's per-(vessel, mask) rows must
    key on the mask: keyed on the vessel, one of these vessels would meet an
    encoding made under another mask in some (cell, seed).
    """
    first, last = np.array([True, False]), np.array([False, True])
    out = list(samples)
    out[1] = dataclasses.replace(out[1], ais_mask=first)
    out[2] = dataclasses.replace(out[2], ais_mask=last)
    out[3] = dataclasses.replace(out[3], ais_mask=np.zeros(2, dtype=bool))
    out[4] = dataclasses.replace(out[4], ais_mask=last)
    return out


@pytest.mark.parametrize("modes", [1, 5])
@pytest.mark.parametrize("pool", ["one-vessel", "many-vessel", "mixed-masks"])
def test_evaluate_matches_loop_reference_bit_for_bit(modes, pool):
    samples = generate_scenario(micro_waterway(vessel_count=10, t_fut=T_FUT), seed=11)
    # every vessel in one density tier, so one pool holds them all
    samples = [dataclasses.replace(s, density="medium") for s in samples]
    if pool == "one-vessel":
        samples = samples[:1]
    elif pool == "mixed-masks":
        samples = mask_some(samples)
    model = Model(micro_config(modes=modes, t_fut=T_FUT))
    bank = bank_from_samples(samples, 4, seed=0)
    args = dict(dts=[3, T_FUT], rhos=[0.0, 0.3, 1.0], seeds=list(range(8)))
    cells = evaluate(samples, model, bank, **args)
    want = reference_cells(samples, model, bank, **args)
    got = [(c.dt, c.density, c.rho, c.n_samples, c.mean, c.std) for c in cells]
    assert len(got) == len(want)
    assert sum(cell[3] for cell in got) == len(samples) * len(args["dts"]) * len(args["rhos"])
    for g, w in zip(got, want):
        assert g[:4] == w[:4]
        assert as_bits(g[4]) == as_bits(w[4]), g[:3]
        assert as_bits(g[5]) == as_bits(w[5]), g[:3]
