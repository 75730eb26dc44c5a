import subprocess
import sys

import pytest

TAPE_SCRIPT = r"""
import numpy as np
from vesselcast.engine import Rng, Tape, backward, conv2d, layer_norm, matmul, softmax, tensor, tsum
from vesselcast.hashutil import fnv1a64

rng = Rng(2024)
def rand(shape, lo=-1.0, hi=1.0):
    return np.array(rng.uniforms(int(np.prod(shape)), lo, hi)).reshape(shape)

w1 = tensor(rand((6, 8)), requires_grad=True)
w2 = tensor(rand((8, 4)), requires_grad=True)
k = tensor(rand((2, 1, 3, 3)), requires_grad=True)
gain = tensor(rand((4,), 0.5, 1.5), requires_grad=True)
bias = tensor(rand((4,)), requires_grad=True)
x = tensor(rand((5, 6)))
img = tensor(rand((1, 7, 7)))

with Tape():
    h = softmax(matmul(x, w1), axis=-1)
    y = layer_norm(matmul(h, w2), gain, bias)
    conv = conv2d(img, k, stride=2, padding=1)
    loss = tsum(y * y) + tsum(conv * 0.3)
    backward(loss)

buf = loss.data.tobytes() + y.data.tobytes() + conv.data.tobytes()
for t in (w1, w2, k, gain, bias):
    buf += t.grad.tobytes()
print(fnv1a64(buf))
"""

CHECKPOINT_SCRIPT = r"""
import hashlib
import sys
from vesselcast.checkpoint import save_model
from vesselcast.config import TrainConfig
from vesselcast.model import Model

cfg = TrainConfig(
    t_obs=2, t_fut=3, modes=2, d_model=4, heads=2, latent_dim=2, stem_channels=(2, 2, 2),
    roi_size=2, bbox_dim=4, raster_size=12, offset_hidden=8,
)
save_model(sys.argv[1], Model(cfg, seed=5))
with open(sys.argv[1], "rb") as f:
    print(hashlib.sha256(f.read()).hexdigest())
"""

# eval caches scene features per vessel and fusions per (vessel, mask); a key
# built on object ids or on hash-seeded iteration order would differ between
# processes, and so would the report
EVAL_SCRIPT = r"""
import dataclasses
import hashlib
import sys
import numpy as np
from vesselcast.bank import bank_from_samples
from vesselcast.config import TrainConfig
from vesselcast.data import WaterwayConfig, generate_scenario
from vesselcast.evaluate import evaluate, write_report
from vesselcast.model import Model

cfg = TrainConfig(
    t_obs=2, t_fut=3, modes=2, d_model=4, heads=2, latent_dim=2, stem_channels=(2, 2, 2),
    roi_size=2, bbox_dim=4, raster_size=12, offset_hidden=8,
)
samples = generate_scenario(WaterwayConfig(vessel_count=6, t_obs=2, t_fut=3, raster_size=12, bbox_half=2.0), seed=42)
samples[0] = dataclasses.replace(samples[0], ais_mask=np.array([False, True]))
bank = bank_from_samples(samples, 4, seed=0)
report = evaluate(samples, Model(cfg, seed=5), bank, dts=[2, 3], rhos=[0.0, 0.5], seeds=[0, 1])
write_report(sys.argv[1], report)
with open(sys.argv[1], "rb") as f:
    print(hashlib.sha256(f.read()).hexdigest())
"""


@pytest.mark.parametrize("script", [TAPE_SCRIPT, CHECKPOINT_SCRIPT, EVAL_SCRIPT], ids=["tape", "checkpoint", "eval"])
def test_tape_replay_bit_identical_across_processes(tmp_path, script):
    outs = []
    for i in range(2):
        out = str(tmp_path / f"out{i}.bin")
        proc = subprocess.run([sys.executable, "-c", script, out], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.strip())
    assert outs[0] == outs[1]
