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


@pytest.mark.parametrize("script", [TAPE_SCRIPT, CHECKPOINT_SCRIPT], ids=["tape", "checkpoint"])
def test_tape_replay_bit_identical_across_processes(tmp_path, script):
    outs = []
    for i in range(2):
        out = str(tmp_path / f"out{i}.bin")
        proc = subprocess.run([sys.executable, "-c", script, out], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.strip())
    assert outs[0] == outs[1]
