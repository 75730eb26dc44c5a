"""What the tape keeps: records of node ids, leaves and backward functions
that hold only the arrays their formulas read, and nothing of another tape."""

import inspect
import tracemalloc

import numpy as np
import pytest

import vesselcast.engine as engine
from conftest import micro_config, micro_waterway
from vesselcast.bank import bank_from_samples
from vesselcast.data import generate_scenario
from vesselcast.engine import (
    Rng,
    Tape,
    Tensor,
    add,
    backward,
    clamp,
    concat,
    conv2d,
    exp,
    layer_norm,
    matmul,
    mul,
    narrow,
    neg,
    relu,
    reshape,
    roi_align,
    sigmoid,
    softmax,
    sqrt,
    stack,
    sub,
    tanh,
    tensor,
    tmean,
    transpose,
    tsum,
)
from vesselcast.model import Model

RECORDING_OPS = {
    "add", "sub", "mul", "neg", "matmul", "relu", "sigmoid", "tanh", "exp", "sqrt", "clamp",
    "tsum", "reshape", "transpose", "concat", "narrow", "softmax", "layer_norm", "conv2d", "roi_align",
}


def rand(rng, shape):
    return np.array(rng.normals(int(np.prod(shape)))).reshape(shape)


def _contents(value):
    """value itself, or every item of it, recursively, when it is a tuple or list."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _contents(item)
    else:
        yield value


def test_recording_ops_are_the_engine_functions_that_record():
    recording = {name for name in engine.__all__
                 if inspect.isfunction(getattr(engine, name)) and "_make(" in inspect.getsource(getattr(engine, name))}
    assert recording == RECORDING_OPS


def test_no_record_holds_a_tensor():
    """Every backward function's closure holds arrays, shapes and indices,
    never a Tensor; every target is a node id, a leaf or None."""
    rng = Rng(5)
    w = tensor(rand(rng, (2, 3)), requires_grad=True)
    gain = tensor(np.ones(3), requires_grad=True)
    bias = tensor(np.zeros(3), requires_grad=True)
    x = tensor(rand(rng, (1, 2, 6, 6)), requires_grad=True)
    k = tensor(rand(rng, (2, 2, 3, 3)), requires_grad=True)
    with Tape():
        old = mul(w, 2.0)
    with Tape() as tape:
        m = neg(mul(sub(add(w, 1.0), old), w))
        y = clamp(sqrt(exp(tanh(sigmoid(relu(matmul(m, transpose(w))))))), 0.5, 2.0)
        normed = layer_norm(m, gain, bias)
        pooled = roi_align(conv2d(x, k, padding=1), np.array([[0.0, 0.0, 4.0, 4.0]]), 2, 1.0)
        row = concat([tsum(softmax(y), axis=0), tmean(normed, axis=0), reshape(narrow(pooled, 1, 0, 1), (4,))])
        loss = tsum(stack([row, row]))
        backward(loss)
    assert len(tape) == loss.node_id + 1
    for targets, backward_fn in tape.nodes:
        assert all(t is None or type(t) is int or (isinstance(t, Tensor) and t.node_id is None and t.requires_grad)
                   for t in targets), targets
        held = [v for cell in backward_fn.__closure__ or () for v in _contents(cell.cell_contents)]
        assert not any(isinstance(v, Tensor) for v in held), backward_fn.__qualname__
    leaves = {id(t) for targets, _ in tape.nodes for t in targets if isinstance(t, Tensor)}
    assert leaves == {id(w), id(gain), id(bias), id(x), id(k)}


def test_taped_conv_relu_holds_only_the_relu_mask():
    """Of `tsum(relu(add(conv2d(x, k), b)))` the tape keeps the relu mask:
    the conv output, the bias sum and the relu output are freed."""
    rng = Rng(4)
    x = tensor(rand(rng, (2, 4, 32, 32)), requires_grad=True)
    k = tensor(rand(rng, (8, 4, 3, 3)), requires_grad=True)
    b = tensor(rand(rng, (8, 1, 1)), requires_grad=True)
    tsum(relu(add(conv2d(x, k, padding=1), b)))  # a first call outside the measurement
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            loss = tsum(relu(add(conv2d(x, k, padding=1), b)))
            held = tracemalloc.get_traced_memory()[0] - before
            backward(loss)
    finally:
        tracemalloc.stop()
    mask = 2 * 8 * 32 * 32  # one bool per output
    assert held <= mask + 16 * 1024, held
    assert k.grad is not None and b.grad is not None and x.grad is not None


def test_loss_batch_tape_stays_under_its_memory_bound():
    """A guard on what one training step's tape holds after the forward pass:
    6 vessels, raster 24, 4 stem channels, 4 observed steps hold about 1.6 MB.
    Kept every op output and every parent, the same tape held 2.9 MB."""
    cfg = micro_config(raster_size=24, stem_channels=(4, 4, 4), t_obs=4)
    samples = generate_scenario(micro_waterway(raster_size=24, t_obs=4), seed=42)
    bank = bank_from_samples(samples, 4, seed=0)
    model = Model(cfg)
    with Tape():
        model.loss_batch(samples, rng=Rng(1), bank=bank)  # fills lazy caches
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            total, _, _, _ = model.loss_batch(samples, rng=Rng(1), bank=bank)
            held = tracemalloc.get_traced_memory()[0] - before
            backward(total)
    finally:
        tracemalloc.stop()
    assert held <= 2_000_000, held


def test_a_tensor_from_an_earlier_tape_is_a_constant():
    """Used under a new tape, a tensor recorded on an earlier one passes no
    gradient back: every leaf gets exactly what it gets with that tensor's
    values as a constant."""
    rng = Rng(6)
    w = tensor(rand(rng, (3,)), requires_grad=True)
    v = tensor(rand(rng, (3,)), requires_grad=True)
    with Tape():
        old = mul(w, v)
    grads = []
    for h in (old, tensor(old.data)):
        w.zero_grad()
        v.zero_grad()
        with Tape():
            backward(tsum(add(mul(h, w), mul(h, v))))
        grads.append((w.grad, v.grad))
    (w_got, v_got), (w_want, v_want) = grads
    assert w_got.tobytes() == w_want.tobytes() and v_got.tobytes() == v_want.tobytes()
    assert np.array_equal(w_got, old.data)


def test_an_old_node_id_never_indexes_the_new_tapes_gradients():
    """`old` has node id 0 on its tape, and so does `a` on the new one; the
    new record keeps None for `old`, and `a` gets no gradient from it."""
    w = tensor([1.0, -2.0, 0.5], requires_grad=True)
    with Tape():
        old = mul(w, 5.0)
    with Tape() as tape:
        a = mul(w, 3.0)
        loss = tsum(mul(a, old))
        backward(loss)
    assert old.node_id == a.node_id == 0
    assert tape.nodes[1][0] == (0, None)
    assert np.array_equal(w.grad, 3.0 * old.data)


def test_backward_rejects_a_loss_from_another_tape():
    w = tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = tsum(mul(w, w))
    with Tape() as tape:
        tsum(mul(add(w, 1.0), w))
        assert loss.node_id < len(tape)
        with pytest.raises(RuntimeError, match="not recorded on the active tape"):
            backward(loss)
    assert w.grad is None
