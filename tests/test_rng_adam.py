import numpy as np
import pytest

from vesselcast.engine import Adam, Rng, Tape, backward, tensor, tsum


def test_rng_same_seed_same_stream():
    a, b = Rng(123), Rng(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_rng_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_rng_uniform_range_and_moments():
    rng = Rng(42)
    xs = np.array(rng.uniforms(20000))
    assert np.all((xs >= 0) & (xs < 1))
    assert abs(xs.mean() - 0.5) < 0.01
    assert abs(xs.var() - 1 / 12) < 0.005


@pytest.mark.parametrize("n", [1, 1000, 99_991])
@pytest.mark.parametrize("advanced", [0, 3])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_rng_uniforms_equal_scalar_loop(seed, advanced, n):
    looped, batched = Rng(seed), Rng(seed)
    for rng in (looped, batched):
        for _ in range(advanced):
            rng.uniform()
    expected = np.array([looped.uniform(-0.3, 0.7) for _ in range(n)])
    got = batched.uniforms(n, -0.3, 0.7)
    assert got.tobytes() == expected.tobytes()
    assert batched.counter == looped.counter


@pytest.mark.parametrize("n", [0, 1, 80, 9_999])
@pytest.mark.parametrize("advanced", [0, 3])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_rng_normals_equal_scalar_loop(seed, advanced, n):
    looped, batched = Rng(seed), Rng(seed)
    for rng in (looped, batched):
        for _ in range(advanced):
            rng.uniform()
    expected = np.array([looped.normal() for _ in range(n)])
    got = np.array(batched.normals(n))
    assert got.tobytes() == expected.tobytes()
    assert batched.counter == looped.counter


@pytest.mark.parametrize("draw", ["uniforms", "normals"])
def test_rng_negative_count_fails_without_moving_the_counter(draw):
    rng = Rng(0)
    with pytest.raises(ValueError, match="negative count"):
        getattr(rng, draw)(-1)
    assert rng.counter == 0


def test_rng_normal_moments():
    rng = Rng(7)
    xs = np.array(rng.normals(20000))
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


def test_rng_shuffle_deterministic():
    a = list(range(20))
    b = list(range(20))
    Rng(9).shuffle(a)
    Rng(9).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))


def test_rng_child_streams_independent():
    base = Rng(5)
    c1, c2 = base.child(1), base.child(2)
    assert c1.next_u64() != c2.next_u64()
    assert Rng(5).child("cell-a").next_u64() == Rng(5).child("cell-a").next_u64()


def test_adam_zero_gradient_is_identity():
    w = tensor([1.0, -2.0, 3.0], requires_grad=True)
    before = w.data.copy()
    opt = Adam({"w": w}, lr=0.1)
    w.grad = np.zeros(3)
    opt.step()
    assert np.array_equal(w.data, before)


def adam_hand_oracle(w, g, lr, steps, b1=0.9, b2=0.999, eps=1e-8):
    """Direct transcription of the Adam recurrences."""
    m = v = 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        w = w - lr * mh / (np.sqrt(vh) + eps)
    return w


def test_adam_first_step_hand_oracle():
    w = tensor([1.0], requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)
    w.grad = np.array([1.0])
    opt.step()
    expected = adam_hand_oracle(1.0, 1.0, 0.1, 1)
    assert w.data[0] == pytest.approx(expected, abs=1e-15)
    assert w.data[0] == pytest.approx(0.9, abs=1e-6)


def test_adam_converges_on_quadratic():
    w = tensor([1.0], requires_grad=True)
    opt = Adam({"w": w}, lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        with Tape():
            backward(tsum(w * w))
        opt.step()
    assert abs(w.data[0]) < 1e-2
