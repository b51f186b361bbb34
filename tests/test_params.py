import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import zero_grads
from stc.params import (
    CHECKPOINT_MAGIC,
    ParamSet,
    load_params,
    save_params,
    sgd_step,
)


def make_params(**arrays) -> ParamSet:
    ps = ParamSet()
    for name, v in arrays.items():
        ps.add(name, v)
    return ps


class TestSgdStep:
    def test_vanilla_sgd_decreases_by_lr_times_grad(self):
        ps = make_params(w=[1.0, 2.0])
        ps["w"].grad[:] = [3.0, -1.0]
        sgd_step(ps, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(ps["w"].value, [1.0 - 0.3, 2.0 + 0.1])

    def test_zero_grad_zero_velocity_is_noop(self):
        ps = make_params(w=[4.0])
        sgd_step(ps, lr=0.5, momentum=0.9, weight_decay=0.0)
        assert ps["w"].value[0] == 4.0

    def test_two_momentum_steps_hand_unrolled(self):
        # constant grad g: updates lr*g then lr*1.9*g
        ps = make_params(w=[0.0])
        lr, g = 0.01, 2.0
        for _ in range(2):
            ps["w"].grad[:] = g
            sgd_step(ps, lr=lr, momentum=0.9, weight_decay=0.0)
        assert ps["w"].value[0] == pytest.approx(-lr * g * (1.0 + 1.9), abs=1e-15)

    def test_weight_decay_enters_velocity(self):
        ps = make_params(w=[10.0])
        sgd_step(ps, lr=0.1, momentum=0.0, weight_decay=0.5)
        assert ps["w"].value[0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0)

    def test_nonfinite_grad_names_parameter(self):
        ps = make_params(good=[1.0], bad=[1.0])
        ps["bad"].grad[:] = np.nan
        with pytest.raises(ValueError, match="bad"):
            sgd_step(ps, lr=0.1, momentum=0.0, weight_decay=0.0)

    def test_grads_zeroed_after_step(self):
        ps = make_params(w=[1.0])
        ps["w"].grad[:] = 5.0
        sgd_step(ps, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert ps["w"].grad[0] == 0.0

    def test_reduces_quadratic_loss(self):
        ps = make_params(w=[3.0, -2.0])
        loss = lambda: float((ps["w"].value ** 2).sum())
        before = loss()
        for _ in range(5):
            ps["w"].grad[:] = 2.0 * ps["w"].value
            sgd_step(ps, lr=0.05, momentum=0.0, weight_decay=0.0)
            after = loss()
            assert after < before
            before = after

    def test_subset_shares_parameters(self):
        ps = make_params(a=[1.0], b=[2.0])
        sub = ps.subset(["b"])
        sub["b"].grad[:] = 1.0
        sgd_step(sub, lr=1.0, momentum=0.0, weight_decay=0.0)
        assert ps["b"].value[0] == 1.0
        assert ps["a"].value[0] == 1.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path, ):
        rng = np.random.default_rng(7)
        ps = make_params(
            **{"conv1.weight": rng.normal(size=(4, 3, 3, 3)), "conv1.bias": np.zeros(4)}
        )
        ps["conv1.bias"].grad[:] = 9.0
        ps["conv1.bias"].velocity[:] = 9.0
        path = tmp_path / "net.stcp"
        save_params(ps, path)
        back = load_params(path)
        assert back.names() == ps.names()
        for name in ps.names():
            assert np.array_equal(back[name].value, ps[name].value)
            # gradient and velocity are not serialized
            assert not back[name].grad.any()
            assert not back[name].velocity.any()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.stcp"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_params(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.stcp"
        path.write_bytes(CHECKPOINT_MAGIC + (99).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="version"):
            load_params(path)

    def test_truncated_file_names_path(self, tmp_path):
        ps = make_params(w=np.ones((8, 8)))
        path = tmp_path / "net.stcp"
        save_params(ps, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_params(path)

    def test_trailing_bytes_rejected_naming_path(self, tmp_path):
        ps = make_params(w=np.ones((2, 2)), b=[0.5])
        path = tmp_path / "net.stcp"
        save_params(ps, path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ValueError, match=r"net\.stcp.*7 trailing bytes"):
            load_params(path)

    def test_serialization_is_deterministic(self, tmp_path):
        ps = make_params(a=np.arange(6.0).reshape(2, 3), b=[1.5])
        p1, p2 = tmp_path / "a.stcp", tmp_path / "b.stcp"
        save_params(ps, p1)
        save_params(ps, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "net.stcp"
        save_params(make_params(a=np.ones((2, 3)), b=[1.5]), path)
        before = path.read_bytes()
        update = make_params(a=np.zeros((2, 3)), b=[2.5])
        to_bytes = np.ascontiguousarray
        calls = []

        def fail_on_second_entry(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            return to_bytes(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", fail_on_second_entry)
        with pytest.raises(OSError, match="disk full"):
            save_params(update, path)
        monkeypatch.undo()
        assert len(calls) == 2  # the failure came after the first entry
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.stcp"]


def test_duplicate_name_rejected():
    ps = make_params(w=[1.0])
    with pytest.raises(ValueError, match="duplicate"):
        ps.add("w", [2.0])


def test_zero_grads_is_a_test_helper():
    # only tests zero gradients outside sgd_step, so ParamSet has no method for it
    assert not hasattr(ParamSet, "zero_grads")
    ps = make_params(w=np.ones((2, 3)), b=np.ones(2))
    for name in ps:
        ps[name].grad[...] = 2.0
    zero_grads(ps)
    assert not any(ps[name].grad.any() for name in ps)


def _entry(name: bytes, values) -> bytes:
    values = np.asarray(values, dtype="<f8")
    return (
        len(name).to_bytes(2, "little") + name + bytes([values.ndim])
        + b"".join(d.to_bytes(4, "little") for d in values.shape) + values.tobytes()
    )


def _checkpoint(*entries: bytes) -> bytes:
    return (
        CHECKPOINT_MAGIC + (1).to_bytes(4, "little") + len(entries).to_bytes(4, "little")
        + b"".join(entries)
    )


@pytest.mark.parametrize(
    "entries, want",
    [
        ((_entry(b"w\xff", [1.0]),), "name of entry 0 is not UTF-8"),
        ((_entry(b"a", [1.0]), _entry(b"b", [1.0, np.nan])), "'b' has a non-finite value"),
        ((_entry(b"a", [[np.inf]]),), "'a' has a non-finite value"),
        ((_entry(b"a", [1.0]), _entry(b"a", [2.0])), "duplicate parameter 'a'"),
        # no values to read, but no array has these dims
        (
            (b"\x01\x00a\x03" + np.array([2**32 - 1, 2**32 - 1, 0], "<u4").tobytes(),),
            "'a' has shape (4294967295, 4294967295, 0), too large for an array",
        ),
    ],
    ids=["name-not-utf8", "nan", "inf", "duplicate", "huge-empty"],
)
def test_malformed_entry_rejected_naming_file_and_parameter(tmp_path, entries, want):
    path = tmp_path / "net.stcp"
    path.write_bytes(_checkpoint(*entries))
    with pytest.raises(ValueError) as err:
        load_params(path)
    assert str(err.value).startswith(f"{path}: ") and want in str(err.value), err.value


def test_dims_whose_product_overflows_int64_are_a_truncation(tmp_path):
    path = tmp_path / "net.stcp"
    # (2**32 - 1)**2 wraps to a negative int64
    dims = b"".join((2**32 - 1).to_bytes(4, "little") for _ in range(2))
    path.write_bytes(_checkpoint(b"\x01\x00a\x02" + dims))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: truncated"):
        load_params(path)


def _checkpoint_fields() -> tuple[bytes, list[tuple[int, int]]]:
    """A valid two-entry checkpoint and the (offset, length) of each of its
    header fields: magic, version, count, and per entry the name length,
    the name, the rank and each dim."""
    entries = [_entry(b"conv1.weight", np.linspace(-1, 1, 6).reshape(2, 3)), _entry(b"b", [0.5])]
    raw = _checkpoint(*entries)
    fields, off = [(0, 4), (4, 4), (8, 4)], 12
    for name, dims in ((b"conv1.weight", (2, 3)), (b"b", (1,))):
        fields += [(off, 2), (off + 2, len(name)), (off + 2 + len(name), 1)]
        off += 3 + len(name)
        fields += [(off + 4 * k, 4) for k in range(len(dims))]
        off += 4 * len(dims) + 8 * int(np.prod(dims))
    return raw, fields


CHECKPOINT, FIELDS = _checkpoint_fields()
# a second valid checkpoint, whose tail a splice joins to the head of the first
OTHER_CHECKPOINT = _checkpoint(_entry(b"head.bias", [1.0, -2.0, 3.0]))


@settings(max_examples=300)
@given(
    mutation=st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 120)),
        st.tuples(st.just("flip"), st.integers(0, 120), st.integers(1, 255)),
        st.tuples(st.just("token"), st.integers(0, len(FIELDS) - 1), st.binary(max_size=4)),
        st.tuples(st.just("splice"), st.integers(0, 120), st.integers(0, 60)),
    )
)
def test_mutated_checkpoint_loads_finite_values_or_raises_naming_the_file(
    tmp_path_factory, mutation
):
    raw = bytearray(CHECKPOINT)
    if mutation[0] == "truncate":
        del raw[mutation[1]:]
    elif mutation[0] == "flip" and mutation[1] < len(raw):
        raw[mutation[1]] ^= mutation[2]
    elif mutation[0] == "token":
        off, length = FIELDS[mutation[1]]
        raw[off : off + length] = mutation[2][:length].ljust(length, b"\xff")
    elif mutation[0] == "splice":
        raw[mutation[1]:] = OTHER_CHECKPOINT[mutation[2]:]
    path = tmp_path_factory.getbasetemp() / "fuzz.stcp"
    path.write_bytes(bytes(raw))
    try:
        params = load_params(path)
    except ValueError as e:
        assert str(e).startswith(f"{path}: "), e
        return
    for name in params:
        value = params[name].value
        assert value.dtype == np.float64 and np.isfinite(value).all(), name
