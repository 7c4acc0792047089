import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairformer.autodiff as ad
from fairformer.errors import FairformerError, ModelError
from fairformer.hops import HopStack
from fairformer.metrics import predict_labels, statistical_parity
from fairformer.model import (ModelConfig, cross_entropy, encoder_layer, forward, init_model,
                              load_model, project_tokens, readout, save_model)
from fairformer.oracles import fd_gradient
from model_oracle import forward_direct


def make_stack(n=5, k=2, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return HopStack(tensor=rng.standard_normal((n, k + 1, d)))


def small_params(d_input=6, **kw):
    cfg = ModelConfig(**{"d_hidden": 8, "layers": 1, "heads": 1, "dropout": 0.0, "seed": 3,
                         **kw})
    return init_model(cfg, d_input)


def record_attention(monkeypatch) -> list:
    """Every attention weight array computed from here on: the 3-D outputs of
    `softmax_rows` (the readout's weights are 2-D)."""
    collected = []
    softmax_rows = ad.softmax_rows

    def recording(t):
        out = softmax_rows(t)
        if out.data.ndim == 3:
            collected.append(out.data.copy())
        return out

    monkeypatch.setattr(ad, "softmax_rows", recording)
    return collected


@pytest.mark.parametrize("shape,names", [({"d_hidden": 10**9}, "d_hidden=1000000000"),
                                         ({"layers": 10**9}, "layers=1000000000")],
                         ids=["hidden", "layers"])
def test_model_that_cannot_fit_is_refused_before_it_is_allocated(shape, names):
    tracemalloc.start()
    try:
        with pytest.raises(FairformerError, match=rf"model of d_input=6 .*{names}.* needs about"):
            init_model(ModelConfig(**shape), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_param_count_of_the_refusal_matches_the_model(monkeypatch):
    sizes = []
    monkeypatch.setattr("fairformer.model.refuse_unfit", lambda need, what: sizes.append(need))
    params = small_params(layers=3)
    assert sizes == [6 * 8 * sum(t.data.size for t in params.trainable())]


def test_projection_identity_passthrough():
    stack = make_stack(n=3, k=1, d=8)
    params = small_params(d_input=8, d_hidden=8)
    params.tensors["projection.weight"].data = np.eye(8)
    params.tensors["projection.bias"].data = np.zeros(8)
    tokens = project_tokens(stack, params)
    assert np.allclose(tokens.data, stack.tensor, atol=1e-15)


def test_projection_matches_matmul_oracle():
    stack = make_stack(n=4, k=3, d=5, seed=2)
    params = small_params(d_input=5)
    tokens = project_tokens(stack, params)
    w = params["projection.weight"].data
    b = params["projection.bias"].data
    for v in range(4):
        want = stack.tensor[v] @ w + b
        assert np.allclose(tokens.data[v], want, atol=1e-12)


def test_projection_k_zero_single_token():
    stack = make_stack(n=3, k=0, d=6)
    tokens = project_tokens(stack, small_params())
    assert tokens.data.shape == (3, 1, 8)


def test_projection_width_mismatch():
    with pytest.raises(FairformerError):
        project_tokens(make_stack(d=4), small_params(d_input=6))


def test_encoder_singleton_attention_weight_is_one(monkeypatch):
    stack = make_stack(n=2, k=0, d=6, seed=5)
    params = small_params()
    tokens = project_tokens(stack, params)
    collected = record_attention(monkeypatch)
    encoder_layer(tokens, params, 0)
    assert np.allclose(collected[0], 1.0)


def test_encoder_identical_tokens_attend_uniformly(monkeypatch):
    rng = np.random.default_rng(7)
    token = rng.standard_normal(6)
    stack = HopStack(tensor=np.tile(token, (3, 2, 1)))
    params = small_params()
    tokens = project_tokens(stack, params)
    collected = record_attention(monkeypatch)
    encoder_layer(tokens, params, 0)
    assert np.allclose(collected[0], 0.5, atol=1e-12)


def test_attention_rows_sum_to_one_every_layer(monkeypatch):
    stack = make_stack(n=4, k=3, d=6, seed=8)
    params = small_params(layers=3)
    collected = record_attention(monkeypatch)
    forward(params, stack)
    assert len(collected) == 3
    for attn in collected:
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-9)


def test_encoder_matches_direct_oracle():
    stack = make_stack(n=6, k=3, d=7, seed=9)
    params = small_params(d_input=7, d_hidden=8)
    logits = forward(params, stack)
    want = forward_direct(params, stack.tensor)
    assert np.max(np.abs(logits.data - want)) <= 1e-9


def test_multihead_reduces_to_single_head_for_one_head():
    stack = make_stack(n=3, k=2, d=6, seed=10)
    params = small_params(heads=1)
    logits = forward(params, stack)
    want = forward_direct(params, stack.tensor)
    assert np.max(np.abs(logits.data - want)) <= 1e-12


def test_two_heads_run_and_differ_from_one_head():
    stack = make_stack(n=3, k=2, d=6, seed=11)
    one = forward(small_params(heads=1), stack)
    two = forward(small_params(heads=2), stack)
    assert one.data.shape == two.data.shape == (3, 2)
    assert not np.allclose(one.data, two.data)


def test_readout_uniform_when_tokens_equal():
    rng = np.random.default_rng(12)
    token = rng.standard_normal(8)
    tokens = ad.Tensor(np.tile(token, (2, 4, 1)))
    params = small_params()
    pooled = readout(tokens, params)
    assert np.allclose(pooled.data, token, atol=1e-12)


def test_readout_zero_query_is_uniform_mean():
    tokens = ad.Tensor(np.random.default_rng(13).standard_normal((3, 4, 8)))
    params = small_params()
    params.tensors["readout.query"].data = np.zeros((8, 1))
    pooled = readout(tokens, params)
    assert np.allclose(pooled.data, tokens.data.mean(axis=1), atol=1e-12)


def test_constant_classifier_is_parity_fair():
    stack = make_stack(n=10, k=1, d=6, seed=15)
    params = small_params()
    params.tensors["classifier.weight"].data = np.zeros((8, 2))
    params.tensors["classifier.bias"].data = np.zeros(2)
    logits = forward(params, stack)
    pred = predict_labels(logits.data)
    assert np.all(pred == 0)
    sens = np.array([0, 1] * 5)
    assert statistical_parity(pred, sens) == 0.0


def test_forward_is_permutation_equivariant():
    stack = make_stack(n=7, k=2, d=6, seed=16)
    params = small_params()
    logits = forward(params, stack).data
    perm = np.random.default_rng(17).permutation(7)
    permuted = HopStack(tensor=stack.tensor[perm])
    logits_perm = forward(params, permuted).data
    assert np.allclose(logits_perm, logits[perm], atol=1e-12)


def test_forward_nan_reports_layer():
    stack = make_stack(n=2, k=1, d=6, seed=18)
    params = small_params(layers=2)
    params.tensors["layer1.ffn_out.weight"].data[0, 0] = np.inf
    with pytest.raises(ModelError, match="layer 1"):
        forward(params, stack)


def test_dropout_training_vs_eval():
    stack = make_stack(n=4, k=2, d=6, seed=19)
    params = small_params(dropout=0.5)
    eval_a = forward(params, stack).data
    eval_b = forward(params, stack).data
    assert np.array_equal(eval_a, eval_b)
    rng = np.random.default_rng(0)
    train_out = forward(params, stack, training=True, rng=rng).data
    assert not np.allclose(train_out, eval_a)
    with pytest.raises(FairformerError):
        forward(params, stack, training=True)


@pytest.mark.parametrize("heads,layers", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_counts_stand_for_repeated_tokens(heads, layers):
    """A counted stack trains as its expanded stack: the logits and every gradient."""
    distinct = make_stack(n=4, k=1, d=6, seed=23).tensor
    expanded = HopStack(tensor=distinct[:, [0, 1, 1, 1]])
    counted = HopStack(tensor=distinct, counts=(1, 3))
    labels = np.array([0, 1, 1, 0])
    params = small_params(heads=heads, layers=layers)  # dropout 0
    logits, grads = [], []
    for stack in (counted, expanded):
        out = forward(params, stack, training=True)
        ad.zero_grads(params.trainable())
        ad.backward(cross_entropy(out, labels))
        logits.append(out.data)
        grads.append({name: t.grad.copy() for name, t in params.tensors.items()})
    np.testing.assert_allclose(logits[0], logits[1], rtol=0, atol=1e-12)
    for name in params.tensors:
        np.testing.assert_allclose(grads[0][name], grads[1][name], rtol=0, atol=1e-12,
                                   err_msg=name)
    if heads == 1:
        np.testing.assert_allclose(logits[0], forward_direct(params, expanded.tensor),
                                   rtol=0, atol=1e-12)
    unit = HopStack(tensor=distinct, counts=(1, 1))  # log 1 = 0 adds nothing
    assert np.array_equal(forward(params, unit).data, forward(params, HopStack(distinct)).data)


def test_cross_entropy_uniform_logits():
    logits = ad.Tensor(np.zeros((4, 2)))
    loss = cross_entropy(logits, [0, 1, 0, 1])
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_end_to_end_gradients_match_finite_differences():
    stack = make_stack(n=5, k=2, d=6, seed=20)
    params = small_params()
    labels = np.array([0, 1, 1, 0, 1])

    names = ["projection.weight", "layer0.wq.weight", "readout.query"]

    logits = forward(params, stack)
    loss = cross_entropy(logits, labels)
    ad.backward(loss)
    got = {name: params[name].grad.copy() for name in names}

    def loss_at(arrays):
        saved = [params[name].data.copy() for name in names]
        for name, arr in zip(names, arrays):
            params.tensors[name].data = arr.copy()
        out = float(cross_entropy(forward(params, stack), labels).data)
        for name, arr in zip(names, saved):
            params.tensors[name].data = arr
        return out

    fd = fd_gradient(loss_at, [params[name].data.copy() for name in names])
    for name, want in zip(names, fd):
        denom = max(np.max(np.abs(want)), 1e-8)
        assert np.max(np.abs(got[name] - want)) / denom <= 1e-4


def test_model_checkpoint_roundtrip(tmp_path):
    stack = make_stack(n=3, k=2, d=6, seed=21)
    params = small_params()
    path = tmp_path / "model.bin"
    save_model(path, params)
    loaded = load_model(path)
    assert loaded.config == params.config
    assert loaded.d_input == params.d_input
    out_a = forward(params, stack).data
    out_b = forward(loaded, stack).data
    assert np.array_equal(out_a, out_b)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "model.bin"
    save_model(path, small_params())
    return path


def _header_end(raw: bytes) -> int:
    return 9 + struct.unpack_from("<I", raw, 5)[0]


def _with_header(raw: bytes, version: int, mutate) -> bytes:
    header = json.loads(raw[9:_header_end(raw)])
    mutate(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:4] + struct.pack("<BI", version, len(text)) + text + raw[_header_end(raw):]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncated_checkpoint_names_the_file(checkpoint, data):
    raw = checkpoint.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = checkpoint.with_name("cut.bin")
    path.write_bytes(raw[:cut])
    with pytest.raises(FairformerError, match="cut.bin"):
        load_model(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a flipped exponent byte overflows
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flipped_checkpoint_byte_fails_cleanly_or_loads_a_valid_model(checkpoint, data):
    raw = bytearray(checkpoint.read_bytes())
    # half the flips land in the magic, version and config header
    pos = data.draw(st.one_of(st.integers(0, _header_end(raw) - 1),
                              st.integers(0, len(raw) - 1)))
    raw[pos] ^= data.draw(st.integers(1, 255))
    path = checkpoint.with_name("flipped.bin")
    path.write_bytes(bytes(raw))
    try:
        loaded = load_model(path)
    except FairformerError as exc:
        assert "flipped.bin" in str(exc)
        return
    # a flip inside the values or into another valid config still yields a usable model
    try:
        forward(loaded, make_stack(n=3, k=2, d=loaded.d_input, seed=22))
    except FairformerError:
        pass


def test_checkpoint_with_unknown_header_key_is_rejected(checkpoint, tmp_path):
    raw = checkpoint.read_bytes()
    path = tmp_path / "extra.bin"
    path.write_bytes(_with_header(raw, 3, lambda h: h.update(extra_flag=False)))
    with pytest.raises(FairformerError, match="extra.bin.*header keys"):
        load_model(path)
    path.write_bytes(_with_header(raw, 1, lambda h: None))  # the earlier layout
    with pytest.raises(FairformerError, match="version 1"):
        load_model(path)


def test_version_2_checkpoint_is_refused_naming_the_file(checkpoint, tmp_path):
    raw = checkpoint.read_bytes()
    assert raw[4] == 3 and "k" not in json.loads(raw[9:_header_end(raw)])
    path = tmp_path / "v2.bin"  # version 2 headers also carried the unread k and t
    path.write_bytes(_with_header(raw, 2, lambda h: h.update(k=2, t=5)))
    with pytest.raises(FairformerError, match="v2.bin: unsupported model checkpoint version 2"):
        load_model(path)
    path.write_bytes(_with_header(raw, 3, lambda h: h.update(k=2, t=5)))
    with pytest.raises(FairformerError, match="v2.bin.*header keys"):
        load_model(path)


def test_checkpoint_tensor_must_match_config(checkpoint, tmp_path):
    raw = checkpoint.read_bytes()
    path = tmp_path / "wide.bin"
    path.write_bytes(_with_header(raw, 3, lambda h: h.update(d_hidden=16)))
    with pytest.raises(FairformerError, match="wide.bin.*projection.weight"):
        load_model(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(FairformerError, match="1 trailing bytes"):
        load_model(path)
