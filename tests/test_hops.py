import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from fairformer import hops, synth
from fairformer.data import Graph
from fairformer.errors import FairformerError
from fairformer.hops import (_LAYER_NORM_SCALE, HopStack, build_group_graph, group_scaling_report,
                             hop_aggregate, hop_aggregate_adjacency, scale_columns)
from fairformer.model import ModelConfig, forward, init_model
from fairformer.oracles import dense_power_apply
from fairformer.spectral import fuse, top_magnitude_eigenpairs
from fairformer.synth import random_connected_graph, sensitive_block_graph


def graph_with_sensitive(sens, labels=None):
    sens = np.asarray(sens, dtype=float)
    n = sens.size
    labels = np.asarray(labels if labels is not None else ([0, 1] * n)[:n])
    feats = np.column_stack([np.arange(n, dtype=float), sens])
    return Graph(adjacency=sp.csr_matrix((n, n)), features=feats, sensitive_index=1,
                 labels=labels, label_mask=np.ones(n, dtype=bool))


def group_graph(sens):
    return build_group_graph(graph_with_sensitive(sens))


def dense_group_adjacency(sens):
    sens = np.asarray(sens)
    return (sens[:, None] == sens[None, :]).astype(np.float64)


def test_build_group_graph_counts():
    group = group_graph([1, 1, 0, 0])
    assert group.dtype.kind == "i" and group.tolist() == [1, 1, 0, 0]
    assert group_graph([0, 0, 0]).tolist() == [0, 0, 0]
    assert group_graph([1]).tolist() == [1]
    assert group_scaling_report(group, k_max=1).q == 2
    assert group_scaling_report(group_graph([0, 0, 0]), k_max=1).q == 0


@pytest.mark.parametrize("group", [[0, 2], [0.5, 1.0], [-1, 0], [[0, 1]]],
                         ids=["two", "fraction", "negative", "2-D"])
def test_groups_other_than_0_or_1_are_refused(group):
    with pytest.raises(FairformerError, match="0s and 1s"):
        hop_aggregate(group, np.zeros((2, 1)), k=1)
    with pytest.raises(FairformerError, match="0s and 1s"):
        group_scaling_report(group, k_max=1)


def test_group_rows_must_match_feature_rows():
    with pytest.raises(FairformerError, match="do not match 3 groups"):
        hop_aggregate([0, 1, 1], np.zeros((2, 1)), k=1)


def test_raw_hop_scales_sensitive_column():
    sg = group_graph([1, 1, 0, 0])
    h = np.array([[1.0], [1.0], [0.0], [0.0]])
    stack1 = hop_aggregate(sg, h, k=1, normalization="raw")
    assert stack1.tensor[:, 1, 0].tolist() == [2.0, 2.0, 0.0, 0.0]
    stack2 = hop_aggregate(sg, h, k=2, normalization="raw")
    assert stack2.tensor[:, 2, 0].tolist() == [4.0, 4.0, 0.0, 0.0]
    # dense oracle agreement on the same instance
    a_s = dense_group_adjacency([1, 1, 0, 0])
    assert np.allclose(stack2.tensor[:, 2, :], dense_power_apply(a_s, h, 2), atol=0)


def test_hop_zero_is_input():
    sg = group_graph([1, 0, 1])
    h = np.arange(6, dtype=float).reshape(3, 2)
    stack = hop_aggregate(sg, h, k=0)
    assert stack.tensor.shape == (3, 1, 2)
    assert np.array_equal(stack.tensor[:, 0, :], h)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", ["raw", "group-mean"])
def test_group_hops_match_dense_oracle(seed, mode):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(5, 200))
    d = int(rng.integers(1, 6))
    k = int(rng.integers(1, 5))
    sens = rng.integers(0, 2, n)
    h = rng.standard_normal((n, d))
    a_s = dense_group_adjacency(sens)
    if mode == "group-mean":
        a_s = a_s / a_s.sum(axis=1, keepdims=True)
    stack = hop_aggregate(sens, h, k=k, normalization=mode)
    # group-mean hops 1..k are tied, so k >= 2 of them come back as tokens 0 and 1 counted (1, k)
    tokens = 2 if mode == "group-mean" and k >= 2 else k + 1
    assert stack.tensor.shape == (n, tokens, d)
    assert stack.counts == (None if tokens == k + 1 else (1, k))
    for j in range(k + 1):
        want = dense_power_apply(a_s, h, j)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(stack.tensor[:, min(j, tokens - 1), :] - want)) <= 1e-9 * scale


def test_group_mean_keeps_sensitive_column():
    rng = np.random.default_rng(3)
    n = 50
    sens = rng.integers(0, 2, n).astype(float)
    feats = np.column_stack([rng.standard_normal(n), sens])
    stack = hop_aggregate(sens, feats, k=3, normalization="group-mean")
    assert stack.tensor.shape[1] == 2 and stack.counts == (1, 3)
    for j in range(2):
        assert np.array_equal(stack.tensor[:, j, 1], sens)


@pytest.mark.parametrize("mode", ["raw", "group-mean"])
def test_same_group_nodes_share_hop_tokens(mode):
    rng = np.random.default_rng(8)
    n = 30
    sens = rng.integers(0, 2, n)
    h = rng.standard_normal((n, 3))
    stack = hop_aggregate(sens, h, k=2, normalization=mode)
    for j in range(1, stack.tensor.shape[1]):  # a group-mean stack holds tokens 0 and 1
        for grp in (0, 1):
            rows = stack.tensor[sens == grp, j, :]
            assert np.all(rows == rows[0])


def test_adjacency_hops_path2():
    g = random_connected_graph(2, density=1.0, seed=0)
    h = np.array([[1.0], [0.0]])
    stack = hop_aggregate_adjacency(g, h, k=1)
    assert np.array_equal(stack.tensor[:, 1, :], [[0.0], [1.0]])
    stack0 = hop_aggregate_adjacency(g, h, k=0)
    assert np.array_equal(stack0.tensor[:, 0, :], h)


def test_adjacency_hops_match_dense_oracle():
    g = random_connected_graph(50, density=0.15, seed=33)
    rng = np.random.default_rng(1)
    h = rng.standard_normal((50, 4))
    stack = hop_aggregate_adjacency(g, h, k=3)
    dense = g.adjacency.toarray()
    for j in range(4):
        want = dense_power_apply(dense, h, j)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(stack.tensor[:, j, :] - want)) <= 1e-9 * scale


def doubling_hops(width, top_over_limit):
    """A triangle, on which each adjacency hop doubles rows of alternating-sign
    features; hop 3 is `top_over_limit` times the layer-norm limit."""
    g = random_connected_graph(3, density=1.0, seed=0)
    limit = _LAYER_NORM_SCALE / np.sqrt(width)
    signs = np.where(np.arange(width) % 2 == 0, 1.0, -1.0)
    return g, np.tile(signs, (3, 1)) * limit * top_over_limit / 8.0


@pytest.mark.parametrize("k", [4, 9])
def test_adjacency_hop_past_the_layer_norm_bound_is_refused_naming_k_and_hop(k, recwarn):
    g, h = doubling_hops(width=15, top_over_limit=0.75)  # hop 4 is 1.5 times the limit
    with pytest.raises(FairformerError, match=rf"adj_nf hop stack of k={k} outgrows what layer "
                                              r"norm can square at hop 4: "):
        hop_aggregate_adjacency(g, h, k=k)
    assert not recwarn.list


def test_adjacency_hop_that_is_not_a_number_is_refused(recwarn):
    g = random_connected_graph(3, density=1.0, seed=0)
    h = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(FairformerError, match=r"k=2 outgrows what layer norm can square at "
                                              r"hop 0: its largest \|entry\| is nan"):
        hop_aggregate_adjacency(g, h, k=2)
    assert not recwarn.list


@pytest.mark.parametrize("build", [
    lambda h: hop_aggregate(np.arange(9) % 2, h, 2, normalization="group-mean"),
    lambda h: hop_aggregate_adjacency(random_connected_graph(9, density=0.5, seed=0), h, 2),
], ids=["group-mean", "adj_nf"])
def test_input_past_the_layer_norm_bound_is_refused_before_a_hop_overflows(build):
    h = np.zeros((9, 2))
    h[::3, 0] = 1e308  # a group sum of three of these overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FairformerError, match=r"k=2 outgrows what layer norm can square at "
                                                  r"hop 0: its largest \|entry\| is 1e\+308"):
            build(h)


def test_adjacency_bound_scans_one_hop_at_a_time():
    g = random_connected_graph(200, density=0.05, seed=1)
    h = np.random.default_rng(2).standard_normal((200, 4)) * 1e-3
    k = 20
    stack_bytes = 200 * (k + 1) * 4 * 8
    tracemalloc.start()
    try:
        stack = hop_aggregate_adjacency(g, h, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.tensor.nbytes == stack_bytes
    assert peak < 1.25 * stack_bytes  # the stack, a few hops and the sparse product's scratch


def test_largest_accepted_adjacency_hop_passes_layer_norm_with_room():
    g, h = doubling_hops(width=15, top_over_limit=1.0)
    stack = hop_aggregate_adjacency(g, h, k=3)
    params = init_model(ModelConfig(), 15)
    # 2^15 stands for projection weights grown that much in training; the bound's
    # margin covers about 2^15.5 at the default hidden width of 128
    for grown in (1.0, 2.0 ** 15):
        with np.errstate(over="raise", invalid="raise"):
            logits = forward(params, HopStack(tensor=stack.tensor * grown))
        assert np.all(np.isfinite(logits.data))


def test_adjacency_raw_handles_isolated_nodes():
    n = 3
    adj = sp.csr_matrix((n, n))
    feats = np.column_stack([np.ones(n), np.array([0.0, 1.0, 0.0])])
    g = Graph(adjacency=adj, features=feats, sensitive_index=1,
              labels=np.array([0, 1, 0]), label_mask=np.ones(n, dtype=bool))
    stack = hop_aggregate_adjacency(g, feats, k=2)
    assert np.all(stack.tensor[:, 1:, :] == 0.0)


def test_negative_k_rejected():
    sg = group_graph([0, 1])
    with pytest.raises(FairformerError):
        hop_aggregate(sg, np.zeros((2, 1)), k=-1)
    with pytest.raises(FairformerError):
        hop_aggregate(sg, np.zeros((2, 1)), k=1, normalization="bogus")


def test_group_scaling_certificate():
    sg = group_graph([1, 1, 0, 0])
    h = np.array([[1.0], [1.0], [0.0], [0.0]])
    report = group_scaling_report(sg, k_max=3)
    assert report.passed and report.exact_pass and report.float_pass
    assert report.q == 2
    assert report.max_abs_deviation == 0.0
    # q^3 column seen through the raw stack
    stack = hop_aggregate(sg, h, k=3, normalization="raw")
    assert stack.tensor[:, 3, 0].tolist() == [8.0, 8.0, 0.0, 0.0]


def test_group_scaling_empty_and_singleton_groups():
    report0 = group_scaling_report(group_graph([0, 0, 0]), k_max=4)
    assert report0.passed and report0.q == 0
    report1 = group_scaling_report(group_graph([1]), k_max=4)
    assert report1.passed and report1.q == 1


def test_group_scaling_rejects_fractional_column():
    with pytest.raises(FairformerError, match="0s and 1s"):
        group_scaling_report(np.array([0.5, 1.0]), k_max=2)


def test_group_scaling_past_float_range_fails_the_float_route():
    g = random_connected_graph(30, density=0.25, seed=0)
    report = group_scaling_report(build_group_graph(g), k_max=300)
    assert report.q ** 300 > 2 ** 1024  # past float64's range
    assert report.exact_pass and not report.float_pass and not report.passed
    assert not np.isfinite(report.max_abs_deviation)


def test_group_scaling_reports_the_float_route_past_2_to_the_53():
    # 23^12 passes 2^53, so the float route's hop 12 misses q^12 by 12
    g = random_connected_graph(40, density=0.25, seed=6)
    report = group_scaling_report(build_group_graph(g), k_max=12)
    assert report.q == 23 and report.exact_pass
    assert not report.float_pass and report.max_abs_deviation == 12.0


@pytest.mark.parametrize("normalization", ["raw", "group-mean"])
def test_a_columns_hops_keep_their_bits_whatever_columns_ride_beside_it(normalization):
    # q = 23, so from hop 12 on raw hops pass 2^53 and their group sums round
    g = random_connected_graph(40, density=0.25, seed=6)
    group = build_group_graph(g)
    x = np.column_stack([g.features, np.random.default_rng(0).standard_normal(g.n) * 1e15])
    wide = hop_aggregate(group, x, 14, normalization).tensor
    for j in range(x.shape[1]):
        alone = hop_aggregate(group, x[:, j:j + 1], 14, normalization).tensor
        assert np.array_equal(alone[..., 0], wide[..., j])


# each stack is 30 nodes x (k + 1) tokens x width columns x 8 bytes: 24 TB
@pytest.mark.parametrize("build, k, width", [
    (lambda g, x, k: group_scaling_report(build_group_graph(g), k_max=k), 10**11, 1),
    (lambda g, x, k: hop_aggregate(build_group_graph(g), x, k), 10**8, 1000),
    (lambda g, x, k: hop_aggregate_adjacency(g, x, k), 10**8, 1000),
], ids=["group_scaling_report", "hop_aggregate", "hop_aggregate_adjacency"])
def test_hop_stack_that_cannot_fit_is_refused_before_it_is_allocated(build, k, width):
    g = random_connected_graph(30, density=0.25, seed=0)
    x = np.zeros((g.n, width))
    tracemalloc.start()
    try:
        with pytest.raises(FairformerError, match=rf"hop stack of k={k} \(30 nodes x "
                           rf"{k + 1} tokens x {width} columns\) needs about"):
            build(g, x, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_group_mean_refusal_names_the_configured_k_and_the_held_layout():
    x = np.broadcast_to(0.0, (30, 10**10))  # a view of one float: nothing is allocated
    tracemalloc.start()
    try:
        with pytest.raises(FairformerError, match=r"group-mean hop stack of k=5 \(30 nodes x 1 "
                           r"token x 10000000000 columns, 2 group tokens\) needs about 2560\.0 GB"):
            hop_aggregate(np.arange(30) % 2, x, 5, normalization="group-mean")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_group_mean_stack_is_charged_what_it_holds(monkeypatch):
    g = random_connected_graph(30, density=0.25, seed=0)
    width = 10
    x = np.random.default_rng(1).standard_normal((g.n, width))
    budget = 3 * g.n * width * 8 // 2  # between one and two tokens a node
    sysconf = os.sysconf
    monkeypatch.setattr(synth.os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": budget}.get(name) or sysconf(name))
    stack = hop_aggregate(build_group_graph(g), x, 5, normalization="group-mean")
    assert stack.tensor.shape == (g.n, 2, width) and stack.counts == (1, 5)
    with pytest.raises(FairformerError, match=r"hop stack of k=1 \(30 nodes x 2 tokens x 10 "
                       r"columns\) needs about"):
        hop_aggregate_adjacency(g, x, 1)


def test_group_mean_stack_holds_token_one_once_per_group():
    n, width = 16000, 13
    x = np.random.default_rng(3).standard_normal((n, width))
    group = np.arange(n) % 2
    tracemalloc.start()
    try:
        stack = hop_aggregate(group, x, 5, normalization="group-mean")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.tensor.shape == (n, 2, width)
    assert peak < 1.25 * n * width * 8  # token 0, one byte a node of groups, a group's scratch


def read_only(arr):
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("normalization", ["raw", "group-mean"])
@pytest.mark.parametrize("widths", [(3, 2), (1, 1), (4, 0), (2, 1, 3)],
                         ids=["3+2", "1+1", "4+empty", "2+1+3"])
def test_column_blocks_give_the_bytes_of_their_concatenation(widths, normalization, k):
    rng = np.random.default_rng(sum(widths) + k)
    n = 257
    group = rng.integers(0, 2, n)
    blocks = tuple(3.0 + rng.standard_normal((n, w)) for w in widths)
    whole = np.concatenate(blocks, axis=1)
    got = hop_aggregate(group, blocks, k, normalization)
    want = hop_aggregate(group, whole, k, normalization)
    assert got.n == n and got.d == whole.shape[1] and got.counts == want.counts
    assert got.tensor.shape == want.tensor.shape
    assert got.tensor.tobytes() == want.tensor.tobytes()
    order = rng.permutation(n)
    for idx in (slice(3, 200), order[:50], group == 1):
        assert got.rows(idx).tobytes() == want.rows(idx).tobytes()


@pytest.mark.parametrize("k", [0, 2])
def test_layer_norm_limit_is_set_by_the_whole_token_width(k):
    # 1.2 x the two-column limit passes a one-column block's own limit, sqrt(2) x larger
    top = 1.2 * _LAYER_NORM_SCALE / np.sqrt(2)
    column = np.zeros((4, 1))
    column[1] = top
    group = np.array([0, 1, 0, 1])
    for h in ((column, np.zeros((4, 1))), np.hstack([column, np.zeros((4, 1))])):
        with pytest.raises(FairformerError, match=rf"k={k} outgrows what layer norm can square "
                                                  r"at hop 0"):
            hop_aggregate(group, h, k, normalization="group-mean")


@pytest.mark.parametrize("k", [0, 1, 3])
def test_group_mean_stack_shares_read_only_blocks_and_copies_writable_ones(k):
    rng = np.random.default_rng(k)
    group = rng.integers(0, 2, 40)
    kept, copied = read_only(rng.standard_normal((40, 3))), rng.standard_normal((40, 2))
    stack = hop_aggregate(group, (kept, copied), k, normalization="group-mean")
    before = stack.tensor
    assert np.array_equal(before[:, 0], np.hstack([kept, copied]))
    assert np.shares_memory(stack._blocks[0], kept)
    assert not any(np.shares_memory(block, copied) for block in stack._blocks)
    copied += 1.0  # the caller may change its writable array afterwards
    assert stack.tensor.tobytes() == before.tobytes()


def physical_memory(monkeypatch, budget):
    """os.sysconf reporting `budget` bytes of physical memory."""
    sysconf = os.sysconf
    monkeypatch.setattr(synth.os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": budget}.get(name) or sysconf(name))


def test_token_only_group_mean_stack_is_charged_the_blocks_it_copies(monkeypatch):
    n, width = 30, 10
    group = np.arange(n) % 2
    kept = read_only(np.random.default_rng(1).standard_normal((n, width)))
    physical_memory(monkeypatch, 8 * n * width)  # under one token a node and its groups
    stack = hop_aggregate(group, (kept, kept), 0, normalization="group-mean")
    assert stack.tensor.shape == (n, 1, 2 * width) and np.shares_memory(stack._blocks[0], kept)
    with pytest.raises(FairformerError, match=r"group-mean hop stack of k=0 \(30 nodes x 10 "
                                              r"copied columns, 1 group byte a node\) needs about"):
        hop_aggregate(group, (kept, kept.copy()), 0, normalization="group-mean")


def basis_stack(k, n=200, t=4, seed=3):
    """A group-mean stack over (features, B) of sensitive_block_graph(n), B its remembered
    basis, with the graph and B."""
    g = sensitive_block_graph(n=n, seed=seed)
    b = top_magnitude_eigenpairs(g, t, seed=0).structure_matrix
    return hop_aggregate(build_group_graph(g), (g.features, b), k, "group-mean"), g, b


def min_max(x):
    lo, hi = x.min(axis=0), x.max(axis=0)
    return -1.0 + 2.0 * (x - lo) / (hi - lo)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_scaling_a_stack_held_by_blocks_scales_its_structure_block_and_table(k):
    stack, g, b = basis_stack(k)
    raw = stack.tensor
    scale_columns(stack, g.d)
    scaled = min_max(b)
    assert stack.counts == ((1, k) if k >= 2 else None) and stack.tensor.shape == raw.shape
    assert stack._blocks[0] is g.features and not stack._blocks[1].flags.writeable
    assert np.array_equal(stack.tensor[:, 0], np.hstack([g.features, scaled]))
    assert np.array_equal(stack.tensor[:, :, :g.d], raw[:, :, :g.d])
    # a group mean commutes with the per-column affine map, up to rounding
    want = hop_aggregate(build_group_graph(g), (g.features, scaled), k, "group-mean").tensor
    np.testing.assert_allclose(stack.tensor, want, rtol=0, atol=1e-15)


def test_scaling_a_dense_adjacency_stack_scales_every_token_where_it_lies():
    g = random_connected_graph(40, density=0.2, seed=4)
    basis = top_magnitude_eigenpairs(g, 3, seed=0)
    b = basis.structure_matrix
    stack = hop_aggregate_adjacency(g, fuse(g, basis), 3)
    raw = stack.tensor.copy()
    held = stack.tensor
    scale_columns(stack, g.d)
    assert stack.tensor is held  # no second dense copy
    lo, hi = b.min(axis=0), b.max(axis=0)
    for j in range(4):  # every hop by token 0's range
        want = -1.0 + 2.0 * (raw[:, j, g.d:] - lo) / (hi - lo)
        assert np.array_equal(held[:, j, g.d:], want)
        assert np.array_equal(held[:, j, :g.d], raw[:, j, :g.d])


def test_scaling_keeps_a_column_flat_up_to_rounding():
    # the Perron vector of C51 is 1/sqrt(51) up to the solver's rounding; min-max scaling
    # would stretch that noise over [-1, 1]
    dense = np.eye(51, k=1) + np.eye(51, k=-1)
    dense[0, 50] = dense[50, 0] = 1.0
    g = replace(graph_with_sensitive([0, 1] * 25 + [0]), adjacency=sp.csr_matrix(dense))
    perron = top_magnitude_eigenpairs(g, t=1).structure_matrix
    assert 0 < np.ptp(perron) <= 1e-6 * np.max(np.abs(perron))
    varied = top_magnitude_eigenpairs(random_connected_graph(51, density=0.2, seed=0), t=1)
    stack = hop_aggregate(build_group_graph(g), (g.features, perron, varied.structure_matrix), 1,
                          "group-mean")
    scale_columns(stack, g.d)
    assert np.array_equal(stack.tensor[:, 0, g.d], perron[:, 0])
    assert stack.tensor[:, 0, g.d + 1].min() == -1.0 and stack.tensor[:, 0, g.d + 1].max() == 1.0


def test_scaling_neither_writes_nor_copies_twice_the_remembered_basis():
    n, t = 1000, 5
    stack, g, b = basis_stack(2, n=n, t=t)
    before = b.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scale_columns(stack, g.d)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert np.array_equal(b, before) and not b.flags.writeable
    assert top_magnitude_eigenpairs(g, t, seed=0).structure_matrix is b  # still remembered
    assert not np.shares_memory(stack._blocks[1], b)
    copy = 8 * n * t
    assert copy <= held and peak < 1.1 * copy  # one scaled copy, and no scratch of its size


def test_scaled_block_is_charged_before_it_is_made(monkeypatch):
    stack, g, b = basis_stack(2)
    physical_memory(monkeypatch, 8 * g.n * b.shape[1] - 1)
    with pytest.raises(FairformerError, match=rf"the scaled columns {g.d}: of a hop stack "
                                              rf"\({g.n} nodes x 4 columns\) needs about"):
        scale_columns(stack, g.d)
    assert stack._blocks[1] is b


def test_scaling_leaves_a_stack_with_no_structure_columns_as_it_is():
    g = sensitive_block_graph(n=60, seed=3)
    stack = hop_aggregate(build_group_graph(g), (g.features,), 2, "group-mean")
    blocks, later = stack._blocks, stack._later.copy()
    scale_columns(stack, g.d)
    assert stack._blocks == blocks and np.array_equal(stack._later, later)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_a_stack_held_by_blocks_and_its_dense_copy_read_and_scale_alike(k):
    stack, g, b = basis_stack(k)
    dense = HopStack(stack.tensor.copy(), stack.counts)
    order = np.random.default_rng(k).permutation(g.n)
    for idx in (slice(5, 150), order[:40], g.sensitive == 1):
        assert stack.rows(idx).tobytes() == dense.rows(idx).tobytes()
    scale_columns(stack, g.d)
    scale_columns(dense, g.d)
    assert stack.tensor.tobytes() == dense.tensor.tobytes()
    assert np.shares_memory(stack._blocks[0], g.features)


def test_adjacency_hop_that_outgrows_the_layer_norm_bound_once_scaled_is_refused(monkeypatch):
    g = random_connected_graph(40, density=0.2, seed=4)
    x = fuse(g, top_magnitude_eigenpairs(g, 3, seed=0))
    width = x.shape[1]
    raw = hop_aggregate_adjacency(g, x, 3)
    scaled = hop_aggregate_adjacency(g, x, 3)
    scale_columns(scaled, g.d)
    raw_top = np.abs(raw.tensor).max(axis=(0, 2))
    scaled_top = np.abs(scaled.tensor).max(axis=(0, 2))
    limit = raw_top.max() * 1.001  # every raw hop passes it
    hop = int(np.argmax(scaled_top > limit))
    assert scaled_top[hop] > limit
    monkeypatch.setattr(hops, "_LAYER_NORM_SCALE", limit * np.sqrt(width))
    stack = hop_aggregate_adjacency(g, x, 3)
    with pytest.raises(FairformerError, match=rf"the scaled hop stack of k=3 outgrows what layer "
                                              rf"norm can square at hop {hop}: "):
        scale_columns(stack, g.d)
