import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import given, strategies as st

from fairformer.data import (Graph, Split, SplitSpec, binarize_labels, load_dataset,
                             load_manifest, make_folds, make_split)
from fairformer.errors import IngestionError, SchemaError, SplitError
from fairformer import synth
from fairformer.synth import benchmark_graph, random_connected_graph, sensitive_block_graph


def write_dataset(tmp_path, node_rows, edge_rows, header="id,f0,sensitive,label"):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("\n".join([header] + node_rows) + "\n")
    edges.write_text("\n".join(edge_rows) + "\n")
    return nodes, edges


def small_graph(n=6, sens=None, labels=None, edges=()):
    sens = np.asarray(sens if sens is not None else [0, 1] * (n // 2), dtype=float)
    labels = np.asarray(labels if labels is not None else [0, 1] * (n // 2))
    feats = np.column_stack([np.arange(n, dtype=float), sens])
    rows = [e[0] for e in edges] + [e[1] for e in edges]
    cols = [e[1] for e in edges] + [e[0] for e in edges]
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0
    return Graph(adjacency=adj, features=feats, sensitive_index=1,
                 labels=labels, label_mask=np.ones(n, dtype=bool))


def test_loader_symmetrizes_single_edge(tmp_path):
    nodes, edges = write_dataset(
        tmp_path,
        ["0,1.0,0,0", "1,2.0,1,1", "2,3.0,0,1"],
        ["0,1"],
    )
    g = load_dataset(nodes, edges)
    dense = g.adjacency.toarray()
    want = np.zeros((3, 3))
    want[0, 1] = want[1, 0] = 1.0
    assert np.array_equal(dense, want)
    assert g.n == 3 and g.d == 2
    assert g.directed_entry_count() == 2
    assert g.undirected_edge_count() == 1


def test_loader_collapses_duplicates_and_keeps_self_loops(tmp_path):
    nodes, edges = write_dataset(
        tmp_path,
        ["0,1.0,0,0", "1,2.0,1,1"],
        ["0,1", "1,0", "0,1", "1,1"],
    )
    g = load_dataset(nodes, edges)
    dense = g.adjacency.toarray()
    assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
    assert dense[1, 1] == 1.0  # self-loop preserved as-is
    assert g.undirected_edge_count() == 2


def test_loader_rejects_dangling_edge(tmp_path):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,0,0", "1,2.0,1,1", "2,3.0,0,1"], ["0,5"])
    with pytest.raises(IngestionError):
        load_dataset(nodes, edges)


@pytest.mark.parametrize("edge_rows,line", [
    (["n1,nX", "n2,n3"], 1), (["nX,n1", "n2,n3"], 1), (["n2,n3", "n1,nX"], 2),
], ids=["first_row", "first_row_reversed", "second_row"])
def test_loader_rejects_a_dangling_edge_on_any_row(tmp_path, edge_rows, line):
    # with non-numeric ids a first row naming one node id is an edge, not a header
    nodes, edges = write_dataset(tmp_path, [f"n{i},{i}.0,{i % 2},{i // 2 % 2}"
                                            for i in range(1, 5)], edge_rows)
    u, v = edge_rows[line - 1].split(",")
    with pytest.raises(IngestionError, match=f"edges.csv:{line}: edge endpoint {u!r} or {v!r} "
                                             "is not a node id"):
        load_dataset(nodes, edges)
    edges.write_text("source,target\n" + "\n".join(r for r in edge_rows if "nX" not in r) + "\n")
    assert load_dataset(nodes, edges).undirected_edge_count() == 1


def test_loader_rejects_non_binary_sensitive(tmp_path):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,2,0", "1,2.0,1,1"], ["0,1"])
    with pytest.raises(SchemaError):
        load_dataset(nodes, edges)


def test_loader_rejects_non_numeric_feature(tmp_path):
    nodes, edges = write_dataset(tmp_path, ["0,abc,0,0", "1,2.0,1,1"], ["0,1"])
    with pytest.raises(IngestionError):
        load_dataset(nodes, edges)


def test_loader_unlabeled_sentinel_and_header_skip(tmp_path):
    nodes, edges = write_dataset(
        tmp_path,
        ["0,1.0,0,0", "1,2.0,1,", "2,3.0,0,2", "3,4.0,1,1.0", "4,5.0,0,1e300"],
        ["src,dst", "0,2"],
    )
    g = load_dataset(nodes, edges)
    assert g.label_mask.tolist() == [True, False, True, True, True]
    assert g.labels[2] == 1  # label 2 binarized to 1
    assert g.labels[3] == 1  # an integral float cell is an integer label
    assert g.labels[4] == 1  # past the int64 range
    assert g.labels[1] == -1


def test_manifest_roundtrip(tmp_path):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,0,0", "1,2.0,1,1"], ["0,1"])
    manifest = tmp_path / "data.manifest"
    manifest.write_text(
        f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\nlabel=label\n")
    node_path, edge_path, schema = load_manifest(manifest)
    g = load_dataset(node_path, edge_path, schema)
    assert g.n == 2
    assert g.sensitive.tolist() == [0.0, 1.0]


def test_manifest_features_list_selects_columns(tmp_path):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,5.0,0,0", "1,2.0,6.0,1,1"], ["0,1"],
                                 header="id,f0,f1,sensitive,label")
    manifest = tmp_path / "data.manifest"
    manifest.write_text(f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\n"
                        "label=label\nfeatures=f1\n")
    g = load_dataset(*load_manifest(manifest))
    # only the listed column, then the sensitive column appended after it
    assert g.features.tolist() == [[5.0, 0.0], [6.0, 1.0]]
    assert g.sensitive_index == 1


def test_manifest_standardize_scores_all_but_the_sensitive_column(tmp_path):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,0,0", "1,3.0,1,1", "2,5.0,1,0", "3,7.0,0,1"],
                                 ["0,1", "2,3"])
    manifest = tmp_path / "data.manifest"
    manifest.write_text(f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\n"
                        "label=label\nstandardize=1\n")
    g = load_dataset(*load_manifest(manifest))
    f0 = np.array([1.0, 3.0, 5.0, 7.0])
    assert np.allclose(g.features[:, 0], (f0 - f0.mean()) / f0.std(), rtol=0, atol=1e-15)
    assert g.sensitive.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_manifest_missing_key(tmp_path):
    manifest = tmp_path / "bad.manifest"
    manifest.write_text("nodes=x.csv\nedges=y.csv\n")
    with pytest.raises(IngestionError):
        load_manifest(manifest)


def test_manifest_tab_delimiter_loads_a_tsv(tmp_path):
    nodes, edges = write_dataset(tmp_path, ["0\t1.0\t0\t0", "1\t2.0\t1\t1"], ["0\t1"],
                                 header="id\tf0\tsensitive\tlabel")
    manifest = tmp_path / "data.manifest"
    manifest.write_text(f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\n"
                        "label=label\ndelimiter=\\t\n")
    g = load_dataset(*load_manifest(manifest))
    assert g.features.tolist() == [[1.0, 0.0], [2.0, 1.0]]
    assert g.undirected_edge_count() == 1


@pytest.mark.parametrize("value,refused", [("False", False), ("NO", False), ("off", True),
                                           ("", True)])
def test_manifest_standardize_takes_only_a_boolean_word(tmp_path, value, refused):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,0,0", "1,3.0,1,1", "2,5.0,1,0", "3,7.0,0,1"],
                                 ["0,1", "2,3"])
    manifest = tmp_path / "data.manifest"
    manifest.write_text(f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\n"
                        f"label=label\nstandardize={value}\n")
    if refused:
        with pytest.raises(IngestionError, match=f"data.manifest:5: standardize .* got '{value}'"):
            load_manifest(manifest)
    else:
        assert load_dataset(*load_manifest(manifest)).features[:, 0].tolist() == [1, 3, 5, 7]


def test_manifest_unknown_key_is_refused_at_its_line(tmp_path):
    manifest = tmp_path / "data.manifest"
    manifest.write_text("nodes=x.csv\nedges=y.csv\nsensitive=s\nlabel=l\nstandarize=1\n")
    with pytest.raises(IngestionError, match="data.manifest:5: unknown key 'standarize'; "
                                             "known keys are nodes, edges, .*standardize"):
        load_manifest(manifest)


def test_manifest_repeated_key_is_refused_at_both_lines(tmp_path):
    manifest = tmp_path / "data.manifest"
    manifest.write_text("nodes=x.csv\nlabel=label\n# comment\nedges=y.csv\nlabel=f1\n")
    with pytest.raises(IngestionError) as exc:
        load_manifest(manifest)
    message = str(exc.value)
    assert f"{manifest}:5: key 'label' repeats {manifest}:2" in message


@pytest.mark.parametrize("target", ["manifest", "nodes", "edges"])
def test_unreadable_file_is_refused_naming_it(tmp_path, target):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,0,0", "1,2.0,1,1"], ["0,1"])
    manifest = tmp_path / "data.manifest"
    manifest.write_text(f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\n"
                        "label=label\n")
    path = {"manifest": manifest, "nodes": nodes, "edges": edges}[target]
    path.unlink()
    path.mkdir()
    with pytest.raises(IngestionError, match=f"^cannot read {path}: "):
        load_dataset(*load_manifest(manifest))


@pytest.mark.parametrize("target", ["manifest", "nodes", "edges"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, target):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,0,0", "1,2.0,1,1", "2,3.0,0,1", "3,4.0,1,0"],
                                 ["0,1", "2,3"])
    manifest = tmp_path / "data.manifest"
    manifest.write_text(f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\n"
                        "label=label\n")
    plain = load_dataset(*load_manifest(manifest))
    path = {"manifest": manifest, "nodes": nodes, "edges": edges}[target]
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    g = load_dataset(*load_manifest(manifest))
    assert np.array_equal(g.features, plain.features)
    assert np.array_equal(g.labels, plain.labels)
    assert (g.adjacency != plain.adjacency).nnz == 0


@pytest.mark.parametrize("target,line", [("manifest", 3), ("nodes", 2), ("edges", 2)])
def test_undecodable_byte_is_refused_at_its_line(tmp_path, target, line):
    nodes, edges = write_dataset(tmp_path, ["0,1.0,0,0", "1,2.0,1,1"], ["0,1", "1,0"])
    manifest = tmp_path / "data.manifest"
    manifest.write_text(f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\n"
                        "label=label\n")
    path = {"manifest": manifest, "nodes": nodes, "edges": edges}[target]
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(IngestionError, match=f"^{path}:{line}: byte 0xff is not utf-8 text$"):
        load_dataset(*load_manifest(manifest))


def test_binarize_examples():
    assert binarize_labels([0, 1, 2, 3]).tolist() == [0, 1, 1, 1]
    assert binarize_labels([0, 0, 0]).tolist() == [0, 0, 0]
    assert binarize_labels([1]).tolist() == [1]
    with pytest.raises(SchemaError):
        binarize_labels([0, -1])


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=50))
def test_binarize_values_are_binary(raw):
    out = binarize_labels(raw)
    assert set(out.tolist()) <= {0, 1}


def test_graph_invariant_rejects_asymmetric():
    adj = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SchemaError):
        Graph(adjacency=adj, features=np.zeros((2, 1)), sensitive_index=0,
              labels=np.zeros(2, dtype=int), label_mask=np.ones(2, dtype=bool))


def graph_parts(n=4):
    return dict(adjacency=sp.csr_matrix((n, n)),
                features=np.column_stack([np.zeros(n), np.arange(n) % 2]), sensitive_index=1,
                labels=np.arange(n) % 2, label_mask=np.ones(n, dtype=bool))


@pytest.mark.parametrize("change,message", [
    (dict(adjacency=sp.csr_matrix((4, 3))), r"adjacency must be square, got \(4, 3\)"),
    (dict(adjacency=sp.csr_matrix(2.0 * (np.ones((4, 4)) - np.eye(4)))),
     "adjacency entries must all equal 1"),
    # the path 0-1-2 with (0, 1) stored twice each way: summed, that edge would weigh 2
    (dict(adjacency=sp.csr_matrix((np.ones(6), [1, 1, 0, 0, 2, 1], [0, 2, 5, 6, 6]), shape=(4, 4))),
     r"adjacency stores entry \(0, 1\) more than once"),
    (dict(features=np.zeros((3, 2))), "features row count does not match node count"),
    (dict(features=np.column_stack([np.zeros(4), [0.0, 1.0, 0.5, 1.0]])),
     "sensitive column 1 is not binary"),
    (dict(labels=np.array([0, 1, 2, -1]), label_mask=np.array([True, True, True, False])),
     "labels must be binary on masked nodes"),
], ids=["non_square", "entry_not_1", "duplicate_entry", "feature_rows", "sensitive_not_binary",
        "masked_label"])
def test_graph_invariants_are_refused(change, message):
    with pytest.raises(SchemaError, match=message):
        Graph(**{**graph_parts(), **change})


def test_unsorted_adjacency_is_accepted_when_symmetric():
    # the path 0-1-2 with row 1's columns stored as (2, 0)
    g = Graph(**{**graph_parts(3), "adjacency": sp.csr_matrix(
        (np.ones(4), [1, 2, 0, 1], [0, 1, 3, 4]), shape=(3, 3))})
    assert not g.adjacency.has_sorted_indices and g.undirected_edge_count() == 2
    with pytest.raises(SchemaError, match="adjacency is not symmetric"):  # row 2 lacks (2, 1)
        Graph(**{**graph_parts(3), "adjacency": sp.csr_matrix(
            (np.ones(3), [1, 2, 0], [0, 1, 3, 3]), shape=(3, 3))})


@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))))
def test_adjacency_is_accepted_exactly_when_its_summed_matrix_is_symmetric_0_1(case):
    n, entries = case
    entries = sorted(entries, key=lambda e: e[0])  # rows in order, each row's columns as drawn
    indptr = np.concatenate([[0], np.cumsum(np.bincount([r for r, _ in entries], minlength=n))])
    adj = sp.csr_matrix((np.ones(len(entries)), [c for _, c in entries], indptr), shape=(n, n))
    summed = adj.tocoo().tocsr()  # sums repeated entries
    if summed.nnz == adj.nnz and (summed != summed.T).nnz == 0:
        Graph(**{**graph_parts(n), "adjacency": adj})
    else:
        with pytest.raises(SchemaError, match="more than once|not symmetric"):
            Graph(**{**graph_parts(n), "adjacency": adj})


@pytest.mark.parametrize("fields,message", [
    (dict(train_per_class_cap=0), "train_per_class_cap must be positive"),
    (dict(folds=0), "folds must be >= 1"),
    (dict(seed=-1), "seed=-1 must be >= 0"),
], ids=["cap_0", "folds_0", "negative_seed"])
def test_bad_split_spec_is_refused(fields, message):
    with pytest.raises(SplitError, match=message):
        SplitSpec(**fields)


@pytest.mark.parametrize("parts", [
    dict(train=np.array([0, 1]), val=np.array([1, 2]), test=np.array([3])),
    dict(train=np.array([0, 1]), val=np.array([2]), test=np.array([0, 3])),
    dict(train=np.array([0]), val=np.array([1, 2]), test=np.array([2, 3])),
], ids=["train_val", "train_test", "val_test"])
def test_overlapping_split_sets_are_refused(parts):
    with pytest.raises(SplitError, match="split sets overlap"):
        Split(**parts)


@pytest.mark.parametrize("labels", [[0, 0, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1]],
                         ids=["one_labeled", "none_labeled"])
def test_a_class_with_fewer_than_2_labeled_nodes_is_refused(labels):
    g = small_graph(labels=labels)
    with pytest.raises(SplitError, match=r"class \d has [01] labeled nodes; need at least 2"):
        make_split(g, SplitSpec(seed=0))


def make_labeled_graph(per_class, seed=0):
    n = 2 * per_class
    rng = np.random.default_rng(seed)
    labels = np.array([0] * per_class + [1] * per_class)
    rng.shuffle(labels)
    sens = rng.integers(0, 2, n).astype(float)
    feats = np.column_stack([rng.standard_normal(n), sens])
    adj = sp.csr_matrix((n, n))
    return Graph(adjacency=adj, features=feats, sensitive_index=1,
                 labels=labels, label_mask=np.ones(n, dtype=bool))


def test_split_cap_applies():
    g = make_labeled_graph(per_class=100)
    split = make_split(g, SplitSpec(train_per_class_cap=50, seed=1))
    train_labels = g.labels[split.train]
    assert int((train_labels == 0).sum()) == 50
    assert int((train_labels == 1).sum()) == 50


def test_split_half_rule_when_small():
    g = make_labeled_graph(per_class=40)
    split = make_split(g, SplitSpec(train_per_class_cap=50, seed=1))
    train_labels = g.labels[split.train]
    assert int((train_labels == 0).sum()) == 20
    assert int((train_labels == 1).sum()) == 20


def test_split_deterministic_and_seed_sensitive():
    g = make_labeled_graph(per_class=500, seed=3)
    spec = SplitSpec(train_per_class_cap=50, seed=7)
    a = make_split(g, spec)
    b = make_split(g, spec)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.test, b.test)
    c = make_split(g, SplitSpec(train_per_class_cap=50, seed=8))
    assert not np.array_equal(a.train, c.train)
    assert a.content_hash() == b.content_hash() != c.content_hash()


def test_split_balanced_and_disjoint():
    g = make_labeled_graph(per_class=101, seed=5)
    split = make_split(g, SplitSpec(train_per_class_cap=50, seed=2))
    for part in (split.val, split.test):
        counts = np.bincount(g.labels[part], minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1
    all_nodes = np.concatenate([split.train, split.val, split.test])
    assert len(set(all_nodes.tolist())) == all_nodes.size
    assert np.all(g.label_mask[all_nodes])
    # 25% of labeled nodes in val and test
    assert split.val.size == int(0.25 * 202)
    assert split.test.size == int(0.25 * 202)


@pytest.mark.parametrize("sizes", [(14, 15), (15, 14), (14, 14)], ids=["1_larger", "0_larger",
                                                                        "tie"])
def test_split_gives_the_odd_holdout_slot_to_the_larger_class(sizes):
    labels = np.repeat([0, 1], sizes)
    n = labels.size
    sens = np.arange(n) % 2
    g = Graph(adjacency=sp.csr_matrix((n, n)), features=np.column_stack([np.zeros(n), sens]),
              sensitive_index=1, labels=labels, label_mask=np.ones(n, dtype=bool))
    split = make_split(g, SplitSpec(seed=0))
    holdout = n // 4
    assert holdout == 7  # of 29 and of 28 nodes; the odd slot goes to the larger class, or to 0
    larger = int(sizes[1] > sizes[0])
    for part in (split.val, split.test):
        counts = np.bincount(labels[part], minlength=2)
        assert counts[larger] == (holdout + 1) // 2 and counts[1 - larger] == holdout // 2


def test_split_class_too_small():
    n = 40
    labels = np.array([0] * 37 + [1] * 3)
    sens = np.zeros(n)
    sens[::2] = 1
    feats = np.column_stack([np.zeros(n), sens])
    g = Graph(adjacency=sp.csr_matrix((n, n)), features=feats, sensitive_index=1,
              labels=labels, label_mask=np.ones(n, dtype=bool))
    with pytest.raises(SplitError, match="class 1"):
        make_split(g, SplitSpec(train_per_class_cap=50, seed=0))


def test_make_folds_distinct():
    g = make_labeled_graph(per_class=100, seed=9)
    folds = make_folds(g, SplitSpec(train_per_class_cap=50, seed=0, folds=5))
    assert len(folds) == 5
    hashes = {f.content_hash() for f in folds}
    assert len(hashes) == 5


def test_features_are_read_only():
    g = make_labeled_graph(per_class=10)
    with pytest.raises(ValueError):
        g.features[0, 0] = 99.0


def test_graphs_compare_by_identity():
    g = sensitive_block_graph(50, seed=1)
    assert (g == sensitive_block_graph(50, seed=1)) is False
    assert g == g
    assert {g: 1}[g] == 1 and len({g, g}) == 1


@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
def test_adjacency_is_read_only():
    g = random_connected_graph(60, density=0.1, seed=2)
    before = g.adjacency.copy()
    rows, cols = g.adjacency.nonzero()
    with pytest.raises(ValueError):
        g.adjacency[rows[0], cols[0]] = 0.0  # a value edit
    row, col = np.argwhere(before.toarray() == 0)[0]
    with pytest.raises(ValueError):
        g.adjacency[row, col] = 1.0  # a structural insert
    for arr in (g.adjacency.data, g.adjacency.indices, g.adjacency.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert g.adjacency.nnz == before.nnz and (g.adjacency != before).nnz == 0


@pytest.mark.parametrize("generator,gigabytes", [(sensitive_block_graph, "28000"),
                                                 (random_connected_graph, "43000")],
                         ids=["sensitive_block_graph", "random_connected_graph"])
def test_dense_fixture_refuses_without_allocating(generator, gigabytes):
    tracemalloc.start()
    try:
        with pytest.raises(IngestionError, match=rf"n=1000000 needs about {gigabytes}\.0 GB"):
            generator(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_dense_fixture_charges_each_generator_its_own_peak(monkeypatch):
    # 35 MB of physical memory: above sensitive_block_graph's 28 bytes per node pair at
    # n = 1000, below random_connected_graph's 43 at density 1.0
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 35 * 10**6}
    monkeypatch.setattr("fairformer.synth.os.sysconf", pages.__getitem__)
    with pytest.raises(IngestionError, match="n=1000 needs about"):
        random_connected_graph(1000, density=1.0)
    assert sensitive_block_graph(1000).n == 1000


def coo_adjacency(n, heads, tails):
    """The edge-list-to-adjacency route every graph source took before the shared builder."""
    rows = np.concatenate([heads, tails]).astype(np.int64)
    cols = np.concatenate([tails, heads]).astype(np.int64)
    adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0
    return adj


def coo_connect_components(adj, rng):
    """The generators' component patch as it was before the shared builder."""
    n_comp, labels = connected_components(adj, directed=False)
    if n_comp <= 1:
        return adj
    reps = [rng.choice(np.nonzero(labels == c)[0]) for c in range(n_comp)]
    patch = sp.coo_matrix((np.ones(2 * (n_comp - 1)), (reps[:-1] + reps[1:], reps[1:] + reps[:-1])),
                          shape=adj.shape)
    out = (adj + patch).tocsr()
    out.data[:] = 1.0
    return out


def assert_same_arrays(pairs):
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def dense_sensitive_block_graph(n, seed, avg_degree):
    """The row-blocked sampler's reference: its edges drawn from whole n x n arrays."""
    rng = np.random.default_rng(seed)
    sens = synth._force_both_values(rng.integers(0, 2, n), rng)
    p_pos = np.where(sens == 1, 0.5 + synth._LEAK / 2.0, 0.5 - synth._LEAK / 2.0)
    labels = synth._force_both_values((rng.random(n) < p_pos).astype(np.int64), rng)
    same_s = sens[:, None] == sens[None, :]
    same_y = labels[:, None] == labels[None, :]
    weight = (np.where(same_s, synth._SENSITIVE_HOMOPHILY, 1.0)
              * np.where(same_y, synth._LABEL_HOMOPHILY, 1.0))
    base = avg_degree * n / weight.sum()
    prob = np.minimum(base * weight, 1.0)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adj = coo_connect_components(sp.csr_matrix((upper | upper.T).astype(np.float64)), rng)
    signal_col = (synth._SIGNAL * (2.0 * labels - 1.0)
                  + synth._FEATURE_BIAS * (2.0 * sens - 1.0) + rng.standard_normal(n))
    noise = rng.standard_normal((n, synth._BLOCK_NOISE_DIM))
    noise = noise + np.outer(2.0 * sens - 1.0,
                             synth._NOISE_BIAS * (-1.0) ** np.arange(synth._BLOCK_NOISE_DIM))
    return adj, np.column_stack([signal_col, noise, sens.astype(np.float64)]), labels


@pytest.mark.parametrize("avg_degree", [24.0, 4])
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("n", [2, 3, 57, 300, 1000, 2100])
def test_row_blocked_sampler_draws_the_dense_samplers_graph(n, seed, avg_degree):
    g = sensitive_block_graph(n, seed, avg_degree=avg_degree)
    adj, features, labels = dense_sensitive_block_graph(n, seed, avg_degree)
    assert_same_arrays([(g.adjacency.data, adj.data), (g.adjacency.indices, adj.indices),
                        (g.adjacency.indptr, adj.indptr), (g.features, features),
                        (g.labels, labels)])


def test_row_blocked_sampler_holds_a_few_blocks_not_the_grid():
    sensitive_block_graph(50)  # first-call costs
    tracemalloc.start()
    try:
        sensitive_block_graph(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # the dense grid's arrays peaked at 28.0 MB


def coo_benchmark_graph(n, seed):
    """benchmark_graph as it was before the shared builder: int64 pairs, coo, tocsr."""
    rng = np.random.default_rng(seed)
    comm = rng.integers(0, synth._COMMUNITIES, n)
    p_out = synth._BENCH_AVG_DEGREE / (n * (1.0 + (synth._COMMUNITY_CONTRAST - 1.0)
                                            / synth._COMMUNITIES))
    p_in = synth._COMMUNITY_CONTRAST * p_out
    mean_keep = ((1.0 + (synth._COMMUNITY_CONTRAST - 1.0) / synth._COMMUNITIES)
                 / synth._COMMUNITY_CONTRAST)
    m_samples = int(n * synth._BENCH_AVG_DEGREE / (2.0 * mean_keep))
    u = rng.integers(0, n, m_samples)
    v = rng.integers(0, n, m_samples)
    keep_prob = np.where(comm[u] == comm[v], 1.0, p_out / p_in)
    keep = (rng.random(m_samples) < keep_prob) & (u != v)
    adj = coo_adjacency(n, np.concatenate([u[keep], np.arange(n - 1)]),
                        np.concatenate([v[keep], np.arange(1, n)]))
    sens = synth._force_both_values(rng.integers(0, 2, n), rng)
    labels = synth._force_both_values(rng.integers(0, 2, n), rng)
    noise = rng.standard_normal((n, synth._BENCH_NOISE_DIM))
    return adj, np.column_stack([noise, sens.astype(np.float64)]), labels.astype(np.int64)


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("n", [2, 3, 57, 1000, 16000, 46341])  # 46341: keys past int32
def test_benchmark_graph_has_the_coo_routes_bytes(n, seed):
    g = benchmark_graph(n, seed)
    adj, features, labels = coo_benchmark_graph(n, seed)
    assert_same_arrays([(g.adjacency.data, adj.data), (g.adjacency.indices, adj.indices),
                        (g.adjacency.indptr, adj.indptr), (g.features, features),
                        (g.labels, labels)])


@pytest.mark.parametrize("edge_rows,ids", [
    (["a,b", "b,a", "a,b", "c,c", "c,c", "d,b", "c,a"],
     ([0, 1, 0, 2, 2, 3, 2], [1, 0, 1, 2, 2, 1, 0])),
    (["src,dst"], ([], [])),
], ids=["repeats_both_directions_and_a_self_loop", "no_edges"])
def test_loader_adjacency_has_the_coo_routes_bytes(tmp_path, edge_rows, ids):
    nodes, edges = write_dataset(tmp_path, ["a,1.0,0,0", "b,2.0,1,1", "c,3.0,0,1", "d,4.0,1,0"],
                                 edge_rows)
    got, want = load_dataset(nodes, edges).adjacency, coo_adjacency(4, *map(np.array, ids))
    assert_same_arrays([(got.data, want.data), (got.indices, want.indices),
                        (got.indptr, want.indptr)])


def test_benchmark_graph_peak_is_the_draws_not_the_build():
    benchmark_graph(50)  # first-call costs
    tracemalloc.start()
    try:
        benchmark_graph(16000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000  # 13.9 MB; int64 pairs through coo and tocsr peaked at 26.4 MB


def test_benchmark_graph_refuses_a_size_it_cannot_fit(monkeypatch):
    # 2 MB of physical memory: n = 1000 fits at _BENCH_BYTES_PER_NODE, n = 2000 does not
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * 10**6}
    monkeypatch.setattr("fairformer.synth.os.sysconf", pages.__getitem__)
    tracemalloc.start()
    try:
        with pytest.raises(IngestionError, match="benchmark_graph at n=2000 needs about"):
            benchmark_graph(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert benchmark_graph(1000).n == 1000
