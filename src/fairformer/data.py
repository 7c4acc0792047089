"""Graph data model, dataset ingestion, label binarization and split protocol.

Datasets arrive as two delimited text files: a node table (header row with an
id column, numeric feature columns, a binary sensitive column and a label
column) and an edge list with two id columns. A plain-text manifest names the
files and columns. Edge lists may record each undirected edge once; the
loader symmetrizes and collapses duplicates. Self-loops present in the input
are kept as-is. Every graph source, the loader and the generators in `synth`,
builds its adjacency from an edge list with `_symmetric_adjacency`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import IngestionError, SchemaError, SplitError


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable node-classification graph.

    adjacency is a symmetric 0/1 CSR matrix: stored entries are 1.0, both
    directions of every undirected edge are present, and no entry is stored
    twice (a repeated entry would weigh 2 in every mat-vec). A row's column
    indices need not be sorted. features holds the raw node table columns;
    features[:, sensitive_index] is exactly 0/1. labels are binary for every
    node where label_mask is True and -1 elsewhere. Every array, the
    adjacency's included, is read-only once built; `==` means identity, and a
    Graph is hashable.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    sensitive_index: int
    labels: np.ndarray
    label_mask: np.ndarray

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def sensitive(self) -> np.ndarray:
        return self.features[:, self.sensitive_index]

    def directed_entry_count(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self.adjacency.nnz)

    def undirected_edge_count(self) -> int:
        """Number of undirected edges; self-loops count once."""
        loops = int(self.adjacency.diagonal().sum())
        return (self.adjacency.nnz - loops) // 2 + loops

    def validate(self) -> None:
        a = self.adjacency
        if a.shape[0] != a.shape[1]:
            raise SchemaError(f"adjacency must be square, got {a.shape}")
        n = a.shape[0]
        dtype = _key_dtype(n)
        rows = np.repeat(np.arange(n, dtype=dtype), np.diff(a.indptr))
        cols = a.indices.astype(dtype, copy=False)
        keys = rows * n + cols
        if not np.all(keys[1:] > keys[:-1]):  # a canonical CSR's keys ascend: no sort, no repeat
            keys.sort()
            repeated = np.flatnonzero(keys[1:] == keys[:-1])
            if repeated.size:
                row, col = divmod(int(keys[repeated[0]]), n)
                raise SchemaError(f"adjacency stores entry ({row}, {col}) more than once")
        if not np.array_equal(keys, np.sort(cols * n + rows)):
            raise SchemaError("adjacency is not symmetric")
        if a.nnz and not np.all(a.data == 1.0):
            raise SchemaError("adjacency entries must all equal 1")
        if self.features.shape[0] != self.n:
            raise SchemaError("features row count does not match node count")
        sens = self.features[:, self.sensitive_index]
        if not np.all(np.isin(sens, (0.0, 1.0))):
            raise SchemaError(f"sensitive column {self.sensitive_index} is not binary")
        masked = self.labels[self.label_mask]
        if masked.size and not np.all(np.isin(masked, (0, 1))):
            raise SchemaError("labels must be binary on masked nodes")

    def __post_init__(self):
        self.validate()
        a = self.adjacency
        for arr in (a.data, a.indices, a.indptr, self.features, self.labels, self.label_mask):
            arr.setflags(write=False)


def _key_dtype(n: int):
    """The narrower of int32 and int64 holding row * n + col for every entry of an n x n matrix."""
    return np.int32 if n * n <= np.iinfo(np.int32).max else np.int64


def _symmetric_adjacency(n: int, heads, tails) -> sp.csr_matrix:
    """The 0/1 adjacency of the undirected edges (heads[i], tails[i]) on n nodes.

    Both directions of every edge are stored, a repeated edge (or self-loop) once, and
    each row's columns ascend: the arrays and dtypes that `coo_matrix(...).tocsr()` on
    both directions gives once its data is set to 1.0, found by one sort of the entries'
    row * n + col keys.
    """
    dtype = _key_dtype(n)
    heads, tails = np.asarray(heads, dtype=dtype), np.asarray(tails, dtype=dtype)
    keys = np.concatenate([heads * n + tails, tails * n + heads])
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    rows, cols = np.divmod(keys[first], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((np.ones(cols.size), cols, indptr), shape=(n, n))


def binarize_labels(raw_labels) -> np.ndarray:
    """Map raw class ids to binary labels: 0 stays 0, every class >= 1 becomes 1."""
    raw = np.asarray(raw_labels)
    if raw.size and np.any(raw < 0):
        raise SchemaError("binarize_labels: negative label encountered")
    return (raw >= 1).astype(np.int64)


@dataclass(frozen=True)
class ColumnSchema:
    """Column mapping for the node/edge files."""

    id_column: str = "id"
    sensitive: str = "sensitive"
    label: str = "label"
    feature_columns: tuple | None = None  # None -> all non-id, non-label columns
    delimiter: str = ","
    unlabeled_values: tuple = ("",)  # label cell values meaning "no ground truth"
    standardize: bool = False  # per-column z-scoring of non-sensitive features


_MANIFEST_KEYS = ("nodes", "edges", "sensitive", "label", "id", "delimiter", "features",
                  "unlabeled", "standardize")
_MANIFEST_BOOLEANS = {"0": False, "false": False, "no": False, "1": True, "true": True,
                      "yes": True}


def _read_text(path: Path, what: str) -> str:
    """The whole file as UTF-8 text, line endings kept and a leading byte-order mark
    dropped. A file that cannot be found, read or decoded is an IngestionError
    naming it, and a decode error its line."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except FileNotFoundError:
        raise IngestionError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise IngestionError(f"{path}:{line}: byte {exc.object[exc.start]:#04x} is not "
                             f"{exc.encoding} text") from None
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc.strerror or exc}") from None


def load_manifest(path) -> tuple[Path, Path, ColumnSchema]:
    """Parse a key=value manifest: nodes=..., edges=..., sensitive=..., label=...

    Optional keys: id, delimiter (one character, or \\t for a tab), features
    (comma list), unlabeled (comma list of label cell values to treat as
    missing), standardize (0/1/false/true/no/yes, in any case). An unknown or
    repeated key is refused. Relative file paths resolve against the manifest's
    directory.
    """
    path = Path(path)
    entries, where = {}, {}
    for lineno, line in enumerate(_read_text(path, "manifest").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IngestionError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _MANIFEST_KEYS:
            raise IngestionError(f"{path}:{lineno}: unknown key {key!r}; known keys are "
                                 f"{', '.join(_MANIFEST_KEYS)}")
        if key in where:
            raise IngestionError(f"{path}:{lineno}: key {key!r} repeats {where[key]}")
        entries[key], where[key] = value.strip(), f"{path}:{lineno}"
    for required in ("nodes", "edges", "sensitive", "label"):
        if required not in entries:
            raise IngestionError(f"{path}: manifest missing key {required!r}")
    delimiter = entries.get("delimiter", ",")
    delimiter = "\t" if delimiter == "\\t" else delimiter
    if len(delimiter) != 1:
        raise IngestionError(f"{where['delimiter']}: delimiter must be one character or \\t, "
                             f"got {entries['delimiter']!r}")
    standardize = _MANIFEST_BOOLEANS.get(entries.get("standardize", "0").lower())
    if standardize is None:
        raise IngestionError(f"{where['standardize']}: standardize must be one of "
                             f"{'/'.join(_MANIFEST_BOOLEANS)}, got {entries['standardize']!r}")
    base = path.parent
    schema = ColumnSchema(
        id_column=entries.get("id", "id"),
        sensitive=entries["sensitive"],
        label=entries["label"],
        feature_columns=tuple(c.strip() for c in entries["features"].split(",")) if "features" in entries else None,
        delimiter=delimiter,
        unlabeled_values=tuple(v.strip() for v in entries.get("unlabeled", "").split(",")) if "unlabeled" in entries else ("",),
        standardize=standardize,
    )
    return base / entries["nodes"], base / entries["edges"], schema


def load_dataset(node_file, edge_file, schema: ColumnSchema | None = None) -> Graph:
    """Ingest node and edge files into a Graph.

    The node file needs a header row. The edge file holds two id columns per
    row; its first row is skipped as a header when neither of its cells is a
    node id or a number, and any other row naming an unknown id is refused.
    Every edge is stored in both directions; duplicates collapse to a single
    unit entry.
    """
    schema = schema or ColumnSchema()
    node_file, edge_file = Path(node_file), Path(edge_file)
    node_text, edge_text = _read_text(node_file, "node file"), _read_text(edge_file, "edge file")

    with io.StringIO(node_text, newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{node_file}: empty node file") from None
        header = [h.strip() for h in header]
        col_index = {name: i for i, name in enumerate(header)}
        for needed in (schema.id_column, schema.sensitive, schema.label):
            if needed not in col_index:
                raise SchemaError(f"{node_file}: column {needed!r} missing from header {header}")
        if schema.feature_columns is None:
            feature_names = [h for h in header if h not in (schema.id_column, schema.label)]
        else:
            feature_names = list(schema.feature_columns)
            for name in feature_names:
                if name not in col_index:
                    raise SchemaError(f"{node_file}: feature column {name!r} missing")
            if schema.sensitive not in feature_names:
                feature_names.append(schema.sensitive)

        id_of, rows, raw_labels, mask = {}, [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise IngestionError(f"{node_file}:{lineno}: expected {len(header)} cells, got {len(row)}")
            node_id = row[col_index[schema.id_column]].strip()
            if node_id in id_of:
                raise IngestionError(f"{node_file}:{lineno}: duplicate node id {node_id!r}")
            id_of[node_id] = len(id_of)
            values = []
            for name in feature_names:
                cell = row[col_index[name]].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{node_file}:{lineno}: non-numeric value {cell!r} in column {name!r}") from None
                if not math.isfinite(value):
                    raise IngestionError(
                        f"{node_file}:{lineno}: non-finite value {cell!r} in column {name!r}")
                values.append(value)
            rows.append(values)
            label_cell = row[col_index[schema.label]].strip()
            if label_cell in schema.unlabeled_values:
                raw_labels.append(0)
                mask.append(False)
            else:
                try:
                    value = float(label_cell)
                except ValueError:
                    value = math.nan
                if not value.is_integer():  # also rejects nan and inf
                    raise IngestionError(f"{node_file}:{lineno}: non-integer label {label_cell!r}")
                if value < 0:
                    raise SchemaError(f"{node_file}:{lineno}: negative label {label_cell!r}")
                raw_labels.append(value)
                mask.append(True)

    if not id_of:
        raise IngestionError(f"{node_file}: no node rows")
    n = len(id_of)

    features = np.asarray(rows, dtype=np.float64)
    sensitive_index = feature_names.index(schema.sensitive)
    sens = features[:, sensitive_index]
    if not np.all(np.isin(sens, (0.0, 1.0))):
        bad = sorted(set(sens) - {0.0, 1.0})
        raise SchemaError(f"{node_file}: sensitive column {schema.sensitive!r} has non-binary values {bad[:5]}")

    label_mask = np.asarray(mask, dtype=bool)
    raw = np.asarray(raw_labels, dtype=np.float64)  # integral, but may exceed int64
    labels = np.full(n, -1, dtype=np.int64)
    labels[label_mask] = binarize_labels(raw[label_mask])

    if schema.standardize:
        for j in range(features.shape[1]):
            if j == sensitive_index:
                continue
            col = features[:, j]
            std = col.std()
            if std > 0:
                features[:, j] = (col - col.mean()) / std

    def looks_numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    src, dst = [], []
    with io.StringIO(edge_text, newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            cells = [c.strip() for c in row if c.strip() != ""]
            if len(cells) < 2:
                raise IngestionError(f"{edge_file}:{lineno}: expected two id columns")
            u, v = cells[0], cells[1]
            if u not in id_of or v not in id_of:
                # a first row of non-numeric non-ids is a header; anything else dangles
                if lineno == 1 and not any(c in id_of or looks_numeric(c) for c in (u, v)):
                    continue
                raise IngestionError(f"{edge_file}:{lineno}: edge endpoint {u!r} or {v!r} is not a node id")
            src.append(id_of[u])
            dst.append(id_of[v])

    return Graph(adjacency=_symmetric_adjacency(n, src, dst), features=features,
                 sensitive_index=sensitive_index, labels=labels, label_mask=label_mask)


@dataclass(frozen=True)
class SplitSpec:
    """Split protocol parameters.

    Per class, the train pool takes min(ceil(0.5 * class_size), cap) nodes
    drawn outside val/test; val and test each take a quarter of all labeled
    nodes, balanced across classes within one node.
    """

    train_per_class_cap: int = 50
    seed: int = 0
    folds: int = 5

    def __post_init__(self):
        if self.train_per_class_cap <= 0:
            raise SplitError("train_per_class_cap must be positive")
        if self.folds < 1:
            raise SplitError("folds must be >= 1")
        if self.seed < 0:
            raise SplitError(f"seed={self.seed} must be >= 0")


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        sets = [set(self.train.tolist()), set(self.val.tolist()), set(self.test.tolist())]
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise SplitError("split sets overlap")

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for part in (self.train, self.val, self.test):
            h.update(np.sort(part).astype("<i8").tobytes())
            h.update(b"|")
        return h.hexdigest()


_HOLDOUT_FRACTION = 0.25  # of all labeled nodes, for validation and again for test


def make_split(g: Graph, spec: SplitSpec) -> Split:
    """Draw one seeded train/val/test split over labeled nodes.

    Validation and test sets are class-balanced within one node; the train
    set takes up to min(ceil(0.5 * class_size), cap) per class from the
    remaining labeled nodes (clamped to what is left after val/test).
    """
    labeled = np.nonzero(g.label_mask)[0]
    classes = [0, 1]
    per_class = {c: labeled[g.labels[labeled] == c] for c in classes}
    for c in classes:
        if per_class[c].size < 2:
            raise SplitError(f"class {c} has {per_class[c].size} labeled nodes; need at least 2")

    holdout = int(np.floor(_HOLDOUT_FRACTION * labeled.size))
    # any odd slot goes to the larger class (class 0 on a tie), so small classes are not drained
    larger = int(per_class[1].size > per_class[0].size)
    share = {larger: (holdout + 1) // 2, 1 - larger: holdout // 2}

    rng = np.random.default_rng(spec.seed)
    train_parts, val_parts, test_parts = [], [], []
    for c in classes:
        pool = per_class[c].copy()
        rng.shuffle(pool)
        need = 2 * share[c]
        if pool.size <= need:
            raise SplitError(
                f"class {c} too small to fill val/test: {pool.size} labeled nodes, "
                f"{need} required before any training node")
        val_parts.append(pool[:share[c]])
        test_parts.append(pool[share[c]:need])
        remaining = pool[need:]
        want = min(int(np.ceil(0.5 * pool.size)), spec.train_per_class_cap, remaining.size)
        train_parts.append(remaining[:want])

    return Split(
        train=np.sort(np.concatenate(train_parts)),
        val=np.sort(np.concatenate(val_parts)),
        test=np.sort(np.concatenate(test_parts)),
    )


def make_folds(g: Graph, spec: SplitSpec) -> list[Split]:
    """Independent seeded re-splits, one per fold (seed, seed+1, ...)."""
    return [make_split(g, replace(spec, seed=spec.seed + i)) for i in range(spec.folds)]
