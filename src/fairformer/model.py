"""Per-node token transformer over hop stacks.

Each node carries its own short sequence of hop tokens; attention runs inside
that sequence only, so nodes never couple at inference and the cost stays
linear in the node count. A forward over a subset of the rows therefore gives
those rows' logits of the full pass to rounding, not always bit for bit: a
GEMM's result can depend in the last bits (about 4e-16) on how many rows it
holds. On the OpenBLAS numpy ships, a row's bits moved only for pieces under
16 rows, or for cuts off a 128-row grid; `train._score_pieces` keeps to both.

Layers are pre-LN residual blocks: attention over normalized tokens plus the
skip, then a GELU feed-forward over normalized tokens plus the skip. A
learned-query softmax over the hop axis condenses the final tokens into one
embedding per node, which a linear head maps to two class logits.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import FairformerError, ModelError
from .hops import HopStack
from .synth import refuse_unfit


@dataclass(frozen=True)
class ModelConfig:
    d_hidden: int = 32
    layers: int = 1
    heads: int = 1
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1:
            raise FairformerError("layers must be >= 1")
        if self.d_hidden < 1:
            raise FairformerError(f"d_hidden={self.d_hidden} must be >= 1")
        if self.heads < 1 or self.d_hidden % self.heads != 0:
            raise FairformerError(
                f"d_hidden={self.d_hidden} must be divisible by heads={self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise FairformerError("dropout must lie in [0, 1)")

    @property
    def d_ff(self) -> int:
        return 4 * self.d_hidden


@dataclass
class ModelParams:
    config: ModelConfig
    d_input: int
    tensors: dict = field(default_factory=dict)

    def trainable(self):
        return list(self.tensors.values())

    def frozen(self) -> "ModelParams":
        """The same arrays without `requires_grad`, so a forward on them records no tape.

        The view shares arrays, not tensors: `Adam.step` rebinds each `data`, so
        take a fresh view for every use.
        """
        return ModelParams(config=self.config, d_input=self.d_input,
                           tensors={name: ad.Tensor(t.data) for name, t in self.tensors.items()})

    def state_copy(self) -> dict:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_state(self, state: dict) -> None:
        for name, values in state.items():
            self.tensors[name].data = values.copy()

    def __getitem__(self, name: str) -> ad.Tensor:
        return self.tensors[name]


def _param_spec(cfg: ModelConfig, d_input: int):
    """Yield (name, shape, init) in draw order; init is a uniform bound, "ones" or "zeros"."""

    def linear(name, fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        yield f"{name}.weight", (fan_in, fan_out), bound
        yield f"{name}.bias", (fan_out,), bound

    def norm(name, dim):
        yield f"{name}.gain", (dim,), "ones"
        yield f"{name}.bias", (dim,), "zeros"

    yield from linear("projection", d_input, cfg.d_hidden)
    for i in range(cfg.layers):
        prefix = f"layer{i}"
        yield from norm(f"{prefix}.norm_attn", cfg.d_hidden)
        for name in ("wq", "wk", "wv", "wo"):
            yield from linear(f"{prefix}.{name}", cfg.d_hidden, cfg.d_hidden)
        yield from norm(f"{prefix}.norm_ffn", cfg.d_hidden)
        yield from linear(f"{prefix}.ffn_in", cfg.d_hidden, cfg.d_ff)
        yield from linear(f"{prefix}.ffn_out", cfg.d_ff, cfg.d_hidden)
    yield "readout.query", (cfg.d_hidden, 1), 1.0 / np.sqrt(cfg.d_hidden)
    yield from linear("classifier", cfg.d_hidden, 2)


def init_model(cfg: ModelConfig, d_input: int) -> ModelParams:
    """Seed-controlled initialization: uniform(+-1/sqrt(fan_in)) linear maps.

    Refuses up front a shape whose training state cannot fit in physical memory:
    six parameter copies live at once during an Adam step, as the validation
    scoring of epoch e runs beside step e + 1 (see `train._run_fold`). They are
    step e + 1's new weights, the frozen epoch-e weights being scored, the grads,
    Adam's two moments and the best-epoch copy.
    """
    def count(layers):  # every layer holds the same tensors, so count one or two
        return sum(math.prod(shape) for _, shape, _ in _param_spec(replace(cfg, layers=layers),
                                                                    d_input))

    values = count(1) + (cfg.layers - 1) * (count(2) - count(1))
    refuse_unfit(6 * 8 * values, f"a model of d_input={d_input} d_hidden={cfg.d_hidden} "
                                 f"layers={cfg.layers} ({values} parameters) in training")
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(config=cfg, d_input=d_input)
    for name, shape, init in _param_spec(cfg, d_input):
        if init == "ones":
            values = np.ones(shape)
        elif init == "zeros":
            values = np.zeros(shape)
        else:
            values = rng.uniform(-init, init, shape)
        params.tensors[name] = ad.Tensor(values, requires_grad=True)
    return params


def _maybe_dropout(t: ad.Tensor, p: float, training: bool, rng) -> ad.Tensor:
    if not training or p <= 0.0:
        return t
    mask = (rng.random(t.data.shape) >= p) / (1.0 - p)  # the bools divide as 0.0 and 1.0
    return ad.mul(t, ad.Tensor(mask))


def _linear(t: ad.Tensor, params: ModelParams, name: str) -> ad.Tensor:
    return ad.matmul(t, params[f"{name}.weight"], bias=params[f"{name}.bias"])


def project_tokens(stack: HopStack, params: ModelParams) -> ad.Tensor:
    """Linear projection of every hop token into the hidden width."""
    tokens = ad.Tensor(stack.tensor)
    if tokens.data.shape[-1] != params.d_input:
        raise FairformerError(
            f"stack width {tokens.data.shape[-1]} does not match projection input {params.d_input}")
    return _linear(tokens, params, "projection")


def _attention(tokens: ad.Tensor, params: ModelParams, prefix: str, cfg: ModelConfig,
               training: bool, rng, key_bias=None) -> ad.Tensor:
    n, s, dh = tokens.data.shape
    h = cfg.heads
    dk = dh // h

    def split_heads(t):
        t = ad.reshape(t, (n, s, h, dk))
        t = ad.permute(t, (0, 2, 1, 3))
        return ad.reshape(t, (n * h, s, dk))

    q = split_heads(_linear(tokens, params, f"{prefix}.wq"))
    k = split_heads(_linear(tokens, params, f"{prefix}.wk"))
    v = split_heads(_linear(tokens, params, f"{prefix}.wv"))

    scores = ad.scale(ad.matmul(q, ad.transpose_last(k)), 1.0 / np.sqrt(dk))
    if key_bias is not None:
        scores = ad.add(scores, key_bias)
    attn = ad.softmax_rows(scores)
    attn = _maybe_dropout(attn, cfg.dropout, training, rng)
    context = ad.matmul(attn, v)
    context = ad.reshape(context, (n, h, s, dk))
    context = ad.permute(context, (0, 2, 1, 3))
    context = ad.reshape(context, (n, s, dh))
    return _linear(context, params, f"{prefix}.wo")


def encoder_layer(tokens: ad.Tensor, params: ModelParams, layer_index: int,
                  training: bool = False, rng=None, key_bias=None) -> ad.Tensor:
    """One pre-LN block: tokens + attention(LN(tokens)), then + FFN(LN(...)).

    `key_bias` (s,) is added to every attention score row, one entry per key token.
    """
    cfg = params.config
    prefix = f"layer{layer_index}"

    normed = ad.layer_norm(tokens, params[f"{prefix}.norm_attn.gain"],
                           params[f"{prefix}.norm_attn.bias"])
    attended = ad.add(_attention(normed, params, prefix, cfg, training, rng, key_bias), tokens)

    normed2 = ad.layer_norm(attended, params[f"{prefix}.norm_ffn.gain"],
                            params[f"{prefix}.norm_ffn.bias"])
    hidden = ad.gelu(_linear(normed2, params, f"{prefix}.ffn_in"))
    hidden = _maybe_dropout(hidden, cfg.dropout, training, rng)
    out = ad.add(_linear(hidden, params, f"{prefix}.ffn_out"), attended)

    if not np.all(np.isfinite(out.data)):
        raise ModelError(f"non-finite activations after encoder layer {layer_index}")
    return out


def readout(tokens: ad.Tensor, params: ModelParams, key_bias=None) -> ad.Tensor:
    """Pool each node's hop tokens with softmax(tokens . query + key_bias) weights."""
    n, s, dh = tokens.data.shape
    scores = ad.reshape(ad.matmul(tokens, params["readout.query"]), (n, s))
    if key_bias is not None:
        scores = ad.add(scores, key_bias)
    weights = ad.softmax_rows(scores)
    pooled = ad.matmul(ad.reshape(weights, (n, 1, s)), tokens)
    return ad.reshape(pooled, (n, dh))


def forward(params: ModelParams, stack: HopStack, training: bool = False,
            rng=None) -> ad.Tensor:
    """Hop stack -> per-node logits (n, 2). Deterministic when training=False.

    A stack with `counts` holds each distinct token once: log(counts) joins every
    attention and readout softmax as a per-key bias, since c * e^s = e^(s + log c)
    makes one key stand for c equal ones. Equal queries give equal outputs, so
    the logits and their gradients are those of the expanded stack up to
    rounding; in training, the tied tokens share each dropout draw.
    """
    if training and params.config.dropout > 0.0 and rng is None:
        raise FairformerError("training forward with dropout needs an rng")
    key_bias = (None if stack.counts is None
                else ad.Tensor(np.array([math.log(c) for c in stack.counts])))
    tokens = project_tokens(stack, params)
    for i in range(params.config.layers):
        tokens = encoder_layer(tokens, params, i, training=training, rng=rng, key_bias=key_bias)
    embedding = readout(tokens, params, key_bias)
    return _linear(embedding, params, "classifier")


def cross_entropy(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean negative log-likelihood of the true class; row i of both arguments is one node."""
    lab = np.asarray(labels, dtype=np.intp)
    if lab.size == 0:
        raise FairformerError("cross_entropy: empty node set")
    log_probs = ad.log_softmax_rows(logits)
    picked = ad.pick(log_probs, np.arange(lab.size), lab)
    return ad.scale(ad.sum_all(picked), -1.0 / lab.size)


_MODEL_MAGIC = b"FFMD"
_MODEL_VERSION = 3


def save_model(path, params: ModelParams) -> None:
    """Checkpoint, little-endian: b"FFMD", u8 version, u32 header length, the JSON
    config header, u32 tensor count, then per tensor in init order: u16 name
    length, UTF-8 name, u8 ndim, ndim x u64 shape, row-major float64 values."""
    header = json.dumps({"d_input": params.d_input, **params.config.__dict__},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC + struct.pack("<BI", _MODEL_VERSION, len(header)) + header)
        fh.write(struct.pack("<I", len(params.tensors)))
        for name, tensor in params.tensors.items():
            raw = name.encode("utf-8")
            arr = np.asarray(tensor.data, dtype="<f8")  # tobytes() below copies in C order
            fh.write(struct.pack(f"<H{len(raw)}sB{arr.ndim}Q", len(raw), raw, arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


class _Cursor:
    """Sequential reads over checkpoint bytes; reading past the end is an error."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, size: int) -> bytes:
        if size > len(self.data) - self.pos:
            raise FairformerError(f"truncated: {size} bytes wanted at offset {self.pos}, "
                                  f"file has {len(self.data)}")
        self.pos += size
        return self.data[self.pos - size:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_config(cur: _Cursor) -> tuple[ModelConfig, int]:
    if cur.take(4) != _MODEL_MAGIC:
        raise FairformerError("not a model checkpoint")
    (version,) = cur.unpack("<B")
    if version != _MODEL_VERSION:
        raise FairformerError(f"unsupported model checkpoint version {version}")
    (hlen,) = cur.unpack("<I")
    header = json.loads(cur.take(hlen).decode("utf-8"))
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    if not isinstance(header, dict) or set(header) != {"d_input", *defaults}:
        raise FairformerError(f"header keys do not match ModelConfig: {header!r}")
    d_input = header.pop("d_input")
    # numbers only; an int may stand for a float field but not the other way round
    bad = [k for k, v in header.items()
           if type(v) not in (int, float) or (type(v) is float and type(defaults[k]) is int)]
    if type(d_input) is not int or d_input < 1 or bad:
        raise FairformerError(f"malformed header values: d_input={d_input!r} {bad}")
    return ModelConfig(**header), d_input


def load_model(path) -> ModelParams:
    """Read a `save_model` checkpoint; any malformed file raises FairformerError naming it.

    Tensor names and shapes must match what `init_model` builds for the header's
    config, in the same order, and every value must be finite.
    """
    cur = _Cursor(Path(path).read_bytes())
    try:
        cfg, d_input = _read_config(cur)
        params = ModelParams(config=cfg, d_input=d_input)
        expected = _param_spec(cfg, d_input)
        (count,) = cur.unpack("<I")
        for _ in range(count):
            (nlen,) = cur.unpack("<H")
            name = cur.take(nlen).decode("utf-8")
            (ndim,) = cur.unpack("<B")
            shape = cur.unpack(f"<{ndim}Q")
            want = next(expected, None)
            if want is None or (name, shape) != want[:2]:
                raise FairformerError(f"tensor {name!r} {shape} where the config expects "
                                      f"{want[:2] if want else 'no more tensors'}")
            values = np.frombuffer(cur.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            if not np.all(np.isfinite(values)):
                raise FairformerError(f"tensor {name!r} has non-finite values")
            params.tensors[name] = ad.Tensor(values.copy(), requires_grad=True)
        if next(expected, None) is not None:
            raise FairformerError(f"only {count} tensors, the config needs more")
        if cur.pos != len(cur.data):
            raise FairformerError(f"{len(cur.data) - cur.pos} trailing bytes")
    except FairformerError as exc:
        raise FairformerError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSON and UTF-8 decoding errors
        raise FairformerError(f"{path}: corrupt checkpoint header: {exc}") from exc
    return params
