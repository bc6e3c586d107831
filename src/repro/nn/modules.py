"""Neural-network module system: parameters, Module base class, and the
dense layers DeepOD is assembled from.

The two-layer MLP pattern (``W2 ReLU(W1 x + b1) + b2``) appears throughout
the paper — Eq. 11 (Time Interval Encoder head), Eq. 17 (Trajectory Encoder
head), Eq. 18 (External Features Encoder head), Eq. 19 (MLP1) and Eq. 20
(MLP2) — so :class:`TwoLayerMLP` implements it once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..analysis.contracts import shaped
from . import init as init_schemes
from .engine import mlp2_fused
from .init import ensure_generator
from .tensor import Tensor, concat


class Parameter(Tensor):
    """A tensor flagged as trainable; collected by :meth:`Module.parameters`."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with parameter registration, train/eval mode and state IO."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training: bool = True

    # -- registration ---------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())
            self._parameters[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track non-trainable state (e.g. BatchNorm running statistics)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "",
                         _seen: Optional[set] = None
                         ) -> Iterator[Tuple[str, Parameter]]:
        """Yield (name, parameter) pairs, each parameter exactly once.

        Modules may share children (e.g. the road-segment embedding is
        used by both the OD encoder and the Trajectory Encoder); the
        ``_seen`` set deduplicates so optimizers never update a shared
        parameter twice per step.
        """
        if _seen is None:
            _seen = set()
        for name, param in self._parameters.items():
            if id(param) not in _seen:
                _seen.add(id(param))
                yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix + mod_name + ".",
                                               _seen)

    def named_buffers(self, prefix: str = "",
                      _seen: Optional[set] = None
                      ) -> Iterator[Tuple[str, np.ndarray]]:
        if _seen is None:
            _seen = set()
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for mod_name, module in self._modules.items():
            if id(module) in _seen:
                continue
            _seen.add(id(module))
            yield from module.named_buffers(prefix + mod_name + ".", _seen)

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state dict -----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy()
                 for name, param in self.named_parameters()}
        for name, buf in self.named_buffers():
            state["buffer::" + name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name.startswith("buffer::"):
                self._load_buffer(name[len("buffer::"):], value)
                continue
            if name not in params:
                raise KeyError(f"unexpected parameter {name!r}")
            if params[name].data.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{params[name].data.shape} vs {value.shape}")
            params[name].data = value.copy()

    def _load_buffer(self, dotted: str, value: np.ndarray) -> None:
        module: Module = self
        parts = dotted.split(".")
        for part in parts[:-1]:
            module = module._modules[part]
        module.update_buffer(parts[-1], np.asarray(value).copy())

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def size_bytes(self) -> int:
        """Model size as stored parameter bytes (Table 5's ``size`` column).

        The paper reports float32 model sizes; we count 4 bytes per weight
        regardless of the float64 compute dtype so numbers are comparable.
        """
        param_bytes = 4 * self.num_parameters()
        buffer_bytes = sum(4 * np.asarray(b).size
                           for _, b in self.named_buffers())
        return param_bytes + buffer_bytes

    # -- call protocol ----------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with PyTorch-compatible weight layout."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, *,
                 rng: np.random.Generator,
                 init: str = "uniform_fan_in"):
        super().__init__()
        rng = ensure_generator(rng, "Linear")
        self.in_features = in_features
        self.out_features = out_features
        scheme = getattr(init_schemes, init)
        self.weight = Parameter(scheme((out_features, in_features), rng))
        if bias:
            bound = 1.0 / np.sqrt(max(in_features, 1))
            self.bias: Optional[Parameter] = Parameter(
                rng.uniform(-bound, bound, size=(out_features,)))
        else:
            self.bias = None

    @shaped("(..., in_features) -> (..., out_features)")
    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (f"Linear(in_features={self.in_features}, "
                f"out_features={self.out_features})")


class TwoLayerMLP(Module):
    """The paper's recurring two-layer perceptron: Eq. 11/17/18/19/20.

    ``out = W2 ReLU(W1 x + b1) + b2``
    """

    engine = "fast"

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 *, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.fc1 = Linear(in_features, hidden, rng=rng)
        self.fc2 = Linear(hidden, out_features, rng=rng)

    @shaped("(..., in_features) -> (..., out_features)")
    def forward(self, x: Tensor) -> Tensor:
        if self.engine == "fast":
            return mlp2_fused(x, self.fc1.weight, self.fc1.bias,
                              self.fc2.weight, self.fc2.bias)
        return self.fc2(self.fc1(x).relu())

    @shaped("(..., *), (..., *) -> (..., out_features)")
    def forward_with_tail(self, x: Tensor, tail: np.ndarray) -> Tensor:
        """``forward(concat([x, tail], axis=-1))`` for a constant tail.

        The paper repeatedly appends hand-computed features (position
        ratios in Eq. 17, interval remainders in Eq. 11) to a learned
        code before an MLP.  The tail carries no gradient, so it goes
        straight into the fused kernel — no concat node, no backward
        split, no throwaway gradient buffer.  The reference path keeps
        the literal concat as the oracle.
        """
        if x.shape[:-1] != tail.shape[:-1]:
            raise ValueError(
                f"tail leading dims {tail.shape[:-1]} do not match "
                f"input leading dims {x.shape[:-1]}")
        if x.shape[-1] + tail.shape[-1] != self.in_features:
            raise ValueError(
                f"input ({x.shape[-1]}) + tail ({tail.shape[-1]}) "
                f"features must total in_features ({self.in_features})")
        if self.engine == "fast":
            tail = np.asarray(tail, dtype=x.dtype)
            return mlp2_fused(x, self.fc1.weight, self.fc1.bias,
                              self.fc2.weight, self.fc2.bias,
                              const_tail=tail)
        joined = concat([x, Tensor(np.asarray(tail, dtype=x.dtype))],
                        axis=-1)
        return self.fc2(self.fc1(joined).relu())


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self._layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layers)

    def __len__(self):
        return len(self._layers)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Embedding(Module):
    """Lookup table equivalent to one-hot times a weight matrix (Eq. 1).

    The paper frames road-segment and time-slot embeddings as a fully
    connected layer applied to one-hot codes ``D = O^T W``; an index lookup
    into the rows of ``W`` computes exactly that product without
    materialising the one-hot vectors.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 *, rng: np.random.Generator):
        super().__init__()
        rng = ensure_generator(rng, "Embedding")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim)))

    @shaped("_ -> (..., embedding_dim)")
    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if np.any(indices < 0) or np.any(indices >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})")
        return self.weight[indices]

    def load_pretrained(self, matrix: np.ndarray) -> None:
        """Initialise from an unsupervised graph embedding (Algorithm 1)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (self.num_embeddings, self.embedding_dim):
            raise ValueError(
                f"pretrained matrix shape {matrix.shape} does not match "
                f"({self.num_embeddings}, {self.embedding_dim})")
        self.weight.data = matrix.copy()

    def __repr__(self) -> str:
        return (f"Embedding({self.num_embeddings}, {self.embedding_dim})")


class LayerNorm(Module):
    """Layer normalisation over the last axis (available for extensions)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        norm = (x - mu) / ((var + self.eps) ** 0.5)
        return norm * self.weight + self.bias


class Dropout(Module):
    def __init__(self, p: float = 0.5, *, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = ensure_generator(rng, "Dropout")

    def forward(self, x: Tensor) -> Tensor:
        from .functional import dropout
        return dropout(x, self.p, self.training, self._rng)
