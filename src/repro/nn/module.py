"""Base class for neural-network modules.

A :class:`Module` owns named :class:`~repro.autodiff.Tensor` parameters and
named sub-modules, and exposes the parameter-collection / serialisation
plumbing that optimizers and checkpoints rely on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..autodiff import Tensor


class Module:
    """Base class for all layers and models.

    Subclasses register parameters simply by assigning :class:`Tensor`
    instances (with ``requires_grad=True``) or other :class:`Module`
    instances as attributes; discovery walks ``__dict__``.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # Parameter / module discovery
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(name, parameter)`` pairs for this module and submodules.

        A tensor reachable along several paths (the autoencoder that every
        local model of a partitioned SelNet shares) is yielded once, under
        the first name the walk meets.
        """
        seen = set()
        for name, param in self._parameter_paths(prefix):
            if id(param) not in seen:
                seen.add(id(param))
                yield name, param

    def _parameter_paths(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Every ``(path, parameter)`` pair, shared tensors once per path."""
        for name, value in vars(self).items():
            if name == "training":
                continue
            full_name = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full_name, value
            elif isinstance(value, Module):
                yield from value._parameter_paths(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._parameter_paths(prefix=f"{full_name}.{index}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full_name}.{index}", item

    def parameter_aliases(self) -> Dict[str, str]:
        """Map each extra path to a shared parameter onto its canonical name."""
        canonical: Dict[int, str] = {}
        aliases: Dict[str, str] = {}
        for name, param in self._parameter_paths():
            if id(param) in canonical:
                aliases[name] = canonical[id(param)]
            else:
                canonical[id(param)] = name
        return aliases

    def parameters(self) -> List[Tensor]:
        """Return all trainable parameters as a list, each tensor once."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules, each module once."""
        return self._walk_modules(set())

    def _walk_modules(self, seen: set) -> Iterator["Module"]:
        if id(self) in seen:
            return
        seen.add(id(self))
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value._walk_modules(seen)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._walk_modules(seen)

    # ------------------------------------------------------------------ #
    # Training / evaluation mode
    # ------------------------------------------------------------------ #
    def train(self) -> "Module":
        """Put the module (and submodules) in training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Put the module (and submodules) in evaluation mode."""
        for module in self.modules():
            module.training = False
        return self

    # ------------------------------------------------------------------ #
    # Gradient helpers
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by its dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
