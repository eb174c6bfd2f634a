"""Tape-based reverse-mode automatic differentiation over float64 arrays."""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

from ffusion.errors import GradientError

Array = np.ndarray


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Data is stored row-major as float64. Construction rejects non-finite
    values; the sanctioned exception is `Tensor.constant`, which wraps
    non-trainable data without the check.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data contains non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Array] = None

    @classmethod
    def constant(cls, data) -> "Tensor":
        """Wrap non-trainable data without the finiteness check."""
        obj = object.__new__(cls)
        obj.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        obj.requires_grad = False
        obj.grad = None
        return obj

    @classmethod
    def _result(cls, arr: Array, requires_grad: bool) -> "Tensor":
        # Internal fast path for op outputs; arrays are float64 by construction.
        obj = object.__new__(cls)
        obj.data = arr
        obj.requires_grad = requires_grad
        obj.grad = None
        return obj

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


BackwardFn = Callable[[Array], tuple]

# Runs `backward`'s head groups beside the caller; its thread starts on first use.
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ffusion-backward")


class OpRecord:
    """One recorded operation: inputs, output and its backward rule."""

    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs: tuple, output: Tensor, backward_fn: BackwardFn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Execution-order record of differentiable operations.

    Entering the tape makes it the active recording target. Records are
    appended in execution order, which is a valid topological order of the
    data flow by construction: an operation can only consume tensors that
    already exist, so cycles are impossible.
    """

    _stack: list = []

    def __init__(self):
        self.records: list[OpRecord] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = Tape._stack.pop()
        if popped is not self:
            raise GradientError("tape context stack corrupted")
        return False

    @classmethod
    def active(cls) -> Optional["Tape"]:
        return cls._stack[-1] if cls._stack else None


def record_op(inputs: Sequence[Tensor], output: Tensor, backward_fn: BackwardFn) -> None:
    """Record an op on the active tape if its output participates in gradients."""
    tape = Tape.active()
    if tape is not None and output.requires_grad:
        tape.records.append(OpRecord(tuple(inputs), output, backward_fn))


def _propagate(records, flowing: dict) -> None:
    """Run records' backward rules in reverse, summing gradients into flowing."""
    for rec in reversed(records):
        out_grad = flowing.pop(id(rec.output), None)
        if out_grad is None:
            continue
        contribs = rec.backward_fn(out_grad)
        if len(contribs) != len(rec.inputs):
            raise GradientError("backward rule arity mismatch")
        for tensor, contrib in zip(rec.inputs, contribs):
            if contrib is None or not tensor.requires_grad:
                continue
            if contrib.shape != tensor.data.shape:
                raise GradientError(
                    f"gradient shape {contrib.shape} does not match "
                    f"tensor shape {tensor.data.shape}"
                )
            held = flowing.get(id(tensor))
            flowing[id(tensor)] = contrib if held is None else held + contrib


def _split_head(records: list) -> tuple:
    """Split the records before the first one whose differentiable inputs
    lie in two groups into groups that share no tensor; a record touching
    only unseen leaves starts a group. Returns (group of each tensor id,
    each group's records, the tail records)."""
    group_of: dict[int, int] = {}
    heads: list = []
    for index, rec in enumerate(records):
        tids = [id(t) for t in rec.inputs if t.requires_grad] + [id(rec.output)]
        seen = {group_of[tid] for tid in tids if tid in group_of}
        if len(seen) > 1:
            return group_of, heads, records[index:]
        group = seen.pop() if seen else len(heads)
        if group == len(heads):
            heads.append([])
        heads[group].append(rec)
        group_of.update(dict.fromkeys(tids, group))
    return group_of, heads, []


def _drain(queue: deque) -> None:
    """Propagate (records, flowing) head groups from the queue until it is empty."""
    while True:
        try:
            records, flowing = queue.popleft()
        except IndexError:
            return
        _propagate(records, flowing)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for every leaf on the tape.

    Leaves are the tensors no record produced, such as parameters. The loss
    must be scalar. Reverse execution order guarantees that a tensor's
    output gradient is complete before its producing record is visited, so
    each intermediate gradient is dropped once that record has consumed it;
    intermediates keep grad None. Gradients from multiple use sites sum.
    Leaves the loss does not depend on keep grad None; readers treat None as
    exact zero. The tail runs first; the head groups then run largest first
    on the calling thread and one worker, each from its tensors' tail sums,
    so every gradient sums its terms in the order of one sequential walk.
    """
    if loss.data.size != 1:
        raise GradientError(f"loss must be a scalar, got shape {loss.data.shape}")
    flowing: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    by_id: dict[int, Tensor] = {id(t): t for rec in tape.records for t in rec.inputs}
    by_id[id(loss)] = loss
    group_of, heads, tail = _split_head(tape.records)
    _propagate(tail, flowing)
    seeds: list = [{} for _ in heads]
    for tid in [tid for tid in flowing if tid in group_of]:
        seeds[group_of[tid]][tid] = flowing.pop(tid)
    queue = deque(sorted((g for g in zip(heads, seeds) if g[1]), key=lambda g: -len(g[0])))
    future = _WORKER.submit(_drain, queue) if len(queue) > 1 else None
    try:
        _drain(queue)
    finally:
        queue.clear()  # after a failure, start no further group
        if future is not None:
            future.result()
    for part in seeds:
        flowing.update(part)
    # Whatever is still flowing belongs to leaves: tensors no record produced.
    for tid, grad in flowing.items():
        tensor = by_id.get(tid)
        if tensor is None or not tensor.requires_grad:
            continue
        tensor.grad = grad if tensor.grad is None else tensor.grad + grad
