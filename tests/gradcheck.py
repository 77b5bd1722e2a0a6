"""Central finite-difference verification of tape gradients."""

from dataclasses import dataclass

import numpy as np

from hydroformer.tensor import Tensor, backward


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_input: int
    worst_coord: tuple

    def ok(self, tol: float) -> bool:
        return self.max_rel_error < tol


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def grad_check(fn, inputs, eps: float = 1e-5) -> GradCheckReport:
    """Compare tape gradients of a scalar-valued fn against central finite
    differences, coordinate by coordinate.

    fn receives a list of Tensors (built fresh on every call from the given
    numpy arrays) and must return a scalar Tensor deterministically.
    """
    arrays = [np.array(a, dtype=np.float64) for a in inputs]

    def run(arrs):
        tensors = [Tensor(a, requires_grad=True) for a in arrs]
        return tensors, fn(tensors)

    tensors, loss = run(arrays)
    backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    worst = 0.0
    worst_input, worst_coord = -1, ()
    for i, base in enumerate(arrays):
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[i][idx] += eps
            minus[i][idx] -= eps
            fp = float(run(plus)[1].data)
            fm = float(run(minus)[1].data)
            fd = (fp - fm) / (2.0 * eps)
            err = _rel_err(float(analytic[i][idx]), fd)
            if err > worst:
                worst, worst_input, worst_coord = err, i, idx
    return GradCheckReport(max_rel_error=worst, worst_input=worst_input, worst_coord=worst_coord)
