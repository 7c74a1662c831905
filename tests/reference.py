"""Route the production kernels through their scalar references.

The production short-range evaluation
(`repro.core.vectorized.compute_short_range_impl`) and fidelity walk
(`repro.core.vectorized.walk_fidelity_partition_vectorized`) must match
`repro.md.forces.compute_short_range` and
`repro.core.kernels._walk_fidelity_partition` bit for bit.  Unit tests
call the references directly; whole-pipeline tests run once as shipped
and once inside :func:`reference_kernels`, which patches the references
in at the module every call site imports them from.

Pool workers only see the patch if they are forked inside the context,
so reference runs use the serial backend or a pool created there.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core import vectorized
from repro.core.kernels import _walk_fidelity_partition
from repro.md.forces import compute_short_range


@contextlib.contextmanager
def reference_kernels():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vectorized, "compute_short_range_impl", compute_short_range)
        mp.setattr(
            vectorized,
            "walk_fidelity_partition_vectorized",
            _walk_fidelity_partition,
        )
        yield
