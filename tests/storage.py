"""Choose how the core stores digits and rows, for tests on both dtypes.

The core stores digits and rows as uint8 when their alphabet is at most 256,
so small-base tests would exercise only that dtype. Property tests draw a
flag and run their body inside ``storage(flag)``: with the flag set, every
array the core stores is int64, so the same cross-checks also cover the
kernels on int64 input.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from evnets import core


@contextlib.contextmanager
def storage(int64: bool):
    if not int64:
        yield
        return
    with mock.patch.object(core, "digit_dtype", lambda limit: np.int64):
        yield
