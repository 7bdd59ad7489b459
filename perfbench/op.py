"""The unit of work every workload hands to the runner."""

from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Op:
    """One timed call into tumax and the check of its output.

    ``call`` is timed and must return the program's output; ``check``
    runs after the timed passes and returns whether that output is right.
    ``phase`` groups ops whose summed time the workload reports apart.
    """

    kind: str
    phase: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
