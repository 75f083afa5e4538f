"""The seven TM workload kernels of Table 4.

==========  ==================================  ====================
Name        Description (Table 4)               Module
==========  ==================================  ====================
cb          Cryptography benchmark              :mod:`.crypt`
jgrt        3D ray tracer                       :mod:`.raytrace`
lu          LU matrix factorisation             :mod:`.lu`
mc          Monte-Carlo simulation              :mod:`.montecarlo`
moldyn      Molecular dynamics                  :mod:`.moldyn`
series      Fourier coefficient analysis        :mod:`.series`
sjbb2k      SPECjbb2000 business logic          :mod:`.jbb`
==========  ==================================  ====================
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.sim.trace import ThreadTrace
from repro.workloads.kernels import (
    crypt,
    jbb,
    lu,
    moldyn,
    montecarlo,
    raytrace,
    series,
)

#: Kernel name -> builder function.
TM_KERNELS: Dict[str, Callable[..., List[ThreadTrace]]] = {
    "cb": crypt.build,
    "jgrt": raytrace.build,
    "lu": lu.build,
    "mc": montecarlo.build,
    "moldyn": moldyn.build,
    "series": series.build,
    "sjbb2k": jbb.build,
}


def build_tm_workload(
    name: str,
    num_threads: int = 8,
    txns_per_thread: int = 24,
    seed: int = 0,
) -> List[ThreadTrace]:
    """Build one of the Table 4 workloads by name.

    ``num_threads`` and ``txns_per_thread`` must be at least 1.
    """
    if name not in TM_KERNELS:
        raise ConfigurationError(
            f"unknown TM workload {name!r}; choose from {sorted(TM_KERNELS)}"
        )
    for size, value in (
        ("num_threads", num_threads),
        ("txns_per_thread", txns_per_thread),
    ):
        if value < 1:
            raise ConfigurationError(f"{size} must be at least 1, got {value}")
    return TM_KERNELS[name](
        num_threads=num_threads, txns_per_thread=txns_per_thread, seed=seed
    )
