"""Options of the AC-OPF solve drivers (:mod:`repro.opf.solver`, :mod:`repro.opf.batch`)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.mips.options import MIPSOptions


@dataclass(frozen=True)
class OPFOptions:
    """Options for :func:`~repro.opf.solver.solve_opf` and its batched form.

    ``flow_limits`` selects the branch-flow constraint type (``"S"`` squared
    apparent power, ``"none"`` to ignore ratings); ``init`` selects the
    default starting point used when no warm start (or a partial one) is
    supplied.
    """

    flow_limits: str = "S"
    init: str = "case"  # "case" or "flat"
    mips: MIPSOptions = field(default_factory=MIPSOptions)

    def __post_init__(self) -> None:
        if self.flow_limits not in ("S", "none"):
            raise ValueError("flow_limits must be 'S' or 'none'")
        if self.init not in ("case", "flat"):
            raise ValueError("init must be 'case' or 'flat'")


def relaxed_options(options: OPFOptions, scale: float) -> OPFOptions:
    """Copy of ``options`` with all four MIPS termination tolerances scaled.

    Used by the relaxed-tolerance warm-retry fallback: a warm start that stalls
    just short of the tight default tolerances often converges immediately once
    they are loosened by a couple of orders of magnitude.
    """
    if scale <= 0:
        raise ValueError("tolerance scale must be positive")
    mips = replace(
        options.mips,
        feastol=options.mips.feastol * scale,
        gradtol=options.mips.gradtol * scale,
        comptol=options.mips.comptol * scale,
        costtol=options.mips.costtol * scale,
    )
    return replace(options, mips=mips)
