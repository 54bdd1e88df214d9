"""The kernel catalog: names, default scales and ISA variants.

These are the only facts about the kernels that the sweep layer and the
CLI need to expand a sweep, key a result and parse arguments.  They live
here, in a module that imports nothing, so a run served entirely from the
result cache never imports the kernels, the builders or NumPy.  Each
kernel class takes its ``default_scale`` from :data:`DEFAULT_SCALES`, and
:data:`repro.kernels.registry.KERNELS` is ordered by it, so this is the one
source of all three facts.
"""

from typing import List

__all__ = ["DEFAULT_SCALES", "ISA_VARIANTS", "default_scale", "kernel_names"]

#: ISA variant names in the paper's reporting order.
ISA_VARIANTS = ("scalar", "mmx", "mdmx", "mom")

#: Each kernel's default ``scale`` (repetition count) used by the experiment
#: drivers, in the order the paper's Figure 4 presents the kernels.
DEFAULT_SCALES = {
    "idct": 2,
    "motion2": 3,
    "rgb2ycc": 8,
    "motion1": 3,
    "h2v2": 6,
    "addblock": 8,
    "comp": 3,
    "ltppar": 4,
    "ltpsfilt": 8,
}


def kernel_names() -> List[str]:
    """The nine kernel names in reporting order."""
    return list(DEFAULT_SCALES)


def default_scale(name: str) -> int:
    """The default workload scale of kernel ``name`` (raises ``KeyError``
    with the known names)."""
    try:
        return DEFAULT_SCALES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown kernel {name!r}; known kernels: "
            f"{', '.join(DEFAULT_SCALES)}") from exc
