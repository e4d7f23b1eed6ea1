"""The paper's optimization tiers (Sec. III-B), shared by the functional
registry and the performance models.  Imports nothing, so a pricing
process can rank its tiers without loading the modeled half."""

from enum import Enum


class OptLevel(Enum):
    """The paper's optimization tiers (Sec. III-B), plus the threaded
    rung the functional registry adds on top of the advanced tier."""

    REFERENCE = "reference"
    BASIC = "basic"
    INTERMEDIATE = "intermediate"
    ADVANCED = "advanced"
    PARALLEL = "parallel"

    @property
    def order(self) -> int:
        return ("reference", "basic", "intermediate",
                "advanced", "parallel").index(self.value)
