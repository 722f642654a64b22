"""Analyte catalog: the targets of the paper's platform and classification."""

from repro.analytes.catalog import (
    Analyte,
    AnalyteClass,
    GLUCOSE,
    LACTATE,
    GLUTAMATE,
    ARACHIDONIC_ACID,
    CYCLOPHOSPHAMIDE,
    IFOSFAMIDE,
    FTORAFUR,
    ALL_ANALYTES,
    analyte_by_name,
)
from repro.analytes.physiological import (
    PhysiologicalRange,
    ConcentrationTrajectory,
    cohort_mean_molar,
    physiological_range,
    covers_physiological_range,
)

__all__ = [
    "Analyte",
    "AnalyteClass",
    "GLUCOSE",
    "LACTATE",
    "GLUTAMATE",
    "ARACHIDONIC_ACID",
    "CYCLOPHOSPHAMIDE",
    "IFOSFAMIDE",
    "FTORAFUR",
    "ALL_ANALYTES",
    "analyte_by_name",
    "PhysiologicalRange",
    "ConcentrationTrajectory",
    "cohort_mean_molar",
    "physiological_range",
    "covers_physiological_range",
]
