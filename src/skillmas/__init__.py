"""Deterministic engine for coupled skill evolution and executor restructuring."""

from .config import EngineConfig
from .model import (
    BoundedTag,
    CauseLabel,
    CauseObservation,
    EpisodeTrace,
    Executor,
    ExecutorSlice,
    PolicyCard,
    RoundState,
    Skill,
    SkillStatus,
    TaskType,
    TraceShape,
    UtilityTable,
    cluster_skills,
    skill_similarity,
    validate_state,
)
from .orchestrator import (
    ComparisonTable,
    ExperimentResult,
    RoundReport,
    TrajectoryReport,
    run_experiment,
    run_round,
    transplant_stress_test,
)
from .presets import load_preset
from .store import ScenarioPack, parse_scenario
from .world import LatentSkill, Scenario, exec_round, sample_episode

__version__ = "0.1.0"

__all__ = [
    "BoundedTag",
    "CauseLabel",
    "CauseObservation",
    "ComparisonTable",
    "EngineConfig",
    "EpisodeTrace",
    "Executor",
    "ExecutorSlice",
    "ExperimentResult",
    "LatentSkill",
    "PolicyCard",
    "RoundReport",
    "RoundState",
    "Scenario",
    "ScenarioPack",
    "Skill",
    "SkillStatus",
    "TaskType",
    "TraceShape",
    "TrajectoryReport",
    "UtilityTable",
    "cluster_skills",
    "exec_round",
    "load_preset",
    "parse_scenario",
    "run_experiment",
    "run_round",
    "sample_episode",
    "skill_similarity",
    "transplant_stress_test",
    "validate_state",
    "__version__",
]
