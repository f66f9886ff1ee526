"""caplearn: active learning of probabilistic capability models for black-box agents."""

from .abstraction import (
    AbstractState,
    AtomUniverse,
    Condition,
    ConfigurationError,
    DimensionError,
    EncodingError,
    GroundAtom,
    LiteralConjunction,
    literal_of,
    satisfies,
)
from .dataset import EffectPair, Transition, TransitionDataset, effects_of
from .distributions import tv_distance
from .evaluation import (
    EvalConfig,
    evaluation_filter,
    exact_vd,
    generate_eval_dataset,
    ground_truth_transitions,
    model_replay,
    reachable_states,
    sampled_vd,
)
from .learner import (
    LearnerConfig,
    RunLog,
    discover_capabilities,
    execute_query,
    random_walk,
    run,
    sample_initial_state,
)
from .model import (
    Capability,
    CapabilityModel,
    ConditionalEffectRule,
    Partition,
    apply_effect,
    build_models,
    capability_name,
    entailed_successors,
    entails,
    equivalent,
    load_model,
    model_from_json,
    model_to_json,
    model_to_text,
    optimistic_condition,
    partition,
    pessimistic_condition,
    predict,
)
from .synthesis import (
    Query,
    SequencePolicy,
    StatePolicy,
    SynthesisResult,
    random_policy_query,
    synthesize_exact,
    synthesize_sampled,
)

__version__ = "0.1.0"
