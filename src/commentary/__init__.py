"""Pause-aware real-time video commentary generation and evaluation.

The engine schedules queries to a pluggable multimodal backend over a stream
of per-second video frames, deciding at each point whether to speak or stay
silent, then emits the result as SRT subtitles and scores it against
timestamped human references.
"""

from .backends import (
    GeneratorRequest,
    GeneratorResponse,
    OracleBackend,
    RemoteChatBackend,
    ReplayCache,
    ScriptedBackend,
)
from .core import (
    WAIT_TOKEN,
    Clock,
    CommentaryTrack,
    DecisionOutcome,
    Seconds,
    SimulatedClock,
    Speak,
    Utterance,
    Wait,
    WallClock,
    speaking_timeline,
)
from .evaluation import (
    EmbeddingScorer,
    EvalReport,
    LexicalOverlapScorer,
    SimilarityScorer,
    binned_similarity,
    evaluate,
    load_reference,
    rouge_l,
    timing_alignment,
)
from .media import FrameStore, frames_between, load_manifest
from .prompting import (
    BUILTIN_TEMPLATES,
    Demonstration,
    PromptSet,
    PromptTemplate,
    RenderedPrompt,
    parse_response,
    render_decision,
    render_init,
)
from .strategies import (
    GenerationRecord,
    SpeechRate,
    SpeechRateModel,
    StrategyConfig,
    StrategyKind,
    estimate_duration,
    run_session,
)
from .subtitles import SrtEntry, overlap_proportion, parse_srt, to_srt

__version__ = "0.1.0"

__all__ = [
    "WAIT_TOKEN",
    "Clock",
    "CommentaryTrack",
    "DecisionOutcome",
    "Demonstration",
    "EmbeddingScorer",
    "EvalReport",
    "FrameStore",
    "GenerationRecord",
    "GeneratorRequest",
    "GeneratorResponse",
    "LexicalOverlapScorer",
    "OracleBackend",
    "PromptSet",
    "PromptTemplate",
    "RemoteChatBackend",
    "RenderedPrompt",
    "ReplayCache",
    "ScriptedBackend",
    "Seconds",
    "SimilarityScorer",
    "SimulatedClock",
    "Speak",
    "SpeechRate",
    "SpeechRateModel",
    "SrtEntry",
    "StrategyConfig",
    "StrategyKind",
    "Utterance",
    "Wait",
    "WallClock",
    "BUILTIN_TEMPLATES",
    "binned_similarity",
    "estimate_duration",
    "evaluate",
    "frames_between",
    "load_manifest",
    "load_reference",
    "overlap_proportion",
    "parse_response",
    "parse_srt",
    "render_decision",
    "render_init",
    "rouge_l",
    "run_session",
    "speaking_timeline",
    "timing_alignment",
    "to_srt",
]
