"""Asymmetric latent-space embeddings for diffusion-cascade prediction.

The package learns, from observed information-diffusion cascades, a latent
influence coordinate per source user and per-source susceptibility
coordinates for the users they reach. Orderings inside cascades become
margin hinge constraints on squared-distance gaps; batch gradient descent
fits the coordinates; prediction ranks a source's candidates by distance
and is scored with average precision.
"""

from casembed.combinations import (
    Combination,
    CombinationTable,
    build_table,
    critical_margin,
    dump_table_tsv,
    extract_triples,
)
from casembed.data import (
    Cascade,
    CascadeDataset,
    CascadeError,
    CascadeParseError,
    CascadeValidationError,
    load_cascade_file,
    parse_cascade_file,
    save_cascade_file,
    serialize_cascades,
    split_dataset,
)
from casembed.evaluate import (
    CascadeScore,
    EvalReport,
    RankedPrediction,
    average_precision,
    evaluate,
    rank_for_source,
    report_json_lines,
    report_tsv,
)
from casembed.model import (
    VARIANTS,
    EmbeddingModel,
    ModelError,
    ModelFormatError,
    init_model,
    load_model,
    load_model_file,
    save_model,
    save_model_file,
)
from casembed.synthetic import emit_cascades, generate_world
from casembed.training import (
    EpochStats,
    TrainConfig,
    TrainHistory,
    accumulate_gradients,
    hinge_loss,
    predicted_gap,
    run_epoch,
    train,
    work_meter,
)

__version__ = "0.1.0"

__all__ = [
    "Cascade",
    "CascadeDataset",
    "CascadeError",
    "CascadeParseError",
    "CascadeValidationError",
    "CascadeScore",
    "Combination",
    "CombinationTable",
    "EmbeddingModel",
    "EpochStats",
    "EvalReport",
    "ModelError",
    "ModelFormatError",
    "RankedPrediction",
    "TrainConfig",
    "TrainHistory",
    "VARIANTS",
    "accumulate_gradients",
    "average_precision",
    "build_table",
    "critical_margin",
    "dump_table_tsv",
    "emit_cascades",
    "evaluate",
    "extract_triples",
    "generate_world",
    "hinge_loss",
    "init_model",
    "load_cascade_file",
    "load_model",
    "load_model_file",
    "parse_cascade_file",
    "predicted_gap",
    "rank_for_source",
    "report_json_lines",
    "report_tsv",
    "run_epoch",
    "save_cascade_file",
    "save_model",
    "save_model_file",
    "serialize_cascades",
    "split_dataset",
    "train",
    "work_meter",
]
