"""Single-channel voice separation toolkit.

A gated dual-path recurrent separator trained with a permutation-invariant
multi-scale SI-SNR objective, plus the surrounding apparatus: a minimal
reverse-mode autodiff engine, WAV/manifest I/O, a toy corpus generator,
a speaker embedder, training/evaluation loops, and a CLI.
"""

from .autodiff import Tape, Tensor, grad_check
from .checkpoint import (load_checkpoint, load_embedder, load_separator,
                         save_checkpoint, save_embedder, save_separator)
from .data import (SAMPLE_RATE, ManifestEntry, MixtureSample, ToySpeaker,
                   build_corpus, load_manifest, make_mixture, make_speakers,
                   synth_utterance, wav_read, wav_write)
from .embedder import EmbedderConfig, EmbedderModel, init_embedder, \
    train_embedder
from .errors import (CheckpointError, ConfigurationError, DataError,
                     DegenerateTargetError, DimensionError, FormatError,
                     InputError, NumericError, UsageError, VoicesepError)
from .evalkit import (EvalReport, aligned_si_snri, calibrate_threshold,
                      evaluate, ibm_oracle, irm_oracle, select_count,
                      si_snri, switch_rate, tta_separate)
from .losses import id_loss, multiscale_loss, si_snr, upit
from .model import ModelConfig, SeparatorModel, forward, init_params, separate
from .optim import Adam, clip_global_norm
from .trainer import TrainConfig, train, validate

__version__ = "0.1.0"

__all__ = [
    "Adam", "CheckpointError", "ConfigurationError", "DataError",
    "DegenerateTargetError", "DimensionError", "EmbedderConfig",
    "EmbedderModel", "EvalReport", "FormatError", "InputError",
    "ManifestEntry", "MixtureSample", "ModelConfig", "NumericError",
    "SAMPLE_RATE", "SeparatorModel", "Tape", "Tensor", "ToySpeaker",
    "TrainConfig", "UsageError", "VoicesepError", "aligned_si_snri",
    "build_corpus", "calibrate_threshold", "clip_global_norm", "evaluate",
    "forward", "grad_check", "ibm_oracle", "id_loss", "init_embedder",
    "init_params", "irm_oracle", "load_checkpoint", "load_embedder",
    "load_manifest", "load_separator", "make_mixture", "make_speakers",
    "multiscale_loss", "save_checkpoint", "save_embedder", "save_separator",
    "select_count", "separate", "si_snr", "si_snri", "switch_rate",
    "synth_utterance", "train", "train_embedder", "tta_separate",
    "upit", "validate", "wav_read", "wav_write",
]
