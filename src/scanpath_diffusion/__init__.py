"""Scanpath generation by embedding-space diffusion, plus evaluation tools.

The library covers the full loop: encode sentence/scanpath pairs into a
shared discrete frame, train a denoiser with partial noising over the
fixation channel, sample new scanpaths by anchored reverse diffusion, and
score predictions against human readers with edit-distance metrics,
trivial baselines, and word-level reading measures.
"""

from .baselines import (HumanBaseline, TrainStats, baseline_corpus,
                        human_baseline, trainlabel_baseline, uniform_baseline)
from .config import SCHEMA, ModelConfig, parse_kv_file, resolve_settings
from .corpus import (Corpus, ScanpathRecord, filter_encodable, load_corpus,
                     load_predictors, load_sentences, save_corpus,
                     save_sentences)
from .denoiser import DenoiserParams, init_denoiser
from .embedding import (EmbeddingParams, embed_parts, init_embedding,
                        load_table, round_argmax, round_logits, save_table)
from .encoding import (Batch, EncodedInstance, decode_fixations,
                       encode_instance, stack_instances)
from .errors import ConfigError, CorpusFormatError, ValidationError
from .inference import (GenerationResult, dump_latent_trace,
                        fitting_sentences, generate, sentence_rng)
from .measures import (SUMMARY_MEASURES, ReadingMeasures, reading_measures,
                       reading_measures_many)
from .metrics import levenshtein, levenshtein_many, nld, pearson
from .model import (Model, at_checkpoint_precision, init_model,
                    load_checkpoint, save_checkpoint, tensor_shapes)
from .reports import (EvaluationReport, evaluation_report,
                      export_word_measures, pair_records, record_measures,
                      write_evaluation_report)
from .schedules import (KINDS, NoiseSchedule, TimestepSampler, build_schedule,
                        dump_schedule, posterior_params, q_sample)
from .splits import Fold, SplitPlan, load_split_plan, make_splits, save_split_plan
from .synthetic import synthetic_corpus
from .tokenization import (TokenizedSentence, Vocabulary, build_vocab,
                           tokenize_sentence, tokenize_word)
from .training import AdamW, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "AdamW", "Batch", "ConfigError", "Corpus", "CorpusFormatError",
    "DenoiserParams", "EmbeddingParams", "EncodedInstance",
    "EvaluationReport", "Fold", "GenerationResult", "HumanBaseline", "KINDS",
    "Model", "ModelConfig", "NoiseSchedule", "ReadingMeasures", "SCHEMA",
    "SUMMARY_MEASURES", "ScanpathRecord", "SplitPlan", "TimestepSampler",
    "TokenizedSentence", "TrainResult", "TrainStats", "ValidationError",
    "Vocabulary", "at_checkpoint_precision", "baseline_corpus",
    "build_schedule", "build_vocab",
    "decode_fixations", "dump_latent_trace", "dump_schedule",
    "embed_parts", "encode_instance", "evaluation_report",
    "export_word_measures", "filter_encodable", "fitting_sentences",
    "generate", "human_baseline",
    "init_denoiser", "init_embedding", "init_model", "levenshtein",
    "levenshtein_many", "load_checkpoint", "load_corpus", "load_predictors", "load_sentences",
    "load_split_plan", "load_table", "make_splits", "nld",
    "pair_records", "parse_kv_file", "pearson", "posterior_params", "q_sample",
    "reading_measures", "reading_measures_many", "record_measures", "resolve_settings", "round_argmax", "round_logits",
    "save_checkpoint", "save_corpus", "save_sentences",
    "save_split_plan", "save_table", "sentence_rng", "stack_instances",
    "synthetic_corpus", "tensor_shapes", "tokenize_sentence", "tokenize_word",
    "train", "trainlabel_baseline",
    "uniform_baseline", "write_evaluation_report",
]
